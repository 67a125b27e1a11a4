import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Tier-1 runs the same examples every time and writes no example database.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")
