"""The benchmark's tracer wraps library names by attribute; if one of them
disappears from the library, this fails here rather than in a traced
benchmark run."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import sepfair.cli  # noqa: F401  (install() looks up every module it wraps)
from sepfair import fairness

from helpers import THIRDS

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_restores():
    original = fairness.exact_mms
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert fairness.exact_mms is not original
        assert fairness.exact_mms(THIRDS, 2, F(1, 3))[0] == F(2, 5)
        assert len(tracer.start) > 0
    finally:
        tracer.uninstall()
    assert fairness.exact_mms is original
