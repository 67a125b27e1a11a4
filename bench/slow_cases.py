"""Reproduce the slow cases that the workloads leave out.

Run from the root of a checkout (it uses ``tests/helpers.py``)::

    python3 bench/slow_cases.py equitable    # n = 4 cake: > 120 s
    python3 bench/slow_cases.py envy-free    # n = 4 pies: 4 of 8 > 15 s
    python3 bench/slow_cases.py envy-free-3  # n = 3 cake, d <= 6: > 20 s
    python3 bench/slow_cases.py pie-audit    # pie share, k = 4, d <= 3

Each call runs under a time limit (SIGALRM) and prints its time, or the
limit when it was reached.
"""

from __future__ import annotations

import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import random_separation, random_valuation  # noqa: E402
from sepfair.exact_mms import pie_exact_mms  # noqa: E402
from sepfair.fairness import (  # noqa: E402
    envy_free_sperner, equitable_bisection, pie_envy_free)
from sepfair.valuations import Topology  # noqa: E402

EPS = Fraction(1, 10**6)


class TimeLimit(Exception):
    pass


def _alarm(signum, frame):
    raise TimeLimit


def timed(label, fn, limit: int) -> None:
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(limit)
    start = time.perf_counter()
    try:
        fn()
        took = f"{time.perf_counter() - start:.1f} s"
    except TimeLimit:
        took = f"over {limit} s"
    finally:
        signal.alarm(0)
    print(f"{label}: {took}", flush=True)


def equitable():
    """equitable_bisection escalates to _equitable_exact, which solves one
    LP per slot assignment of every interior endpoint."""
    rng = random.Random(546)
    for _ in range(4):          # the fourth draw is the slow one
        vs = [random_valuation(rng, max_segments=6) for _ in range(4)]
        s = random_separation(rng, Fraction(1, 3)) / 2
    timed(f"equitable_bisection n=4 s={s}",
          lambda: equitable_bisection(vs, s), 120)


def envy_free():
    """pie_envy_free at n = 4 loses the label pattern and rescans."""
    rng = random.Random(547)
    for i in range(8):
        vs = [random_valuation(rng, Topology.PIE, max_segments=6)
              for _ in range(4)]
        s = random_separation(rng, Fraction(1, 4)) / 2
        timed(f"pie_envy_free n=4 #{i} s={s}",
              lambda: pie_envy_free(vs, s, EPS), 15)


def envy_free_3():
    """The same at n = 3: the seventh cake of seed 549."""
    rng = random.Random(549)
    for _ in range(7):
        vs = [random_valuation(rng, max_segments=6) for _ in range(3)]
        s = random_separation(rng, Fraction(1, 2))
    timed(f"envy_free_sperner n=3 s={s}",
          lambda: envy_free_sperner(vs, s, EPS), 20)


def pie_audit():
    """`sepfair check` on a pie with 3 agents computes pie_exact_mms with
    k = 4 per agent; it enumerates slot assignments per rotation."""
    rng = random.Random(550)
    for i in range(3):
        vs = [random_valuation(rng, Topology.PIE, max_segments=3)
              for _ in range(3)]
        s = random_separation(rng, Fraction(1, 4))
        timed(f"pie_exact_mms k=4 #{i} d={len(vs[0].densities)} s={s}",
              lambda: pie_exact_mms(vs[0], 4, s), 60)


CASES = {"equitable": equitable, "envy-free": envy_free,
         "envy-free-3": envy_free_3, "pie-audit": pie_audit}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(CASES)}}}")
    CASES[sys.argv[1]]()
