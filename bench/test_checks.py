"""Tests of the benchmark's output checkers: known answers, and corrupted
outputs that must be rejected.  Run with ``python3 bench/test_checks.py``
or with pytest."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

import checks
import gen
from gen import Agent, Instance

THIRDS_FILE = Path(__file__).resolve().parent.parent / "instances" / \
    "thirds.json"


def thirds() -> Instance:
    data = json.loads(THIRDS_FILE.read_text())
    return Instance(data["topology"], F(data["s"]),
                    [Agent([F(x) for x in a["breakpoints"]],
                           [F(g) for g in a["densities"]])
                     for a in data["agents"]])


def rejected(op, out, queries=0) -> bool:
    try:
        checks.check(op, out, queries)
    except checks.CheckError:
        return True
    return False


def piece(a, b):
    return {"left": str(a), "right": str(b)}


def test_thirds_share_is_two_fifths():
    inst = thirds()
    a, s = inst.agents[0], inst.s
    assert s == F(1, 3)
    assert checks.atleast(a, 2, s, F(2, 5))
    assert not checks.greater(a, 2, s, F(2, 5))
    assert checks.greater(a, 2, s, F(2, 5) - F(1, 10**9))
    assert not checks.atleast(a, 2, s, F(2, 5) + F(1, 10**9))


def mms_op():
    return gen.op("mms-exact", [], thirds(), n=2)


def mms_out(mms="2/5", partition=((0, F(1, 3)), (F(2, 3), 1))):
    return {"agent": 0, "n": 2, "s": "1/3", "mms": mms,
            "partition": [piece(a, b) for a, b in partition]}


def test_mms_exact_accepts_the_true_share():
    assert not rejected(mms_op(), mms_out())


def test_mms_exact_rejects_corruptions():
    op = mms_op()
    assert rejected(op, mms_out(mms="1/2"))           # witness too poor
    assert rejected(op, mms_out(mms="1/3"))           # share is larger
    assert rejected(op, mms_out(partition=((0, F(1, 3)), (F(1, 2), 1))))
    assert rejected(op, mms_out(partition=((0, F(1, 3)),)))
    out = mms_out()
    out["mms"] = 0.4                                  # float, not rational
    assert rejected(op, out)


def test_decide_rejects_wrong_answer_and_budget():
    inst = thirds()
    op = gen.op("decide", [], inst, agent=0, n=2, rel="greater", r=F(1, 3))
    good = {"answer": True, "queries": 3}
    assert not rejected(op, good, 3)
    assert rejected(op, {"answer": False, "queries": 3}, 3)
    assert rejected(op, {"answer": True, "queries": 4}, 4)   # budget 2n-1
    assert rejected(op, {"answer": True, "queries": 2}, 3)   # miscounted
    eq = gen.op("decide", [], inst, agent=0, n=2, rel="equal", r=F(2, 5))
    assert not rejected(eq, {"answer": True, "queries": 5}, 5)
    assert rejected(eq, {"answer": False, "queries": 5}, 5)


def test_allocation_checks():
    inst = thirds()
    op = gen.op("allocate-eq", [], inst)
    items = [{"agent": 0, "left": "0", "right": "1/3", "value": "2/5"},
             {"agent": 1, "left": "2/3", "right": "1", "value": "3/5"}]
    out = {"topology": "cake", "s": "1/3", "allocation": items}
    assert rejected(op, out)                          # gap 1/5 > eps
    ef = gen.op("allocate-ef", [], inst)
    assert rejected(ef, out)                          # agent 0 envies
    swapped = [dict(items[0], agent=1), dict(items[1], agent=0)]
    assert rejected(ef, dict(out, allocation=swapped))   # agent 1 envies
    mms = gen.op("allocate-mms", [], inst)
    assert not rejected(mms, out, 2)                  # both get >= 2/5
    close = [dict(items[0]), dict(items[1], left="1/2",
                                  value=str(F(3, 5)))]
    assert rejected(mms, dict(out, allocation=close), 2)   # gap below s


def test_audit_checks():
    inst = thirds()
    alloc = {0: (F(0), F(1, 3)), 1: (F(2, 3), F(1))}
    op = gen.op("check-cake", [], inst, alloc)
    good = {"envy_max": "1/5", "equitability_gap": "1/5",
            "separation_ok": True, "mms_dominance": [True, True]}
    assert not rejected(op, good)
    assert rejected(op, dict(good, envy_max="0"))
    assert rejected(op, dict(good, equitability_gap="1/10"))
    assert rejected(op, dict(good, separation_ok=False))
    assert rejected(op, dict(good, mms_dominance=[True, False]))
    short = {0: (F(0), F(1, 4)), 1: (F(2, 3), F(1))}
    op = gen.op("check-cake", [], inst, short)
    out = {"envy_max": str(F(3, 5) - F(3, 10)),
           "equitability_gap": str(F(3, 5) - F(3, 10)),
           "separation_ok": True, "mms_dominance": [False, True]}
    assert not rejected(op, out)
    assert rejected(op, dict(out, mms_dominance=[True, True]))


def test_pie_checks_on_the_uniform_circle():
    uniform = Agent([0, 1], [1])
    s, k = F(1, 10), 3
    share = (1 - k * s) / k
    assert checks.pie_atleast_found(uniform, k, s, share)
    assert not checks.pie_greater_found(uniform, k, s, share)
    assert checks.pie_share_upper(uniform, k, s) == share
    inst = Instance("pie", s, [uniform])
    op = gen.op("mms-approx-pie", [], inst, agent=0, k=k, eps=F(1, 20))
    marks = [F(j, 40) for j in range(40)]
    assert len(marks) + 1 <= checks.pie_approx_budget(F(1, 20))
    r = F(9, 40)                          # the last mark below 7/30
    wit = [piece(F(0), r), piece(r + s, 2 * r + s),
           piece(2 * r + 2 * s, 3 * r + 2 * s)]
    good = {"agent": 0, "k": k, "r": str(r), "queries": 41, "witness": wit}
    assert not rejected(op, good, 41)
    assert rejected(op, dict(good, r="7/40"), 41)     # more than eps below
    assert rejected(op, dict(good, r="1/4"), 41)      # witness too poor
    assert rejected(op, dict(good, witness=wit[:2]), 41)


def test_pie_decisions():
    rng = random.Random(7)
    for k in (2, 3, 5):
        s = F(1, 4 * k)
        a = gen.ceiling_pie(rng, k, s, 12)
        assert a.prefix[-1] == 1
        assert checks.ceiling_reached(a, k, s)
        assert not checks.ceiling_reached(a, k, s * 2)
        assert checks.positive_reached(a, k, s)
    uniform = Agent([0, 1], [1])
    assert not checks.ceiling_reached(uniform, 2, F(1, 10))
    half = Agent([0, F(1, 2), 1], [2, 0])             # all value in [0, 1/2)
    assert checks.positive_reached(half, 3, F(1, 4) - F(1, 100))
    assert not checks.positive_reached(half, 3, F(1, 4))
    inst = Instance("pie", F(1, 8), [half])
    op = gen.op("pie-decide", [], inst, agent=0, k=2, mode="positive")
    good = {"agent": 0, "k": 2, "mode": "positive", "answer": True,
            "queries": 2}
    assert not rejected(op, good, 2)
    assert rejected(op, dict(good, answer=False), 2)
    assert rejected(op, dict(good, queries=8), 8)     # budget 4k-1


def test_greedy_matches_brute_force_on_a_grid():
    """For two pieces the share is the maximum over x of
    min(v[0, x], v[x+s, 1]); a fine grid search approaches it from below.
    The share pinned down by bisecting with the greedy at-least test must
    be at least the grid optimum and within the grid's resolution of it."""
    rng = random.Random(3)
    for _ in range(30):
        a = gen.random_agent(rng, 4)
        n, s = 2, F(rng.randint(1, 5), 12)
        # bisect the share with the greedy, then check the pinned value
        lo, hi = F(0), F(1)
        for _ in range(40):
            mid = (lo + hi) / 2
            if checks.atleast(a, n, s, mid):
                lo = mid
            else:
                hi = mid
        assert checks.atleast(a, n, s, lo)
        assert not checks.atleast(a, n, s, hi)
        # two pieces: the share is max over x of min(v[0,x], v[x+s,1])
        best = max(min(checks.value(a, 0, x), checks.value(a, x + s, 1))
                   for x in (F(j, 2400) for j in range(2401))
                   if x + s <= 1)
        assert best <= lo + F(1, 2**39)
        assert lo - best <= 2 * max(a.dens) / 2400


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
