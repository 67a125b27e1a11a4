"""Metamorphic properties: relations between the outputs on two related
instances, which need no oracle and so hold at any size."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from sepfair.exact_mms import exact_mms, pie_exact_mms
from sepfair.fairness import equitable_bisection
from sepfair.valuations import (Interval, PiecewiseConstantValuation,
                                Topology, pieces_separated)

from helpers import random_separation, random_valuation

metamorphic = settings(max_examples=100, deadline=None, derandomize=True,
                       database=None)


def split_segment(rnd, v, s):
    """v with one segment split at an interior point, the same density on
    both sides.  The point is a multiple of s or 1 minus one when such a
    point lies inside the segment, else a random one."""
    j = rnd.randrange(len(v.densities))
    a, b = v.breakpoints[j], v.breakpoints[j + 1]
    marks = [x for k in range(1, int(1 / s) + 1) for x in (k * s, 1 - k * s)
             if a < x < b]
    p = rnd.choice(marks) if marks else a + (b - a) * F(rnd.randint(1, 9), 10)
    return PiecewiseConstantValuation(
        (*v.breakpoints[:j + 1], p, *v.breakpoints[j + 1:]),
        (*v.densities[:j + 1], *v.densities[j:]), v.topology)


def rotate(v, t):
    """The pie v turned clockwise by t in (0, 1): its value at x + t is
    v's at x."""
    segments = []
    for a, b, g in zip(v.breakpoints, v.breakpoints[1:], v.densities):
        a, b = a + t, b + t
        if a < 1 < b:
            segments += [(a, F(1), g), (F(0), b - 1, g)]
        else:
            segments.append((a - 1, b - 1, g) if a >= 1 else (a, b, g))
    segments.sort()
    return PiecewiseConstantValuation(
        [a for a, _, _ in segments] + [1], [g for _, _, g in segments],
        Topology.PIE)


def mirror(v):
    """The cake v read from right to left: its value at x is v's at
    1 - x."""
    return PiecewiseConstantValuation(
        [1 - b for b in reversed(v.breakpoints)], v.densities[::-1])


@metamorphic
@given(st.randoms(use_true_random=False))
def test_exact_mms_ignores_a_split_segment(rnd):
    n = rnd.randint(1, 4)
    s = random_separation(rnd, F(1, max(n - 1, 1)))
    v = random_valuation(rnd, max_segments=5, zero_prob=0.3)
    assert exact_mms(split_segment(rnd, v, s), n, s) == exact_mms(v, n, s)


@metamorphic
@given(st.randoms(use_true_random=False))
def test_pie_exact_mms_ignores_a_split_segment(rnd):
    k = rnd.randint(2, 4)
    s = random_separation(rnd, F(1, k))
    v = random_valuation(rnd, Topology.PIE, max_segments=5, zero_prob=0.3)
    assert (pie_exact_mms(split_segment(rnd, v, s), k, s)
            == pie_exact_mms(v, k, s))


@metamorphic
@given(st.randoms(use_true_random=False), st.sampled_from(Topology))
def test_equitable_ignores_a_split_segment(rnd, topology):
    n = rnd.randint(1, 4)
    pie = topology is Topology.PIE
    s = random_separation(rnd, F(1, n) if pie else F(1, max(n - 1, 1)))
    vs = [random_valuation(rnd, topology, max_segments=4, zero_prob=0.3)
          for _ in range(n)]
    order = rnd.sample(range(n), n)
    alloc = equitable_bisection(vs, s, order)
    agent = rnd.randrange(n)
    vs[agent] = split_segment(rnd, vs[agent], s)
    assert equitable_bisection(vs, s, order) == alloc


@metamorphic
@given(st.randoms(use_true_random=False))
def test_pie_exact_mms_ignores_a_rotation(rnd):
    k = rnd.randint(2, 4)
    s = random_separation(rnd, F(1, k))
    v = random_valuation(rnd, Topology.PIE, max_segments=5, zero_prob=0.3)
    t = rnd.choice([F(rnd.randint(1, 95), 96), s, 1 - s,
                    *v.breakpoints[1:-1]])
    assert pie_exact_mms(rotate(v, t), k, s) == pie_exact_mms(v, k, s)


@metamorphic
@given(st.randoms(use_true_random=False))
def test_exact_mms_ignores_a_mirror(rnd):
    """The share stays, and v's witness read from the right is a witness
    for the mirror: separated, every piece worth the share (at least 0
    when the share is 0)."""
    n = rnd.randint(1, 4)
    s = random_separation(rnd, F(1, max(n - 1, 1)))
    v = random_valuation(rnd, max_segments=5, zero_prob=0.3)
    share, witness = exact_mms(v, n, s)
    w = mirror(v)
    assert exact_mms(w, n, s)[0] == share
    pieces = [Interval(1 - p.right, 1 - p.left)
              for p in reversed(witness.pieces)]
    assert pieces_separated(pieces, s, Topology.CAKE)
    values = [w.value(p) for p in pieces]
    assert min(values) == share
    assert share == 0 or set(values) == {share}
