"""Metamorphic properties: relations between the outputs on two related
instances, which need no oracle and so hold at any size."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from sepfair.exact_mms import exact_mms, pie_exact_mms
from sepfair.fairness import equitable_bisection
from sepfair.valuations import PiecewiseConstantValuation, Topology

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
