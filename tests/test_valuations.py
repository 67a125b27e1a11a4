import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sepfair.errors import InputError
from sepfair.rationals import frac
from sepfair.valuations import (Interval, PiecewiseConstantValuation,
                                Topology, cut_leftmost, cut_rightmost,
                                minimum_window_value, pieces_separated)

from helpers import THIRDS, UNIFORM, UNIFORM_PIE, random_valuation

rationals = st.fractions(min_value=0, max_value=1, max_denominator=48)


def test_uniform_integral():
    assert UNIFORM.value(Interval(F(1, 5), F(1, 2))) == F(3, 10)


def test_worked_example_prefix():
    assert THIRDS.value(Interval(0, F(1, 3))) == F(2, 5)
    assert THIRDS.value(Interval(F(1, 3), F(2, 3))) == 0
    assert THIRDS.value(Interval(F(2, 3), 1)) == F(3, 5)


def test_degenerate_interval_is_zero():
    assert THIRDS.value(Interval(F(1, 2), F(1, 2))) == 0


def test_out_of_domain_errors():
    with pytest.raises(InputError):
        UNIFORM.value(Interval(F(1, 2), F(3, 2)))
    with pytest.raises(InputError):
        UNIFORM.value_between(F(3, 4), F(1, 4))


def test_pie_wrapping_value():
    assert UNIFORM_PIE.value_between(F(9, 10), F(1, 10)) == F(1, 5)


def test_normalization_enforced():
    with pytest.raises(InputError):
        PiecewiseConstantValuation((0, 1), (F(1, 2),))


@pytest.mark.parametrize("text", [
    "3/", "/3", "/", "", "0/0", "1/0", " 1/3", "1 /3", "+2", "-1/3",
    "00/004", "1_0/3", "\u0663/4", "1.5", "1e3", "abc", "12", "6/4",
    "\u00b2/3", "1" * 5000])
def test_frac_matches_fraction(text):
    # the digit fast path agrees with Fraction's parser, errors included
    try:
        want = F(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(InputError) as info:
            frac(text)
        assert str(info.value) == f"not a rational number: {text!r}"
        assert type(info.value.__cause__) is type(exc)
        assert str(info.value.__cause__) == str(exc)
    else:
        got = frac(text)
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)


def _running_sum(v):
    prefix = [F(0)]
    for a, b, g in zip(v.breakpoints, v.breakpoints[1:], v.densities):
        prefix.append(prefix[-1] + g * (b - a))
    return prefix


def test_prefix_matches_fraction_running_sum():
    rng = random.Random(20)
    primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079,
              10091, 10093, 10099, 10103, 10111, 10133, 10139, 10141]
    for trial in range(60):
        topology = (Topology.CAKE, Topology.PIE)[trial % 2]
        if trial % 3:
            v = random_valuation(rng, topology, max_segments=12)
        else:
            # pairwise-coprime denominators on breakpoints and weights
            d = rng.randint(1, 7)
            dens = rng.sample(primes, 2 * d)
            cuts = sorted(F(rng.randrange(1, q), q) for q in dens[:d - 1])
            weights = [F(rng.randint(0, 3 * q), q) for q in dens[d:]]
            weights[rng.randrange(d)] += 1
            v = PiecewiseConstantValuation.normalized(
                [0] + cuts + [1], weights, topology)
        assert type(v._prefix) is tuple
        assert all(type(q) is F for q in v._prefix)
        assert list(v._prefix) == _running_sum(v)


@pytest.mark.parametrize("bps, dens, message", [
    ((0,), (), "need d+1 breakpoints and d densities"),
    ((0, 1), (1, 1), "need d+1 breakpoints and d densities"),
    (("1/5", 1), (1,), "breakpoints must start at 0 and end at 1"),
    ((0, "1/2", "1/2", 1), (1, 1, 1),
     "breakpoints must be strictly increasing"),
    ((0, "2/3", "1/3", 1), (1, -1, 1),
     "breakpoints must be strictly increasing"),
    ((0, "1/2", 1), ("5/2", "-1/2"), "densities must be nonnegative"),
    ((0, "1/3", 1), ("1/2", "3/7"),
     "valuation not normalized: total value is 19/42"),
    ((0, "1/4", 1), (2, 2), "valuation not normalized: total value is 2"),
])
def test_construction_errors(bps, dens, message):
    with pytest.raises(InputError) as info:
        PiecewiseConstantValuation(bps, dens)
    assert str(info.value) == message


def test_cut_leftmost_uniform():
    assert cut_leftmost(UNIFORM, 0, F(1, 2)) == F(1, 2)


def test_cut_leftmost_worked_example():
    assert cut_leftmost(THIRDS, 0, F(2, 5)) == F(1, 3)


def test_cut_leftmost_insufficient():
    assert cut_leftmost(UNIFORM, F(4, 5), F(1, 2)) is None


def test_cut_rightmost_examples():
    assert cut_rightmost(THIRDS, 0, F(2, 5)) == F(2, 3)
    assert cut_rightmost(UNIFORM, 0, F(1, 2)) == F(1, 2)
    # target zero: the far end of the zero run starting at x
    assert cut_rightmost(THIRDS, F(1, 2), 0) == F(2, 3)
    assert cut_rightmost(UNIFORM, F(1, 4), 0) == F(1, 4)


def test_cut_rightmost_rejects_pie():
    with pytest.raises(InputError):
        cut_rightmost(UNIFORM_PIE, 0, F(1, 2))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_partition_values_sum_to_one(rnd, pieces):
    v = random_valuation(rnd)
    cuts = sorted(F(rnd.randint(0, 60), 60) for _ in range(pieces - 1))
    points = [F(0)] + cuts + [F(1)]
    total = sum(v.value_between(a, b) for a, b in zip(points, points[1:]))
    assert total == 1


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), rationals, rationals)
def test_cut_leftmost_is_minimal(rnd, x, y):
    v = random_valuation(rnd)
    x, y = min(x, y), max(x, y)
    got = cut_leftmost(v, x, v.value_between(x, y))
    assert got is not None and x <= got <= y


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), rationals)
def test_cut_rightmost_not_left_of_leftmost(rnd, alpha):
    v = random_valuation(rnd)
    left = cut_leftmost(v, 0, alpha)
    right = cut_rightmost(v, 0, alpha)
    assert (left is None) == (right is None)
    if left is not None:
        assert right >= left
        assert v.value_between(0, right) == alpha
        # the cuts coincide exactly when value starts accruing again
        # immediately after the leftmost one
        if left < 1:
            assert (right == left) == (v.density_at(left, +1) > 0)


def _cut_cases(seed, topology):
    """Seeded valuations (d <= 64, 30% worthless segments) with anchors on
    breakpoints, inside zero runs and anywhere, and targets at 0, at a
    breakpoint, at the whole available value, just above it and at 1."""
    rng = random.Random(seed)
    for _ in range(40):
        v = random_valuation(rng, topology, max_segments=64, zero_prob=0.3,
                             denom=24)
        bps = v.breakpoints
        zero_runs = [(a + b) / 2 for a, b, g in zip(bps, bps[1:], v.densities)
                     if g == 0]
        anchors = [rng.choice(bps), F(rng.randint(0, 97), 97)]
        anchors += rng.sample(zero_runs, min(2, len(zero_runs)))
        for x in anchors:
            ends = [None, x + (1 - x) * F(rng.randint(0, 7), 8),
                    rng.choice([b for b in bps if b >= x])]
            for end in ends:
                stop = 1 if end is None else end
                if topology is Topology.PIE and end is None:
                    avail = F(1)
                else:
                    avail = v.value_between(x, stop)
                b = rng.choice([b for b in bps if b >= x])
                alphas = {F(0), avail, avail + F(1, 97), F(1),
                          avail * F(rng.randint(1, 96), 97),
                          v.value_between(x, min(b, stop))}
                for alpha in sorted(alphas):
                    yield v, x, end, alpha, avail


def _clockwise_value(v, x, y, alpha):
    if v.topology is Topology.PIE and y == x % 1 and alpha > 0:
        return F(1)                     # a full turn ends where it began
    return v.value_between(x, y)


@pytest.mark.parametrize("topology", [Topology.CAKE, Topology.PIE])
def test_cut_leftmost_rule(topology):
    for v, x, end, alpha, avail in _cut_cases(11, topology):
        y = cut_leftmost(v, x, alpha, end)
        assert (y is None) == (alpha > avail), (v, x, end, alpha)
        if y is None:
            continue
        assert _clockwise_value(v, x, y, alpha) == alpha
        if end is not None:
            assert x <= y <= end
        if alpha > 0:
            assert v.density_at(y, -1) > 0, (v, x, end, alpha, y)


def test_density_left_of_zero():
    # just left of 0 is the last segment on a pie, the first on a cake
    bps, dens = ("0", "1/4", "1/2", "1"), ("2", "0", "1")
    pie = PiecewiseConstantValuation(bps, dens, Topology.PIE)
    cake = PiecewiseConstantValuation(bps, dens, Topology.CAKE)
    assert pie.density_at(0, -1) == 1
    assert cake.density_at(0, -1) == 2
    assert pie.density_at(F(1, 4), -1) == cake.density_at(F(1, 4), -1) == 2
    assert pie.density_at(0, +1) == cake.density_at(0, +1) == 2


def test_cut_leftmost_wraps_on_a_pie():
    v = PiecewiseConstantValuation(("0", "1/4", "1/2", "1"),
                                   ("2", "0", "1"), Topology.PIE)
    assert cut_leftmost(v, F(3, 4), F(1, 2)) == F(1, 8)
    assert cut_leftmost(v, F(3, 4), 1) == F(3, 4)
    assert cut_leftmost(v, F(3, 8), 1) == F(1, 4)   # zero run before x
    assert cut_leftmost(v, F(1, 2), F(1, 2)) == 0   # exactly at 1
    assert cut_leftmost(v, F(1, 2), F(1, 2), end=F(3, 4)) is None
    assert cut_leftmost(v, F(1, 2), F(1, 4), end=F(3, 4)) == F(3, 4)


def test_cut_rightmost_rule():
    for v, x, end, alpha, avail in _cut_cases(12, Topology.CAKE):
        if end is not None:
            continue
        y = cut_rightmost(v, x, alpha)
        assert (y is None) == (alpha > avail), (v, x, alpha)
        if y is None:
            continue
        assert v.value_between(x, y) == alpha
        assert y == 1 or v.density_at(y, +1) > 0, (v, x, alpha, y)
        assert y >= cut_leftmost(v, x, alpha)


def test_minimum_window_value_examples():
    assert minimum_window_value(THIRDS, F(1, 3)) == 0
    assert minimum_window_value(UNIFORM, F(1, 4)) == F(1, 4)
    assert minimum_window_value(UNIFORM_PIE, F(1, 4)) == F(1, 4)


def test_pieces_separated():
    pieces = (Interval(0, F(1, 4)), Interval(F(1, 2), 1))
    assert pieces_separated(pieces, F(1, 4), Topology.CAKE, exact=True)
    assert not pieces_separated(pieces, F(1, 3), Topology.CAKE)
    circle = (Interval(0, F(1, 4)), Interval(F(1, 2), F(3, 4)))
    assert pieces_separated(circle, F(1, 4), Topology.PIE, exact=True)
    assert not pieces_separated(circle, F(3, 10), Topology.PIE)
