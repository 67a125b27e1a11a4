import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sepfair.cake import Relation, approx_mms, decide
from sepfair.errors import InputError
from sepfair.pie import pie_approx_mms
from sepfair.rationals import frac
from sepfair.sessions import QuerySession
from sepfair.valuations import (Interval, PiecewiseConstantValuation,
                                Topology, cut_leftmost, cut_rightmost,
                                minimum_window_value, pieces_separated)

from helpers import (THIRDS, UNIFORM, UNIFORM_PIE, ReferenceValuation,
                     random_valuation, running_sum)

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


PRIMES = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079,
          10091, 10093, 10099, 10103, 10111, 10133, 10139, 10141]


def test_prefix_matches_fraction_running_sum():
    rng = random.Random(20)
    for trial in range(60):
        topology = (Topology.CAKE, Topology.PIE)[trial % 2]
        if trial % 3:
            v = random_valuation(rng, topology, max_segments=12)
        else:
            # pairwise-coprime denominators on breakpoints and weights
            d = rng.randint(1, 7)
            dens = rng.sample(PRIMES, 2 * d)
            cuts = sorted(F(rng.randrange(1, q), q) for q in dens[:d - 1])
            weights = [F(rng.randint(0, 3 * q), q) for q in dens[d:]]
            weights[rng.randrange(d)] += 1
            v = PiecewiseConstantValuation.normalized(
                [0] + cuts + [1], weights, topology)
        assert type(v._prefix) is tuple
        assert all(type(q) is F for q in v._prefix)
        assert list(v._prefix) == running_sum(v.breakpoints, v.densities)


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
    # a window of length 1 is the whole cake or the whole circle
    pie = PiecewiseConstantValuation(("0", "1/4", "1/2", "1"),
                                     ("2", "0", "1"), Topology.PIE)
    for v in (THIRDS, UNIFORM, UNIFORM_PIE, pie):
        assert minimum_window_value(v, 1) == 1


def test_pieces_separated():
    pieces = (Interval(0, F(1, 4)), Interval(F(1, 2), 1))
    assert pieces_separated(pieces, F(1, 4), Topology.CAKE, exact=True)
    assert not pieces_separated(pieces, F(1, 3), Topology.CAKE)
    circle = (Interval(0, F(1, 4)), Interval(F(1, 2), F(3, 4)))
    assert pieces_separated(circle, F(1, 4), Topology.PIE, exact=True)
    assert not pieces_separated(circle, F(3, 10), Topology.PIE)


def test_density_at_reads_its_domain():
    bps, dens = ("0", "1/2", "1"), ("1/2", "3/2")
    cake = PiecewiseConstantValuation(bps, dens, Topology.CAKE)
    pie = PiecewiseConstantValuation(bps, dens, Topology.PIE)
    for x in (F(-1, 2), F(5, 4)):
        for side in (+1, -1):
            with pytest.raises(InputError) as info:
                cake.density_at(x, side)
            assert str(info.value) == f"coordinate {x} outside [0, 1]"
    assert cake.density_at(1) == cake.density_at(1, -1) == F(3, 2)
    assert cake.density_at(0, -1) == F(1, 2)
    # a pie reads x mod 1
    assert pie.density_at(F(5, 4)) == pie.density_at(F(1, 4)) == F(1, 2)
    assert pie.density_at(F(-1, 2)) == F(3, 2)
    assert pie.density_at(F(3, 2), -1) == F(1, 2)
    assert pie.density_at(1, -1) == pie.density_at(0, -1) == F(3, 2)
    assert pie.density_at(1) == F(1, 2)


def _text(q, scale=1):
    return f"{q.numerator * scale}/{q.denominator * scale}"


def _kernel_data(rng, trial):
    """Breakpoints and densities as Fractions: zero runs on a 1/48 grid,
    or pairwise-coprime prime denominators near 10^4."""
    d = rng.randint(1, 10)
    if trial % 3 == 1:
        qs = rng.sample(PRIMES, 2 * min(d, 8))
        d = len(qs) // 2
        cuts = sorted(F(rng.randrange(1, q), q) for q in qs[:d - 1])
        weights = [F(rng.randint(0, 3 * q), q) for q in qs[d:]]
    else:
        cuts = sorted(F(c, 48) for c in rng.sample(range(1, 48), d - 1))
        weights = [F(0) if rng.random() < 0.3 else F(rng.randint(1, 12), 12)
                   for _ in range(d)]
    if not any(weights):
        weights[rng.randrange(d)] = F(1)
    bps = [F(0)] + cuts + [F(1)]
    total = sum(g * (b - a) for a, b, g in zip(bps, bps[1:], weights))
    return bps, [g / total for g in weights]


def _kernel_cases():
    """Valuations given as "a/b" strings (every third one unreduced, such
    as "2/4") with their plain-Fraction reference."""
    rng = random.Random(25)
    for trial in range(36):
        topology = (Topology.CAKE, Topology.PIE)[trial % 2]
        bps, dens = _kernel_data(rng, trial)
        scale = (lambda: rng.randint(2, 4)) if trial % 3 == 2 else (lambda: 1)
        v = PiecewiseConstantValuation([_text(p, scale()) for p in bps],
                                       [_text(g, scale()) for g in dens],
                                       topology)
        zero_runs = [(a + b) / 2 for a, b, g in zip(bps, bps[1:], dens)
                     if g == 0]
        points = sorted({*bps, *zero_runs,
                         *(F(rng.randint(0, 97), 97) for _ in range(4))})
        yield v, ReferenceValuation(bps, dens, topology), points, rng


def test_views_are_reduced_tuples_equal_to_the_inputs():
    for v, ref, _, _ in _kernel_cases():
        for view, want in ((v.breakpoints, ref.bps), (v.densities, ref.dens),
                           (v._prefix, ref.pre)):
            assert type(view) is tuple and list(view) == want
            assert all(type(q) is F for q in view)
            assert all(F(q.numerator, q.denominator) == q
                       and q.denominator > 0 for q in view)


def test_prefix_and_value_match_the_reference():
    for v, ref, points, _ in _kernel_cases():
        for x in points:
            got = v.prefix(x)
            assert type(got) is F and got == ref.prefix(x), (v, x)
        pairs = [(a, b) for a in points for b in points]
        if v.topology is Topology.CAKE:
            pairs = [(a, b) for a, b in pairs if a <= b]
        else:
            # arcs wrap when b < a; 1 + a reads as a
            pairs += [(a + 1, b) for a, b in pairs[::3]]
        for a, b in pairs:
            assert v.value_between(a, b) == ref.value_between(a, b), (v, a, b)


def _cut_targets(v, ref, x, points, rng):
    """0, the whole remainder, just above it, targets that end on a
    breakpoint (so also at the start of every zero run) and one at
    random; on a cake also the ends the cut may stop at."""
    if v.topology is Topology.PIE:
        rest = F(1)
        reach = [ref.value_between(x, p) for p in points]
    else:
        rest = ref.value_between(x, 1)
        reach = [ref.value_between(x, p) for p in points if p >= x]
    alphas = {F(0), rest, rest + F(1, 97), rest * F(rng.randint(1, 96), 97),
              *reach}
    ends = [None]
    if v.topology is Topology.CAKE:
        ends += [p for p in points if p >= x][:4]
    else:
        ends += [p for p in points if p >= x][-2:]
    return sorted(alphas), ends


def test_cuts_match_the_reference():
    for v, ref, points, rng in _kernel_cases():
        anchors = points + ([F(1), F(5, 4)] if v.topology is Topology.PIE
                            else [])
        for x in anchors:
            alphas, ends = _cut_targets(v, ref, x, points, rng)
            for alpha in alphas:
                for end in ends:
                    if end is not None and end < x:
                        continue
                    got = cut_leftmost(v, x, alpha, end)
                    assert got == ref.cut_leftmost(x, alpha, end), \
                        (v, x, alpha, end)
                    assert got is None or type(got) is F
                if v.topology is Topology.CAKE:
                    got = cut_rightmost(v, x, alpha)
                    assert got == ref.cut_rightmost(x, alpha), (v, x, alpha)


@pytest.mark.parametrize("text", [
    "3/0", "-1/2", " 1/2", "1/-2", "0.5", "\u0661/2", "1/\u0662",
    "+1/2", "1/2 ", "1/" + "1" * 5000])
@pytest.mark.parametrize("slot", ["breakpoint", "density"])
def test_constructor_reads_other_text_through_frac(text, slot):
    # text the integer parse does not take: the constructor answers as it
    # does for the value frac reads, or with frac's own error
    if slot == "breakpoint":
        bps, dens = ["0", text, "1"], ["1", "1"]
    else:
        bps, dens = ["0", "1/2", "1"], [text, "3/2"]

    def outcome(make):
        try:
            v = make()
        except InputError as exc:
            return str(exc), type(exc.__cause__)
        return v.breakpoints, v.densities

    want = outcome(lambda: PiecewiseConstantValuation(
        [frac(p) for p in bps], [frac(g) for g in dens]))
    assert outcome(lambda: PiecewiseConstantValuation(bps, dens)) == want


def test_queries_build_no_fraction_views():
    cake = PiecewiseConstantValuation(("0", "1/3", "2/3", "1"),
                                      ("6/5", "0", "9/5"))
    pie = PiecewiseConstantValuation(("0", "1/4", "1/2", "1"),
                                     ("2", "0", "1"), Topology.PIE)

    def views(v):
        return v._bp_view, v._g_view, v._sum_view

    assert views(cake) == views(pie) == (None, None, None)
    assert decide(QuerySession(cake), 2, F(1, 10), F(1, 3),
                  Relation.AT_LEAST)[0]
    approx_mms(QuerySession(cake), 3, F(1, 10), F(1, 64))
    pie_approx_mms(QuerySession(pie), 2, F(1, 10), F(1, 64))
    assert views(cake) == views(pie) == (None, None, None)
