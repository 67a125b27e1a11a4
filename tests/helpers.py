"""Shared test utilities: instance generators and independent oracles."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, lcm

import numpy as np

from sepfair import simplex
from sepfair.exact_mms import _maxmin_lp
from sepfair.valuations import (ONE, ZERO, PiecewiseConstantValuation,
                                Topology, pieces_separated)

THIRDS = PiecewiseConstantValuation(
    ("0", "1/3", "2/3", "1"), ("6/5", "0", "9/5"))
UNIFORM = PiecewiseConstantValuation.uniform()
UNIFORM_PIE = PiecewiseConstantValuation.uniform(Topology.PIE)


def random_valuation(rng, topology=Topology.CAKE, max_segments=4,
                     zero_prob=0.25, denom=12):
    """Random normalized step density with rational data; some segments may
    be worthless (zero density) to exercise degenerate paths."""
    d = rng.randint(1, max_segments)
    cuts = sorted(rng.sample(range(1, 4 * denom), d - 1)) if d > 1 else []
    bps = [ZERO] + [Fraction(c, 4 * denom) for c in cuts] + [ONE]
    weights = []
    for _ in range(d):
        if rng.random() < zero_prob:
            weights.append(ZERO)
        else:
            weights.append(Fraction(rng.randint(1, denom), denom))
    if all(w == 0 for w in weights):
        weights[rng.randrange(d)] = Fraction(1)
    return PiecewiseConstantValuation.normalized(bps, weights, topology)


def random_separation(rng, upper, denom=40):
    """Random rational s in (0, upper)."""
    hi = max(int(upper * denom) - 1, 1)
    num = rng.randint(1, hi)
    s = Fraction(num, denom)
    if s >= upper:
        s = upper * Fraction(rng.randint(1, 9), 10)
    return s


def running_sum(bps, dens):
    """prefix(p) at every breakpoint p, summed in Fractions."""
    prefix = [ZERO]
    for a, b, g in zip(bps, bps[1:], dens):
        prefix.append(prefix[-1] + g * (b - a))
    return prefix


class ReferenceValuation:
    """prefix, value_between and the two cuts in plain Fraction arithmetic:
    a Fraction bisection on the breakpoints or on the running prefix sums,
    then one segment's Fraction arithmetic.  The oracle for the integer
    kernel of ``PiecewiseConstantValuation``."""

    def __init__(self, bps, dens, topology):
        self.bps = [Fraction(p) for p in bps]
        self.dens = [Fraction(g) for g in dens]
        self.pre = running_sum(self.bps, self.dens)
        self.topology = topology

    def prefix(self, x):
        j = bisect_right(self.bps, x) - 1
        if j >= len(self.dens):
            return self.pre[-1]
        return self.pre[j] + self.dens[j] * (x - self.bps[j])

    def value_between(self, a, b):
        if self.topology is Topology.PIE:
            a, b = a % ONE, b % ONE
            if a > b:
                return ONE - self.prefix(a) + self.prefix(b)
        return self.prefix(b) - self.prefix(a)

    def _reach(self, j, target):
        return (self.bps[j - 1]
                + (target - self.pre[j - 1]) / self.dens[j - 1])

    def cut_leftmost(self, x, alpha, end=None):
        stop = ONE if end is None else end
        wraps = self.topology is Topology.PIE and end is None
        if wraps:
            x %= ONE
        if alpha == 0:
            return x
        target = self.prefix(x) + alpha
        if wraps and target > ONE:
            target, stop = target - ONE, x
        j = bisect_left(self.pre, target)
        if j == len(self.pre):
            return None
        y = self._reach(j, target)
        if y > stop:
            return None
        return y % ONE if wraps else y

    def cut_rightmost(self, x, alpha):
        if self.cut_leftmost(x, alpha) is None:
            return None
        target = self.prefix(x) + alpha
        j = bisect_right(self.pre, target)
        return ONE if j == len(self.pre) else self._reach(j, target)


def max_density(v):
    return max(v.densities)


def verify_partition(v, partition, threshold, exact=False):
    """Every piece worth at least the threshold and separation valid."""
    assert pieces_separated(partition.pieces, partition.s, v.topology,
                            exact=exact)
    for piece in partition.pieces:
        assert v.value(piece) >= threshold


def verify_allocation(alloc, vs, thresholds=None):
    ordered = [piece for _, piece in sorted(
        alloc.assignment.items(), key=lambda kv: kv[1].left)]
    assert pieces_separated(ordered, alloc.s, alloc.topology)
    if thresholds is not None:
        for i, v in enumerate(vs):
            assert v.value(alloc.assignment[i]) >= thresholds[i]


def pie_grid_oracle(v, k, s, grid=2000):
    """Underestimating 1-out-of-k share on a pie: best min-value over
    partitions whose endpoints lie on the 1/grid lattice with separators of
    at least ceil(s*grid) lattice steps.

    Always at most the true share (any accepted threshold comes with a
    valid partition); within 2*max_density/grid + s-rounding of it (shrink
    a true optimal partition's endpoints onto the lattice).
    """
    s = Fraction(s)
    su = ceil(s * grid)
    prefix = [ZERO]
    pos = ZERO
    step = Fraction(1, grid)
    acc = ZERO
    for i in range(grid):
        acc += v.value_between(pos, pos + step)
        prefix.append(acc)
        pos += step
    den = lcm(*(p.denominator for p in prefix))
    P = [int(p * den) for p in prefix]
    # doubled prefix for wrap-around walks
    P2 = np.array(P + [P[grid] + x for x in P[1:]], dtype=np.int64)
    top = 2 * grid
    big = top + su + 1   # unreachable sentinel
    starts = np.arange(grid, dtype=np.int64)

    def feasible(t_int):
        # next-piece-start map: first lattice point whose prefix gain from z
        # reaches t, plus one separator of su lattice steps
        h = np.searchsorted(P2, P2 + t_int, side="left") + su
        h = np.minimum(h, big)
        ext = np.full(big + 1, big, dtype=np.int64)
        ext[:top + 1] = h[:top + 1]
        pos = starts.copy()
        for _ in range(k):
            pos = ext[np.minimum(pos, big)]
        return bool(np.any(pos <= starts + grid))

    lo, hi = 0, den // k + 1   # the share never exceeds 1/k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, den)


def pie_enum_oracle(v, k, s, max_lists_per_rotation=100_000):
    """Exact 1-out-of-k share on a pie (k >= 2, k*s < 1) by enumeration.

    Unroll the circle at the start of every segment t; with every endpoint
    pinned to a segment of the unrolled axis each piece value is linear in
    (z, x_1..x_{k-1}), so one LP per monotone slot assignment gives the best
    partition with those slots, and the maximum over all of them is the
    share.  Exponential in k; for small instances only.
    """
    p, g = v.breakpoints, v.densities
    d = len(g)
    best = ZERO
    free = 2 * k - 1
    # pieces [z, x_1], [x_1+s, x_2], .., [x_{k-1}+s, z+1-s] over the columns
    # (z, x_1..x_{k-1}, c)
    z = {0: ONE}
    exprs = [((z, ZERO) if q == 1 else ({q - 1: ONE}, s),
              (z, ONE - s) if q == k else ({q: ONE}, ZERO))
             for q in range(1, k + 1)]
    for t in range(1, d + 1):
        # Unrolled axis [p_{t-1}, 1 + p_t]: original segments from t on,
        # wrapped around, with segment t appearing at both ends.
        bps = [p[t - 1]] + [p[j] for j in range(t, d + 1)] \
            + [ONE + p[j] for j in range(1, t + 1)]
        dens = [g[(t - 1 + j) % d] for j in range(d + 1)]
        nseg = len(dens)
        prefix = [ZERO]
        for (a, b), gg in zip(zip(bps, bps[1:]), dens):
            prefix.append(prefix[-1] + gg * (b - a))

        count = 1
        for i in range(free):
            count = count * (nseg + i) // (i + 1)
        assert count <= max_lists_per_rotation, "pie instance too large"

        for mid in combinations_with_replacement(range(1, nseg + 1), free):
            seq = (1, *mid)      # the first piece starts in slot 1
            pairs = tuple(zip(seq[::2], seq[1::2]))
            if not _pie_forward_feasible(k, s, bps, pairs):
                continue
            res = _maxmin_lp(bps, dens, prefix, exprs, pairs, k + 1)
            if res.status == simplex.OPTIMAL and res.objective > best:
                best = res.objective
    return best


def _pie_forward_feasible(k, s, bps, pairs):
    """Necessary condition for one unrolled slot assignment, ignoring the
    correlation between z and the wrap endpoint (sound to skip on False)."""
    zlo, zhi = bps[0], bps[1]
    lo, hi = zlo, zhi
    for q, (a_slot, b_slot) in enumerate(pairs, start=1):
        gap = ZERO if q == 1 else s
        lo = max(lo + gap, bps[a_slot - 1])
        hi = min(hi + gap, bps[a_slot])
        if lo > hi:
            return False
        lo2 = max(lo, bps[b_slot - 1])
        hi2 = bps[b_slot]
        if q == k:
            lo2 = max(lo2, zlo + ONE - s)
            hi2 = min(hi2, zhi + ONE - s)
        if lo2 > hi2:
            return False
        lo, hi = lo2, hi2
    return True


def sliding_window_min(v, s):
    from sepfair.valuations import minimum_window_value
    return minimum_window_value(v, s)
