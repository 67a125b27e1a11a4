"""Piecewise-constant valuations on the unit interval or circle.

A valuation is a nonnegative step density on [0, 1], normalized so the whole
resource is worth exactly 1.  The ``cake`` topology is the plain interval;
the ``pie`` topology identifies the endpoints, and all pie coordinates are
canonical in [0, 1) with arcs traversed clockwise (increasing coordinate,
wrapping at 1).

Everything here is exact: coordinates, densities and values are Fractions
and no operation ever rounds.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import InputError
from .rationals import frac

ZERO = Fraction(0)
ONE = Fraction(1)


class Topology(str, enum.Enum):
    CAKE = "cake"
    PIE = "pie"


@dataclass(frozen=True)
class Interval:
    """A connected piece.

    Cake: ``0 <= left <= right <= 1``.  Pie: both endpoints live in [0, 1)
    and ``right < left`` means the piece wraps through 0; the length is
    ``(right - left) mod 1``.
    """

    left: Fraction
    right: Fraction

    def __post_init__(self):
        object.__setattr__(self, "left", frac(self.left))
        object.__setattr__(self, "right", frac(self.right))

    def validate(self, topology: Topology) -> None:
        if topology is Topology.CAKE:
            if not (ZERO <= self.left <= self.right <= ONE):
                raise InputError(f"invalid cake interval {self}")
        else:
            if not (ZERO <= self.left < ONE and ZERO <= self.right < ONE):
                raise InputError(f"invalid pie interval {self}")

    def length(self, topology: Topology = Topology.CAKE) -> Fraction:
        if topology is Topology.CAKE:
            return self.right - self.left
        return (self.right - self.left) % ONE


class PiecewiseConstantValuation:
    """Step density given by breakpoints ``p_0=0 < ... < p_d=1`` and one
    nonnegative density per segment, normalized to total value 1.
    """

    __slots__ = ("topology", "breakpoints", "densities", "_prefix")

    def __init__(self, breakpoints: Sequence, densities: Sequence,
                 topology: Topology = Topology.CAKE):
        # Tuples from lists: tuple(<genexpr>) shrinks onto a free list.
        bps = tuple([frac(p) for p in breakpoints])
        dens = tuple([frac(g) for g in densities])
        if len(bps) < 2 or len(dens) != len(bps) - 1:
            raise InputError("need d+1 breakpoints and d densities")
        if bps[0] != 0 or bps[-1] != 1:
            raise InputError("breakpoints must start at 0 and end at 1")
        # Prefix sums in integers: breakpoints scaled by the lcm of their
        # denominators, densities by the lcm of theirs.
        x_den = lcm(*[p.denominator for p in bps])
        g_den = lcm(*[g.denominator for g in dens])
        xs = [p.numerator * (x_den // p.denominator) for p in bps]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InputError("breakpoints must be strictly increasing")
        if any(g.numerator < 0 for g in dens):
            raise InputError("densities must be nonnegative")
        total = 0
        sums = [0]
        for a, b, g in zip(xs, xs[1:], dens):
            total += g.numerator * (g_den // g.denominator) * (b - a)
            sums.append(total)
        unit = x_den * g_den
        if total != unit:
            raise InputError("valuation not normalized: total value is "
                             f"{Fraction(total, unit)}")
        self.topology = Topology(topology)
        self.breakpoints = bps
        self.densities = dens
        self._prefix = tuple([Fraction(q, unit) for q in sums])

    # -- construction helpers -------------------------------------------------

    @classmethod
    def uniform(cls, topology: Topology = Topology.CAKE):
        return cls((0, 1), (1,), topology)

    @classmethod
    def normalized(cls, breakpoints: Sequence, weights: Sequence,
                   topology: Topology = Topology.CAKE):
        """Build from raw nonnegative weights, rescaling densities so the
        total is exactly 1.  Raises if the total weight is zero."""
        bps = [frac(p) for p in breakpoints]
        dens = [frac(g) for g in weights]
        total = sum(g * (b - a) for (a, b), g in zip(zip(bps, bps[1:]), dens))
        if total <= 0:
            raise InputError("cannot normalize a zero valuation")
        return cls(bps, [g / total for g in dens], topology)

    # -- basic queries ---------------------------------------------------------

    def prefix(self, x: Fraction) -> Fraction:
        """Value of [0, x], exact."""
        x = frac(x)
        if not (ZERO <= x <= ONE):
            raise InputError(f"coordinate {x} outside [0, 1]")
        j = bisect_right(self.breakpoints, x) - 1
        if j >= len(self.densities):  # x == 1
            return self._prefix[-1]
        return self._prefix[j] + self.densities[j] * (x - self.breakpoints[j])

    def value_between(self, a: Fraction, b: Fraction) -> Fraction:
        """Value of the piece from ``a`` to ``b``.

        Cake: requires a <= b.  Pie: the clockwise arc from a to b, which
        wraps through 0 when b < a; a == b is the empty arc, not the whole
        circle.
        """
        a, b = frac(a), frac(b)
        if self.topology is Topology.CAKE:
            if a > b:
                raise InputError(f"cake interval has left {a} > right {b}")
            return self.prefix(b) - self.prefix(a)
        a %= ONE
        b %= ONE
        if a <= b:
            return self.prefix(b) - self.prefix(a)
        return (ONE - self.prefix(a)) + self.prefix(b)

    def value(self, piece: Interval) -> Fraction:
        piece.validate(self.topology)
        return self.value_between(piece.left, piece.right)

    def density_at(self, x: Fraction, side: int = +1) -> Fraction:
        """Density just right (side=+1) or just left (side=-1) of ``x``.

        Just left of 0 is the first segment on a cake and the last one on a
        pie, which wraps round there."""
        x = frac(x)
        j = bisect_right(self.breakpoints, x) - 1
        if side >= 0:
            return self.densities[min(j, len(self.densities) - 1)]
        if j >= 0 and self.breakpoints[j] == x:
            j -= 1
        return self.densities[max(j, 0) if self.topology is Topology.CAKE
                              else j]

    def __eq__(self, other):
        return (isinstance(other, PiecewiseConstantValuation)
                and self.topology == other.topology
                and self.breakpoints == other.breakpoints
                and self.densities == other.densities)

    def __hash__(self):
        return hash((self.topology, self.breakpoints, self.densities))

    def __repr__(self):
        pts = ",".join(str(p) for p in self.breakpoints)
        return f"PiecewiseConstantValuation([{pts}], {self.topology.value})"


# -- operations ----------------------------------------------------------------


def cut_leftmost(v: PiecewiseConstantValuation, x: Fraction, alpha: Fraction,
                 end: Optional[Fraction] = None) -> Optional[Fraction]:
    """First point y (clockwise from x on a pie) with value(v, [x, y]) == alpha.

    Returns None when the value available after x is below alpha.  On a cake
    the cut must lie at or before ``end`` (default 1); a pie cut may wrap
    once around the whole circle.  The cut is one bisection on the prefix
    values for prefix(x) + alpha, O(log d); on a pie a target above 1
    wraps to target - 1.
    """
    x, alpha = frac(x), frac(alpha)
    if alpha < 0:
        raise InputError("cut target must be nonnegative")
    stop = ONE if end is None else frac(end)
    # An explicit end keeps a pie cut on the non-wrapping arc [x, end].
    wraps = v.topology is Topology.PIE and end is None
    if wraps:
        x %= ONE
    elif not (ZERO <= x <= stop <= ONE):
        raise InputError(f"cut anchor {x} outside [0, {stop}]")
    if alpha == 0:
        return x
    target = v.prefix(x) + alpha
    if wraps and target > ONE:
        target, stop = target - ONE, x
    j = bisect_left(v._prefix, target)
    if j == len(v._prefix):
        return None
    # prefix[j - 1] < target <= prefix[j], so segment j - 1 has value.
    y = v.breakpoints[j - 1] + (target - v._prefix[j - 1]) / v.densities[j - 1]
    if y > stop:
        return None
    return y % ONE if wraps else y


def cut_rightmost(v: PiecewiseConstantValuation, x: Fraction,
                  alpha: Fraction) -> Optional[Fraction]:
    """Last point y with value(v, [x, y]) == alpha.

    This is the reverse-cut primitive.  It is only available on explicit
    valuations (cake topology); deliberately, no query session exposes it.
    """
    if v.topology is not Topology.CAKE:
        raise InputError("cut_rightmost is defined on the cake only")
    if cut_leftmost(v, x, alpha) is None:      # also validates x and alpha
        return None
    # cut_leftmost's search with bisect_right: the first breakpoint worth
    # more than the target ends the zero-density run after the leftmost cut.
    target = v.prefix(x) + frac(alpha)
    j = bisect_right(v._prefix, target)
    if j == len(v._prefix):
        return ONE
    return (v.breakpoints[j - 1]
            + (target - v._prefix[j - 1]) / v.densities[j - 1])


def minimum_window_value(v: PiecewiseConstantValuation,
                         s: Fraction) -> Fraction:
    """Exact minimum of value(v, [x, x+s]) over all placements of a length-s
    window (cake: x in [0, 1-s]; pie: all x, window wrapping allowed).

    The window value is piecewise linear in x with kinks only where x or
    x+s crosses a breakpoint, so scanning those candidates is exact.
    """
    s = frac(s)
    if not (ZERO <= s <= ONE):
        raise InputError("window length must be in [0, 1]")
    cands = set()
    if v.topology is Topology.CAKE:
        cands.update((ZERO, ONE - s))
        for p in v.breakpoints:
            if ZERO <= p <= ONE - s:
                cands.add(p)
            if ZERO <= p - s <= ONE - s:
                cands.add(p - s)
        return min(v.value_between(x, x + s) for x in sorted(cands))
    for p in v.breakpoints:
        cands.add(p % ONE)
        cands.add((p - s) % ONE)
    return min(v.value_between(x, (x + s) % ONE) for x in sorted(cands))


def pieces_separated(pieces: Sequence[Interval], s: Fraction,
                     topology: Topology, exact: bool = False) -> bool:
    """Check s-separation of an ordered list of pieces.

    Pieces must be listed left to right (clockwise for a pie).  With
    ``exact`` the gaps between consecutive pieces must equal s exactly and,
    on a cake, the first piece must start at 0 and the last end at 1.
    """
    s = frac(s)
    if not pieces:
        return True
    if topology is Topology.CAKE:
        pos = ZERO
        for i, piece in enumerate(pieces):
            piece.validate(topology)
            if piece.left < pos:
                return False
            if i > 0:
                gap = piece.left - pieces[i - 1].right
                if gap < s or (exact and gap != s):
                    return False
            pos = piece.right
        if exact and (pieces[0].left != 0 or pieces[-1].right != 1):
            return False
        return True
    # Pie: walk clockwise from the first piece and make sure the pieces and
    # their gaps fit around the circle exactly once.
    if len(pieces) == 1:
        piece = pieces[0]
        piece.validate(topology)
        gap = ONE - piece.length(topology)   # the rest of the circle
        return gap >= s and (not exact or gap == s)
    used = ZERO
    for i, piece in enumerate(pieces):
        piece.validate(topology)
        used += piece.length(topology)
        nxt = pieces[(i + 1) % len(pieces)]
        gap = (nxt.left - piece.right) % ONE
        if gap < s or (exact and gap != s):
            return False
        used += gap
    return used == ONE
