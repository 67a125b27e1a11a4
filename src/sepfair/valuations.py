"""Piecewise-constant valuations on the unit interval or circle.

A valuation is a nonnegative step density on [0, 1], normalized so the whole
resource is worth exactly 1.  The ``cake`` topology is the plain interval;
the ``pie`` topology identifies the endpoints, and all pie coordinates are
canonical in [0, 1) with arcs traversed clockwise (increasing coordinate,
wrapping at 1).

Everything here is exact: coordinates, densities and values are Fractions
and no operation ever rounds.  A valuation keeps its data as integers
(breakpoints, densities and prefix sums, each over one common denominator),
so ``prefix``, ``value_between`` and ``cut_leftmost`` locate their points by
integer bisection and build one Fraction, the answer.  The Fraction tuples
``breakpoints``, ``densities`` and ``_prefix`` are built on first use, so a
valuation read only through queries never builds them.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Tuple

from .errors import InputError
from .rationals import frac, ratio

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

    Held as integers: breakpoint ``i`` is ``_xs[i] / _x_den``, density ``i``
    is ``_gs[i] / _g_den`` and ``prefix(p_i)`` is ``_sums[i] / _unit`` with
    ``_unit = _x_den * _g_den``.  ``breakpoints``, ``densities`` and
    ``_prefix`` are the same values as tuples of Fractions, built on first
    use and cached.
    """

    __slots__ = ("topology", "_xs", "_x_den", "_gs", "_g_den", "_sums",
                 "_unit", "_bp_view", "_g_view", "_sum_view")

    def __init__(self, breakpoints: Sequence, densities: Sequence,
                 topology: Topology = Topology.CAKE):
        bps = [ratio(p) for p in breakpoints]
        dens = [ratio(g) for g in densities]
        if len(bps) < 2 or len(dens) != len(bps) - 1:
            raise InputError("need d+1 breakpoints and d densities")
        if bps[0][0] != 0 or bps[-1][0] != bps[-1][1]:
            raise InputError("breakpoints must start at 0 and end at 1")
        # Breakpoints scaled by the lcm of their denominators, densities by
        # the lcm of theirs.
        x_den = lcm(*[b for _, b in bps])
        g_den = lcm(*[b for _, b in dens])
        xs = [a * (x_den // b) for a, b in bps]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise InputError("breakpoints must be strictly increasing")
        gs = [a * (g_den // b) for a, b in dens]
        if any(g < 0 for g in gs):
            raise InputError("densities must be nonnegative")
        total = 0
        sums = [0]
        for a, b, g in zip(xs, xs[1:], gs):
            total += g * (b - a)
            sums.append(total)
        unit = x_den * g_den
        if total != unit:
            raise InputError("valuation not normalized: total value is "
                             f"{Fraction(total, unit)}")
        self.topology = Topology(topology)
        self._xs, self._x_den = xs, x_den
        self._gs, self._g_den = gs, g_den
        self._sums, self._unit = sums, unit
        self._bp_view = self._g_view = self._sum_view = None

    # The views are tuples from lists: tuple(<genexpr>) shrinks onto a free
    # list.
    @property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        if self._bp_view is None:
            x_den = self._x_den
            self._bp_view = tuple([Fraction(x, x_den) for x in self._xs])
        return self._bp_view

    @property
    def densities(self) -> Tuple[Fraction, ...]:
        if self._g_view is None:
            g_den = self._g_den
            self._g_view = tuple([Fraction(g, g_den) for g in self._gs])
        return self._g_view

    @property
    def _prefix(self) -> Tuple[Fraction, ...]:
        """prefix(p) at every breakpoint p."""
        if self._sum_view is None:
            unit = self._unit
            self._sum_view = tuple([Fraction(q, unit) for q in self._sums])
        return self._sum_view

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

    def _scaled(self, n: int, d: int) -> int:
        """prefix(n/d) times ``_unit * d``, for 0 <= n <= d: one bisection
        and integer arithmetic."""
        xs = self._xs
        t = n * self._x_den
        j = bisect_right(xs, t // d) - 1
        if j == len(self._gs):  # n/d == 1
            return self._unit * d
        return self._sums[j] * d + self._gs[j] * (t - xs[j] * d)

    def prefix(self, x: Fraction) -> Fraction:
        """Value of [0, x], exact."""
        x = frac(x)
        n, d = x.numerator, x.denominator
        if not 0 <= n <= d:
            raise InputError(f"coordinate {x} outside [0, 1]")
        return Fraction(self._scaled(n, d), self._unit * d)

    def value_between(self, a: Fraction, b: Fraction) -> Fraction:
        """Value of the piece from ``a`` to ``b``.

        Cake: requires a <= b.  Pie: the clockwise arc from a to b, which
        wraps through 0 when b < a; a == b is the empty arc, not the whole
        circle.
        """
        a, b = frac(a), frac(b)
        na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
        den = self._unit * da * db
        if self.topology is Topology.CAKE:
            if na * db > nb * da:
                raise InputError(f"cake interval has left {a} > right {b}")
            if not 0 <= nb <= db:
                raise InputError(f"coordinate {b} outside [0, 1]")
            if na < 0:                  # a <= b <= 1
                raise InputError(f"coordinate {a} outside [0, 1]")
            wrap = 0
        else:
            na %= da
            nb %= db
            wrap = den if na * db > nb * da else 0
        return Fraction(self._scaled(nb, db) * da - self._scaled(na, da) * db
                        + wrap, den)

    def value(self, piece: Interval) -> Fraction:
        piece.validate(self.topology)
        return self.value_between(piece.left, piece.right)

    def density_at(self, x: Fraction, side: int = +1) -> Fraction:
        """Density just right (side=+1) or just left (side=-1) of ``x``.

        A cake takes x in [0, 1]; a pie reads x mod 1.  Just left of 0 is
        the first segment on a cake and the last one on a pie, which wraps
        round there."""
        x = frac(x)
        n, d = x.numerator, x.denominator
        if self.topology is Topology.PIE:
            n %= d
        elif not 0 <= n <= d:
            raise InputError(f"coordinate {x} outside [0, 1]")
        xs, t = self._xs, n * self._x_den
        j = bisect_right(xs, t // d) - 1
        dens = self.densities
        if side >= 0:
            return dens[min(j, len(dens) - 1)]
        if xs[j] * d == t:      # x is a breakpoint
            j -= 1
        return dens[max(j, 0) if self.topology is Topology.CAKE else j]

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


def _target(v: PiecewiseConstantValuation, n: int, d: int,
            alpha: Fraction) -> Tuple[int, int]:
    """(t, e) with prefix(n/d) + alpha == t / (v._unit * e)."""
    e = d * alpha.denominator
    return (v._scaled(n, d) * alpha.denominator
            + alpha.numerator * v._unit * d), e


def _reach(v: PiecewiseConstantValuation, j: int, t: int,
           e: int) -> Tuple[int, int]:
    """The point (num, den) of segment j - 1 where the prefix reaches
    t / (v._unit * e); segment j - 1 must have positive density."""
    g = v._gs[j - 1]
    return (v._xs[j - 1] * e * g + t - v._sums[j - 1] * e,
            v._x_den * e * g)


def cut_leftmost(v: PiecewiseConstantValuation, x: Fraction, alpha: Fraction,
                 end: Optional[Fraction] = None) -> Optional[Fraction]:
    """First point y (clockwise from x on a pie) with value(v, [x, y]) == alpha.

    Returns None when the value available after x is below alpha.  On a cake
    the cut must lie at or before ``end`` (default 1); a pie cut may wrap
    once around the whole circle.  The cut is one bisection on the integer
    prefix sums for prefix(x) + alpha, O(log d); on a pie a target above 1
    wraps to target - 1.
    """
    x, alpha = frac(x), frac(alpha)
    if alpha.numerator < 0:
        raise InputError("cut target must be nonnegative")
    sn, sd = (1, 1) if end is None else ratio(end)
    n, d = x.numerator, x.denominator
    # An explicit end keeps a pie cut on the non-wrapping arc [x, end].
    wraps = v.topology is Topology.PIE and end is None
    if wraps:
        if not 0 <= n < d:
            x %= ONE
            n, d = x.numerator, x.denominator
    elif not (0 <= n and n * sd <= sn * d and sn <= sd):
        raise InputError(f"cut anchor {x} outside [0, {Fraction(sn, sd)}]")
    if alpha.numerator == 0:
        return x
    t, e = _target(v, n, d, alpha)
    whole = v._unit * e
    if wraps and t > whole:
        t, sn, sd = t - whole, n, d
    sums = v._sums
    j = bisect_left(sums, -(-t // e))
    if j == len(sums):
        return None
    # sums[j - 1] < target <= sums[j], so segment j - 1 has value.
    yn, yd = _reach(v, j, t, e)
    if yn * sd > sn * yd:
        return None
    return Fraction(yn % yd if wraps else yn, yd)


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
    x = frac(x)
    t, e = _target(v, x.numerator, x.denominator, frac(alpha))
    j = bisect_right(v._sums, t // e)
    if j == len(v._sums):
        return ONE
    return Fraction(*_reach(v, j, t, e))


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
    if s == ONE and v.topology is Topology.PIE:
        return ONE              # the whole circle, not the empty arc (x, x)
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
