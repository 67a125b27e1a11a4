"""Exact best-guaranteed-share computation for explicit valuations.

The best min-value over partitions of a stretch into pieces separated by
exactly s, each piece valued by its own step density, is found by one
parametric greedy, ``_max_share``.  It walks the threshold c upward from 0.
Between two consecutive events (a piece start or cut crossing a
breakpoint) every start and cut of the greedy is affine in c, and so is the
value left for the last piece; the share is where that value first meets c
or where the greedy breaks.  ``exact_mms`` runs it with n copies of one
valuation on the cake, ``pie_exact_mms`` on every opening of the pie at (or
s past) a breakpoint, and ``fairness.equitable_bisection`` with the agents'
valuations in their order.  ``_pieces_worth`` turns the value into pieces
worth exactly that much each, which certifies at-least; each cake share
is also checked by the explicit strictly-greater decision, which must
fail.  No LP is solved on these paths.

The explicit decisions are ``cake``'s greedies asked of a valuation
directly, with no session: ``explicit_decide_greater`` is ``cake._greater``
on an uncounted view of it, and ``explicit_decide_atleast`` and
``_pieces_worth`` share one leftmost walk, ``_leftmost_greedy``.

The slot-pinned placement model (``_position_exprs``, ``_slot_pairs``,
``_placement_rows``, ``_piece_value`` and ``_maxmin_lp``) turns a segment
assignment of every endpoint into one small LP.  It serves the exact
equitable and envy-free enumerations in ``fairness`` and the enumeration
oracle ``brute_mms_interval_enum`` (every monotone assignment, maximum
taken).  ``solve_lp_exact`` is that LP for one assignment on one
valuation, and ``select_interval_list`` reads an assignment off the
witness of ``exact_mms``, on which that LP reaches the share.

All arithmetic is exact; every LP solution is verified against its
constraints with zero residual before being trusted.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from . import simplex
from .cake import (Allocation, Partition, _check_params, _greater,
                   _trivial_partition, mms_fair_allocation)
from .errors import InputError, InternalError, ProtocolError
from .rationals import frac
from .sessions import QuerySession
from .valuations import (ONE, ZERO, Interval, PiecewiseConstantValuation,
                         Topology, cut_leftmost)


# -- the slot-pinned placement model -------------------------------------------
#
# Once every piece endpoint is pinned to a slot (the stretch between two
# consecutive breakpoints), each endpoint is an affine form in the cut
# variables, each piece value is affine too, and one small LP settles the
# assignment.  An affine form is (coeffs, const), coeffs a {column: coef}
# dict.


def _position_exprs(n, s, lo, hi):
    """Affine forms of the endpoints of pieces [lo, x_1], [x_1+s, x_2], ..,
    [x_{n-1}+s, hi] over x_1..x_{n-1} (columns 0..n-2), one (left, right)
    pair per piece."""
    exprs = []
    for q in range(1, n + 1):
        left = ({}, lo) if q == 1 else ({q - 2: ONE}, s)
        right = ({}, hi) if q == n else ({q - 1: ONE}, ZERO)
        exprs.append((left, right))
    return exprs


def _slot_pairs(nslots, n):
    """Every weakly increasing slot assignment of the 2n endpoints of n
    pieces that starts in slot 1 and ends in slot ``nslots``, as one
    (left slot, right slot) pair per piece."""
    for mid in combinations_with_replacement(range(1, nslots + 1), 2 * n - 2):
        seq = (1, *mid, nslots)
        yield tuple(zip(seq[::2], seq[1::2]))


def _placement_rows(edges, exprs, pairs, nvars):
    """Rows (a_ub, b_ub) over ``nvars`` columns that keep each endpoint in
    its slot [edges[slot-1], edges[slot]], then the piece's left <= right,
    piece by piece; None when a constant endpoint breaks these."""
    a_ub: List[List[Fraction]] = []
    b_ub: List[Fraction] = []
    for (left, right), slots in zip(exprs, pairs):
        for (coeffs, const), slot in zip((left, right), slots):
            lo, hi = edges[slot - 1], edges[slot]
            if not coeffs:
                if not lo <= const <= hi:
                    return None
                continue
            for sign, bound in ((-ONE, const - lo), (ONE, hi - const)):
                row = [ZERO] * nvars
                for col, a in coeffs.items():
                    row[col] = sign * a
                a_ub.append(row)
                b_ub.append(bound)
        if not (left[0] or right[0]):
            if left[1] > right[1]:
                return None
            continue
        row = [ZERO] * nvars
        for col, a in left[0].items():
            row[col] += a
        for col, a in right[0].items():
            row[col] -= a
        a_ub.append(row)
        b_ub.append(right[1] - left[1])
    return a_ub, b_ub


def _piece_value(edges, dens, prefix, left, right, a, b, nvars):
    """One agent's value of the piece [left, right] with its ends in slots
    a and b, given her density on each slot and her prefix value at each
    edge, as an affine form (coefficients over ``nvars`` columns, const)."""
    gl, gr = dens[a - 1], dens[b - 1]
    const = edges[a] * gl + (prefix[b - 1] - prefix[a]) - edges[b - 1] * gr
    coeffs = [ZERO] * nvars
    for col, x in left[0].items():
        coeffs[col] -= gl * x
    const -= gl * left[1]
    for col, x in right[0].items():
        coeffs[col] += gr * x
    const += gr * right[1]
    return coeffs, const


def _maxmin_lp(edges, dens, prefix, exprs, pairs, nvars):
    """Maximize c, the last of ``nvars`` columns, with every piece placed in
    its slots and worth at least c.  Returns the simplex result, or None
    when a constant endpoint is misplaced."""
    a_ub: List[List[Fraction]] = []
    b_ub: List[Fraction] = []
    for (left, right), (a, b) in zip(exprs, pairs):
        rows = _placement_rows(edges, [(left, right)], [(a, b)], nvars)
        if rows is None:
            return None
        a_ub += rows[0]
        b_ub += rows[1]
        coeffs, const = _piece_value(edges, dens, prefix, left, right, a, b,
                                     nvars)
        a_ub.append([-x for x in coeffs[:-1]] + [ONE])    # c <= value
        b_ub.append(const)
    return simplex.solve_lp([ZERO] * (nvars - 1) + [ONE], a_ub, b_ub)


def solve_lp_exact(v: PiecewiseConstantValuation, s, t,
                   entries) -> Optional[Tuple[Fraction, Tuple[Fraction, ...]]]:
    """The best c for pieces [0, x_1], [x_1+s, x_2], .., [x_{k-1}+s, t],
    each worth at least c, with the q-th piece's ends in the 1-based
    segments ``entries[q]`` = (left, right): (c, (-s, x_1, .., t)), or None
    when no such pieces exist.  Every constraint is re-checked with zero
    residual.
    """
    k = len(entries)
    s = _check_params(k, s, t)
    flat = [i for pair in entries for i in pair]
    if any(a > b for a, b in zip(flat, flat[1:])):
        raise InputError(f"interval list not monotone: {entries}")
    if flat[0] < 1:
        raise InputError("segment indices are 1-based")
    if flat[-1] > len(v.densities):
        raise InputError("segment index beyond the last segment")
    res = _maxmin_lp(v.breakpoints, v.densities, v._prefix,
                     _position_exprs(k, s, ZERO, t), entries, k)
    if res is None or res.status == simplex.INFEASIBLE:
        return None
    if res.status != simplex.OPTIMAL:
        raise InternalError(f"piece-placement LP reported {res.status}")
    cuts = (-s, *res.x[:-1], t)
    c = res.objective
    p = v.breakpoints
    for q, (ell, r) in enumerate(entries, start=1):
        y, y2 = cuts[q - 1] + s, cuts[q]
        if not (p[ell - 1] <= y <= p[ell] and p[r - 1] <= y2 <= p[r]
                and y <= y2):
            raise InternalError("LP solution violates a placement constraint")
        if v.value_between(y, y2) < c:
            raise InternalError("LP solution violates a value constraint")
    return c, cuts


# -- explicit greedy decisions -------------------------------------------------


def _leftmost_greedy(vs, c, lo, hi, s):
    """The leftmost greedy at c on [lo, hi]: each piece is cut where it is
    first worth c to its own valuation, the next starts s later.  Returns
    the starts (one more than pieces) and the cuts, or None when a piece
    worth c does not fit."""
    starts, cuts = [lo], []
    for v in vs:
        y = None if starts[-1] > hi else cut_leftmost(v, starts[-1], c, end=hi)
        if y is None:
            return None
        cuts.append(y)
        starts.append(y + s)
    return starts, cuts


# No caller in the library; kept while bench/tracing.py names it.
def explicit_decide_atleast(v: PiecewiseConstantValuation, parts: int,
                            s: Fraction, r: Fraction, lo: Fraction,
                            hi: Fraction) -> bool:
    """Can [lo, hi] be split into ``parts`` s-separated pieces worth >= r
    each?  The leftmost greedy, as in the session-based decision, on the
    explicit valuation; degenerate (zero-length) pieces are allowed."""
    if parts <= 0:
        raise InputError("parts must be positive")
    if r <= 0:
        return hi - lo >= (parts - 1) * s
    return _leftmost_greedy([v] * parts, r, lo, hi, s) is not None


def explicit_decide_greater(v: PiecewiseConstantValuation, parts: int,
                            s: Fraction, r: Fraction) -> bool:
    """Can the cake be split into ``parts`` s-separated pieces worth > r
    each?  This is ``cake``'s strictly-greater greedy asked of ``v``
    directly, with no session and so no query counted."""
    if parts <= 0:
        raise InputError("parts must be positive")
    view = SimpleNamespace(domain_end=ONE, known_total=ONE,
                           cut=partial(cut_leftmost, v), eval=v.value_between)
    return _greater(view, parts, s, r)


# No caller in the library; kept while bench/tracing.py names it.
def select_interval_list(v: PiecewiseConstantValuation, n: int,
                         s) -> Tuple[Tuple[int, int], ...]:
    """The 1-based segments of the ends of each piece of the partition that
    ``exact_mms`` returns, one (left, right) pair per piece: an assignment
    on which ``solve_lp_exact`` reaches the share.  A point on a breakpoint
    counts in the segment to its right, and 1 in the last segment."""
    _, part = exact_mms(v, n, s)
    d = len(v.densities)

    def slot(x):
        return min(bisect_right(v.breakpoints, x), d)
    return tuple((slot(p.left), slot(p.right)) for p in part.pieces)


# -- the parametric greedy engine ----------------------------------------------


def _max_share(views, lo, hi, s) -> Fraction:
    """Largest c such that [lo, hi] splits into pieces with exact-s gaps,
    the q-th worth at least c to the q-th step density.  ``views`` holds
    one (breakpoints, densities, prefix values) triple per piece, left to
    right (the arrays may extend past [lo, hi]); assumes
    (len(views)-1)*s <= hi - lo.

    Walks c upward from 0.  At each c the right-limit greedy (each cut past
    the zero run it lands in) fixes the slot of every start and cut.  Until
    the next c at which one of them reaches the end of its slot, each is
    affine in c, a + b*c, and so is the value R(c) left for the last piece.
    The walk stops at c when the greedy breaks or R(c) <= c, returns the
    root of R(c) = c when it comes first, and otherwise moves c to that
    slot end.
    """
    n = len(views)
    bps, dens, prefix = views[-1]
    j = min(bisect_right(bps, hi) - 1, len(dens) - 1)
    top = prefix[j] + dens[j] * (hi - bps[j])
    c = ZERO
    while True:
        a, b = lo, ZERO         # the current start is a + b*c
        events = []             # the c at which a start or cut leaves its slot
        for q, (bps, dens, prefix) in enumerate(views):
            last = len(dens) - 1
            x = a + b * c
            if x > hi:
                return c
            j = min(bisect_right(bps, x) - 1, last)
            if b and x < bps[j + 1]:
                events.append((bps[j + 1] - a) / b)
            # the prefix value at the start, base + slope*c
            base = prefix[j] + dens[j] * (a - bps[j])
            slope = dens[j] * b
            if q == n - 1:
                break
            k = bisect_right(prefix, base + (slope + 1) * c) - 1
            if k > last:
                return c
            a = bps[k] + (base - prefix[k]) / dens[k]
            b = (slope + 1) / dens[k]
            events.append((bps[k + 1] - a) / b)
            a += s
        r0 = top - base         # R(c) = r0 - slope*c
        if r0 - slope * c <= c:
            return c
        root = r0 / (1 + slope)
        c = min(events, default=root)
        if root <= c:
            return root


def _pieces_worth(vs, c, lo, hi, s) -> Tuple[Interval, ...]:
    """Pieces from lo to hi with exact-s gaps, the q-th worth exactly c to
    vs[q], for the c that ``_max_share`` returns on these valuations.

    The leftmost greedy at c gives every piece its earliest start A_q and
    its cut from there.  Walking right to left from hi, each piece starts
    at the leftmost point from which it is worth exactly c, but not before
    A_q; that is A_q itself when the piece ends at that cut.  The starts
    that such pieces can reach form an interval, so at the largest c the
    first start lands on lo; anything else raises ``InternalError``.
    """
    walk = _leftmost_greedy(vs, c, lo, hi, s)
    if walk is None:
        raise InternalError(f"no pieces worth {c} fit")
    pieces, end = [], hi
    for v, a, y in reversed(list(zip(vs, *walk))):
        if end != y:
            a = cut_leftmost(v, a, v.value_between(a, end) - c, end=end)
        pieces.append(Interval(a, end))
        end = a - s
    pieces.reverse()
    if pieces[0].left != lo or any(v.value_between(p.left, p.right) != c
                                   for v, p in zip(vs, pieces)):
        raise InternalError(f"pieces worth exactly {c} do not fill the span")
    return tuple(pieces)


def exact_mms(v: PiecewiseConstantValuation, n: int,
              s) -> Tuple[Fraction, Partition]:
    """Exact best guaranteed share over n pieces separated by s, with an
    optimal partition achieving it (the optimum is attained, not just
    approached).

    The share comes from the parametric greedy ``_max_share``; when it is
    positive, the partition is ``_pieces_worth`` at that share, so every
    piece is worth exactly the share.
    """
    if v.topology is not Topology.CAKE:
        raise InputError("exact_mms runs on cakes")
    s = _check_params(n, s)
    if not explicit_decide_greater(v, n, s, ZERO):
        return ZERO, _trivial_partition(n, s, ONE)
    share = _max_share([(v.breakpoints, v.densities, v._prefix)] * n, ZERO,
                       ONE, s)
    # Self-certification, independent of the walk: at-least holds, since
    # n pieces worth exactly the share fill the cake, and greater fails.
    pieces = _pieces_worth([v] * n, share, ZERO, ONE, s)
    if explicit_decide_greater(v, n, s, share):
        raise InternalError("computed share is below the true optimum")
    return share, Partition(s, pieces)


# -- independent oracle ---------------------------------------------------------


def _forward_feasible(entries, p, s, t) -> bool:
    """Cheap necessary condition: propagate the feasible range of each cut
    point left to right; an empty range proves the LP infeasible."""
    lo = hi = -s
    k = len(entries)
    for q, (ell, r) in enumerate(entries, start=1):
        lo = max(lo, p[ell - 1] - s)
        hi = min(hi, p[ell] - s)
        if lo > hi:
            return False
        lo2 = max(p[r - 1], lo + s)
        hi2 = p[r]
        if q == k:
            lo2, hi2 = max(lo2, t), min(hi2, t)
        if lo2 > hi2:
            return False
        lo, hi = lo2, hi2
    return True


def brute_mms_interval_enum(v: PiecewiseConstantValuation, n: int, s,
                            max_lists: int = 200_000) -> Fraction:
    """Exhaustive oracle: solve the piece-placement LP for every monotone
    segment assignment and return the maximum.

    Exponential in n, intended for small instances only (guarded by
    ``max_lists``); used to validate :func:`exact_mms`.
    """
    if v.topology is not Topology.CAKE:
        raise InputError("the enumeration oracle runs on cakes")
    s = _check_params(n, s)
    if n == 1:
        return ONE
    d = len(v.densities)
    free = 2 * n - 2
    count = 1
    for i in range(free):
        count = count * (d + i) // (i + 1)
    if count > max_lists:
        raise InputError(f"instance too large: {count} assignments")
    best = ZERO
    for entries in _slot_pairs(d, n):
        if not _forward_feasible(entries, v.breakpoints, s, ONE):
            continue
        sol = solve_lp_exact(v, s, ONE, entries)
        if sol is not None and sol[0] > best:
            best = sol[0]
    return best


def exact_mms_allocation(vs: Sequence[PiecewiseConstantValuation],
                         s) -> Allocation:
    """Serve every agent at least her exact guaranteed share.

    Computes each agent's exact share, then runs the moving-knife protocol
    with those shares as thresholds; the outcome is verified against the
    explicit valuations before being returned.
    """
    if any(v.topology is not Topology.CAKE for v in vs):
        raise InputError("exact allocation runs on cakes")
    n = len(vs)
    s = _check_params(n, s)
    shares = [exact_mms(v, n, s)[0] for v in vs]
    sessions = [QuerySession(v) for v in vs]
    alloc = mms_fair_allocation(sessions, s, shares)
    for i, v in enumerate(vs):
        if v.value(alloc.assignment[i]) < shares[i]:
            raise ProtocolError(
                f"agent {i} received less than her exact share", agent=i)
    return alloc


# -- exact pie benchmark ---------------------------------------------------------


def pie_exact_mms(v: PiecewiseConstantValuation, k: int, s) -> Fraction:
    """Exact 1-out-of-k guaranteed share on a pie, explicit valuations only.

    A pie partition into k pieces with k exact-s separators is the cake
    partition of the arc [z, z+1-s] opened at the first piece's start z.
    Some optimal partition has a piece start on a breakpoint b, or a piece
    end on one (then the next piece starts at b+s): with every endpoint's
    segment fixed the share is a linear program in (z, cuts, c), and at an
    optimal vertex with c > 0 no piece is empty, so some endpoint is pinned
    to a breakpoint.  The share is therefore the largest ``_max_share`` over
    the openings z in {b, b+s}, run on a doubled view of the circle.
    """
    if v.topology is not Topology.PIE:
        raise InputError("pie_exact_mms runs on pies")
    if k < 1:
        raise InputError("need k >= 1")
    if k * frac(s) == 1:            # the separators fill the circle
        return ZERO
    s = _check_params(k + 1, s)

    p = v.breakpoints
    # from lists: tuple(<genexpr>) shrinks onto a free list
    bps = p + tuple([ONE + b for b in p[1:]])
    dens = v.densities * 2
    prefix = v._prefix + tuple([ONE + x for x in v._prefix[1:]])
    openings = sorted({z % ONE for b in p for z in (b, b + s)})
    return max(_max_share([(bps, dens, prefix)] * k, z, z + ONE - s, s)
               for z in openings)
