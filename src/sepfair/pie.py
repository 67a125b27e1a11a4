"""Pie protocols: ordinal allocations, threshold decisions, approximation.

On a circle, n pieces need n separators and there is no natural starting
point, so a cake's cardinal guarantee is out of reach.  The allocations
open the pie at s and run a cake protocol on [s, 1] to reach ordinal
levels (1-out-of-(n+1) and its plural generalization); the rest decide or
approximate one agent's share.  Agents are reached only through sessions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil
from typing import List, Optional, Sequence, Tuple

from .cake import (Allocation, Partition, _check_params, _greater,
                   _trivial_partition, approx_mms, mms_fair_allocation,
                   ordinal_allocation_2n_minus_1)
from .errors import InputError, InternalError, ProtocolError
from .rationals import frac
from .sessions import SubcakeSession
from .valuations import ONE, ZERO, Interval, Topology


def pie_allocation_ordinal(sessions: Sequence, s, ells: Sequence[int],
                           thresholds: Sequence) -> Allocation:
    """The cake's moving knife on the pie opened at s, on the caller's
    thresholds: n(n+1)/2 queries, n(n+1)/2 - 1 cuts and 1 eval.

    Sound whenever thresholds[i] is at most agent i's ell_i-out-of-
    (ell_i*n+1) share: the separator [0, s] destroys at most one piece of
    her best such partition, and the ell_i*n pieces left on [s, 1], taken
    ell_i consecutive pieces at a time, make n separated pieces worth
    thresholds[i] or more each.  So ``mms_fair_allocation`` on [s, 1]
    serves every agent; the last keeps the rest, which one eval checks.
    """
    n = len(sessions)
    if not (len(ells) == len(thresholds) == n):
        raise InputError("need one ell and one threshold per agent")
    ells = [int(e) for e in ells]
    if any(e < 1 for e in ells):
        raise InputError("ells must be positive integers")
    # all ells 1: the n + 1 pie pieces of the 1-out-of-(n+1) share must fit
    s = _check_params(n + 2 if all(e == 1 for e in ells) else 1, s)
    thresholds = [frac(t) for t in thresholds]
    if any(not (ZERO <= t <= ONE) for t in thresholds):
        raise InputError("thresholds must lie in [0, 1]")
    subs = _open_at(sessions, s)
    cake_alloc = mms_fair_allocation(subs, s, thresholds)
    last, rest = cake_alloc.pieces_in_order()[-1]
    if subs[last].eval(rest.left, rest.right) < thresholds[last]:
        raise ProtocolError(f"the rest is worth less than agent {last}'s "
                            f"threshold {thresholds[last]}", agent=last)
    return _closed(s, cake_alloc)


def _open_at(sessions: Sequence, s: Fraction) -> List[SubcakeSession]:
    """The pie sessions opened at s: cakes on [s, 1], giving up [0, s]."""
    return [SubcakeSession(sess, offset=s, length=ONE - s)
            for sess in sessions]


def _closed(s: Fraction, cake_alloc: Allocation) -> Allocation:
    """A cake allocation on the pie opened at s, back on the circle."""
    return Allocation(s, {i: Interval((s + p.left) % ONE, (s + p.right) % ONE)
                          for i, p in cake_alloc.assignment.items()},
                      Topology.PIE)


def pie_decide_equals_one_over_k(sess, k: int,
                                 s) -> Tuple[bool, Optional[Partition]]:
    """Does some partition into k separated pieces give 1/k everywhere?

    That ceiling is reachable exactly when k value-free gaps of length s
    exist between pieces.  Scan ceil(2/s) equal arcs for a value-free one;
    from the end of its zero-run, lay a separator and jump by value 1/k,
    k times, and accept if every separator evaluated to zero.  Uses at
    most 6k/s queries.
    """
    k = int(k)
    if k < 2:
        raise InputError("need k >= 2")
    s = _check_params(k + 1, s)
    m = ceil(Fraction(2) / s)
    share = Fraction(1, k)
    for idx in range(m):
        x = Fraction(idx, m)
        if sess.eval(x, Fraction(idx + 1, m)) != 0:
            continue
        z = sess.cut(x, ONE)     # start of the zero-run that ends at x
        if z is None:
            raise InternalError("full-value cut must exist on a pie")
        cuts = [z]
        works = True
        for _ in range(k):
            if sess.eval(cuts[-1], (cuts[-1] + s) % ONE) != 0:
                works = False
                break
            nxt = sess.cut((cuts[-1] + s) % ONE, share)
            if nxt is None:
                raise InternalError("share cut must exist on a pie")
            cuts.append(nxt)
        if not works:
            continue
        # from a list: tuple(<genexpr>) shrinks onto a free list
        pieces = tuple([Interval((cuts[j] + s) % ONE, cuts[j + 1])
                        for j in range(k)])
        # Geometry check (no queries): pieces plus separators must fit
        # around the circle at most once.
        used = sum(((c2 - c1) % ONE for c1, c2 in zip(cuts, cuts[1:])),
                   ZERO)
        if used <= ONE:
            return True, Partition(s, pieces)
    return False, None


def pie_decide_positive(sess, k: int, s) -> bool:
    """Is any strictly positive share guaranteed over k separated pieces?

    Needs s <= 1/(2k): split the circle into 2k equal arcs; if all carry
    value, alternating arcs serve as separators.  Otherwise remove one
    value-free arc and ask the cake strictly-greater decision with target
    zero on the rest.  O(k) queries.
    """
    k = int(k)
    s = frac(s)
    if k < 2:
        raise InputError("need k >= 2")
    if not (ZERO < s <= Fraction(1, 2 * k)):
        raise InputError(f"separation {s} must be in (0, 1/{2 * k}]")
    zero_arc = None
    for idx in range(2 * k):
        a, b = Fraction(idx, 2 * k), Fraction(idx + 1, 2 * k)
        if sess.eval(a, b % ONE) == 0:
            zero_arc = (a, b % ONE)
            break
    if zero_arc is None:
        return True
    a, b = zero_arc
    # The rest of the circle holds all the value, so its total is known.
    sub = SubcakeSession(sess, offset=b, length=ONE - Fraction(1, 2 * k),
                         known_total=ONE)
    return _greater(sub, k, s, ZERO)


def pie_approx_mms(sess, k: int, s, eps) -> Tuple[Fraction, Partition]:
    """Bracket the 1-out-of-k share within eps using O(1/eps) queries.

    Marks points clockwise from 0 every eps/2 of value (0 itself is a
    mark), then searches mark pairs greedily: each candidate piece is
    completed clockwise with the nearest separator of length >= s ending
    at a mark and further pieces of no smaller value.  The best candidate
    value r satisfies share - eps <= r <= share because shrinking an
    optimal partition's pieces to marks loses at most eps/2 per endpoint.
    The search makes no queries; it bisects the mark positions and values,
    laid out twice round the circle once per call.
    """
    k = int(k)
    eps = frac(eps)
    if k < 2:
        raise InputError("need k >= 2")
    s = _check_params(k + 1, s)
    if not (ZERO < eps < ONE):
        raise InputError("eps must be in (0, 1)")
    step = eps / 2
    marks = [ZERO]
    while True:
        y = sess.cut(marks[-1], step)
        if y is None or y <= marks[-1]:
            break                   # wrapped past the start
        marks.append(y)
    m = len(marks)
    # Index t + m is mark t one turn later: position + 1, value + 1.
    upos = marks + [p + ONE for p in marks]
    ucum = [t * step for t in range(m)]
    ucum += [c + ONE for c in ucum]

    best: Optional[Tuple[Fraction, Partition]] = None
    for i in range(m):
        # A larger first piece from the same start only pushes every later
        # endpoint right, so once a target fails every larger one fails:
        # try the targets above the best so far in increasing order and
        # stop at the first failure.
        e = i
        while True:
            if best is not None:
                e = bisect_right(ucum, ucum[i] + best[0], e, i + m)
            if e == i + m:
                break
            pieces = _greedy_from_marks(upos, ucum, i, e, s, k)
            if pieces is None:
                break
            best = (ucum[e] - ucum[i], Partition(s, pieces))
    if best is None:
        # No mark-aligned partition at all: any piece worth more than
        # eps/2 contains a mark, so the true share is at most eps and
        # r = 0 with equal pieces and the last separator ending at 1 meets
        # the bracket.
        return ZERO, _trivial_partition(k, s, ONE - s)
    return best


def _greedy_from_marks(pos, cum, i, e, s, k):
    """Complete a k-piece partition whose first piece spans marks i..e of
    the doubled arrays, which list the m marks twice.  Every endpoint is a
    mark index in [i, i + m], and i + m is mark i one turn later.  None
    when the k separators cannot all be placed before wrapping back into
    the first piece."""
    last = i + len(pos) // 2
    target = cum[e] - cum[i]
    ends = [(i, e)]
    at = e
    for _ in range(k - 1):
        t = bisect_left(pos, pos[at] + s, at, last + 1)   # s away or more
        if t > last:
            return None
        at = bisect_left(cum, cum[t] + target, t, last + 1) if target else t
        if at > last:
            return None
        ends.append((t, at))
    if pos[at] + s > pos[last]:
        return None                  # wrap-around separator does not fit
    # from a list: tuple(<genexpr>) shrinks onto a free list
    return tuple([Interval(pos[a] % ONE, pos[b] % ONE) for a, b in ends])


def pie_via_cake_allocation(sessions: Sequence, s, mode: str = "approx",
                            eps=None) -> Allocation:
    """Open the circle at s, sacrifice [0, s], and run a cake protocol.

    Removing one arc destroys at most one piece of any circular partition,
    so the opened cake still supports the n-piece guarantee whenever the
    circle supported n+1.  ``mode="approx"`` gives every agent her
    1-out-of-(n+1) share minus eps; ``mode="ordinal2n"`` gives the
    1-out-of-2n share with no eps.
    """
    n = len(sessions)
    s = _check_params(n + 2, s)     # n + 1 pieces fit on the pie
    subs = _open_at(sessions, s)
    if mode == "approx":
        if eps is None:
            raise InputError("approx mode needs eps")
        thresholds = [approx_mms(sub, n, s, frac(eps))[0] for sub in subs]
        cake_alloc = mms_fair_allocation(subs, s, thresholds)
    elif mode == "ordinal2n":
        cake_alloc = ordinal_allocation_2n_minus_1(subs, s)
    else:
        raise InputError(f"unknown mode {mode!r}")
    return _closed(s, cake_alloc)
