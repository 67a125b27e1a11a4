"""Cake protocols: share decisions, approximation, and allocation.

Every operation here interacts with agents exclusively through session
objects (``eval``/``cut``/``domain_end``); none of them ever reads a
valuation directly.  Query budgets, with n agents or parts:

=====================================  =======================================
decide, at-least                       n  (n-1 cuts + 1 eval)
decide, strictly-greater               2n-1  (1 cut, then eval+cut per part)
decide, equal                          3n-1  (both of the above)
approx_mms                             n * ceil(log2(1/eps))
mms_fair_allocation                    n(n+1)/2 - 1 cuts
ordinal_allocation_2n_minus_1          <= ORDINAL_QUERY_CONSTANT * n^2 / s
=====================================  =======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, InternalError, ProtocolError
from .rationals import frac
from .valuations import ONE, ZERO, Interval, Topology


class Relation(enum.Enum):
    AT_LEAST = "atleast"
    GREATER = "greater"
    EQUAL = "equal"


@dataclass(frozen=True)
class Partition:
    """Disjoint pieces with separation parameter s, left to right on a
    cake and clockwise on a pie (where the last gap wraps to the first)."""

    s: Fraction
    pieces: Tuple[Interval, ...]


@dataclass(frozen=True)
class Allocation:
    s: Fraction
    assignment: Dict[int, Interval]
    topology: Topology = Topology.CAKE

    def pieces_in_order(self) -> List[Tuple[int, Interval]]:
        """(agent, piece) pairs by left endpoint: left to right on a cake,
        clockwise from point 0 on a pie."""
        return sorted(self.assignment.items(), key=lambda kv: kv[1].left)


def _check_params(n: int, s, length: Fraction = ONE) -> Fraction:
    """s as a Fraction if 0 < s < min(1, length/(n-1)) (0 < s < 1 for one
    piece), so n pieces s apart fit on a stretch of that length.  A pie
    with k pieces has k separators: it is checked as k + 1 pieces."""
    s = frac(s)
    if n < 1:
        raise InputError("need at least one part")
    bound = ONE if n == 1 else min(ONE, length / (n - 1))
    if not (ZERO < s < bound):
        raise InputError(f"separation {s} outside (0, {bound})")
    return s


def _trivial_partition(n: int, s: Fraction, end: Fraction) -> Partition:
    """Equal-length pieces with exact-s gaps; min-value is trivially >= 0."""
    piece_len = (end - (n - 1) * s) / n
    if piece_len < 0:
        raise InputError("domain too short for that many separated pieces")
    pieces = []
    pos = ZERO
    for _ in range(n):
        pieces.append(Interval(pos, pos + piece_len))
        pos += piece_len + s
    return Partition(s, tuple(pieces))


def _atleast(sess, n: int, s: Fraction,
             r: Fraction) -> Tuple[bool, Optional[Partition]]:
    """Greedy left-to-right test of whether n separated pieces of value r fit.

    Marks the leftmost point worth r, inserts an exact-s separator, repeats;
    answers yes when the remainder is still worth at least r.  At most n
    queries (n-1 cuts and one eval).
    """
    end = sess.domain_end
    if r <= 0:
        return True, _trivial_partition(n, s, end)
    pieces = []
    pos = ZERO
    for _ in range(n - 1):
        if pos > end:
            return False, None
        y = sess.cut(pos, r)
        if y is None or y > end:
            return False, None
        pieces.append(Interval(pos, y))
        pos = y + s
    if pos > end:
        return False, None
    if sess.eval(pos, end) < r:
        return False, None
    pieces.append(Interval(pos, end))
    return True, Partition(s, tuple(pieces))


def _greater(sess, n: int, s: Fraction, r: Fraction) -> bool:
    """Test whether n separated pieces of value strictly above r fit.

    Works right to left building pieces of value exactly r, but realizes
    each right-anchored cut as a standard leftmost cut from 0 on running
    prefix targets.  Yes iff strictly positive value remains to the left of
    the last piece; that leftover lets every piece be nudged left and grown.
    At most 2n-1 queries.
    """
    end = sess.domain_end
    total = sess.known_total
    if total is None:
        total = sess.eval(ZERO, end)
    if r < 0:
        return True
    if r >= total:
        return False
    target = total - r
    x = sess.cut(ZERO, target)
    if x is None:
        return False
    for _ in range(n - 1):
        if x - s < 0:
            return False
        left_of_sep = sess.eval(ZERO, x - s)
        target = left_of_sep - r
        if target < 0:
            return False
        x = sess.cut(ZERO, target)
        if x is None:
            return False
    return target > 0


def decide(sess, n: int, s, r,
           relation: Relation) -> Tuple[bool, Optional[Partition]]:
    """Compare an agent's best guaranteed share against r.

    Decides whether the best min-value over partitions of the session's
    domain into n pieces separated by at least s is >= r, > r, or == r.  A
    positive at-least answer comes with a witness partition whose pieces the
    agent values at r or more.
    """
    r = frac(r)
    s = _check_params(n, s)
    if relation is Relation.AT_LEAST:
        return _atleast(sess, n, s, r)
    if relation is Relation.GREATER:
        return _greater(sess, n, s, r), None
    ok_atleast, witness = _atleast(sess, n, s, r)
    if not ok_atleast:
        return False, None
    return (not _greater(sess, n, s, r)), witness


def approx_mms(sess, n: int, s, eps) -> Tuple[Fraction, Partition]:
    """Bracket the best guaranteed share within eps by binary search.

    Returns (r, witness) with share - eps <= r <= share; the witness is a
    partition whose min-value for the agent is at least r.  Uses at most
    n * ceil(log2(1/eps)) queries plus the trivial zero-level witness.
    """
    eps = frac(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    s = _check_params(n, s)
    end = sess.domain_end
    if n == 1:
        total = sess.known_total
        if total is None:
            total = sess.eval(ZERO, end)
        return total, Partition(s, (Interval(ZERO, end),))
    lo, hi = ZERO, ONE
    witness = _trivial_partition(n, s, end)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        ok, w = _atleast(sess, n, s, mid)
        if ok:
            lo, witness = mid, w
        else:
            hi = mid
    return lo, witness


def mms_fair_allocation(sessions: Sequence, s,
                        thresholds: Sequence) -> Allocation:
    """Moving-knife allocation giving agent i a piece worth thresholds[i].

    Valid whenever each threshold is at most the agent's own best
    guaranteed share for n parts; then every round each remaining agent can
    mark a prefix worth her threshold, the smallest mark wins (ties to the
    lowest index), and the last agent keeps the remainder.  Uses
    n + (n-1) + ... + 2 = n(n+1)/2 - 1 cut queries and no evals.
    """
    n = len(sessions)
    if n != len(thresholds):
        raise InputError("one threshold per session required")
    s = _check_params(n, s)
    thresholds = [frac(t) for t in thresholds]
    end = sessions[0].domain_end
    remaining = list(range(n))
    assignment: Dict[int, Interval] = {}
    pos = ZERO
    while len(remaining) > 1:
        best = None
        for i in remaining:
            if pos > end:
                raise ProtocolError(
                    f"no cake left for agent {i}", agent=i)
            y = sessions[i].cut(pos, thresholds[i])
            if y is None or y > end:
                raise ProtocolError(
                    f"agent {i} cannot mark a piece worth {thresholds[i]}",
                    agent=i)
            if best is None or y < best[0]:
                best = (y, i)
        y, winner = best
        assignment[winner] = Interval(pos, y)
        remaining.remove(winner)
        pos = y + s
    last = remaining[0]
    if pos > end:
        raise ProtocolError(f"no cake left for agent {last}", agent=last)
    assignment[last] = Interval(pos, end)
    return Allocation(s, assignment, Topology.CAKE)


# Derivation of the query bound for the ordinal protocol below: the knife
# advances at most ceil(1/s) times plus one reset per allocated piece, and
# each stop asks at most n agents 1 eval + one strictly-greater decision
# over 2n-1 parts (2(2n-1)-1 queries), so the total is bounded by
# (1/s + 1 + n) * n * (4n - 2) <= 10 n^2 / s for s < 1/(2n-2).
ORDINAL_QUERY_CONSTANT = 10


def ordinal_allocation_2n_minus_1(sessions: Sequence, s) -> Allocation:
    """Allocate every agent a piece worth her 1-out-of-(2n-1) share.

    A knife sweeps rightward in steps of exactly s (final position clamps
    to the domain end).  After each step every remaining agent is asked,
    via an eval and the strictly-greater test ``_greater`` (leftmost cuts
    from 0 on running prefix targets), whether the piece left of the knife
    already meets her 1-out-of-(2n-1) guarantee; the first who agrees
    takes it.
    """
    n = len(sessions)
    parts = 2 * n - 1
    s = _check_params(parts, s)
    end = sessions[0].domain_end
    remaining = list(range(n))
    assignment: Dict[int, Interval] = {}
    start = ZERO
    knife = ZERO
    while len(remaining) > 1:
        knife = min(knife + s, end)
        taken = False
        for i in remaining:
            worth = sessions[i].eval(start, knife)
            if not _greater(sessions[i], parts, s, worth):
                assignment[i] = Interval(start, knife)
                remaining.remove(i)
                start = knife + s
                knife = start
                taken = True
                break
        if not taken and knife >= end:
            raise InternalError("knife reached the end with nobody served")
    last = remaining[0]
    if start > end:
        raise ProtocolError(f"no cake left for agent {last}", agent=last)
    assignment[last] = Interval(start, end)
    return Allocation(s, assignment, Topology.CAKE)
