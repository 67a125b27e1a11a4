"""Query sessions: the only channel between protocols and valuations.

A :class:`QuerySession` hides one valuation behind the two standard
queries, ``eval(x, y)`` and ``cut(x, alpha)``, counting every answered
query and recording a transcript.  Protocol code in :mod:`sepfair.cake` and
:mod:`sepfair.pie` never touches a valuation directly; anything with the
same ``eval``/``cut``/``domain_end`` surface (mocks, adversaries) can be
substituted.

A :class:`SubcakeSession` exposes a sub-arc of a pie session as a cake with
coordinates starting at 0; its queries are counted and recorded by the
parent session.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional

from .errors import InputError
from .rationals import fmt, frac
from .valuations import (ONE, ZERO, PiecewiseConstantValuation, Topology,
                         cut_leftmost)


@dataclass(frozen=True)
class QueryRecord:
    kind: str                      # "eval" or "cut"
    args: tuple                    # (x, y) or (x, alpha)
    answer: Optional[Fraction]

    def to_json(self, index: int) -> dict:
        return {"index": index, "kind": self.kind,
                "args": [fmt(a) for a in self.args],
                "answer": None if self.answer is None else fmt(self.answer)}


class _SharedState:
    # One per QuerySession: bench/run.py counts queries_per_op via __init__.
    __slots__ = ("records",)

    def __init__(self):
        self.records: List[QueryRecord] = []


def _check_point(topology: Topology, x: Fraction) -> Fraction:
    if not (ZERO <= x <= ONE):
        raise InputError(f"coordinate {x} outside the {topology.value}")
    return x if topology is Topology.CAKE else x % ONE


def _eval_points(topology: Topology, x, y):
    """Checked eval coordinates (x, y), and whether they ask for the whole
    pie: one point reached by going all the way round, as in eval(0, 1),
    which is recorded as (x, x) and worth 1."""
    xr, yr = frac(x), frac(y)
    x, y = _check_point(topology, xr), _check_point(topology, yr)
    if topology is Topology.CAKE and x > y:
        raise InputError(f"eval needs x <= y on a cake, got {x} > {y}")
    return x, y, topology is Topology.PIE and x == y and xr != yr


def _cut_args(topology: Topology, x, alpha):
    x, alpha = _check_point(topology, frac(x)), frac(alpha)
    if not (ZERO <= alpha <= ONE):
        raise InputError(f"cut target {alpha} outside [0, 1]")
    return x, alpha


class _Recorder:
    """The transcript of a query oracle: ``self._records`` holds every
    answered query in order.  Invalid queries raise before they are
    recorded, so they are not counted."""

    @property
    def query_count(self) -> int:
        return len(self._records)

    @property
    def transcript(self) -> List[QueryRecord]:
        return list(self._records)

    def _record(self, kind: str, args: tuple, answer):
        self._records.append(QueryRecord(kind, args, answer))
        return answer


class QuerySession(_Recorder):
    """Two-query (eval/cut) oracle over one hidden valuation.

    Protocols may rely on ``topology``, ``domain_end`` and ``known_total``
    only; valuations are normalized, so the whole domain is worth 1.
    """

    domain_end = ONE
    known_total = ONE

    def __init__(self, valuation: PiecewiseConstantValuation):
        self._valuation = valuation
        self.topology = valuation.topology
        self._records = _SharedState().records

    def eval(self, x, y) -> Fraction:
        """Value of the piece from x to y; counts as one query.

        On a pie the piece is the clockwise arc from x to y (it may wrap
        through 0).  Invalid coordinates raise without being counted.
        """
        x, y, whole = _eval_points(self.topology, x, y)
        answer = ONE if whole else self._valuation.value_between(x, y)
        return self._record("eval", (x, y), answer)

    def cut(self, x, alpha) -> Optional[Fraction]:
        """Leftmost y (first clockwise on a pie) with value [x, y] = alpha.

        Counts as one query even when no such point exists (answer None).
        """
        x, alpha = _cut_args(self.topology, x, alpha)
        return self._record("cut", (x, alpha),
                            cut_leftmost(self._valuation, x, alpha))


def replay_answer(valuation: PiecewiseConstantValuation, rec: QueryRecord):
    """Recompute one transcript record's answer against a valuation."""
    if rec.kind == "eval":
        x, y = rec.args
        if valuation.topology is Topology.PIE and x == y \
                and rec.answer == ONE:
            return ONE             # full-circle eval, stored as (x, x)
        return valuation.value_between(x, y)
    return cut_leftmost(valuation, *rec.args)


def replay_consistent(valuation: PiecewiseConstantValuation,
                      records: Iterable[QueryRecord]) -> bool:
    """Whether ``valuation`` gives every recorded answer again."""
    return all(replay_answer(valuation, rec) == rec.answer for rec in records)


class SubcakeSession(_Recorder):
    """A clockwise arc of a pie, re-exposed as a cake starting at 0.

    Coordinates x in [0, length] map to pie points (offset + x) mod 1, so
    length < 1 keeps the arc's two ends apart.  Each is checked once, here;
    queries are answered and recorded as the parent's.  A cut that would
    leave the arc, a full turn included, is None (and still counted).
    """

    topology = Topology.CAKE

    def __init__(self, parent: QuerySession, offset, length,
                 known_total: Optional[Fraction] = None):
        if parent.topology is not Topology.PIE:
            raise InputError("SubcakeSession wraps a pie session")
        self._valuation = parent._valuation
        self._records = parent._records
        self.offset = frac(offset) % ONE
        self.domain_end = frac(length)
        self.known_total = known_total
        if not (ZERO < self.domain_end < ONE):
            raise InputError("subcake length must be in (0, 1)")

    def _to_pie(self, x: Fraction) -> Fraction:
        if not (ZERO <= x <= self.domain_end):
            raise InputError(f"coordinate {x} outside the subcake")
        y = self.offset + x
        return y - ONE if y >= ONE else y

    def eval(self, x, y) -> Fraction:
        x, y = frac(x), frac(y)
        if x > y:
            raise InputError(f"eval needs x <= y, got {x} > {y}")
        x, y = self._to_pie(x), self._to_pie(y)
        return self._record("eval", (x, y),
                            self._valuation.value_between(x, y))

    def cut(self, x, alpha) -> Optional[Fraction]:
        x = frac(x)
        anchor, alpha = self._to_pie(x), frac(alpha)
        if not (ZERO <= alpha <= ONE):
            raise InputError(f"cut target {alpha} outside [0, 1]")
        answer = self._record("cut", (anchor, alpha),
                              cut_leftmost(self._valuation, anchor, alpha))
        if answer is None:
            return None
        arc = answer - anchor
        if alpha and arc <= 0:
            arc += ONE             # wrapped past 0, or a full turn
        return x + arc if arc <= self.domain_end - x else None
