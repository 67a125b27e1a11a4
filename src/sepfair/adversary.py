"""Adaptive adversaries that defeat any finite query algorithm.

Each adversary answers queries while keeping several mutually incompatible
valuations alive; once an algorithm commits to an output, the adversary
reveals a valuation that is consistent with every answer it gave yet
contradicts the output.  They serve as executable impossibility witnesses
and as property tests against the library's own solvers.

Three adversaries are provided:

* ``FindSumAdversary`` maintains a partially revealed increasing bijection
  g and dodges every pair of points at distance s whose g-values could sum
  to 1; thrown against a share "solver" for two pieces (answering eval as
  a g-difference and cut as a g-inverse), any claimed exact share is
  refuted by the finalized piecewise-linear g.
* ``HasLowValueAdversary`` hides a sliding density-q/s window of length s
  on a circle, shifting it whenever a query would pin an endpoint, so
  "is there a length-s arc worth at most q" can be contradicted either way.
* ``pie_threshold_witnesses`` answers as if uniform, then splits into one
  valuation whose k-piece share equals (1-ks)/k and one whose share is
  strictly larger.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cake import approx_mms
from .errors import InputError, InternalError
from .exact_mms import exact_mms
from .pie import PiePartition
from .rationals import frac
from .sessions import QueryRecord, replay_answer
from .valuations import (ONE, ZERO, Interval, PiecewiseConstantValuation,
                         Topology, cut_leftmost, minimum_window_value)

HALF = Fraction(1, 2)


# -- FindSum ---------------------------------------------------------------------


class FindSumAdversary:
    """Keeps g underdetermined so no queried point can satisfy
    g(x) + g(x+s) = 1.

    Points with known g-values are *recorded* (0 and 1 always are, with
    values 0 and 1).  New answers preserve strict monotonicity, and any
    value that would pair with a recorded point at distance s to sum to 1
    is sidestepped; choices are made deterministically by taking midpoints
    and halving toward the lower neighbor until clear.
    """

    mode = "findsum"

    def __init__(self, s):
        self.s = frac(s)
        if not (ZERO < self.s < ONE):
            raise InputError("s must be in (0, 1)")
        self.recorded: Dict[Fraction, Fraction] = {ZERO: ZERO, ONE: ONE}
        self.finalized_valuation: Optional[PiecewiseConstantValuation] = None

    # neighbors by point
    def _bracket(self, x):
        lo = max(p for p in self.recorded if p <= x)
        hi = min(p for p in self.recorded if p >= x)
        return lo, hi

    def _forbidden_values(self, x):
        bad = set()
        for other in (x + self.s, x - self.s):
            if other in self.recorded:
                bad.add(ONE - self.recorded[other])
        return bad

    def g_value(self, x) -> Fraction:
        x = frac(x)
        if not (ZERO <= x <= ONE):
            raise InputError(f"point {x} outside [0, 1]")
        if x in self.recorded:
            return self.recorded[x]
        lo, hi = self._bracket(x)
        glo, ghi = self.recorded[lo], self.recorded[hi]
        bad = self._forbidden_values(x)
        val = (glo + ghi) * HALF
        while val in bad:
            val = (glo + val) * HALF
        if not (glo < val < ghi):
            raise InternalError("monotonicity window collapsed")
        self.recorded[x] = val
        return val

    def g_inverse(self, alpha) -> Fraction:
        alpha = frac(alpha)
        if not (ZERO <= alpha <= ONE):
            raise InputError(f"value {alpha} outside [0, 1]")
        for p, v in self.recorded.items():
            if v == alpha:
                return p
        below = max((v, p) for p, v in self.recorded.items() if v < alpha)
        above = min((v, p) for p, v in self.recorded.items() if v > alpha)
        a, b = below[1], above[1]
        x = (a + b) * HALF
        while x in self.recorded or (x + self.s) in self.recorded \
                or (x - self.s) in self.recorded:
            x = (a + x) * HALF
        self.recorded[x] = alpha
        return x

    def finalize(self, x0) -> List[Tuple[Fraction, Fraction]]:
        """Voluntarily record g(x0) and g(x0 + s) (their sum cannot be 1
        under the answering rules), then connect all recorded points
        linearly; returns the (point, value) table of the completed g."""
        x0 = frac(x0)
        if not (ZERO <= x0 <= ONE - self.s):
            raise InputError(f"x0 must lie in [0, 1 - s], got {x0}")
        self.g_value(x0)
        self.g_value(x0 + self.s)
        if self.recorded[x0] + self.recorded[x0 + self.s] == ONE:
            raise InternalError("the dodged sum appeared anyway")
        self.finalized_valuation = self.to_valuation()
        return sorted(self.recorded.items())

    def to_valuation(self) -> PiecewiseConstantValuation:
        """The completed g is piecewise linear, so its derivative is a
        piecewise-constant density: the valuation whose prefix function is
        exactly g."""
        table = sorted(self.recorded.items())
        bps = [p for p, _ in table]
        dens = [(v2 - v1) / (p2 - p1)
                for (p1, v1), (p2, v2) in zip(table, table[1:])]
        return PiecewiseConstantValuation(bps, dens, Topology.CAKE)


def findsum_answer(sess: FindSumAdversary, query) -> Fraction:
    """Answer one query against the hidden function: ("g", x) or
    ("g_inverse", alpha)."""
    kind, arg = query
    if kind == "g":
        return sess.g_value(arg)
    if kind == "g_inverse":
        return sess.g_inverse(arg)
    raise InputError(f"unknown query kind {kind!r}")


def findsum_finalize(sess: FindSumAdversary, x0):
    return sess.finalize(x0)


class MmsReductionSession:
    """Session facade over a FindSum adversary, imitating the valuation
    v(x, y) = g(y) - g(x); this is the reduction showing that an exact
    two-piece share computation would solve the unsolvable sum problem."""

    def __init__(self, adversary: FindSumAdversary):
        self.adversary = adversary
        self._records: List[QueryRecord] = []

    topology = Topology.CAKE
    domain_end = ONE
    known_total = ONE

    @property
    def query_count(self) -> int:
        return len(self._records)

    @property
    def transcript(self) -> List[QueryRecord]:
        return list(self._records)

    def eval(self, x, y) -> Fraction:
        x, y = frac(x), frac(y)
        if not (ZERO <= x <= y <= ONE):
            raise InputError("invalid eval coordinates")
        answer = self.adversary.g_value(y) - self.adversary.g_value(x)
        self._records.append(QueryRecord("eval", (x, y), answer))
        return answer

    def cut(self, x, alpha) -> Optional[Fraction]:
        x, alpha = frac(x), frac(alpha)
        if not (ZERO <= x <= ONE and ZERO <= alpha <= ONE):
            raise InputError("invalid cut arguments")
        target = self.adversary.g_value(x) + alpha
        answer = None if target > ONE else self.adversary.g_inverse(target)
        self._records.append(QueryRecord("cut", (x, alpha), answer))
        return answer


def rw_mms_adversary(sess: MmsReductionSession, rw_query):
    """Answer one standard two-query-model request ("eval", x, y) or
    ("cut", x, alpha) through the FindSum reduction."""
    kind, *args = rw_query
    if kind == "eval":
        return sess.eval(*args)
    if kind == "cut":
        return sess.cut(*args)
    raise InputError(f"unknown query kind {kind!r}")


def falsify_share_solver(solver: Callable, s, budget: int) -> dict:
    """Run a deterministic exact-share claimant against the adversary.

    ``solver(session, s, budget)`` must return its claimed exact value of
    the two-piece separated share.  The adversary then fixes a valuation
    consistent with the whole transcript whose true exact share differs
    from the claim (checked here with the explicit solver).
    """
    s = frac(s)
    adv = FindSumAdversary(s)
    sess = MmsReductionSession(adv)
    claim = solver(sess, s, budget)
    claim = min(max(frac(claim), ZERO), ONE)
    queries_used = sess.query_count
    x0 = adv.g_inverse(claim)
    if x0 <= ONE - s:
        adv.finalize(x0)
    valuation = adv.to_valuation()
    actual, _ = exact_mms(valuation, 2, s)
    for rec in sess.transcript:
        if replay_answer(valuation, rec) != rec.answer:
            raise InternalError("finalized valuation broke the transcript")
    return {
        "claimed": claim,
        "actual": actual,
        "falsified": claim != actual,
        "queries": queries_used,
        "valuation": valuation,
    }


# -- HasLowValue -----------------------------------------------------------------


class _ArcEditor:
    """Stepwise density edits on a circle; normalization is only checked
    when the final valuation is built (intermediate states may be off)."""

    def __init__(self, v: PiecewiseConstantValuation):
        self.bps = list(v.breakpoints)
        self.dens = list(v.densities)

    def set_arc(self, a: Fraction, b: Fraction, g: Fraction) -> None:
        """Clockwise arc [a, b] gets constant density g."""
        a, b = a % ONE, b % ONE
        spans = [(a, b)] if a < b else [(a, ONE), (ZERO, b)]
        for lo, hi in spans:
            if lo == hi:
                continue
            for p in (lo, hi):
                self._insert(p)
            for i, (s0, s1) in enumerate(zip(self.bps, self.bps[1:])):
                if lo <= s0 and s1 <= hi:
                    self.dens[i] = g

    def _insert(self, p: Fraction) -> None:
        if p in (ZERO, ONE) or p in self.bps:
            return
        i = bisect_left(self.bps, p)
        insort(self.bps, p)
        self.dens.insert(i, self.dens[i - 1] if i > 0 else self.dens[0])

    def build(self) -> PiecewiseConstantValuation:
        return PiecewiseConstantValuation(self.bps, self.dens, Topology.PIE)


class HasLowValueAdversary:
    """Hides a length-s window of density q/s (value exactly q) on a pie
    with density strictly above q/s everywhere else, sliding the window
    clockwise whenever a query is about to land on one of its endpoints.

    Doubles as a session: protocols can call ``eval``/``cut`` directly.
    """

    mode = "haslowvalue"
    topology = Topology.PIE
    domain_end = ONE
    known_total = ONE

    def __init__(self, s, q):
        self.s, self.q = frac(s), frac(q)
        if not (ZERO < self.q < self.s < ONE):
            raise InputError("need 0 < q < s < 1")
        self.window = (ONE - self.s) / 3
        base = (ONE - self.q) / (ONE - self.s)   # > q/s because q < s
        self.valuation = PiecewiseConstantValuation(
            (ZERO, self.window, self.window + self.s, ONE),
            (base, self.q / self.s, base), Topology.PIE)
        self.recorded = {ZERO}
        self.finalized_valuation: Optional[PiecewiseConstantValuation] = None
        self._records: List[QueryRecord] = []

    @property
    def query_count(self) -> int:
        return len(self._records)

    @property
    def transcript(self) -> List[QueryRecord]:
        return list(self._records)

    # -- recorded-point geometry (clockwise on the circle) ------------------

    def _next_after(self, x) -> Fraction:
        return min((p - x) % ONE or ONE for p in self.recorded)

    def _prev_before(self, x) -> Fraction:
        return min((x - p) % ONE or ONE for p in self.recorded)

    def _ensure_interior_points(self):
        y, s = self.window, self.s
        if all((p - y) % ONE >= s or (p - y) % ONE == 0
               for p in self.recorded):
            self.recorded.add((y + s * HALF) % ONE)
        outside = (ONE - s)
        if all((p - (y + s)) % ONE >= outside or (p - (y + s)) % ONE == 0
               for p in self.recorded):
            self.recorded.add((y + s + outside * HALF) % ONE)

    def _window_points(self):
        return {self.window, (self.window + self.s) % ONE}

    def _shift_window(self):
        """Move the low-value window clockwise by half the clearance to the
        nearest recorded points, leaving every recorded prefix unchanged."""
        y, s = self.window, self.s
        eps = min(self._next_after(y), self._next_after((y + s) % ONE))
        z = (y + eps * HALF) % ONE
        v = self.valuation
        y_minus = (y - self._prev_before(y)) % ONE
        flat = v.value_between(y_minus, z) / ((z - y_minus) % ONE)
        end_plus = ((y + s) + self._next_after((y + s) % ONE)) % ONE
        tail_value = v.value_between((y + s) % ONE, end_plus)
        zs = (z + s) % ONE
        seg = (end_plus - zs) % ONE
        d = (tail_value - eps * HALF * self.q / self.s) / seg
        ed = _ArcEditor(v)
        ed.set_arc(y_minus, z, flat)
        ed.set_arc((y + s) % ONE, zs, self.q / self.s)
        ed.set_arc(zs, end_plus, d)
        self.valuation = ed.build()
        self.window = z

    def _record_point(self, p: Fraction) -> None:
        """One point becomes known; shift first if it is a window endpoint."""
        if p in self.recorded:
            return
        self._ensure_interior_points()
        if p in self._window_points():
            self._shift_window()
        if p in self._window_points():
            raise InternalError("recording still pins a window endpoint")
        self.recorded.add(p)

    def eval(self, x, y) -> Fraction:
        xr, yr = frac(x), frac(y)
        x, y = xr % ONE, yr % ONE
        self._record_point(x)
        self._record_point(y)
        if x == y and xr != yr:
            answer = ONE           # clockwise all the way around
        else:
            answer = self.valuation.value_between(x, y)
        self._records.append(QueryRecord("eval", (x, y), answer))
        return answer

    def cut(self, x, alpha) -> Optional[Fraction]:
        x, alpha = frac(x) % ONE, frac(alpha)
        if not (ZERO <= alpha <= ONE):
            raise InputError("invalid cut target")
        self._record_point(x)
        self._ensure_interior_points()
        answer = cut_leftmost(self.valuation, x, alpha)
        if answer is not None and answer % ONE in self._window_points():
            # The anchor is recorded, so after the shift the re-answered
            # cut lands strictly before the new window start.
            self._shift_window()
            answer = cut_leftmost(self.valuation, x, alpha)
        if answer is not None:
            answer %= ONE
            if answer in self._window_points():
                raise InternalError("cut answer still pins a window endpoint")
            self.recorded.add(answer)
        self._records.append(QueryRecord("cut", (x, alpha), answer))
        return answer

    # -- falsification ------------------------------------------------------

    def reveal_for_no(self) -> PiecewiseConstantValuation:
        """Contradicts a 'no low-value arc' answer: the hidden window is a
        length-s arc worth exactly q."""
        self.finalized_valuation = self.valuation
        return self.valuation

    def reveal_for_yes(self) -> PiecewiseConstantValuation:
        """Contradicts a 'yes' answer: flatten around the window start so
        every length-s arc strictly exceeds q."""
        y = self.window
        lo = (y - self._prev_before(y)) % ONE
        hi = (y + self._next_after(y)) % ONE
        ed = _ArcEditor(self.valuation)
        flat = self.valuation.value_between(lo, hi) / ((hi - lo) % ONE)
        ed.set_arc(lo, hi, flat)
        self.finalized_valuation = ed.build()
        return self.finalized_valuation

    def check_window_invariant(self) -> bool:
        v, y, s = self.valuation, self.window, self.s
        if v.value_between(y, (y + s) % ONE) != self.q:
            return False
        if y in self.recorded or (y + s) % ONE in self.recorded:
            return False
        return minimum_window_value(v, s) == self.q


def falsify_window_solver(solver: Callable, s, q, budget: int) -> dict:
    """Run a deterministic yes/no solver for 'is some length-s arc worth
    at most q' against the sliding-window adversary and refute it."""
    s, q = frac(s), frac(q)
    adv = HasLowValueAdversary(s, q)
    answer = bool(solver(adv, s, q, budget))
    queries_used = adv.query_count
    revealed = adv.reveal_for_yes() if answer else adv.reveal_for_no()
    low = minimum_window_value(revealed, s)
    for rec in adv.transcript:
        if replay_answer(revealed, rec) != rec.answer:
            raise InternalError("revealed valuation broke the transcript")
    return {
        "answer": answer,
        "window_min": low,
        "falsified": (low > q) if answer else (low <= q),
        "queries": queries_used,
        "valuation": revealed,
    }


# -- deterministic candidate solvers (fodder for the falsifiers) ------------------


def bisection_share_candidate(sess, s, budget: int) -> Fraction:
    """The library's own bracketing solver, forced to commit to an exact
    answer: binary-searches the two-piece share and returns its lower
    bracket end as if it were exact.  Uses at most ``budget`` queries."""
    iters = max(budget // 2, 1)
    r, _ = approx_mms(sess, 2, s, Fraction(1, 2 ** iters))
    return r


def grid_eval_share_candidate(sess, s, budget: int) -> Fraction:
    """Estimates the two-piece share from prefix values on an even grid:
    the best min(prefix(x), 1 - prefix(x + s)) over grid points x."""
    s = frac(s)
    m = max(budget, 1)
    best = ZERO
    for i in range(m):
        x = Fraction(i, m)
        if x + s > ONE:
            break
        left = sess.eval(ZERO, x)
        best = max(best, min(left, ONE - left - s))  # crude uniform guess
    return best


def window_scan_candidate(sess, s, q, budget: int) -> bool:
    """Answers the low-value-arc question by evaluating ``budget`` evenly
    spaced windows."""
    s = frac(s)
    for i in range(max(budget, 1)):
        x = Fraction(i, max(budget, 1))
        if sess.eval(x, (x + s) % ONE) <= q:
            return True
    return False


def cut_walk_candidate(sess, s, q, budget: int) -> bool:
    """Walks value-q/2 cuts around the circle and evaluates the windows
    they land on."""
    s, q = frac(s), frac(q)
    pos = ZERO
    for _ in range(max(budget // 2, 1)):
        if sess.eval(pos, (pos + s) % ONE) <= q:
            return True
        nxt = sess.cut(pos, q / 2)
        if nxt is None or nxt == pos:
            break
        pos = nxt
    return False


# -- uniform-or-not pie witnesses -------------------------------------------------


def pie_threshold_witnesses(k: int, s, transcript: Sequence[QueryRecord],
                            return_partition: bool = False):
    """Two pie valuations consistent with a transcript answered as if
    uniform: v_low is uniform (k-piece share exactly (1-ks)/k) while
    v_high concentrates value away from k hidden separator arcs so its
    share strictly exceeds that.  With ``return_partition`` the k-piece
    partition witnessing v_high's larger share is returned as well.
    """
    k = int(k)
    s = frac(s)
    if k < 2 or not (ZERO < s < Fraction(1, k)):
        raise InputError("need k >= 2 and 0 < s < 1/k")
    uniform = PiecewiseConstantValuation((ZERO, ONE), (ONE,), Topology.PIE)
    points = {ZERO}
    for rec in transcript:
        if rec.kind == "eval":
            expected = uniform.value_between(*rec.args)
            points.update(p % ONE for p in rec.args)
        elif rec.kind == "cut":
            expected = cut_leftmost(uniform, *rec.args)
            points.add(rec.args[0] % ONE)
            if rec.answer is not None:
                points.add(rec.answer % ONE)
        else:
            raise InputError(f"unknown record kind {rec.kind!r}")
        if expected != rec.answer:
            raise InputError("transcript is not uniform-consistent")

    r = (ONE - k * s) / k
    offsets = []
    for j in range(k):
        offsets.append(j * (r + s))
        offsets.append(j * (r + s) + r)
    forbidden = sorted({(p - off) % ONE for p in points for off in offsets})
    z = None
    for a, b in zip(forbidden, forbidden[1:] + [forbidden[0] + ONE]):
        if b > a:
            z = (a + b) * HALF % ONE
            break
    if z is None:
        raise InternalError("no free rotation found")

    piece_edges = [((z + off) % ONE) for off in offsets]
    # add a point inside every piece and separator that has none
    marks = set(points)
    bounds = piece_edges + [piece_edges[0]]
    for i in range(2 * k):
        a, b = bounds[i], bounds[i + 1]
        length = (b - a) % ONE
        if all((p - a) % ONE >= length or (p - a) % ONE == 0 for p in marks):
            marks.add((a + length * HALF) % ONE)

    # Walk recorded intervals (0 is recorded, so none of them wraps).  A
    # boundary interval straddles one piece edge; its piece side absorbs
    # all but half of the separator side's value, so that every piece
    # strictly exceeds r while every density stays strictly positive (a
    # cut answer must remain the *first* point with its value on replay).
    rec_sorted = sorted(marks)
    edges_sorted = sorted(set(piece_edges) | marks | {ZERO})
    breakpoints = edges_sorted + [ONE]
    in_piece = _membership_flags(piece_edges, breakpoints, k)
    dens = []
    for idx, (a, b) in enumerate(zip(breakpoints, breakpoints[1:])):
        i0 = _interval_index(rec_sorted, a)
        lo, hi = rec_sorted[i0], \
            rec_sorted[i0 + 1] if i0 + 1 < len(rec_sorted) else ONE
        edge_inside = [e for e in piece_edges if lo < e < hi]
        if not edge_inside:
            dens.append(ONE)
            continue
        covered = _piece_overlap(piece_edges, lo, hi, k)
        sep_len = (hi - lo) - covered
        if in_piece[idx]:
            dens.append(((hi - lo) - HALF * sep_len) / covered)
        else:
            dens.append(HALF)
    v_high = PiecewiseConstantValuation(breakpoints, dens, Topology.PIE)
    if return_partition:
        pieces = tuple(
            _canonical_interval(piece_edges[2 * j], piece_edges[2 * j + 1])
            for j in range(k))
        return uniform, v_high, PiePartition(s, pieces)
    return uniform, v_high


def _canonical_interval(a, b):
    return Interval(a % ONE, b % ONE)


def _membership_flags(piece_edges, breakpoints, k):
    flags = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        mid = (a + b) * HALF
        inside = False
        for j in range(k):
            lo, hi = piece_edges[2 * j], piece_edges[2 * j + 1]
            arc = (hi - lo) % ONE
            if (mid - lo) % ONE < arc:
                inside = True
                break
        flags.append(inside)
    return flags


def _interval_index(rec_sorted, a):
    i = bisect_right(rec_sorted, a) - 1
    return max(i, 0)


def _piece_overlap(piece_edges, lo, hi, k):
    total = ZERO
    for j in range(k):
        pl, ph = piece_edges[2 * j], piece_edges[2 * j + 1]
        arc = (ph - pl) % ONE
        # overlap of [lo, hi] (non-wrapping) with the piece arc
        for seg_lo, seg_hi in (((pl, pl + arc),) if pl + arc <= ONE
                               else ((pl, ONE), (ZERO, (pl + arc) % ONE))):
            a, b = max(lo, seg_lo), min(hi, seg_hi)
            if b > a:
                total += b - a
    return total
