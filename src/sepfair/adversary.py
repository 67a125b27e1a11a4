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
  on a circle, so "is there a length-s arc worth at most q" can be
  contradicted either way; a query that would pin an endpoint slides it.
* ``pie_threshold_witnesses`` answers as if uniform, then splits into one
  valuation whose k-piece share equals (1-ks)/k and one whose share is
  strictly larger: k pieces of length (1-ks)/k are rotated off every
  recorded point.

Both pie adversaries lay out their valuations in one walk: each gap
between recorded points keeps its value, spread evenly except on the
window or separator side of a hidden edge, which gets a fixed density.

The session-like adversaries check coordinates, answer a full-circle eval
and keep their transcripts by the same rules as a ``QuerySession``, but
record into a plain list, so the benchmark's query count leaves them out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cake import Partition, _check_params, approx_mms
from .errors import InputError, InternalError
from .exact_mms import exact_mms
from .rationals import frac
from .sessions import (QueryRecord, _cut_args, _eval_points, _Recorder,
                       replay_answer, replay_consistent)
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

    def __init__(self, s):
        self.s = frac(s)
        if not (ZERO < self.s < ONE):
            raise InputError("s must be in (0, 1)")
        self.recorded: Dict[Fraction, Fraction] = {ZERO: ZERO, ONE: ONE}

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
        under the answering rules) and return the (point, value) table of
        the completed g, which connects the recorded points linearly;
        ``to_valuation`` turns it into a valuation."""
        x0 = frac(x0)
        if not (ZERO <= x0 <= ONE - self.s):
            raise InputError(f"x0 must lie in [0, 1 - s], got {x0}")
        self.g_value(x0)
        self.g_value(x0 + self.s)
        if self.recorded[x0] + self.recorded[x0 + self.s] == ONE:
            raise InternalError("the dodged sum appeared anyway")
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


class MmsReductionSession(_Recorder):
    """Session facade over a FindSum adversary, imitating the valuation
    v(x, y) = g(y) - g(x); this is the reduction showing that an exact
    two-piece share computation would solve the unsolvable sum problem."""

    topology = Topology.CAKE
    domain_end = ONE
    known_total = ONE

    def __init__(self, adversary: FindSumAdversary):
        self.adversary = adversary
        self._records: List[QueryRecord] = []

    def eval(self, x, y) -> Fraction:
        x, y, _ = _eval_points(self.topology, x, y)
        g = self.adversary.g_value
        return self._record("eval", (x, y), g(y) - g(x))

    def cut(self, x, alpha) -> Optional[Fraction]:
        x, alpha = _cut_args(self.topology, x, alpha)
        target = self.adversary.g_value(x) + alpha
        answer = None if target > ONE else self.adversary.g_inverse(target)
        return self._record("cut", (x, alpha), answer)


def falsify_share_solver(solver: Callable, s, budget: int) -> dict:
    """Run a deterministic exact-share claimant against the adversary.

    ``solver(session, s, budget)`` must return its claimed exact value of
    the two-piece separated share.  The adversary then fixes a valuation
    consistent with the whole transcript whose true exact share differs
    from the claim (checked here with the explicit solver).
    """
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
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
    if not replay_consistent(valuation, sess.transcript):
        raise InternalError("finalized valuation broke the transcript")
    return {
        "claimed": claim,
        "actual": actual,
        "falsified": claim != actual,
        "queries": queries_used,
        "valuation": valuation,
    }


# -- HasLowValue -----------------------------------------------------------------


def _arc_holds(points, a, length) -> bool:
    """Whether a point lies strictly inside the arc (a, a + length)."""
    return any(ZERO < (p - a) % ONE < length for p in points)


def _lay_out_pie(points, prefix, edges, inside: bool,
                 density) -> PiecewiseConstantValuation:
    """The pie valuation laid out in one walk around the hidden ``edges``
    that agrees with ``prefix`` at the recorded ``points`` (0 among them,
    so no gap between them wraps).  Each edge switches the walk into or out
    of a marked arc (it starts in one iff ``inside``).  A gap that no edge
    splits is spread evenly; in a split one the marked side gets
    ``density`` and the rest the gap's remaining value, spread evenly."""
    breakpoints = sorted(set(points) | edges) + [ONE]
    dens, run, start = [], [], ZERO  # run: (length, marked) per segment
    for a, b in zip(breakpoints, breakpoints[1:]):
        if a in edges:
            inside = not inside
        run.append((b - a, inside))
        if b in edges:
            continue
        value = prefix(b) - prefix(start)
        if len(run) == 1:
            dens.append(value / (b - a))
        else:
            marked = sum(w for w, m in run if m)
            rest = (value - density * marked) / (b - start - marked)
            dens.extend(density if m else rest for _, m in run)
        run, start = [], b
    return PiecewiseConstantValuation(breakpoints, dens, Topology.PIE)


class HasLowValueAdversary(_Recorder):
    """Hides a length-s window of density q/s (value exactly q) on a pie
    with density strictly above q/s everywhere else, sliding the window
    clockwise whenever a query is about to land on one of its endpoints.

    The valuation is laid out by ``_lay_out_pie`` with the window marked
    at density q/s.  A shift keeps each window edge inside its gap between
    recorded points and every gap's value, so every answer stays true.

    Doubles as a session: protocols can call ``eval``/``cut`` directly.
    """

    topology = Topology.PIE
    domain_end = ONE
    known_total = ONE

    def __init__(self, s, q):
        self.s, self.q = frac(s), frac(q)
        if not (ZERO < self.q < self.s < ONE):
            raise InputError("need 0 < q < s < 1")
        self.window = (ONE - self.s) / 3
        self.recorded = {ZERO}
        self._records: List[QueryRecord] = []
        # the whole circle is one gap worth 1, so outside the window the
        # density is (1-q)/(1-s) > q/s, as q < s
        self.valuation = PiecewiseConstantValuation.uniform(Topology.PIE)
        self.valuation = self._laid_out(self._window_points(), False)

    # -- recorded-point geometry (clockwise on the circle) ------------------

    def _ensure_interior_points(self):
        """Record a point inside and one outside the window where none is."""
        y, s = self.window, self.s
        if not _arc_holds(self.recorded, y, s):
            self.recorded.add((y + s * HALF) % ONE)
        if not _arc_holds(self.recorded, y + s, ONE - s):
            self.recorded.add((y + s + (ONE - s) * HALF) % ONE)

    def _window_points(self):
        return {self.window, (self.window + self.s) % ONE}

    def _laid_out(self, edges, inside: bool) -> PiecewiseConstantValuation:
        """The valuation laid out again around ``edges``, worth what it is
        now on every gap between recorded points."""
        return _lay_out_pie(self.recorded, self.valuation.prefix, edges,
                            inside, self.q / self.s)

    def _shift_window(self):
        """Move the low-value window clockwise by half the clearance to the
        nearest recorded points, leaving every recorded prefix unchanged."""
        eps = min((p - e) % ONE for p in self.recorded
                  for e in self._window_points())
        self.window = (self.window + eps * HALF) % ONE
        self.valuation = self._laid_out(self._window_points(),
                                        self.window + self.s > ONE)

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
        x, y, whole = _eval_points(self.topology, x, y)
        self._record_point(x)
        self._record_point(y)
        answer = ONE if whole else self.valuation.value_between(x, y)
        return self._record("eval", (x, y), answer)

    def cut(self, x, alpha) -> Optional[Fraction]:
        x, alpha = _cut_args(self.topology, x, alpha)
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
        return self._record("cut", (x, alpha), answer)

    # -- falsification ------------------------------------------------------

    def reveal_for_no(self) -> PiecewiseConstantValuation:
        """Contradicts a 'no low-value arc' answer: the hidden window is a
        length-s arc worth exactly q."""
        return self.valuation

    def reveal_for_yes(self) -> PiecewiseConstantValuation:
        """Contradicts a 'yes' answer: the gap holding the window start is
        spread evenly, so every length-s arc strictly exceeds q.  While 0
        is the only recorded point, that gap is the whole circle and this
        is the uniform pie."""
        # Without its start as an edge, the window runs from 0 to its end.
        end = (self.window + self.s) % ONE
        split = _arc_holds(self.recorded, self.window, self.s)
        return self._laid_out({end} if split else set(), True)

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
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
    s, q = frac(s), frac(q)
    adv = HasLowValueAdversary(s, q)
    answer = bool(solver(adv, s, q, budget))
    queries_used = adv.query_count
    revealed = adv.reveal_for_yes() if answer else adv.reveal_for_no()
    low = minimum_window_value(revealed, s)
    if not replay_consistent(revealed, adv.transcript):
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
    iters = budget // 2     # each round is one cut and one eval
    r, _ = approx_mms(sess, 2, s, Fraction(1, 2 ** iters))
    return r


def grid_eval_share_candidate(sess, s, budget: int) -> Fraction:
    """Estimates the two-piece share from prefix values on an even grid:
    the best min(prefix(x), 1 - prefix(x + s)) over grid points x."""
    s = frac(s)
    best = ZERO
    for i in range(budget):
        x = Fraction(i, budget)
        if x + s > ONE:
            break
        left = sess.eval(ZERO, x)
        best = max(best, min(left, ONE - left - s))  # crude uniform guess
    return best


def window_scan_candidate(sess, s, q, budget: int) -> bool:
    """Answers the low-value-arc question by evaluating ``budget`` evenly
    spaced windows."""
    s = frac(s)
    for i in range(budget):
        x = Fraction(i, budget)
        if sess.eval(x, (x + s) % ONE) <= q:
            return True
    return False


def cut_walk_candidate(sess, s, q, budget: int) -> bool:
    """Walks value-q/2 cuts around the circle and evaluates the windows
    they land on."""
    s, q = frac(s), frac(q)
    pos = ZERO
    for _ in range(budget // 2):    # one eval and one cut a round
        if sess.eval(pos, (pos + s) % ONE) <= q:
            return True
        nxt = sess.cut(pos, q / 2)
        if nxt is None or nxt == pos:
            break
        pos = nxt
    return False


# -- uniform-or-not pie witnesses -------------------------------------------------


def pie_threshold_witnesses(k: int, s, transcript: Sequence[QueryRecord]):
    """Two pie valuations consistent with a transcript answered as if
    uniform, and a partition: v_low is uniform (k-piece share exactly
    (1-ks)/k) while v_high concentrates value away from k hidden separator
    arcs so its share strictly exceeds that.  The k-piece partition
    returned third witnesses v_high's larger share.

    The hidden pieces have length r = (1-ks)/k with gaps s, rotated so no
    edge lands on a recorded point, and every piece and separator gets a
    recorded point inside.  ``_lay_out_pie`` then makes v_high agree with
    v_low at every recorded point, with density 1/2 on the separator side
    of each gap an edge splits.  So every answer replays, every piece is
    worth more than r, and every density stays positive (a cut answer must
    remain the *first* point with its value).
    """
    k = int(k)
    if k < 2:
        raise InputError("need k >= 2")
    s = _check_params(k + 1, s)
    uniform = PiecewiseConstantValuation((ZERO, ONE), (ONE,), Topology.PIE)
    points = {ZERO}
    for rec in transcript:
        if rec.kind not in ("eval", "cut"):
            raise InputError(f"unknown record kind {rec.kind!r}")
        if replay_answer(uniform, rec) != rec.answer:
            raise InputError("transcript is not uniform-consistent")
        known = rec.args if rec.kind == "eval" else (rec.args[0], rec.answer)
        points.update(p % ONE for p in known if p is not None)

    r = (ONE - k * s) / k
    offsets = [j * (r + s) + e for j in range(k) for e in (ZERO, r)]
    # 0 is recorded and an edge at offset 0, so the smallest clash is 0:
    # rotate by half the next one
    z = sorted({(p - off) % ONE for p in points for off in offsets})[1] * HALF
    piece_edges = [(z + off) % ONE for off in offsets]
    marks = set(points)     # and a point inside each piece and separator
    for a, b in zip(offsets, offsets[1:] + [ONE]):
        if not _arc_holds(points, z + a, b - a):
            marks.add((z + (a + b) * HALF) % ONE)

    # just after 0 the walk is in a separator iff the last edge starts one;
    # v_low's prefix at any point p is p
    in_separator = piece_edges.index(max(piece_edges)) % 2 == 1
    v_high = _lay_out_pie(marks, lambda p: p, set(piece_edges),
                          in_separator, HALF)
    pieces = tuple(Interval(*piece_edges[2 * j:2 * j + 2]) for j in range(k))
    return uniform, v_high, Partition(s, pieces)
