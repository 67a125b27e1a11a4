"""Envy-free and equitable allocations under exact separation, plus checks.

Both solvers here work on explicit valuations (not query sessions): no
finite query protocol can produce exact envy-free or equitable outcomes in
this setting.  The valuations share one topology.  On a cake the pieces
fill [0, 1]; on a pie they fill [s, 1], leaving the separator [0, s], and a
piece that ends at 1 ends at 0.  Every allocation is exactly s-separated:

* ``equitable_bisection`` is exact.  For a fixed order of the agents the
  equitable value is unique and is the largest c for which pieces worth at
  least c fit; the share walk ``_max_share`` of ``exact_mms`` finds it, and
  ``_pieces_worth`` places pieces worth exactly c.  No LP is solved.
* ``envy_free_sperner`` is an eps-approximation.  It triangulates the
  simplex of piece lengths (summing to the stretch's length minus (n-1)s),
  owners rotate round-robin over grid parity, each vertex gets labeled
  with its owner's favorite piece, and a fully-labeled cell is refined by
  halving until the measured envy at its barycenter is within eps.  A full
  relabeled scan at a coarse resolution always finds a fully-labeled cell;
  refinement is local, escalating to a finer global scan and finally to an
  exact assignment-enumeration solve in the (rare) degenerate cases.  Both
  the scan (``_cells_at``) and the halving (``_refine_cell``) take their
  cells from one generator of staircase cells, ``_kuhn_cells``.

Both exact enumerations (``_envy_free_exact``, and ``_equitable_exact``,
an independent check of the equitable solver) take their candidates from
``_slot_candidates``: for each slot assignment of the endpoints in the
placement model of ``exact_mms``, the placement rows and every agent's
value of every piece.  Each adds only its own rows ('every piece is worth
c', or 'no agent values another piece above her own').
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import Optional, Sequence, Tuple

from . import simplex
from .cake import Allocation, _check_params
from .errors import InputError, InternalError
from .exact_mms import (_max_share, _piece_value, _pieces_worth,
                        _placement_rows, _position_exprs, _slot_pairs,
                        exact_mms, pie_exact_mms)
from .rationals import fmt, frac
from .valuations import (ONE, ZERO, Interval, PiecewiseConstantValuation,
                         Topology, pieces_separated)


@dataclass(frozen=True)
class FairnessReport:
    envy_max: Fraction
    equitability_gap: Fraction
    separation_ok: bool
    mms_dominance: Tuple[bool, ...]

    def to_json(self) -> dict:
        return {
            "envy_max": fmt(self.envy_max),
            "equitability_gap": fmt(self.equitability_gap),
            "separation_ok": self.separation_ok,
            "mms_dominance": list(self.mms_dominance),
        }


def _stretch(vs, s):
    """s, the start lo of the stretch [lo, 1] that the pieces fill, and the
    length left to them: [0, 1] on a cake, [s, 1] on a pie, whose n pieces
    and n separators are checked as n + 1 pieces."""
    n = len(vs)
    topologies = {v.topology for v in vs}
    if len(topologies) > 1:
        raise InputError("valuations mix cake and pie")
    pie = Topology.PIE in topologies
    s = _check_params(n + 1 if pie else n, s)
    lo = s if pie else ZERO
    return s, lo, ONE - lo - (n - 1) * s


def _allocation(vs, s, assignment) -> Allocation:
    """The solvers' result in the topology of vs; on a pie both ends are
    read mod 1, so a piece that ends at 1 ends at 0."""
    if vs[0].topology is Topology.PIE:
        assignment = {i: Interval(piece.left % ONE, piece.right % ONE)
                      for i, piece in assignment.items()}
    return Allocation(s, assignment, vs[0].topology)


# -- equitable -------------------------------------------------------------------


def equitable_bisection(vs: Sequence[PiecewiseConstantValuation], s,
                        order: Optional[Sequence[int]] = None,
                        eps=Fraction(1, 10**9)) -> Allocation:
    """Exactly separated allocation, agents placed left to right in the
    given order, all own-piece values exactly equal.  The pieces fill
    [0, 1] on a cake and [s, 1] on a pie.

    For a fixed order the equitable value is unique and equals the largest
    c for which pieces worth at least c fit, which the share walk
    ``_max_share`` finds; ``_pieces_worth`` then places pieces worth exactly
    c.  The result is exact, so ``eps`` is only checked to be positive; it
    is kept for callers that pass it.
    """
    n = len(vs)
    if frac(eps) <= 0:
        raise InputError("eps must be positive")
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise InputError(f"not a permutation of the agents: {order}")
    s, lo, _ = _stretch(vs, s)
    placed = [vs[agent] for agent in order]
    c = _max_share([(v.breakpoints, v.densities, v._prefix) for v in placed],
                   lo, ONE, s)
    pieces = _pieces_worth(placed, c, lo, ONE, s)
    return _allocation(vs, s, dict(zip(order, pieces)))


def _merged_slots(vs, lo, hi):
    """Merged breakpoints of all agents restricted to [lo, hi], plus the
    per-agent density of each merged slot and prefix values at slot edges."""
    pts = {lo, hi}
    for v in vs:
        for p in v.breakpoints:
            if lo < p < hi:
                pts.add(p)
    edges = sorted(pts)
    dens = []
    prefix = []
    for v in vs:
        dens.append([v.density_at(a, +1) for a in edges[:-1]])
        prefix.append([v.value_between(lo, e) for e in edges])
    return edges, dens, prefix


def _slot_candidates(vs, s, lo, hi, nvars):
    """For every slot assignment of the ends of the pieces [lo, x_1],
    [x_1+s, x_2], .., [x_{n-1}+s, hi] on the merged breakpoints of vs whose
    constant ends fit their slots: the placement rows over ``nvars``
    columns, and values[agent][q], each agent's value of piece q as an
    affine form over those columns."""
    n = len(vs)
    edges, dens, prefix = _merged_slots(vs, lo, hi)
    exprs = _position_exprs(n, s, lo, hi)
    for pairs in _slot_pairs(len(edges) - 1, n):
        rows = _placement_rows(edges, exprs, pairs, nvars)
        if rows is None:
            continue
        yield rows, [[_piece_value(edges, dens[agent], prefix[agent], left,
                                   right, a, b, nvars)
                      for (left, right), (a, b) in zip(exprs, pairs)]
                     for agent in range(n)]


def _pieces_at(xs, s, lo, hi) -> Optional[Tuple[Interval, ...]]:
    """Pieces [lo, x_1], [x_1+s, x_2], .., [x_{n-1}+s, hi]; None when one
    of them would run backwards."""
    lefts, rights = (lo, *(x + s for x in xs)), (*xs, hi)
    if any(a > b for a, b in zip(lefts, rights)):
        return None
    # from a list: tuple(<genexpr>) shrinks onto a free list
    return tuple([Interval(a, b) for a, b in zip(lefts, rights)])


# No caller in the library; kept while bench/tracing.py names it.
def _equitable_exact(vs, s, order, lo, hi) -> Tuple[Interval, ...]:
    """Exact equitable pieces for a fixed order: each slot assignment of
    the endpoints is one small feasibility LP with equality constraints
    'every piece is worth c' (c the last column)."""
    n = len(vs)
    for rows, values in _slot_candidates(vs, s, lo, hi, n):
        a_eq, b_eq = [], []
        for q, agent in enumerate(order):
            coeffs, const = values[agent][q]
            a_eq.append([*coeffs[:-1], -ONE])       # piece value == c
            b_eq.append(-const)
        res = simplex.solve_lp([ZERO] * n, *rows, a_eq, b_eq)
        if res.status != simplex.OPTIMAL:
            continue
        pieces = _pieces_at(res.x[:n - 1], s, lo, hi)
        if pieces is not None:
            return pieces
    raise InternalError("no exact equitable assignment found")


# -- envy-free -------------------------------------------------------------------


def _color(y: Tuple[int, ...], n: int) -> int:
    return sum(y) % n


def _vertex_pieces(y, m, n, s, lo, width):
    return _pieces_at([lo + Fraction(k, m) * width + i * s
                       for i, k in enumerate(y)],
                      s, lo, lo + width + (n - 1) * s)


def _favorite_piece(v, pieces) -> int:
    vals = [v.value_between(p.left, p.right) for p in pieces]
    best = max(vals)
    if best > 0:
        return vals.index(best)
    lens = [p.right - p.left for p in pieces]
    return lens.index(max(lens))


def _kuhn_cells(bases, ok):
    """Staircase cells from each base in turn: for every permutation of the
    coordinates, in ``permutations`` order, the walk that raises them by
    one each in that order, kept when ``ok`` holds at every step."""
    for base in bases:
        for perm in permutations(range(len(base))):
            verts = [base]
            for step in perm:
                y = verts[-1]
                y = y[:step] + (y[step] + 1,) + y[step + 1:]
                if not ok(y):
                    break
                verts.append(y)
            else:
                yield verts


def _cells_at(m: int, n: int):
    """All cells of the staircase triangulation of the order polytope
    0 <= y_1 <= ... <= y_{n-1} <= m, each as its vertex walk."""
    def ok(y):
        return all(a <= b for a, b in zip(y, y[1:])) and y[-1] <= m
    return _kuhn_cells(combinations_with_replacement(range(m + 1), n - 1), ok)


def _fully_labeled(verts, m, n, s, lo, width, vs, cache):
    labels = set()
    for y in verts:
        key = (m, y)
        if key not in cache:
            pieces = _vertex_pieces(y, m, n, s, lo, width)
            owner = _color(y, n)
            cache[key] = _favorite_piece(vs[owner], pieces)
        labels.add(cache[key])
    return len(labels) == n


def _refine_cell(verts, n: int):
    """Cells of the doubled grid inside one staircase cell.

    The cell is {base + sum mu_t e_steps[t] : 1 >= mu_0 >= ... >= 0}, where
    ``steps`` is the order in which its walk raises the coordinates.  After
    doubling, a grid point z lies in it when z - 2*base, read in that order,
    is non-increasing; the cells of those points are its 2^(n-1) halves.
    """
    steps = [next(i for i, (a, b) in enumerate(zip(u, w)) if a != b)
             for u, w in zip(verts, verts[1:])]
    # from a list: tuple(<genexpr>) shrinks onto a free list
    members = [tuple([2 * b + o for b, o in zip(verts[0], off)])
               for off in product(range(3), repeat=n - 1)
               if all(off[a] >= off[b] for a, b in zip(steps, steps[1:]))]
    return _kuhn_cells(members, set(members).__contains__)


def envy_free_sperner(vs: Sequence[PiecewiseConstantValuation], s,
                      eps=Fraction(1, 10**6)) -> Allocation:
    """Exactly separated allocation with every pairwise envy at most eps.
    The pieces fill [0, 1] on a cake and [s, 1] on a pie.

    Triangulate the simplex of piece lengths, let agents own grid vertices
    round-robin (every cell sees each agent once), label each vertex with
    its owner's favorite non-empty piece there, locate a fully-labeled
    cell, and keep halving it (relabeling each level) until the envy
    measured exactly at its barycenter drops within eps.  Each agent
    receives the piece she named at her own vertex.
    """
    n = len(vs)
    eps = frac(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    s, lo, width = _stretch(vs, s)
    if n == 1:
        return _allocation(vs, s, {0: Interval(lo, ONE)})

    cache: dict = {}

    def first_labeled(cells, m):
        return next((verts for verts in cells if _fully_labeled(
            verts, m, n, s, lo, width, vs, cache)), None)

    def cell_allocation(verts, m):
        # from a list: tuple(<genexpr>) shrinks onto a free list
        bary = tuple([Fraction(sum(y[i] for y in verts), n)
                      for i in range(n - 1)])
        pieces = _vertex_pieces(bary, m, n, s, lo, width)
        assignment = {_color(y, n): cache[(m, y)] for y in verts}
        alloc = {i: pieces[assignment[i]] for i in range(n)}
        values = [[v.value_between(p.left, p.right) for p in pieces]
                  for v in vs]
        envy = max(values[i][j] - values[i][assignment[i]]
                   for i in range(n) for j in range(n))
        return alloc, envy

    m_global = m = 2
    cell = first_labeled(_cells_at(m, n), m)
    for _ in range(512):
        if cell is None:
            raise InternalError("a fully-labeled cell must exist")
        alloc, envy = cell_allocation(cell, m)
        if envy <= eps:
            return _allocation(vs, s, alloc)
        sub = first_labeled(_refine_cell(cell, n), 2 * m)
        if sub is not None:
            cell, m = sub, 2 * m
            continue
        # Local refinement lost the label pattern: rescan globally, and
        # past a sane grid size hand over to the exact solver.
        m_global *= 2
        if m_global > 256:
            pieces, assignment = _envy_free_exact(vs, s, lo, ONE)
            return _allocation(
                vs, s, {i: pieces[assignment[i]] for i in range(n)})
        m = m_global
        cell = first_labeled(_cells_at(m, n), m)
    raise InternalError("refinement failed to reach the envy target")


def _envy_free_exact(vs, s, lo, hi):
    """Zero-envy fallback: for each slot assignment of the endpoints and
    each agent-to-piece assignment, one small feasibility LP whose
    constraints say everyone prefers her own piece."""
    n = len(vs)
    for rows, values in _slot_candidates(vs, s, lo, hi, n - 1):
        for assign in permutations(range(n)):
            # assign[j] = agent receiving piece j
            a_ub, b_ub = list(rows[0]), list(rows[1])
            for j, agent in enumerate(assign):
                own_coeffs, own_const = values[agent][j]
                for q, (coeffs, const) in enumerate(values[agent]):
                    if q != j:               # other piece <= own piece
                        a_ub.append([oc - sc for oc, sc
                                     in zip(coeffs, own_coeffs)])
                        b_ub.append(own_const - const)
            res = simplex.solve_lp([ZERO] * (n - 1), a_ub, b_ub)
            if res.status != simplex.OPTIMAL:
                continue
            pieces = _pieces_at(res.x, s, lo, hi)
            if pieces is not None:
                return pieces, {agent: j for j, agent in enumerate(assign)}
    raise InternalError("no exact envy-free assignment found")


# -- verification ----------------------------------------------------------------


def fairness_check(alloc: Allocation,
                   vs: Sequence[PiecewiseConstantValuation], s,
                   topology: Topology) -> FairnessReport:
    """Exact fairness audit of an allocation.

    ``mms_dominance[i]`` compares agent i's piece against her exact
    guaranteed share: over n pieces on a cake, over n+1 on a pie (the
    circle costs one extra separator, so the n-piece level cannot be
    promised there).
    """
    n = len(vs)
    s = frac(s)
    topology = Topology(topology)
    if set(alloc.assignment) != set(range(n)):
        raise InputError("allocation does not cover the agents")
    own = [vs[i].value(alloc.assignment[i]) for i in range(n)]
    envy = max(vs[i].value(alloc.assignment[j]) - own[i]
               for i in range(n) for j in range(n))
    gap = max(own) - min(own)
    ordered = [piece for _, piece in alloc.pieces_in_order()]
    sep_ok = pieces_separated(ordered, s, topology)
    dominance = []
    for i in range(n):
        # share 0 when the pieces do not fit: n on a cake, n+1 on a pie
        if topology is Topology.CAKE:
            bench = ZERO if (n - 1) * s >= 1 else exact_mms(vs[i], n, s)[0]
        elif (n + 1) * s >= 1:
            bench = ZERO
        else:
            bench = pie_exact_mms(vs[i], n + 1, s)
        dominance.append(own[i] >= bench)
    return FairnessReport(envy, gap, sep_ok, tuple(dominance))


# Kept as names: bench/slow_cases.py imports one, sepfair.__all__ both.
pie_envy_free = envy_free_sperner
pie_equitable = equitable_bisection
