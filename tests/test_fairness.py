import random
import re
from fractions import Fraction as F

import pytest

from sepfair.cake import Allocation
from sepfair.errors import InputError
from sepfair.exact_mms import exact_mms, pie_exact_mms
from sepfair.fairness import (FairnessReport, _cells_at, _envy_free_exact,
                              _equitable_exact, _refine_cell,
                              envy_free_sperner, equitable_bisection,
                              fairness_check, pie_envy_free, pie_equitable)
from sepfair.sessions import QuerySession
from sepfair.valuations import (Interval, PiecewiseConstantValuation,
                                Topology, pieces_separated)

from helpers import (THIRDS, UNIFORM, UNIFORM_PIE, random_separation,
                     random_valuation)

EQ_EPS = F(1, 10 ** 9)
EF_EPS = F(1, 10 ** 6)


def exact_separation_ok(alloc, n):
    ordered = [piece for _, piece in sorted(alloc.assignment.items(),
                                            key=lambda kv: kv[1].left)]
    return pieces_separated(ordered, alloc.s, Topology.CAKE, exact=True)


def own_values(alloc, vs):
    return [vs[i].value(alloc.assignment[i]) for i in range(len(vs))]


class TestEquitable:
    def test_two_uniform_agents(self):
        alloc = equitable_bisection([UNIFORM, UNIFORM], F(1, 5), eps=EQ_EPS)
        vals = own_values(alloc, [UNIFORM, UNIFORM])
        assert max(vals) == min(vals)
        assert exact_separation_ok(alloc, 2)

    def test_identical_worked_example_agents(self):
        # the equal value settles at 2/5 exactly: pieces [0,4/9], [7/9,1]
        alloc = equitable_bisection([THIRDS, THIRDS], F(1, 3), order=(0, 1),
                                    eps=EQ_EPS)
        vals = own_values(alloc, [THIRDS, THIRDS])
        assert vals == [F(2, 5), F(2, 5)]
        assert exact_separation_ok(alloc, 2)

    def test_single_agent(self):
        alloc = equitable_bisection([THIRDS], F(1, 5), eps=EQ_EPS)
        assert alloc.assignment[0] == Interval(F(0), F(1))

    def test_respects_order(self):
        v_left = PiecewiseConstantValuation.normalized(
            ("0", "1/2", "1"), ("1", "0"))
        v_right = PiecewiseConstantValuation.normalized(
            ("0", "1/2", "1"), ("0", "1"))
        alloc = equitable_bisection([v_left, v_right], F(1, 10),
                                    order=(0, 1), eps=EQ_EPS)
        assert alloc.assignment[0].left == 0
        assert alloc.assignment[1].right == 1
        vals = [v_left.value(alloc.assignment[0]),
                v_right.value(alloc.assignment[1])]
        assert max(vals) == min(vals)

    def test_random_instances(self):
        rng = random.Random(23)
        for _ in range(12):
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            vs = [random_valuation(rng, max_segments=3) for _ in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            alloc = equitable_bisection(vs, s, order=order, eps=EQ_EPS)
            vals = own_values(alloc, vs)
            assert max(vals) == min(vals)
            assert exact_separation_ok(alloc, n)

    def test_eps_is_validated(self):
        with pytest.raises(InputError):
            equitable_bisection([UNIFORM, UNIFORM], F(1, 5), eps=0)

    def test_escalation_regression_case(self):
        # the fourth draw of random.Random(546), as in
        # `bench/slow_cases.py equitable`: its residual jumps across
        # worthless runs
        rng = random.Random(546)
        for _ in range(4):
            vs = [random_valuation(rng, max_segments=6) for _ in range(4)]
            s = random_separation(rng, F(1, 3)) / 2
        assert s == F(1, 16)
        assert_equitable(equitable_bisection(vs, s), vs, s, F(0))

    @pytest.mark.parametrize("pie", [False, True])
    def test_larger_sweep(self, pie):
        rng = random.Random(47 + pie)
        topology = Topology.PIE if pie else Topology.CAKE
        for _ in range(12):
            n = rng.randint(2, 8)
            s = random_separation(rng, F(1, n) if pie else F(1, n - 1))
            vs = [random_valuation(rng, topology, max_segments=12,
                                   zero_prob=0.3) for _ in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            lo = s if pie else F(0)
            alloc = equitable_bisection(vs, s, order, domain=(lo, F(1)))
            assert_equitable(alloc, vs, s, lo, order)


class TestEnvyFree:
    def test_identical_uniform_agents(self):
        alloc = envy_free_sperner([UNIFORM, UNIFORM], F(1, 5), EF_EPS)
        rep = fairness_check(alloc, [UNIFORM, UNIFORM], F(1, 5),
                             Topology.CAKE)
        assert rep.envy_max <= EF_EPS
        assert exact_separation_ok(alloc, 2)

    def test_right_loaded_agent_gets_right_piece(self):
        v2 = PiecewiseConstantValuation.normalized(
            ("0", "4/5", "1"), ("0", "1"))
        alloc = envy_free_sperner([UNIFORM, v2], F(1, 5), EF_EPS)
        assert alloc.assignment[1].left > alloc.assignment[0].left
        rep = fairness_check(alloc, [UNIFORM, v2], F(1, 5), Topology.CAKE)
        assert rep.envy_max <= EF_EPS

    def test_share_floor_on_outputs(self):
        rng = random.Random(71)
        for _ in range(6):
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            vs = [random_valuation(rng, max_segments=3) for _ in range(n)]
            alloc = envy_free_sperner(vs, s, EF_EPS)
            rep = fairness_check(alloc, vs, s, Topology.CAKE)
            assert rep.envy_max <= EF_EPS
            for i, v in enumerate(vs):
                floor = exact_mms(v, n, s)[0]
                assert v.value(alloc.assignment[i]) >= floor - EF_EPS


def exact_fallback_instances(seed, pie, count=6):
    """Small random instances with worthless segments, on [0, 1] or on the
    pie domain [s, 1] left after one separator at [0, s]."""
    rng = random.Random(seed)
    topology = Topology.PIE if pie else Topology.CAKE
    for _ in range(count):
        n = rng.randint(2, 3)
        s = random_separation(rng, F(1, n) if pie else F(1, n - 1))
        vs = [random_valuation(rng, topology, max_segments=3, zero_prob=0.3)
              for _ in range(n)]
        yield rng, vs, s, s if pie else F(0)


def assert_exact_gaps(pieces, s, lo, hi):
    """Pieces in order cover [lo, hi] with gaps of exactly s."""
    assert pieces[0].left == lo and pieces[-1].right == hi
    assert all(p.left <= p.right for p in pieces)
    assert all(b.left - a.right == s for a, b in zip(pieces, pieces[1:]))


def worth(v, piece):
    return v.value_between(piece.left, piece.right)


def assert_equitable(alloc, vs, s, lo, order=None):
    """Agents in order from lo to 1 with exact-s gaps, own values equal."""
    order = range(len(vs)) if order is None else order
    assert_exact_gaps([alloc.assignment[a] for a in order], s, lo, F(1))
    assert len({worth(v, alloc.assignment[a]) for a, v in enumerate(vs)}) == 1


class TestExactFallbacks:
    @pytest.mark.parametrize("pie", [False, True])
    def test_equitable_exact(self, pie):
        for rng, vs, s, lo in exact_fallback_instances(41 + pie, pie):
            order = list(range(len(vs)))
            rng.shuffle(order)
            pieces = _equitable_exact(vs, s, order, lo, F(1))
            assert_exact_gaps(pieces, s, lo, F(1))
            values = {worth(vs[agent], piece)
                      for agent, piece in zip(order, pieces)}
            assert len(values) == 1
            # the equitable value of a fixed order is unique
            alloc = equitable_bisection(vs, s, order, domain=(lo, F(1)))
            assert {worth(vs[agent], alloc.assignment[agent])
                    for agent in order} == values

    @pytest.mark.parametrize("pie", [False, True])
    def test_envy_free_exact(self, pie):
        for _, vs, s, lo in exact_fallback_instances(43 + pie, pie):
            pieces, assignment = _envy_free_exact(vs, s, lo, F(1))
            assert_exact_gaps(pieces, s, lo, F(1))
            assert sorted(assignment.values()) == list(range(len(vs)))
            for agent, v in enumerate(vs):
                own = worth(v, pieces[assignment[agent]])
                assert all(worth(v, piece) <= own for piece in pieces)


def test_vertex_labels_point_at_nonempty_pieces():
    # labeling precondition: a vertex's label always indexes a piece of
    # positive length in that vertex's partition
    from sepfair.fairness import _favorite_piece, _vertex_pieces
    rng = random.Random(12)
    for _ in range(60):
        n = rng.choice([2, 3])
        s = random_separation(rng, F(1, n - 1))
        width = 1 - (n - 1) * s
        v = random_valuation(rng, max_segments=3, zero_prob=0.6)
        m = rng.choice([2, 4, 8])
        y = sorted(rng.randint(0, m) for _ in range(n - 1))
        pieces = _vertex_pieces(tuple(y), m, n, s, F(0), width)
        label = _favorite_piece(v, pieces)
        assert pieces[label].right - pieces[label].left > 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_refinement_tiles_the_finer_grid(n):
    # every cell halves into 2^(n-1) cells of the doubled grid, and together
    # the halves are the doubled grid's cells, each once
    for m in (1, 2, 4):
        halves = []
        for cell in _cells_at(m, n):
            inside = list(_refine_cell(cell, n))
            assert len(inside) == 2 ** (n - 1)
            halves += [tuple(verts) for verts in inside]
        assert len(set(halves)) == len(halves)
        assert set(halves) == {tuple(verts) for verts in _cells_at(2 * m, n)}


def test_explicit_solvers_open_no_session(monkeypatch):
    # exact shares, audits and the envy-free and equitable solvers read the
    # valuations directly: none of them opens a counted query session
    def refuse(self, *args, **kwargs):
        raise AssertionError("a query session was opened")

    monkeypatch.setattr(QuerySession, "__init__", refuse)
    rng = random.Random(72)
    for topology in (Topology.CAKE, Topology.PIE):
        vs = [random_valuation(rng, topology, max_segments=3)
              for _ in range(2)]
        s = random_separation(rng, F(1, 3))
        if topology is Topology.CAKE:
            exact_mms(vs[0], 3, s)
            alloc = equitable_bisection(vs, s)
            envy_free_sperner(vs, s, EF_EPS)
        else:
            pie_exact_mms(vs[0], 3, s)
            alloc = pie_equitable(vs, s)
        fairness_check(alloc, vs, s, topology)


class TestFairnessCheck:
    def test_symmetric_zero_report(self):
        alloc = Allocation(F(1, 5), {0: Interval(0, F(2, 5)),
                                     1: Interval(F(3, 5), 1)})
        rep = fairness_check(alloc, [UNIFORM, UNIFORM], F(1, 5),
                             Topology.CAKE)
        assert rep.envy_max == 0
        assert rep.equitability_gap == 0
        assert rep.separation_ok
        assert rep.mms_dominance == (True, True)

    def test_worked_example_envy(self):
        alloc = Allocation(F(1, 3), {0: Interval(0, F(1, 3)),
                                     1: Interval(F(2, 3), 1)})
        rep = fairness_check(alloc, [THIRDS, THIRDS], F(1, 3), Topology.CAKE)
        assert rep.envy_max == F(1, 5)
        assert rep.equitability_gap == F(1, 5)
        assert rep.separation_ok
        assert rep.mms_dominance == (True, True)

    def test_pie_benchmark_is_one_more_piece(self):
        v = PiecewiseConstantValuation.uniform(Topology.PIE)
        s = F(1, 10)
        alloc = Allocation(s, {0: Interval(0, F(2, 5)),
                               1: Interval(F(1, 2), F(9, 10))},
                           Topology.PIE)
        rep = fairness_check(alloc, [v, v], s, Topology.PIE)
        bench = pie_exact_mms(v, 3, s)
        assert rep.mms_dominance == (F(2, 5) >= bench, F(2, 5) >= bench)

    def test_report_serialization(self):
        rep = FairnessReport(F(1, 5), F(0), True, (True, False))
        data = rep.to_json()
        assert data == {"envy_max": "1/5", "equitability_gap": "0",
                        "separation_ok": True,
                        "mms_dominance": [True, False]}

    def test_any_exact_partition_beats_someones_share(self):
        # for any exactly separated partition, some piece reaches the
        # agent's guaranteed level
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            v = random_valuation(rng, max_segments=3)
            cuts = sorted(F(rng.randint(0, 40), 40) * (1 - (n - 1) * s)
                          for _ in range(n - 1))
            pieces = []
            pos = F(0)
            bounds = list(cuts) + [1 - (n - 1) * s]
            prev = F(0)
            for j in range(n):
                length = bounds[j] - prev
                pieces.append(Interval(pos, pos + length))
                pos += length + s
                prev = bounds[j]
            assert pieces_separated(pieces, s, Topology.CAKE, exact=True)
            mms = exact_mms(v, n, s)[0]
            assert max(v.value(p) for p in pieces) >= mms


class TestPieWrappers:
    def test_pie_equitable(self):
        vs = [PiecewiseConstantValuation.uniform(Topology.PIE)] * 2
        alloc = pie_equitable(vs, F(1, 10), eps=EQ_EPS)
        vals = own_values(alloc, vs)
        assert max(vals) == min(vals)
        ordered = [p for _, p in sorted(alloc.assignment.items(),
                                        key=lambda kv: kv[1].left)]
        assert pieces_separated(ordered, F(1, 10), Topology.PIE, exact=True)

    def test_pie_envy_free(self):
        vs = [PiecewiseConstantValuation.uniform(Topology.PIE),
              PiecewiseConstantValuation.normalized(
                  ("0", "1/2", "1"), ("1", "3"), Topology.PIE)]
        alloc = pie_envy_free(vs, F(1, 10), eps=EF_EPS)
        rep = fairness_check(alloc, vs, F(1, 10), Topology.PIE)
        assert rep.envy_max <= EF_EPS

    def test_separation_bound_enforced(self):
        vs = [PiecewiseConstantValuation.uniform(Topology.PIE)] * 2
        with pytest.raises(InputError):
            pie_equitable(vs, F(1, 2))


@pytest.mark.parametrize("solver", (equitable_bisection, envy_free_sperner))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("s", ("-1/10", "0", "bound"))
def test_cake_solvers_keep_the_separation_rule(solver, n, s):
    # at s = 1/(n-1) the n pieces only fit as points
    bound = F(1, n - 1)
    s = bound if s == "bound" else F(s)
    message = f"separation {s} outside (0, {bound})"
    with pytest.raises(InputError, match=re.escape(message)):
        solver([UNIFORM] * n, s)


@pytest.mark.parametrize("solver", (equitable_bisection, envy_free_sperner))
@pytest.mark.parametrize("vs", ([UNIFORM_PIE] * 2, [UNIFORM, UNIFORM_PIE]),
                         ids=("pie", "mixed"))
def test_cake_solvers_need_one_topology_and_the_wrap_gap(solver, vs):
    # on a pie, pieces over all of [0, 1] could touch across 0
    with pytest.raises(InputError):
        solver(vs, F(1, 10))


@pytest.mark.parametrize("solver", (equitable_bisection, envy_free_sperner))
def test_cake_solvers_on_a_pie_domain_leaving_the_wrap_gap(solver):
    s = F(1, 10)
    alloc = solver([UNIFORM_PIE] * 2, s, domain=(F(0), 1 - s))
    assert alloc.topology is Topology.PIE
    ordered = [piece for _, piece in alloc.pieces_in_order()]
    assert pieces_separated(ordered, s, Topology.PIE, exact=True)
