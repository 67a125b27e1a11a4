import random
from fractions import Fraction as F

import pytest

from sepfair import simplex
from sepfair.cake import Allocation, Relation, decide
from sepfair.errors import InputError
from sepfair.exact_mms import (IntervalList, LPInstance, _max_share,
                               brute_mms_interval_enum, exact_mms,
                               exact_mms_allocation, explicit_decide_greater,
                               pie_exact_mms, select_interval_list,
                               solve_lp_exact)
from sepfair.fairness import equitable_bisection, fairness_check, pie_equitable
from sepfair.sessions import QuerySession
from sepfair.valuations import (Interval, PiecewiseConstantValuation,
                                Topology, minimum_window_value)

from helpers import (THIRDS, UNIFORM, UNIFORM_PIE, pie_enum_oracle,
                     pie_grid_oracle, random_separation, random_valuation,
                     verify_allocation, verify_partition)


def cake_engine(v, n, s):
    return _max_share([(v.breakpoints, v.densities, v._prefix)] * n, F(0),
                      F(1), s)


def assert_optimal_witness(v, n, s):
    """exact_mms returns a partition with exact-s gaps from 0 to 1 whose
    pieces are all worth at least the share, and exactly the share when it
    is positive; returns the share."""
    mms, part = exact_mms(v, n, s)
    assert len(part.pieces) == n
    verify_partition(v, part, mms, exact=True)
    if mms > 0:
        assert all(v.value(piece) == mms for piece in part.pieces)
    return mms


class TestLP:
    def test_all_cuts_fixed(self):
        # k = 1: both endpoints pinned, the optimum is the piece value
        lp = LPInstance(UNIFORM, F(1, 5), F(1), IntervalList(((1, 1),)))
        sol = solve_lp_exact(lp)
        assert sol.status == simplex.OPTIMAL
        assert sol.objective == 1

    def test_uniform_two_pieces(self):
        lp = LPInstance(UNIFORM, F(1, 5), F(1), IntervalList(((1, 1), (1, 1))))
        sol = solve_lp_exact(lp)
        assert sol.objective == F(2, 5)

    def test_infeasible_membership(self):
        # the last piece must end at t = 1, which is outside segment 1
        lp = LPInstance(THIRDS, F(1, 3), F(1), IntervalList(((1, 1), (1, 1))))
        sol = solve_lp_exact(lp)
        assert sol.status == simplex.INFEASIBLE

    def test_worked_example_list(self):
        lp = LPInstance(THIRDS, F(1, 3), F(1), IntervalList(((1, 2), (3, 3))))
        sol = solve_lp_exact(lp)
        assert sol.objective == F(2, 5)

    def test_monotonicity_rejected(self):
        with pytest.raises(InputError):
            IntervalList(((2, 1),))


class TestSelectIntervalList:
    def test_worked_example(self):
        assert select_interval_list(THIRDS, 2, F(1, 3)).entries == \
            ((1, 2), (3, 3))

    def test_uniform_single_segment(self):
        for n in (2, 3):
            got = select_interval_list(UNIFORM, n, F(1, 2 * n))
            assert got.entries == tuple((1, 1) for _ in range(n))


class TestExactMms:
    def test_worked_example(self):
        mms, part = exact_mms(THIRDS, 2, F(1, 3))
        assert mms == F(2, 5)
        verify_partition(THIRDS, part, mms, exact=True)

    def test_uniform_analytic(self):
        assert exact_mms(UNIFORM, 3, F(1, 10))[0] == F(4, 15)
        assert exact_mms(UNIFORM, 2, F(1, 5))[0] == F(2, 5)

    def test_single_agent(self):
        mms, part = exact_mms(THIRDS, 1, F(1, 2))
        assert mms == 1
        assert part.pieces == (Interval(F(0), F(1)),)

    def test_zero_share_shortcircuit(self):
        v = PiecewiseConstantValuation.normalized(
            ("0", "1/20", "1"), ("1", "0"))
        mms, part = exact_mms(v, 2, F(1, 2))
        assert mms == 0
        verify_partition(v, part, 0)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.choice([2, 3])
            v = random_valuation(rng, max_segments=5 if n == 2 else 4)
            s = random_separation(rng, F(1, n - 1))
            assert exact_mms(v, n, s)[0] == brute_mms_interval_enum(v, n, s)

    def test_monotone_in_s_and_n(self):
        rng = random.Random(55)
        for _ in range(8):
            v = random_valuation(rng, max_segments=4)
            grid = [F(1, 20), F(1, 10), F(1, 5), F(3, 10), F(2, 5)]
            values = [exact_mms(v, 2, s)[0] for s in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))
            for s in (F(1, 10), F(1, 5)):
                by_n = [exact_mms(v, n, s)[0] for n in (2, 3)]
                assert by_n[0] >= by_n[1]

    def test_cross_module_consistency(self):
        rng = random.Random(77)
        for _ in range(15):
            v = random_valuation(rng, max_segments=4)
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            mms, _ = exact_mms(v, n, s)
            assert decide(QuerySession(v), n, s, mms,
                          Relation.AT_LEAST)[0] or mms == 0
            assert not decide(QuerySession(v), n, s, mms,
                              Relation.GREATER)[0]

    def test_pie_rejected(self):
        with pytest.raises(InputError):
            exact_mms(UNIFORM_PIE, 2, F(1, 5))


class TestShareEngine:
    """The parametric greedy against independent oracles."""

    def test_matches_enumeration_oracle_on_sparse_cakes(self):
        rng = random.Random(601)
        for _ in range(40):
            n = rng.choice([2, 3])
            v = random_valuation(rng, max_segments=5, zero_prob=0.4)
            s = random_separation(rng, F(1, n - 1))
            share = cake_engine(v, n, s)
            assert share == brute_mms_interval_enum(v, n, s)
            assert assert_optimal_witness(v, n, s) == share

    def test_matches_retired_lp_path(self):
        rng = random.Random(602)
        for _ in range(8):
            n = rng.randint(4, 6)
            v = random_valuation(rng, max_segments=8, zero_prob=0.3)
            s = random_separation(rng, F(1, n - 1))
            share = cake_engine(v, n, s)
            if not explicit_decide_greater(v, n, s, F(0)):
                assert share == 0
                continue
            sol = solve_lp_exact(
                LPInstance(v, s, F(1), select_interval_list(v, n, s)))
            assert share == sol.objective
            assert assert_optimal_witness(v, n, s) == share

    def test_pie_matches_enumeration_oracle(self):
        rng = random.Random(603)
        for k, d, count in ((2, 4, 12), (3, 3, 4), (4, 2, 2)):
            for _ in range(count):
                v = random_valuation(rng, Topology.PIE, max_segments=d,
                                     zero_prob=0.3)
                s = random_separation(rng, F(1, k))
                assert pie_exact_mms(v, k, s) == pie_enum_oracle(v, k, s)

    def test_large_cakes(self):
        # n = 16 with 32 to 40 segments is far past what the enumerations
        # can reach; exact_mms certifies itself, and the query-level
        # decisions agree
        rng = random.Random(604)
        n = 16
        for _ in range(3):
            v = random_valuation(rng, max_segments=40, zero_prob=0.3)
            while len(v.densities) < 32:
                v = random_valuation(rng, max_segments=40, zero_prob=0.3)
            s = random_separation(rng, F(1, 15)) / 4
            mms = assert_optimal_witness(v, n, s)
            assert mms > 0
            assert decide(QuerySession(v), n, s, mms, Relation.AT_LEAST)[0]
            assert not decide(QuerySession(v), n, s, mms,
                              Relation.GREATER)[0]


class TestPieAuditRegression:
    """The pie shares of the 3-agent audits of random.Random(550), k = 4,
    which the slot enumeration took 3 to 16 s each to compute."""

    @staticmethod
    def instances():
        rng = random.Random(550)
        for _ in range(3):
            vs = [random_valuation(rng, Topology.PIE, max_segments=3)
                  for _ in range(3)]
            yield vs, random_separation(rng, F(1, 4))

    def test_between_grid_oracle_and_enumeration(self):
        for i, (vs, s) in enumerate(self.instances()):
            for v in vs:
                share = pie_exact_mms(v, 4, s)
                grid = pie_grid_oracle(v, 4, s)
                assert grid <= share
                assert share - grid <= 2 * max(v.densities) / 2000 + s / 2000
            if i == 0:
                assert pie_exact_mms(vs[0], 4, s) == pie_enum_oracle(
                    vs[0], 4, s)


class TestNoLP:
    """Exact shares and audits never reach the simplex."""

    @pytest.fixture(autouse=True)
    def no_simplex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an LP was solved")
        monkeypatch.setattr(simplex, "solve_lp", refuse)

    def test_cake_share_and_audit(self):
        rng = random.Random(605)
        for _ in range(10):
            n = rng.randint(2, 5)
            vs = [random_valuation(rng, max_segments=6) for _ in range(n)]
            s = random_separation(rng, F(1, n - 1))
            shares = [exact_mms(v, n, s)[0] for v in vs]
            alloc = exact_mms_allocation(vs, s)
            rep = fairness_check(alloc, vs, s, Topology.CAKE)
            assert rep.mms_dominance == (True,) * n
            assert all(vs[i].value(alloc.assignment[i]) >= shares[i]
                       for i in range(n))

    def test_pie_share_and_audit(self):
        rng = random.Random(606)
        for _ in range(6):
            vs = [random_valuation(rng, Topology.PIE, max_segments=4)
                  for _ in range(3)]
            s = random_separation(rng, F(1, 4))
            w = (1 - 3 * s) / 3
            alloc = Allocation(s, {i: Interval(i * (w + s), i * (w + s) + w)
                                   for i in range(3)}, Topology.PIE)
            rep = fairness_check(alloc, vs, s, Topology.PIE)
            assert rep.separation_ok
            assert rep.mms_dominance == tuple(
                vs[i].value(alloc.assignment[i]) >= pie_exact_mms(vs[i], 4, s)
                for i in range(3))

    @pytest.mark.parametrize("pie", [False, True])
    def test_equitable(self, pie):
        rng = random.Random(607 + pie)
        topology = Topology.PIE if pie else Topology.CAKE
        for _ in range(8):
            n = rng.randint(2, 4)
            vs = [random_valuation(rng, topology, max_segments=6,
                                   zero_prob=0.3) for _ in range(n)]
            s = random_separation(rng, F(1, n) if pie else F(1, n - 1))
            alloc = (pie_equitable if pie else equitable_bisection)(vs, s)
            assert len({vs[i].value(alloc.assignment[i])
                        for i in range(n)}) == 1


class TestBruteOracle:
    def test_worked_example(self):
        assert brute_mms_interval_enum(THIRDS, 2, F(1, 3)) == F(2, 5)

    def test_uniform(self):
        assert brute_mms_interval_enum(UNIFORM, 2, F(1, 5)) == F(2, 5)

    def test_size_guard(self):
        v = random_valuation(random.Random(0), max_segments=4)
        with pytest.raises(InputError):
            brute_mms_interval_enum(v, 8, F(1, 100), max_lists=10)


class TestExactAllocation:
    def test_two_identical_worked_example_agents(self):
        alloc = exact_mms_allocation([THIRDS, THIRDS], F(1, 3))
        values = sorted(THIRDS.value(alloc.assignment[i]) for i in range(2))
        assert values == [F(2, 5), F(3, 5)]

    def test_uniform_agents(self):
        n, s = 3, F(1, 10)
        alloc = exact_mms_allocation([UNIFORM] * n, s)
        share = (1 - (n - 1) * s) / n
        verify_allocation(alloc, [UNIFORM] * n, [share] * n)

    def test_random_agents(self):
        rng = random.Random(8)
        for _ in range(8):
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            vs = [random_valuation(rng, max_segments=3) for _ in range(n)]
            alloc = exact_mms_allocation(vs, s)
            thresholds = [exact_mms(v, n, s)[0] for v in vs]
            verify_allocation(alloc, vs, thresholds)


class TestPieExact:
    def test_uniform(self):
        assert pie_exact_mms(UNIFORM_PIE, 3, F(1, 10)) == F(7, 30)
        assert pie_exact_mms(UNIFORM_PIE, 2, F(1, 10)) == F(2, 5)

    def test_single_piece(self):
        # one piece: the complement of the least valuable length-s arc
        v = PiecewiseConstantValuation.normalized(
            ("0", "1/2", "1"), ("3", "1"), Topology.PIE)
        assert pie_exact_mms(v, 1, F(1, 4)) == 1 - F(1, 4) * F(1, 2)
        rng = random.Random(31)
        for _ in range(30):
            v = random_valuation(rng, Topology.PIE, max_segments=6,
                                 zero_prob=0.3)
            s = random_separation(rng, F(1))
            assert pie_exact_mms(v, 1, s) == 1 - minimum_window_value(v, s)

    def test_matches_grid_oracle_from_below(self):
        from helpers import pie_grid_oracle
        rng = random.Random(30)
        for _ in range(3):
            v = random_valuation(rng, Topology.PIE, max_segments=2)
            s = F(1, 10)
            exact = pie_exact_mms(v, 3, s)
            grid = pie_grid_oracle(v, 3, s)
            assert grid <= exact
            assert exact - grid <= 2 * max(v.densities) / 2000 + F(1, 1000)
