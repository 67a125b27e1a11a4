import random
from fractions import Fraction as F

import pytest

from sepfair import simplex
from sepfair.cake import Relation, decide
from sepfair.errors import InputError
from sepfair.exact_mms import (IntervalList, LPInstance,
                               brute_mms_interval_enum, exact_mms,
                               exact_mms_allocation, pie_exact_mms,
                               select_interval_list, solve_lp_exact)
from sepfair.sessions import QuerySession
from sepfair.valuations import Interval, PiecewiseConstantValuation, Topology

from helpers import (THIRDS, UNIFORM, UNIFORM_PIE, random_separation,
                     random_valuation, verify_allocation, verify_partition)


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
