import random
import re
from fractions import Fraction as F

import pytest

from sepfair.cake import (Relation, approx_mms, decide, mms_fair_allocation,
                          ordinal_allocation_2n_minus_1)
from sepfair.errors import InputError, ProtocolError
from sepfair.exact_mms import exact_mms
from sepfair.sessions import QuerySession, SubcakeSession
from sepfair.valuations import Interval

from helpers import (THIRDS, UNIFORM, UNIFORM_PIE, random_separation,
                     random_valuation, verify_allocation, verify_partition)


def sess(v):
    return QuerySession(v)


class TestDecide:
    def test_worked_example_atleast(self):
        s = sess(THIRDS)
        ok, witness = decide(s, 2, F(1, 3), F(2, 5), Relation.AT_LEAST)
        assert ok
        assert [(p.left, p.right) for p in witness.pieces] == \
            [(F(0), F(1, 3)), (F(2, 3), F(1))]
        assert s.query_count <= 2

    def test_worked_example_greater(self):
        s = sess(THIRDS)
        ok, _ = decide(s, 2, F(1, 3), F(2, 5), Relation.GREATER)
        assert not ok
        assert s.query_count <= 3

    def test_uniform_equal(self):
        s = sess(UNIFORM)
        ok, witness = decide(s, 2, F(1, 5), F(2, 5), Relation.EQUAL)
        assert ok
        verify_partition(UNIFORM, witness, F(2, 5))
        assert s.query_count <= 5

    def test_atleast_zero_trivially_true(self):
        s = sess(THIRDS)
        ok, witness = decide(s, 3, F(1, 4), F(0), Relation.AT_LEAST)
        assert ok and witness is not None
        assert s.query_count == 0

    def test_bad_separation_rejected(self):
        with pytest.raises(InputError):
            decide(sess(UNIFORM), 3, F(1, 2), F(1, 10), Relation.AT_LEAST)
        # on a subcake of length 1/2, three pieces fit only for s < 1/4
        message = re.escape("separation 2/5 outside (0, 1/4)")
        sub = SubcakeSession(sess(UNIFORM_PIE), offset=0, length=F(1, 2))
        with pytest.raises(InputError, match=message):
            decide(sub, 3, F(2, 5), F(-1, 10), Relation.GREATER)
        with pytest.raises(InputError, match=message):
            approx_mms(sub, 3, F(2, 5), F(1, 8))

    def test_budgets_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(25):
            v = random_valuation(rng)
            n = rng.randint(1, 4)
            s = random_separation(rng, F(1, max(n - 1, 1)))
            r = F(rng.randint(0, 24), 24)
            q = sess(v)
            decide(q, n, s, r, Relation.AT_LEAST)
            assert q.query_count <= n
            q = sess(v)
            decide(q, n, s, r, Relation.GREATER)
            assert q.query_count <= 2 * n - 1
            q = sess(v)
            decide(q, n, s, r, Relation.EQUAL)
            assert q.query_count <= 3 * n - 1

    def test_soundness_of_atleast_witness(self):
        rng = random.Random(7)
        for _ in range(40):
            v = random_valuation(rng)
            n = rng.randint(2, 4)
            s = random_separation(rng, F(1, n - 1))
            r = F(rng.randint(1, 24), 24)
            ok, witness = decide(sess(v), n, s, r, Relation.AT_LEAST)
            if ok:
                verify_partition(v, witness, r)

    def test_completeness_against_exact(self):
        rng = random.Random(13)
        for _ in range(25):
            v = random_valuation(rng, max_segments=3)
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            mms, _ = exact_mms(v, n, s)
            r = F(rng.randint(0, 20), 20)
            at_least, _ = decide(sess(v), n, s, r, Relation.AT_LEAST)
            assert at_least == (r <= mms) or r == 0
            greater, _ = decide(sess(v), n, s, r, Relation.GREATER)
            assert greater == (r < mms)

    def test_monotone_in_r(self):
        rng = random.Random(99)
        for _ in range(15):
            v = random_valuation(rng)
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            answers = [decide(sess(v), n, s, F(i, 10), Relation.AT_LEAST)[0]
                       for i in range(1, 10)]
            # once false, stays false
            assert all(a or not b
                       for a, b in zip(answers, answers[1:]))


class TestApproxMms:
    def test_uniform_bracket(self):
        s = sess(UNIFORM)
        r, witness = approx_mms(s, 2, F(1, 5), F(1, 100))
        assert F(2, 5) - F(1, 100) <= r <= F(2, 5)
        verify_partition(UNIFORM, witness, r)

    def test_worked_example_bracket(self):
        s = sess(THIRDS)
        r, witness = approx_mms(s, 2, F(1, 3), F(1, 64))
        assert F(2, 5) - F(1, 64) <= r <= F(2, 5)
        verify_partition(THIRDS, witness, r)

    def test_budget(self):
        for eps_pow in (6, 10, 20):
            s = sess(THIRDS)
            approx_mms(s, 2, F(1, 3), F(1, 2 ** eps_pow))
            assert s.query_count <= 2 * eps_pow + 2

    def test_against_exact_oracle(self):
        rng = random.Random(21)
        for _ in range(20):
            v = random_valuation(rng, max_segments=3)
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            eps = F(1, 2 ** rng.randint(4, 10))
            mms, _ = exact_mms(v, n, s)
            r, witness = approx_mms(sess(v), n, s, eps)
            assert r <= mms
            assert mms - r <= eps
            verify_partition(v, witness, r)


class TestMmsFairAllocation:
    def test_two_identical_worked_example_agents(self):
        sessions = [sess(THIRDS), sess(THIRDS)]
        alloc = mms_fair_allocation(sessions, F(1, 3), [F(2, 5), F(2, 5)])
        assert alloc.assignment[0] == Interval(F(0), F(1, 3))
        assert alloc.assignment[1] == Interval(F(2, 3), F(1))
        assert THIRDS.value(alloc.assignment[0]) == F(2, 5)
        assert THIRDS.value(alloc.assignment[1]) == F(3, 5)

    def test_identical_uniform_agents(self):
        for n in (2, 3, 4):
            s = F(1, 2 * n)
            share = (1 - (n - 1) * s) / n
            sessions = [sess(UNIFORM) for _ in range(n)]
            alloc = mms_fair_allocation(sessions, s, [share] * n)
            verify_allocation(alloc, [UNIFORM] * n, [share] * n)

    def test_random_instances_with_exact_thresholds(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(2, 3)
            s = random_separation(rng, F(1, n - 1))
            vs = [random_valuation(rng, max_segments=3) for _ in range(n)]
            thresholds = [exact_mms(v, n, s)[0] for v in vs]
            sessions = [sess(v) for v in vs]
            alloc = mms_fair_allocation(sessions, s, thresholds)
            verify_allocation(alloc, vs, thresholds)
            assert sum(q.query_count for q in sessions) <= \
                n * (n + 1) // 2 - 1

    def test_threshold_too_high_fails_with_agent(self):
        sessions = [sess(THIRDS), sess(THIRDS)]
        with pytest.raises(ProtocolError) as err:
            mms_fair_allocation(sessions, F(1, 3), [F(3, 5), F(3, 5)])
        assert err.value.agent is not None


class TestOrdinalAllocation:
    def test_single_agent_gets_everything(self):
        alloc = ordinal_allocation_2n_minus_1([sess(THIRDS)], F(1, 5))
        assert alloc.assignment[0] == Interval(F(0), F(1))

    def test_two_uniform_agents(self):
        sessions = [sess(UNIFORM), sess(UNIFORM)]
        alloc = ordinal_allocation_2n_minus_1(sessions, F(1, 10))
        share = F(4, 15)     # 1-out-of-3 level: (1 - 2/10) / 3
        verify_allocation(alloc, [UNIFORM] * 2, [share] * 2)

    def test_random_agents_meet_their_ordinal_share(self):
        rng = random.Random(31)
        for _ in range(10):
            n = 2
            s = random_separation(rng, F(1, 2 * n - 2))
            vs = [random_valuation(rng, max_segments=3) for _ in range(n)]
            sessions = [sess(v) for v in vs]
            alloc = ordinal_allocation_2n_minus_1(sessions, s)
            shares = [exact_mms(v, 2 * n - 1, s)[0] for v in vs]
            verify_allocation(alloc, vs, shares)
            budget = 10 * n * n / s
            assert sum(q.query_count for q in sessions) <= budget
