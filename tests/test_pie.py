import random
import re
from fractions import Fraction as F

import pytest

from sepfair.adversary import pie_threshold_witnesses
from sepfair.errors import InputError, ProtocolError
from sepfair.exact_mms import pie_exact_mms
from sepfair.fairness import pie_envy_free, pie_equitable
from sepfair.pie import (pie_allocation_ordinal, pie_approx_mms,
                         pie_decide_equals_one_over_k, pie_decide_positive,
                         pie_via_cake_allocation)
from sepfair.sessions import QuerySession
from sepfair.valuations import (Interval, PiecewiseConstantValuation,
                                Topology, pieces_separated)

from helpers import (UNIFORM_PIE, max_density, pie_grid_oracle,
                     random_separation, random_valuation, verify_allocation)


def sess(v):
    return QuerySession(v)


def pie(breakpoints, weights):
    return PiecewiseConstantValuation.normalized(
        breakpoints, weights, Topology.PIE)


# Two agents valuing short arcs at the top and bottom / left and right;
# their guaranteed shares are 1/2 but no separated allocation can serve
# both, which is why thresholds of zero must still be honored.
def crossed_pair(s=F(3, 10), eps=F(1, 25)):
    half = eps / 2
    alice = pie(("0", str(half), str(F(1, 2) - half), str(F(1, 2) + half),
                 str(1 - half), "1"),
                ("1", "0", "1", "0", "1"))
    bob = pie(("0", str(F(1, 4) - half), str(F(1, 4) + half),
               str(F(3, 4) - half), str(F(3, 4) + half), "1"),
              ("0", "1", "0", "1", "0"))
    return alice, bob


class TestOrdinalAllocation:
    def test_two_uniform_agents(self):
        sessions = [sess(UNIFORM_PIE), sess(UNIFORM_PIE)]
        t = F(1, 3) - F(1, 10)
        alloc = pie_allocation_ordinal(sessions, F(1, 10), [1, 1], [t, t])
        verify_allocation(alloc, [UNIFORM_PIE] * 2, [t, t])
        assert sum(q.query_count for q in sessions) == 3  # n(n+1)/2

    def test_last_agent_gets_threshold_not_remainder(self):
        alloc = pie_allocation_ordinal(
            [sess(UNIFORM_PIE)], F(1, 10), [1], [F(1, 4)])
        piece = alloc.assignment[0]
        assert UNIFORM_PIE.value(piece) == F(1, 4)

    def test_plural_share_spaced_arcs_instance(self):
        # five arcs worth 1/5 each, 1/30 long, spaced 1/6 apart: taking the
        # two worst of five pieces secures 2/5, above the 1-out-of-3 level
        arcs = []
        bps, weights = ["0"], []
        for j in range(5):
            start = F(j, 5)
            arcs.append((start, start + F(1, 30)))
        for start, end in arcs:
            if str(start) != bps[-1]:
                bps.append(str(start))
                weights.append(F(0))
            bps.append(str(end))
            weights.append(F(1))
        bps.append("1")
        weights.append(F(0))
        v = pie(bps, weights)
        sessions = [sess(v), sess(v)]
        alloc = pie_allocation_ordinal(sessions, F(1, 6), [2, 2],
                                       [F(2, 5), F(2, 5)])
        verify_allocation(alloc, [v, v], [F(2, 5), F(2, 5)])

    def test_zero_thresholds_always_work(self):
        alice, bob = crossed_pair()
        sessions = [sess(alice), sess(bob)]
        alloc = pie_allocation_ordinal(sessions, F(3, 10), [1, 1],
                                       [F(0), F(0)])
        verify_allocation(alloc, [alice, bob], [F(0), F(0)])

    def test_excessive_threshold_fails(self):
        alice, bob = crossed_pair()
        with pytest.raises(ProtocolError):
            pie_allocation_ordinal([sess(alice), sess(bob)], F(3, 10),
                                   [1, 1], [F(1, 2), F(1, 2)])

    def test_random_instances_meet_grid_oracle_share(self):
        rng = random.Random(44)
        for _ in range(6):
            n = 2
            s = F(1, 10)
            vs = [random_valuation(rng, Topology.PIE, max_segments=3)
                  for _ in range(n)]
            thresholds = [pie_grid_oracle(v, n + 1, s) for v in vs]
            sessions = [sess(v) for v in vs]
            alloc = pie_allocation_ordinal(sessions, s, [1] * n, thresholds)
            verify_allocation(alloc, vs, thresholds)


class TestEqualsOneOverK:
    def test_uniform_is_below_the_ceiling(self):
        s2 = sess(UNIFORM_PIE)
        ok, witness = pie_decide_equals_one_over_k(s2, 2, F(1, 10))
        assert not ok and witness is None
        assert s2.query_count <= 6 * 2 / F(1, 10)

    def test_constructed_zero_separators(self):
        v = pie(("0", "2/5", "1/2", "9/10", "1"), ("1", "0", "1", "0"))
        s2 = sess(v)
        ok, witness = pie_decide_equals_one_over_k(s2, 2, F(1, 10))
        assert ok
        for piece in witness.pieces:
            assert v.value(piece) == F(1, 2)
        assert pieces_separated(witness.pieces, F(1, 10), Topology.PIE)
        # all separators carry no value
        pieces = sorted(witness.pieces, key=lambda p: p.left)
        for i, piece in enumerate(pieces):
            nxt = pieces[(i + 1) % len(pieces)]
            assert v.value_between(piece.right, nxt.left) == 0
        assert s2.query_count <= 6 * 2 / F(1, 10)

    def test_no_long_zero_arc_means_no(self):
        rng = random.Random(3)
        for _ in range(6):
            v = random_valuation(rng, Topology.PIE, max_segments=3,
                                 zero_prob=0.0)
            k = rng.choice([2, 3])
            s = F(1, 12)
            ok, _ = pie_decide_equals_one_over_k(sess(v), k, s)
            assert not ok     # strictly positive density everywhere

    def test_budget_on_random_instances(self):
        rng = random.Random(9)
        for _ in range(6):
            v = random_valuation(rng, Topology.PIE, max_segments=4)
            k = rng.choice([2, 3])
            s = rng.choice([F(1, 8), F(1, 10), F(3, 20)])
            if s >= F(1, k):
                continue
            q = sess(v)
            pie_decide_equals_one_over_k(q, k, s)
            assert q.query_count <= 6 * k / s


class TestPositive:
    def test_uniform(self):
        q = sess(UNIFORM_PIE)
        assert pie_decide_positive(q, 2, F(1, 4))
        assert q.query_count <= 10 * 2

    def test_single_small_arc(self):
        v = pie(("0", "1/20", "1"), ("1", "0"))
        assert not pie_decide_positive(sess(v), 2, F(1, 4))
        assert pie_grid_oracle(v, 2, F(1, 4)) == 0

    def test_two_antipodal_arcs(self):
        v = pie(("0", "1/10", "1/2", "3/5", "1"), ("1", "0", "1", "0"))
        assert pie_decide_positive(sess(v), 2, F(1, 4))
        assert pie_grid_oracle(v, 2, F(1, 4)) > 0

    def test_separation_assumption_required(self):
        with pytest.raises(InputError):
            pie_decide_positive(sess(UNIFORM_PIE), 2, F(1, 3))

    def test_agrees_with_grid_oracle(self):
        rng = random.Random(62)
        for _ in range(6):
            v = random_valuation(rng, Topology.PIE, max_segments=3)
            k = 2
            s = F(1, 8)
            got = pie_decide_positive(sess(v), k, s)
            oracle = pie_grid_oracle(v, k, s, grid=400)
            if oracle > 0:
                assert got     # a grid witness is a real witness
            if not got:
                assert oracle == 0


class TestApproxMms:
    def test_uniform(self):
        q = sess(UNIFORM_PIE)
        r, witness = pie_approx_mms(q, 2, F(1, 5), F(1, 20))
        assert F(1, 4) <= r <= F(3, 10)
        assert pieces_separated(witness.pieces, F(1, 5), Topology.PIE)
        for piece in witness.pieces:
            assert UNIFORM_PIE.value(piece) >= r
        assert q.query_count <= 2 / F(1, 20) + 1

    def test_crossed_instance_half_share(self):
        alice, _ = crossed_pair()
        q = sess(alice)
        r, witness = pie_approx_mms(q, 2, F(3, 10), F(1, 100))
        assert F(1, 2) - F(1, 100) <= r <= F(1, 2)
        for piece in witness.pieces:
            assert alice.value(piece) >= r

    def test_concentrated_value_share_is_zero(self):
        # all value inside one arc shorter than s: no two separated pieces
        # can both be worth anything, and no mark-aligned partition exists
        v = pie(("0", "1/100", "1"), ("1", "0"))
        q = sess(v)
        r, witness = pie_approx_mms(q, 2, F(1, 4), F(1, 10))
        assert r == 0
        assert pieces_separated(witness.pieces, F(1, 4), Topology.PIE)
        assert pie_grid_oracle(v, 2, F(1, 4)) == 0

    def test_against_grid_oracle(self):
        rng = random.Random(88)
        for _ in range(5):
            v = random_valuation(rng, Topology.PIE, max_segments=3)
            k = 2
            s = F(1, 10)
            eps = F(1, 25)
            q = sess(v)
            r, witness = pie_approx_mms(q, k, s, eps)
            oracle = pie_grid_oracle(v, k, s)
            slack = 2 * max_density(v) / 2000 + F(1, 1000)
            assert r <= oracle + slack       # both sit just under the share
            assert oracle - r <= eps
            for piece in witness.pieces:
                assert v.value(piece) >= r
            assert q.query_count <= 2 / eps + 1

    def test_against_exact_share(self):
        # Every eps/2 divides 1, so on the pies whose last segment is
        # worthless a mark sits at value exactly 1 before the circle
        # closes, and that mark ties with mark 0 one turn later.
        rng = random.Random(2037)
        worthless_end = 0
        for idx in range(40):
            k = rng.randint(2, 5)
            eps = (F(1, 6), F(1, 20), F(2, 37))[idx % 3]
            v = random_valuation(rng, Topology.PIE, max_segments=8,
                                 zero_prob=0.3)
            if idx % 2 and len(v.densities) > 1 and any(v.densities[:-1]):
                v = pie(v.breakpoints, v.densities[:-1] + (0,))
                worthless_end += 1
            s = random_separation(rng, F(1, k))
            q = sess(v)
            r, witness = pie_approx_mms(q, k, s, eps)
            share = pie_exact_mms(v, k, s)
            assert share - eps <= r <= share, (v, k, s, eps)
            assert pieces_separated(witness.pieces, s, Topology.PIE)
            assert len(witness.pieces) == k
            for piece in witness.pieces:
                assert v.value(piece) >= r
            assert q.query_count <= 2 / eps + 1
        assert worthless_end >= 15


class TestViaCake:
    def test_two_uniform_agents_approx(self):
        sessions = [sess(UNIFORM_PIE), sess(UNIFORM_PIE)]
        alloc = pie_via_cake_allocation(sessions, F(1, 10), "approx",
                                        F(1, 100))
        target = F(7, 30) - F(1, 100)
        verify_allocation(alloc, [UNIFORM_PIE] * 2, [target, target])

    def test_single_agent_ordinal_gets_opened_pie(self):
        alloc = pie_via_cake_allocation([sess(UNIFORM_PIE)], F(1, 10),
                                        "ordinal2n")
        assert alloc.assignment[0] == Interval(F(1, 10), F(0))
        assert UNIFORM_PIE.value(alloc.assignment[0]) == F(9, 10)

    def test_ordinal_2n_checks_s_on_the_opened_pie(self):
        # 5 parts fit a unit cake at s = 1/5, but not the opened pie [s, 1]
        sessions = [sess(UNIFORM_PIE) for _ in range(3)]
        with pytest.raises(InputError,
                           match=re.escape("separation 1/5 outside (0, 1/5)")):
            pie_via_cake_allocation(sessions, F(1, 5), "ordinal2n")

    def test_random_agents_ordinal_2n(self):
        rng = random.Random(15)
        for _ in range(4):
            n = 2
            s = F(1, 10)
            vs = [random_valuation(rng, Topology.PIE, max_segments=3)
                  for _ in range(n)]
            sessions = [sess(v) for v in vs]
            alloc = pie_via_cake_allocation(sessions, s, "ordinal2n")
            oracles = [pie_grid_oracle(v, 2 * n, s) for v in vs]
            verify_allocation(alloc, vs, oracles)


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("entry", ("one-over-k", "approx", "ordinal",
                                   "via-cake", "witness", "equitable",
                                   "envy-free"))
def test_pie_entry_points_keep_the_separation_rule(entry, k):
    """k pieces on a pie take k separators, so s = 1/k leaves no room:
    every entry point refuses it with the one message.  The ordinal and
    via-cake allocations serve k - 1 agents their 1-out-of-k share."""
    s, agents = F(1, k), k - 1
    calls = {
        "one-over-k": lambda: pie_decide_equals_one_over_k(
            sess(UNIFORM_PIE), k, s),
        "approx": lambda: pie_approx_mms(sess(UNIFORM_PIE), k, s, F(1, 8)),
        "ordinal": lambda: pie_allocation_ordinal(
            [sess(UNIFORM_PIE)] * agents, s, [1] * agents, [0] * agents),
        "via-cake": lambda: pie_via_cake_allocation(
            [sess(UNIFORM_PIE)] * agents, s, eps=F(1, 8)),
        "witness": lambda: pie_threshold_witnesses(k, s, []),
        "equitable": lambda: pie_equitable([UNIFORM_PIE] * k, s),
        "envy-free": lambda: pie_envy_free([UNIFORM_PIE] * k, s),
    }
    with pytest.raises(InputError,
                       match=re.escape(f"separation {s} outside (0, {s})")):
        calls[entry]()
