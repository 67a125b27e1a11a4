import random
from fractions import Fraction as F

import pytest

from sepfair.adversary import (FindSumAdversary, HasLowValueAdversary,
                               MmsReductionSession, bisection_share_candidate,
                               cut_walk_candidate, falsify_share_solver,
                               falsify_window_solver,
                               grid_eval_share_candidate,
                               pie_threshold_witnesses, window_scan_candidate)
from sepfair.errors import InputError
from sepfair.exact_mms import pie_exact_mms
from sepfair.sessions import QueryRecord, replay_consistent
from sepfair.valuations import minimum_window_value

from helpers import pie_grid_oracle


class TestFindSum:
    def test_endpoints_prerecorded(self):
        adv = FindSumAdversary(F(1, 10))
        assert adv.g_value(F(0)) == 0
        assert adv.g_value(F(1)) == 1

    def test_inverse_avoids_recorded_offsets(self):
        adv = FindSumAdversary(F(1, 10))
        x = adv.g_inverse(F(1, 2))
        assert 0 < x < 1
        assert x - F(1, 10) not in adv.recorded or x - F(1, 10) == x
        assert x + F(1, 10) not in adv.recorded

    def test_monotone_and_forbidden_sums(self):
        rng = random.Random(4)
        for s in (F(1, 10), F(1, 4), F(1, 3)):
            adv = FindSumAdversary(s)
            for _ in range(50):
                if rng.random() < 0.5:
                    adv.g_value(F(rng.randint(0, 100), 100))
                else:
                    adv.g_inverse(F(rng.randint(0, 100), 100))
            pts = sorted(adv.recorded.items())
            assert all(v2 > v1 for (_, v1), (_, v2) in zip(pts, pts[1:]))
            for p, v in pts:
                other = adv.recorded.get(p + s)
                if other is not None:
                    assert v + other != 1

    def test_finalize_falsifies_any_point(self):
        rng = random.Random(9)
        for s in (F(1, 10), F(1, 4), F(1, 3)):
            adv = FindSumAdversary(s)
            for _ in range(30):
                if rng.random() < 0.5:
                    adv.g_value(F(rng.randint(0, 60), 60))
                else:
                    adv.g_inverse(F(rng.randint(0, 60), 60))
            x0 = F(rng.randint(0, 30), 30) * (1 - s)
            table = adv.finalize(x0)
            values = dict(table)
            assert values[x0] + values[x0 + s] != 1
            # completed function is strictly increasing and onto [0, 1]
            assert values[F(0)] == 0 and values[F(1)] == 1
            v = adv.to_valuation()
            assert all(g > 0 for g in v.densities)
            for p, val in table:
                assert v.prefix(p) == val

    def test_reduction_session_normalization(self):
        sess = MmsReductionSession(FindSumAdversary(F(1, 4)))
        assert sess.eval(F(0), F(1)) == 1

    def test_reduction_cut_eval_consistency(self):
        sess = MmsReductionSession(FindSumAdversary(F(1, 4)))
        y = sess.cut(F(0), F(1, 3))
        assert sess.eval(F(0), y) == F(1, 3)

    def test_transcript_replay_after_finalize(self):
        adv = FindSumAdversary(F(1, 10))
        sess = MmsReductionSession(adv)
        rng = random.Random(2)
        for _ in range(20):
            if rng.random() < 0.5:
                a, b = sorted((F(rng.randint(0, 40), 40),
                               F(rng.randint(0, 40), 40)))
                sess.eval(a, b)
            else:
                sess.cut(F(rng.randint(0, 40), 40),
                         F(rng.randint(0, 20), 20))
        adv.finalize(F(1, 3))
        v = adv.to_valuation()
        assert replay_consistent(v, sess.transcript)

    @pytest.mark.parametrize("s", (F(1, 10), F(1, 4)))
    @pytest.mark.parametrize("budget", (5, 20, 50))
    @pytest.mark.parametrize("solver", (bisection_share_candidate,
                                        grid_eval_share_candidate))
    def test_every_candidate_solver_falsified(self, s, budget, solver):
        out = falsify_share_solver(solver, s, budget)
        assert out["falsified"]
        assert out["claimed"] != out["actual"]
        assert out["queries"] <= budget


class TestHasLowValue:
    def test_full_circle_eval(self):
        adv = HasLowValueAdversary(F(1, 4), F(1, 8))
        assert adv.eval(0, 1) == 1

    def test_out_of_range_coordinates_rejected(self):
        """The same check as a QuerySession on a pie: nothing is answered
        and nothing is recorded."""
        adv = HasLowValueAdversary(F(1, 4), F(1, 8))
        with pytest.raises(InputError):
            adv.eval(F(-1, 2), F(3, 2))
        with pytest.raises(InputError):
            adv.cut(F(3, 2), F(1, 4))
        with pytest.raises(InputError):
            adv.cut(0, 2)
        assert adv.query_count == 0 and adv.recorded == {0}

    def test_parameter_ordering_required(self):
        with pytest.raises(InputError):
            HasLowValueAdversary(F(1, 8), F(1, 4))

    def test_window_invariant_through_queries(self):
        rng = random.Random(14)
        adv = HasLowValueAdversary(F(1, 4), F(1, 8))
        for _ in range(50):
            if rng.random() < 0.5:
                adv.eval(F(rng.randint(0, 60), 60),
                         F(rng.randint(0, 60), 60))
            else:
                adv.cut(F(rng.randint(0, 60), 60),
                        F(rng.randint(0, 30), 30))
            assert adv.check_window_invariant()
        assert minimum_window_value(adv.valuation, F(1, 4)) == F(1, 8)

    def test_yes_reveal_blocks_all_windows(self):
        adv = HasLowValueAdversary(F(1, 4), F(1, 8))
        for i in range(10):
            adv.eval(F(i, 10), F(i + 1, 10) % 1)
        revealed = adv.reveal_for_yes()
        assert minimum_window_value(revealed, F(1, 4)) > F(1, 8)
        assert replay_consistent(revealed, adv.transcript)

    @pytest.mark.parametrize("budget", (5, 20, 50))
    @pytest.mark.parametrize("solver", (window_scan_candidate,
                                        cut_walk_candidate))
    def test_every_candidate_solver_falsified(self, budget, solver):
        out = falsify_window_solver(solver, F(1, 4), F(1, 8), budget)
        assert out["falsified"]


class TestPieWitnesses:
    def test_empty_transcript(self):
        k, s = 2, F(3, 10)
        v_low, v_high = pie_threshold_witnesses(k, s, [])
        r = (1 - k * s) / k
        assert pie_exact_mms(v_low, k, s) == r
        assert pie_exact_mms(v_high, k, s) > r
        assert pie_grid_oracle(v_high, k, s) > r - F(1, 1000)

    def test_transcript_consistency(self):
        t = [QueryRecord("eval", (F(0), F(1, 2)), F(1, 2)),
             QueryRecord("cut", (F(1, 4), F(1, 4)), F(1, 2))]
        v_low, v_high = pie_threshold_witnesses(2, F(1, 4), t)
        assert replay_consistent(v_low, t)
        assert replay_consistent(v_high, t)

    def test_full_circle_eval_accepted(self):
        """A pie session records eval(0, 1) as (0, 0) worth 1; that is
        what the uniform pie answers too."""
        from sepfair.sessions import QuerySession
        from sepfair.valuations import PiecewiseConstantValuation, Topology
        sess = QuerySession(PiecewiseConstantValuation.uniform(Topology.PIE))
        assert sess.eval(0, 1) == 1
        sess.cut(F(1, 4), F(1, 2))
        v_low, v_high = pie_threshold_witnesses(2, F(1, 4), sess.transcript)
        assert replay_consistent(v_low, sess.transcript)
        assert replay_consistent(v_high, sess.transcript)
        assert pie_exact_mms(v_high, 2, F(1, 4)) > F(1, 4)

    def test_inconsistent_transcript_rejected(self):
        bad = [QueryRecord("eval", (F(0), F(1, 2)), F(1, 3))]
        with pytest.raises(InputError):
            pie_threshold_witnesses(2, F(1, 4), bad)

    def test_richer_transcripts_still_split(self):
        rng = random.Random(6)
        from sepfair.sessions import QuerySession
        from sepfair.valuations import PiecewiseConstantValuation, Topology
        from sepfair.valuations import pieces_separated
        uniform = PiecewiseConstantValuation.uniform(Topology.PIE)
        for k, s in ((2, F(1, 4)), (3, F(1, 10)), (4, F(1, 10)),
                     (5, F(1, 20))):
            sess = QuerySession(uniform)
            for _ in range(12):
                if rng.random() < 0.5:
                    sess.eval(F(rng.randint(0, 40), 40),
                              F(rng.randint(0, 40), 40))
                else:
                    sess.cut(F(rng.randint(0, 40), 40),
                             F(rng.randint(0, 40), 40))
            v_low, v_high, part = pie_threshold_witnesses(
                k, s, sess.transcript, return_partition=True)
            r = (1 - k * s) / k
            assert replay_consistent(v_high, sess.transcript)
            assert replay_consistent(v_low, sess.transcript)
            # a cut answer stays the first point with its value on replay
            assert all(d > 0 for d in v_high.densities)
            assert pie_exact_mms(v_high, k, s) > r == pie_exact_mms(
                v_low, k, s)
            # the hidden partition is valid and every piece beats r
            assert pieces_separated(part.pieces, s, Topology.PIE)
            for piece in part.pieces:
                assert v_high.value(piece) > r

    @staticmethod
    def _golden(v_high, part):
        return ([str(p) for p in v_high.breakpoints],
                [str(d) for d in v_high.densities],
                [(str(p.left), str(p.right)) for p in part.pieces])

    def test_golden_empty_transcript(self):
        """The CLI case: k = 2, s = 3/10 and nothing asked."""
        v_low, v_high, part = pie_threshold_witnesses(
            2, F(3, 10), [], return_partition=True)
        assert v_low.breakpoints == (0, 1) and v_low.densities == (1,)
        assert self._golden(v_high, part) == (
            ["0", "3/20", "1/4", "7/20", "1/2", "13/20", "3/4", "17/20",
             "1"],
            ["1/2", "7/4", "7/4", "1/2", "1/2", "7/4", "7/4", "1/2"],
            [("3/20", "7/20"), ("13/20", "17/20")])
        assert part.s == F(3, 10)

    def test_golden_evals_and_cuts(self):
        """k = 3, s = 1/10 after two evals (one wrapping) and two cuts
        (one wrapping); the recorded intervals [1/3, 1/2] and [1/2, 5/8]
        are split by a piece start and a piece end."""
        t = [QueryRecord("eval", (F(0), F(1, 4)), F(1, 4)),
             QueryRecord("cut", (F(1, 3), F(1, 6)), F(1, 2)),
             QueryRecord("eval", (F(3, 4), F(1, 8)), F(3, 8)),
             QueryRecord("cut", (F(7, 8), F(1, 4)), F(1, 8))]
        _, v_high, part = pie_threshold_witnesses(
            3, F(1, 10), t, return_partition=True)
        assert self._golden(v_high, part) == (
            ["0", "1/120", "1/8", "29/120", "1/4", "1/3", "41/120", "1/2",
             "23/40", "5/8", "27/40", "3/4", "7/8", "109/120", "1"],
            ["1/2", "29/28", "29/28", "1/2", "1", "1/2", "39/38", "4/3",
             "1/2", "1/2", "4/3", "1", "19/8", "1/2"],
            [("1/120", "29/120"), ("41/120", "23/40"),
             ("27/40", "109/120")])
