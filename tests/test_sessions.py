import random
import re
from fractions import Fraction as F

import pytest

from sepfair.adversary import (bisection_share_candidate, cut_walk_candidate,
                               falsify_share_solver, falsify_window_solver)
from sepfair.errors import InputError
from sepfair.sessions import (QuerySession, SubcakeSession, _SharedState,
                              replay_consistent)
from sepfair.valuations import PiecewiseConstantValuation, Topology

from helpers import THIRDS, UNIFORM, UNIFORM_PIE, random_valuation


def test_eval_counts_and_answers():
    sess = QuerySession(UNIFORM)
    assert sess.query_count == 0
    assert sess.eval(0, F(1, 4)) == F(1, 4)
    assert sess.query_count == 1


def test_worked_example_eval():
    sess = QuerySession(THIRDS)
    assert sess.eval(F(1, 3), F(2, 3)) == 0


def test_pie_wrap_eval_counts_once():
    sess = QuerySession(UNIFORM_PIE)
    assert sess.eval(F(9, 10), F(1, 10)) == F(1, 5)
    assert sess.query_count == 1


def test_pie_full_circle_eval():
    sess = QuerySession(UNIFORM_PIE)
    assert sess.eval(0, 1) == 1


def test_cut_examples():
    sess = QuerySession(UNIFORM)
    assert sess.cut(0, F(2, 5)) == F(2, 5)
    sess3 = QuerySession(THIRDS)
    assert sess3.cut(0, F(2, 5)) == F(1, 3)
    failed = QuerySession(UNIFORM)
    assert failed.cut(F(3, 4), F(1, 2)) is None
    assert failed.query_count == 1          # a failed cut still counts


def test_invalid_coordinates_not_counted():
    sess = QuerySession(UNIFORM)
    with pytest.raises(InputError):
        sess.eval(F(1, 2), F(3, 2))
    with pytest.raises(InputError):
        sess.cut(0, F(3, 2))
    assert sess.query_count == 0


def test_transcript_replay():
    rng = random.Random(11)
    v = random_valuation(rng)
    sess = QuerySession(v)
    for _ in range(20):
        if rng.random() < 0.5:
            a, b = sorted((F(rng.randint(0, 48), 48),
                           F(rng.randint(0, 48), 48)))
            sess.eval(a, b)
        else:
            sess.cut(F(rng.randint(0, 48), 48), F(rng.randint(0, 24), 24))
    assert sess.query_count == 20 == len(sess.transcript)
    assert replay_consistent(v, sess.transcript)
    assert not replay_consistent(UNIFORM, sess.transcript) or v == UNIFORM


@pytest.fixture
def live_states(monkeypatch):
    """Every _SharedState created, collected through the same __init__
    hook that bench/run.py uses to count queries_per_op."""
    live = []
    orig_init = _SharedState.__init__

    def init(state):
        orig_init(state)
        live.append(state)

    monkeypatch.setattr(_SharedState, "__init__", init)
    return live


def test_one_state_per_session(live_states):
    a, b = QuerySession(UNIFORM), QuerySession(THIRDS)
    assert len(live_states) == 2
    a.eval(0, F(1, 2))
    b.cut(0, F(1, 3))
    b.eval(0, 1)
    assert [len(st.records) for st in live_states] == [1, 2]


def test_one_record_per_answered_query(live_states):
    sess = QuerySession(UNIFORM)
    sess.eval(0, F(1, 4))
    assert sess.cut(F(3, 4), F(1, 2)) is None       # answered: no point
    with pytest.raises(InputError):
        sess.eval(F(1, 2), F(1, 4))
    with pytest.raises(InputError):
        sess.cut(0, 2)
    (state,) = live_states
    assert [rec.kind for rec in state.records] == ["eval", "cut"]
    assert sess.query_count == 2


def test_subcake_queries_land_on_parent_records(live_states):
    parent = QuerySession(UNIFORM_PIE)
    sub = SubcakeSession(parent, offset=F(1, 10), length=F(1, 2))
    sub.eval(0, F(1, 4))
    assert sub.cut(0, F(3, 4)) is None               # left the arc
    with pytest.raises(InputError):
        sub.eval(0, 1)                               # outside the subcake
    (state,) = live_states
    assert [rec.kind for rec in state.records] == ["eval", "cut"]
    assert state.records[0].args == (F(1, 10), F(7, 20))
    assert sub.query_count == parent.query_count == 2


def test_adversary_falsifiers_create_no_state(live_states):
    share = falsify_share_solver(bisection_share_candidate, F(1, 10), 20)
    window = falsify_window_solver(cut_walk_candidate, F(1, 4), F(1, 8), 20)
    assert share["queries"] > 0 and window["queries"] > 0
    assert live_states == []


def test_subcake_session_maps_coordinates():
    parent = QuerySession(UNIFORM_PIE)
    sub = SubcakeSession(parent, offset=F(1, 10), length=F(9, 10))
    assert sub.eval(0, F(9, 10)) == F(9, 10)
    assert sub.cut(0, F(1, 2)) == F(1, 2)
    assert parent.query_count == 2


def test_subcake_of_the_whole_pie_is_refused():
    """Length 1 would map both ends of the arc onto one pie point, so
    eval(0, 1) and cut(0, 1) would answer 0 where the arc is worth 1."""
    parent = QuerySession(UNIFORM_PIE)
    message = re.escape("subcake length must be in (0, 1)")
    for length in (1, 0, F(3, 2)):
        with pytest.raises(InputError, match=message):
            SubcakeSession(parent, offset=F(1, 3), length=length)
    assert parent.query_count == 0


def test_subcake_cut_none_when_leaving_arc():
    # all the value is at the start of the pie, outside the subcake tail
    v = PiecewiseConstantValuation.normalized(
        ("0", "1/10", "1"), ("1", "0"), Topology.PIE)
    parent = QuerySession(v)
    sub = SubcakeSession(parent, offset=F(1, 10), length=F(9, 10))
    assert sub.cut(0, F(1, 2)) is None
    assert parent.query_count == 1


def test_protocols_run_against_mock_session():
    """Protocol code sees only eval/cut/domain_end/known_total/topology."""
    from sepfair.cake import Relation, decide

    class MockSession:
        topology = Topology.CAKE
        domain_end = F(1)
        known_total = F(1)

        def __init__(self):
            self.calls = []

        def eval(self, x, y):
            self.calls.append(("eval", x, y))
            return UNIFORM.value_between(x, y)

        def cut(self, x, alpha):
            self.calls.append(("cut", x, alpha))
            from sepfair.valuations import cut_leftmost
            return cut_leftmost(UNIFORM, x, alpha)

    mock = MockSession()
    ok, _ = decide(mock, 2, F(1, 5), F(2, 5), Relation.AT_LEAST)
    assert ok and len(mock.calls) == 2
