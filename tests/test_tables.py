import json
import math
import subprocess
import sys

import pytest

from promo_gym.envcore import RngStream
from promo_gym.errors import (
    InvalidAction,
    InvalidState,
    NoLayout,
    ParseError,
    SchemaError,
    SteppedAfterDone,
)
from promo_gym.learner import EpisodeTrace
from promo_gym.rendering import render_trace
from promo_gym.tables import (
    TabularEnv,
    TransitionTable,
    deserialize,
    serialize,
    step_sample,
    validate,
)


def one_pair_table(*outcomes) -> TransitionTable:
    return TransitionTable.compile(1, 1, [list(outcomes)], {0: 1.0})


def identity_table() -> TransitionTable:
    return one_pair_table((1.0, 0, 0.0, True))


class TestValidate:
    def test_identity_table_clean(self):
        assert validate(identity_table()) == []

    def test_reference_promo_table_clean(self, reference_table):
        assert validate(reference_table) == []

    def test_bad_probability_mass_reported(self):
        table = one_pair_table((0.5, 0, 0.0, False), (0.4, 0, 0.0, False))
        report = validate(table)
        assert len(report) == 1
        assert "probability mass 0.9" in report[0]
        assert "state 0, action 0" in report[0]

    @pytest.mark.parametrize("excess, reported", [(1e-7, True), (1e-11, False)])
    def test_mass_tolerance_between_rounding_and_real_error(self, excess, reported):
        # 1e-7 is a real error that a looser 1e-6 tolerance would pass;
        # 1e-11 is float rounding, well inside the 1e-9 tolerance
        table = one_pair_table((0.5, 0, 0.0, False), (0.5 + excess, 0, 0.0, True))
        report = validate(table)
        assert len(report) == reported
        assert all(v.startswith("state 0, action 0: probability mass 1.0000000999")
                   for v in report)

    def test_missing_action_reported(self):
        # the compiled form holds every pair; a missing action has no outcomes
        table = TransitionTable.compile(1, 2, [[(1.0, 0, 0.0, True)], []], {0: 1.0})
        assert validate(table) == ["state 0, action 1: empty outcome list"]

    def test_pair_count_other_than_states_times_actions_reported(self):
        # compile takes the pairs' row lists as given; serialize would index
        # past the end of starts for the missing pair
        table = TransitionTable.compile(2, 1, [[(1.0, 0, 0.0, True)]], {0: 1.0})
        assert validate(table) == ["1 outcome lists for 2 (state, action) pairs"]

    def test_next_state_out_of_range(self):
        table = one_pair_table((1.0, 5, 0.0, True))
        assert validate(table) == ["state 0, action 0, entry 0: next state 5 out of range"]

    def test_zero_probability_forbidden(self):
        table = one_pair_table((0.0, 0, 0.0, True), (1.0, 0, 0.0, True))
        assert validate(table) == [
            "state 0, action 0, entry 0: probability 0.0 not in (0, 1]"]

    def test_bad_initial_distribution(self):
        table = identity_table()
        table.initial_distribution = {0: 0.5}
        assert any("initial distribution" in v for v in validate(table))

    def test_layout_must_cover_states(self):
        # (-1, -1) covers the one state by its product alone
        for layout in [(2, 3), (-1, -1)]:
            table = identity_table()
            table.layout = layout
            assert any("layout" in v for v in validate(table)), layout


class TestStepSample:
    def test_deterministic_entry_ignores_rng(self, reference_table):
        # state 35, action 2 always lands on 45 with reward -1
        for seed in (0, 1, 99):
            out = step_sample(reference_table, 35, 2, RngStream(seed))
            assert (out.next_state, out.reward, out.done) == (45, -1.0, False)

    def test_single_entry_consumes_no_randomness(self, reference_table):
        rng = RngStream(5)
        before = RngStream(5).random()
        step_sample(reference_table, 35, 1, rng)
        assert rng.random() == before

    def test_realign_frequency_state_36(self, reference_table):
        # 70k draws from (36, realign): state 38 frequency 1/7 +/- 0.01
        rng = RngStream(2024)
        n = 70_000
        hits = sum(
            step_sample(reference_table, 36, 0, rng).next_state == 38
            for _ in range(n)
        )
        assert abs(hits / n - 1 / 7) <= 0.01

    def test_empirical_matches_listed_within_3_sigma(
        self, reference_table, lake_table_slippery
    ):
        # binomial 3-sigma band per listed entry, N = 1e5 draws per pair
        cases = [
            (reference_table, 35, 0),
            (reference_table, 36, 0),
            (lake_table_slippery, 0, 1),
            (lake_table_slippery, 6, 2),
        ]
        n = 100_000
        rng = RngStream(31337)
        for table, s, a in cases:
            counts: dict[int, int] = {}
            for _ in range(n):
                out = step_sample(table, s, a, rng)
                counts[out.next_state] = counts.get(out.next_state, 0) + 1
            expected: dict[int, float] = {}
            for e in table.pair(s, a):
                expected[e.next_state] = expected.get(e.next_state, 0.0) + e.probability
            for nxt, p in expected.items():
                band = 3 * math.sqrt(p * (1 - p) / n)
                assert abs(counts.get(nxt, 0) / n - p) <= band, (s, a, nxt)

    def test_index_errors(self, reference_table):
        with pytest.raises(InvalidState):
            step_sample(reference_table, 50, 0, RngStream(0))
        with pytest.raises(InvalidAction):
            step_sample(reference_table, 0, 4, RngStream(0))


class TestTabularEnv:
    def test_step_after_done_raises(self):
        env = TabularEnv(identity_table())
        rng = RngStream(0)
        env.reset(rng)
        out = env.step(0, rng)
        assert out.done
        with pytest.raises(SteppedAfterDone):
            env.step(0, rng)

    def test_step_before_reset_raises(self):
        env = TabularEnv(identity_table())
        with pytest.raises(SteppedAfterDone):
            env.step(0, RngStream(0))

    def test_invalid_action(self, lake_table):
        env = TabularEnv(lake_table)
        env.reset(RngStream(0))
        with pytest.raises(InvalidAction):
            env.step(7, RngStream(0))

    def test_render_without_layout(self):
        empty = EpisodeTrace.from_steps([])
        with pytest.raises(NoLayout):
            render_trace(empty, identity_table())


class TestSerialization:
    def test_identity_round_trip(self):
        text = serialize(identity_table())
        assert serialize(deserialize(text)) == text

    def test_reference_table_round_trip_exact(self, reference_table):
        import json

        text = serialize(reference_table)
        again = deserialize(text)
        assert serialize(again) == text
        assert again.goal_states() == reference_table.goal_states() == {24}
        # all 20 entries of the two demo states survive, with exact text
        doc = json.loads(text)
        for s in ("35", "36"):
            assert json.dumps(doc["P"][s]).count("0.14285714285714285") == 7
        total_entries = sum(
            len(again.pair(s, a)) for s in (35, 36) for a in range(4)
        )
        assert total_entries == 20

    def test_frozen_lake_round_trips_both_modes(self, lake_table, lake_table_slippery):
        for table in (lake_table, lake_table_slippery):
            text = serialize(table)
            assert serialize(deserialize(text)) == text

    def test_key_order_ascending(self, reference_table):
        import json

        doc = json.loads(serialize(reference_table))
        states = [int(k) for k in doc["P"]]
        assert states == sorted(states)
        for actions in doc["P"].values():
            acts = [int(k) for k in actions]
            assert acts == sorted(acts)

    def test_missing_action_schema_error(self):
        text = serialize(identity_table()).replace('"n_actions": 1', '"n_actions": 2')
        with pytest.raises(SchemaError) as err:
            deserialize(text)
        assert "state 0" in str(err.value)

    def test_missing_pair_under_a_huge_header_allocates_by_the_document(self):
        # a header may claim far more pairs than memory holds; the check
        # that P is complete costs what P holds, not what the header claims
        import json
        import tracemalloc

        text = json.dumps({"n_states": 10**9, "n_actions": 10**9,
                           "initial_distribution": {"0": 1.0},
                           "P": {"0": {"0": [[1.0, 0, 0.0, True]]}}})
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="^state 0: action 1 missing$"):
                deserialize(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_actions", [0, -1])
    def test_header_without_actions_reads_only_the_document(self, n_actions):
        # 10**12 states with no actions name no pair; a read sized by the
        # header instead of by P would run for days, so a child interpreter
        # fails the test on its timeout rather than hanging the suite
        text = json.dumps({"n_states": 10**12, "n_actions": n_actions,
                           "initial_distribution": {}, "P": {}})
        code = ("import sys; from promo_gym.tables import deserialize, validate; "
                "print(validate(deserialize(sys.argv[1]))[0])")
        proc = subprocess.run([sys.executable, "-c", code, text], capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout == f"n_actions must be >= 1, got {n_actions}\n"

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            deserialize("{not json")
        assert err.value.line == 1
        assert "line 1" in str(err.value)

    def test_bad_done_type(self):
        text = serialize(identity_table()).replace("true", "1")
        with pytest.raises(SchemaError):
            deserialize(text)
