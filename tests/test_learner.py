import math
import random

import numpy as np
import pytest

from promo_gym import learner
from promo_gym.envcore import RngStream
from promo_gym.errors import ConfigError, DimensionMismatch, NonFinite, SchemaError
from promo_gym.learner import (
    LearnerConfig,
    QTable,
    act,
    epsilon_schedule,
    evaluate_greedy,
    greedy_policy,
    q_update,
    qtable_from_json,
    qtable_to_json,
    run_episode,
    train,
)
from promo_gym.promoenv import PromoGridSpec, build_promo_mdp
from promo_gym.solve import value_iteration
from promo_gym.tables import TabularEnv, TransitionTable


def scalar_update_oracle(old, r, next_row, done, alpha, gamma):
    """Independent re-statement of the one-step TD update."""
    target = r + (0.0 if done else gamma * max(next_row))
    return old + alpha * (target - old)


def bits(q: QTable) -> list[list[str]]:
    """Each Q value's exact bits, signed zeros told apart."""
    return [[v.hex() for v in row] for row in q.values]


def one_step_table() -> TransitionTable:
    return TransitionTable.compile(
        2, 1, [[(1.0, 1, 1.0, True)], [(1.0, 1, 0.0, True)]], {0: 1.0})


class TestAct:
    def test_greedy_tie_breaks_low(self):
        q = QTable(1, 4)
        q.values[0] = [0.0, 5.0, 5.0, 1.0]
        assert act(q, 0, epsilon=0.0, rng=RngStream(0)) == 1

    def test_all_zero_row_gives_action_zero(self):
        q = QTable(1, 4)
        assert act(q, 0, epsilon=0.0, rng=RngStream(0)) == 0

    def test_full_exploration_uniform(self):
        q = QTable(1, 4)
        q.values[0] = [9.0, 0.0, 0.0, 0.0]
        rng = RngStream(314)
        counts = [0, 0, 0, 0]
        n = 40_000
        for _ in range(n):
            counts[act(q, 0, epsilon=1.0, rng=rng)] += 1
        for c in counts:
            assert abs(c / n - 0.25) <= 0.01

    def test_zero_epsilon_consumes_no_randomness(self):
        q = QTable(1, 4)
        rng = RngStream(5)
        act(q, 0, epsilon=0.0, rng=rng)
        assert rng.random() == RngStream(5).random()


class TestQUpdate:
    def test_textbook_case(self):
        q = QTable(2, 2)
        new = q_update(q, 0, 0, r=-1.0, s_next=1, done=False, alpha=0.5, gamma=0.9)
        assert new == -0.5
        assert q.values[0][0] == -0.5

    def test_terminal_skips_bootstrap(self):
        q = QTable(2, 2)
        q.values[1] = [100.0, 100.0]  # must be ignored when done
        new = q_update(q, 0, 0, r=10.0, s_next=1, done=True, alpha=1.0, gamma=0.9)
        assert new == 10.0

    def test_matches_scalar_oracle(self):
        rng = random.Random(12345)
        q = QTable(6, 4)
        for _ in range(1000):
            for s in range(6):
                q.values[s] = [rng.uniform(-50, 50) for _ in range(4)]
            s, a = rng.randrange(6), rng.randrange(4)
            s_next = rng.randrange(6)
            r = rng.uniform(-20, 20)
            done = rng.random() < 0.3
            alpha = rng.uniform(0.01, 1.0)
            gamma = rng.uniform(0.0, 0.999)
            expected = scalar_update_oracle(
                q.values[s][a], r, list(q.values[s_next]),
                done, alpha, gamma,
            )
            got = q_update(q, s, a, r, s_next, done, alpha, gamma)
            assert math.isclose(got, expected, rel_tol=0.0, abs_tol=1e-12)

    def test_update_touches_exactly_one_cell(self):
        q = QTable(4, 3, np.ones((4, 3)))
        before = [list(row) for row in q.values]
        q_update(q, 2, 1, r=5.0, s_next=0, done=False, alpha=0.5, gamma=0.9)
        changed = [(s, a) for s in range(4) for a in range(3)
                   if q.values[s][a] != before[s][a]]
        assert changed == [(2, 1)]

    def test_non_finite_rejected(self):
        q = QTable(2, 1)
        q.values[0][0] = -1e308
        with pytest.raises(NonFinite):
            q_update(q, 0, 0, r=1e308, s_next=1, done=True, alpha=1.0, gamma=0.9)
        assert q.values[0][0] == -1e308  # rejected update leaves the cell alone


class TestGreedyPolicy:
    def test_all_zero_gives_zero_policy(self):
        assert greedy_policy(QTable(3, 4)).tolist() == [0, 0, 0]

    def test_argmax(self):
        q = QTable(1, 4)
        q.values[0] = [1.0, 3.0, 2.0, 0.0]
        assert greedy_policy(q).tolist() == [1]

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(8)
        q = QTable(10, 4, rng.normal(size=(10, 4)))
        scaled = QTable(10, 4, [[v * 7.5 for v in row] for row in q.values])
        assert greedy_policy(q).tolist() == greedy_policy(scaled).tolist()


class TestLearnerConfig:
    def test_defaults_valid(self):
        config = LearnerConfig()
        assert config.alpha == 0.1 and config.gamma == 0.99
        assert config.decay_episodes() == config.episodes // 2

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"gamma": 1.0},
        {"epsilon_start": 1.5},
        {"epsilon_start": 0.1, "epsilon_end": 0.5},
        {"episodes": 0},
        {"max_steps_per_episode": 0},
        {"epsilon_decay_episodes": 0},
        {"seed": -1},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LearnerConfig(**kwargs)

    def test_linear_decay_then_hold(self):
        config = LearnerConfig(episodes=100, epsilon_decay_episodes=50,
                               epsilon_start=1.0, epsilon_end=0.0)
        assert epsilon_schedule(config, 0) == 1.0
        assert epsilon_schedule(config, 25) == 0.5
        assert epsilon_schedule(config, 50) == 0.0
        assert epsilon_schedule(config, 99) == 0.0


class TestRunEpisode:
    def test_one_step_terminal(self):
        env = TabularEnv(one_step_table())
        config = LearnerConfig(episodes=1)
        q = QTable(2, 1)
        trace = run_episode(env, q, config, epsilon=0.0, rng=RngStream(0),
                            learning=True)
        assert len(trace.steps) == 1
        assert trace.total_reward == 1.0
        assert not trace.truncated
        assert trace.steps[-1].done

    def test_forced_forecast_truncates_at_minus_fifty(self, reference_table):
        env = TabularEnv(reference_table)
        config = LearnerConfig(episodes=1, max_steps_per_episode=5)
        q = QTable(50, 4)
        for row in q.values:
            row[3] = 1.0  # argmax everywhere is the failing forecast
        trace = run_episode(env, q, config, epsilon=0.0, rng=RngStream(0),
                            learning=False)
        assert trace.truncated
        assert len(trace.steps) == 5
        assert trace.total_reward == -50.0
        assert all(s.state == s.next_state == 35 for s in trace.steps)

    def test_learning_false_leaves_q_untouched(self, reference_table):
        env = TabularEnv(reference_table)
        config = LearnerConfig(episodes=1, max_steps_per_episode=30)
        q = QTable(50, 4, np.arange(200.0).reshape(50, 4))
        before = bits(q)
        run_episode(env, q, config, epsilon=0.3, rng=RngStream(3), learning=False)
        assert bits(q) == before

    def test_cumulative_tracks_totals_exactly(self, reference_table):
        env = TabularEnv(reference_table)
        config = LearnerConfig(episodes=1, max_steps_per_episode=40)
        q = QTable(50, 4)
        trace = run_episode(env, q, config, epsilon=1.0, rng=RngStream(9),
                            learning=True)
        assert trace.running_totals()[-1] == trace.total_reward
        assert trace.total_reward == sum(s.reward for s in trace.steps)
        dones = [s.done for s in trace.steps]
        assert sum(dones) <= 1
        if any(dones):
            assert dones[-1]


class TestTrain:
    def test_single_episode(self):
        env = TabularEnv(one_step_table())
        q = QTable(2, 1)
        traces = list(train(env, LearnerConfig(episodes=1, seed=4), q))
        assert len(traces) == 1
        assert q.values[0][0] != 0.0

    def test_same_seed_bitwise_reproducible(self, reference_table):
        env1 = TabularEnv(reference_table)
        env2 = TabularEnv(reference_table)
        config = LearnerConfig(episodes=200, max_steps_per_episode=40, seed=77)
        q1, q2 = QTable(50, 4), QTable(50, 4)
        traces1 = list(train(env1, config, q1))
        traces2 = list(train(env2, config, q2))
        assert bits(q1) == bits(q2)
        assert traces1 == traces2

    def test_different_seeds_differ(self, reference_table):
        env = TabularEnv(reference_table)
        q1, q2 = QTable(50, 4), QTable(50, 4)
        list(train(env, LearnerConfig(episodes=100, max_steps_per_episode=40,
                                      seed=1), q1))
        list(train(env, LearnerConfig(episodes=100, max_steps_per_episode=40,
                                      seed=2), q2))
        assert bits(q1) != bits(q2)

    def test_learns_small_deterministic_mdp_exactly(self):
        # two-state chain: Q*(0, 0) = 1 reached after repeated visits
        env = TabularEnv(one_step_table())
        q = QTable(2, 1)
        list(train(env, LearnerConfig(episodes=300, seed=3), q))
        assert q.values[0][0] == pytest.approx(1.0, abs=1e-10)
        # terminal row stays pinned at zero
        assert q.values[1] == [0.0]

    def test_terminal_rows_stay_zero_on_frozen_lake(self, lake_table):
        env = TabularEnv(lake_table)
        q = QTable(16, 4)
        list(train(env, LearnerConfig(episodes=500, seed=21), q))
        for s in (5, 7, 11, 12, 15):  # the lake's holes and goal
            assert q.values[s] == [0.0, 0.0, 0.0, 0.0]


class TestEvaluateGreedy:
    def test_oracle_q_scores_perfectly(self, lake_table):
        sol = value_iteration(lake_table, gamma=0.99)
        q = QTable(16, 4, sol.Q)
        env = TabularEnv(lake_table)
        report = evaluate_greedy(env, q, episodes=100, max_steps=200, seed=0)
        assert report["success_rate"] == 1.0
        assert report["mean_total_reward"] == 1.0
        assert report["truncation_rate"] == 0.0

    def test_zero_q_realign_ties_never_reach_goal(self, reference_table):
        # all-zero Q picks action 0 everywhere; realign keeps the row fixed,
        # so the goal row is unreachable from the start row
        env = TabularEnv(reference_table)
        report = evaluate_greedy(env, QTable(50, 4), episodes=10, max_steps=30,
                                 seed=5)
        assert report["success_rate"] == 0.0
        assert report["truncation_rate"] == 1.0

    @pytest.mark.parametrize("compensated", [False, True])
    def test_mean_total_reward_summed_in_order(self, monkeypatch, compensated):
        # from Python 3.12 on builtin sum() compensates, and this mean's last
        # bits read 2.2080000000000006; a compensated sum in the learner's
        # namespace stands in for that version's sum on any version
        if compensated:
            monkeypatch.setattr(learner, "sum", lambda values, start=0:
                                math.fsum([start, *values]), raising=False)
        spec = PromoGridSpec(rows=5, avail={r: frozenset({1, 3, 8}) for r in range(5)},
                             goals=frozenset({(2, 3)}), initial_states=frozenset({(0, 0)}),
                             step_reward=-0.1, forecast_fail_reward=-1.3, goal_reward=2.7)
        env = TabularEnv(build_promo_mdp(spec))
        q = QTable(50, 4)
        list(train(env, LearnerConfig(episodes=300, max_steps_per_episode=40, seed=3), q))
        report = evaluate_greedy(env, q, episodes=500, max_steps=40, seed=3)
        assert report["mean_total_reward"] == 2.2079999999999975

    def test_zero_episodes_empty_report(self, lake_table):
        env = TabularEnv(lake_table)
        assert evaluate_greedy(env, QTable(16, 4), 0, 10, 0) == {"episodes": 0}

    def test_dimension_mismatch(self, lake_table):
        env = TabularEnv(lake_table)
        with pytest.raises(DimensionMismatch):
            evaluate_greedy(env, QTable(5, 4), 1, 10, 0)


class TestQTableDocument:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        q = QTable(6, 3, rng.normal(size=(6, 3)))
        again = qtable_from_json(qtable_to_json(q))
        assert bits(again) == bits(q)

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            QTable(2, 2, np.zeros((3, 2)))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_values_rejected(self, value):
        text = f'{{"n_states": 1, "n_actions": 2, "values": [[0.5, {value}]]}}'
        with pytest.raises(SchemaError):
            qtable_from_json(text)
