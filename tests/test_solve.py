from collections import deque

import numpy as np
import pytest

from promo_gym.envcore import RngStream
from promo_gym.solve import value_iteration
from promo_gym.tables import TabularEnv, TransitionTable


def identity_table() -> TransitionTable:
    return TransitionTable.compile(1, 1, [[(1.0, 0, 0.0, True)]], {0: 1.0})


def two_state_chain() -> TransitionTable:
    return TransitionTable.compile(
        2, 1, [[(1.0, 1, 1.0, True)], [(1.0, 1, 0.0, True)]], {0: 1.0})


def bfs_shortest_path_steps(table: TransitionTable, start: int, goal: int) -> int:
    """Independent oracle: fewest deterministic moves from start to goal."""
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, dist = frontier.popleft()
        if state == goal:
            return dist
        for action in range(table.n_actions):
            [entry] = table.pair(state, action)
            if entry.next_state not in seen:
                seen.add(entry.next_state)
                frontier.append((entry.next_state, dist + 1))
    raise AssertionError("goal unreachable")


class TestValueIteration:
    def test_identity_mdp_zero_value(self):
        sol = value_iteration(identity_table(), gamma=0.9)
        assert sol.V[0] == 0.0
        assert sol.converged

    def test_two_state_chain(self):
        sol = value_iteration(two_state_chain(), gamma=0.5)
        assert sol.V[0] == 1.0
        assert sol.Q[0][0] == 1.0
        assert sol.V[1] == 0.0

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            value_iteration(identity_table(), gamma=1.0)

    def test_frozen_lake_greedy_reaches_goal_in_shortest_steps(self, lake_table):
        sol = value_iteration(lake_table, gamma=0.99)
        assert sol.converged and sol.residual < 1e-10

        oracle_steps = bfs_shortest_path_steps(lake_table, start=0, goal=15)
        assert oracle_steps == 6

        env = TabularEnv(lake_table)
        rng = RngStream(0)
        state = env.reset(rng)
        total, steps = 0.0, 0
        for _ in range(50):
            out = env.step(int(sol.policy[state]), rng)
            total += out.reward
            steps += 1
            state = out.next_state
            if out.done:
                break
        assert steps == oracle_steps
        assert total == 1.0

    def test_v_is_max_of_q(self, lake_table, reference_table):
        for table in (lake_table, reference_table):
            sol = value_iteration(table, gamma=0.95)
            assert np.allclose(sol.V, sol.Q.max(axis=1))

    def test_policy_breaks_ties_to_lowest_index(self):
        # two equivalent actions: argmax must pick action 0
        table = TransitionTable.compile(
            1, 2, [[(1.0, 0, 1.0, True)], [(1.0, 0, 1.0, True)]], {0: 1.0})
        sol = value_iteration(table, gamma=0.9)
        assert sol.policy[0] == 0

    def test_fixed_point_under_one_more_backup(self, lake_table, reference_table):
        tol = 1e-10
        for table, gamma in ((lake_table, 0.99), (reference_table, 0.9)):
            sol = value_iteration(table, gamma=gamma, tol=tol)
            assert sol.converged
            # independent single backup straight from the entry lists
            for s in range(table.n_states):
                for a in range(table.n_actions):
                    backed = sum(
                        e.probability
                        * (e.reward + (0.0 if e.done else gamma * sol.V[e.next_state]))
                        for e in table.pair(s, a)
                    )
                    assert abs(backed - sol.Q[s][a]) <= tol

    def test_not_converged_flag(self, lake_table_slippery):
        sol = value_iteration(lake_table_slippery, gamma=0.99, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.residual >= 1e-10


def policy_value(table: TransitionTable, policy: np.ndarray, gamma: float) -> np.ndarray:
    """The exact value of a fixed policy: one linear solve over its chain,
    V = r + gamma * P V, with terminating outcomes carrying no future value."""
    n = table.n_states
    expected_reward = np.zeros(n)
    chain = np.zeros((n, n))
    for s in range(n):
        for e in table.pair(s, int(policy[s])):
            expected_reward[s] += e.probability * e.reward
            if not e.done:
                chain[s, e.next_state] += e.probability
    return np.linalg.solve(np.eye(n) - gamma * chain, expected_reward)


class TestStoppingCertificate:
    """Stopping at residual eps bounds the greedy policy's loss by
    2 * gamma * eps / (1 - gamma) (Williams & Baird, 1993)."""

    def test_greedy_loss_within_bound(self, lake_table_slippery, reference_table):
        losses = []
        for table, gamma in ((lake_table_slippery, 0.9), (lake_table_slippery, 0.99),
                             (reference_table, 0.9), (reference_table, 0.99)):
            optimal = policy_value(table, value_iteration(table, gamma).policy, gamma)
            for tol in (1e-1, 1e-2, 1e-3):
                sol = value_iteration(table, gamma, tol=tol)
                assert sol.converged
                loss = np.max(optimal - policy_value(table, sol.policy, gamma))
                assert loss <= 2 * gamma * sol.residual / (1 - gamma) + 1e-9, (gamma, tol)
                losses.append(loss)
        # the bound is tested against policies that are not all optimal
        assert max(losses) > 0.1
