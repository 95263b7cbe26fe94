"""Value iteration over transition tables; the repo's correctness oracle.

Bellman optimality backups run to a tight fixed point:

    Q[s][a] = sum_i p_i * (r_i + gamma * (0 if done_i else V[next_i]))
    V[s]    = max_a Q[s][a]

Terminating outcomes contribute no future value, which pins terminal
state values to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import TransitionTable

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass
class ValueSolution:
    """Converged (or best-effort) optimal values and greedy policy."""

    V: np.ndarray          # (n_states,)
    Q: np.ndarray          # (n_states, n_actions)
    policy: np.ndarray     # (n_states,) lowest-index argmax of Q[s]
    residual: float        # max-norm Q change in the final sweep
    iterations: int
    converged: bool


def value_iteration(table: TransitionTable, gamma: float,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> ValueSolution:
    """Iterate Bellman backups until the max-norm Q change drops below tol.

    Always returns a solution; converged=False flags hitting max_iter
    with residual still at or above tol.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")

    n_states, n_actions = table.n_states, table.n_actions

    # each (s, a) owns a contiguous run of rows, so one reduceat per sweep
    # computes every backup
    p, nxt = table.probability, table.next_state
    base = p * table.reward
    weight = p * ~table.done
    cuts = table.starts[:-1]

    V = np.zeros(n_states)
    Q = np.zeros((n_states, n_actions))
    residual = np.inf
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        new_Q = np.add.reduceat(base + weight * (gamma * V[nxt]), cuts)
        new_Q = new_Q.reshape(n_states, n_actions)
        residual = float(np.max(np.abs(new_Q - Q)))
        Q = new_Q
        V = Q.max(axis=1)
        if residual < tol:
            break

    return ValueSolution(
        V=V,
        Q=Q,
        policy=np.argmax(Q, axis=1),
        residual=residual,
        iterations=iterations,
        converged=residual < tol,
    )
