"""The 4x4 frozen-lake reference MDP, built as an explicit transition table.

Map (row-major, state = row * 4 + col):

    S F F F
    F H F H
    F F F H
    H F F G

S = start, F = frozen, H = hole, G = goal. Holes and the goal are
absorbing terminals; entering G pays reward 1, everything else 0.
Moves that would leave the grid stay in place. In slippery mode each
action realizes the intended direction and its two perpendicular
neighbors with probability 1/3 each.
"""

from __future__ import annotations

from .tables import TransitionTable

MAP_4X4 = ("SFFF", "FHFH", "FFFH", "HFFG")

LEFT, DOWN, RIGHT, UP = 0, 1, 2, 3
_MOVES = {LEFT: (0, -1), DOWN: (1, 0), RIGHT: (0, 1), UP: (-1, 0)}


def make_frozen_lake(slippery: bool = False) -> TransitionTable:
    """Build the 16-state, 4-action lake MDP."""
    rows, width = len(MAP_4X4), len(MAP_4X4[0])
    n_states = rows * width
    n_actions = 4

    def cell(state: int) -> str:
        return MAP_4X4[state // width][state % width]

    def move(state: int, action: int) -> int:
        r, c = divmod(state, width)
        dr, dc = _MOVES[action]
        nr = min(max(r + dr, 0), rows - 1)
        nc = min(max(c + dc, 0), width - 1)
        return nr * width + nc

    def outcome(state: int, action: int, probability: float) -> tuple:
        nxt = move(state, action)
        tile = cell(nxt)
        return (probability, nxt, 1.0 if tile == "G" else 0.0, tile in "GH")

    def outcomes(s: int, a: int) -> list[tuple]:
        if cell(s) in "GH":
            return [(1.0, s, 0.0, True)]
        if slippery:
            return [outcome(s, slip, 1.0 / 3.0) for slip in ((a - 1) % 4, a, (a + 1) % 4)]
        return [outcome(s, a, 1.0)]

    return TransitionTable.compile(
        n_states,
        n_actions,
        [outcomes(s, a) for s in range(n_states) for a in range(n_actions)],
        initial_distribution={0: 1.0},
        layout=(rows, width),
    )
