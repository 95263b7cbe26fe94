"""Building blocks shared by every environment: seeded RNG streams and
the text grid.

Every environment in the toolkit is episodic and discrete: states and
actions are integer indices, one step samples a single transition, and
all randomness flows through an explicitly seeded RngStream so any run
can be replayed bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NoLayout


class RngStream:
    """Deterministic random stream pinned to a 64-bit seed.

    Identical seeds give identical draw sequences on every platform
    (PCG64 stream stability is guaranteed by numpy). Sub-streams for
    independent tasks (episode i, say) are a pure function of
    (root seed, key), so episode k's draws never depend on how long
    episodes 0..k-1 ran.
    """

    ALGORITHM = "pcg64-seedseq-v1"

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        seed = int(seed)
        if seed < 0 or seed >= 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.key = _key
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=_key))
        )

    def substream(self, *key: int) -> "RngStream":
        """Independent stream derived from (seed, existing key, key)."""
        return RngStream(self.seed, self.key + tuple(int(k) for k in key))

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._gen.random()

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._gen.integers(n))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key}, algorithm={self.ALGORITHM!r})"


def format_grid(rows: int, width: int, mark_state: int | None,
                goal_states: frozenset[int] | set[int] = frozenset()) -> str:
    """Render a rows x width grid, one character per cell.

    '@' marks the current state, 'G' marks goal cells, '.' everything
    else. Raises NoLayout when the geometry is absent or empty.
    """
    if rows is None or width is None or rows < 1 or width < 1:
        raise NoLayout("environment has no renderable grid geometry")
    lines = []
    for r in range(rows):
        cells = []
        for c in range(width):
            s = r * width + c
            if mark_state is not None and s == mark_state:
                cells.append("@")
            elif s in goal_states:
                cells.append("G")
            else:
                cells.append(".")
        lines.append("".join(cells))
    return "\n".join(lines)
