"""Seeded RNG streams, the one source of randomness of every run.

RngStream computes numpy Generator's random() and integers() draws from
PCG64's raw outputs, and derives independent sub-streams keyed by integers,
many at once by SeedSequence's hashing done in numpy arithmetic, so any
run can be replayed bit-for-bit.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

# numpy's SeedSequence hash constants; NEP 19 keeps its output fixed
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_CHUNK = 4096  # indices whose states substreams computes at once
_REFILL = 16  # raw outputs an RngStream draws from PCG64 at once


class RngStream:
    """Deterministic random stream pinned to a 64-bit seed.

    Identical seeds give identical draw sequences on every platform
    (PCG64 stream stability is guaranteed by numpy). random() and
    integers() return what numpy's Generator over the same PCG64 returns,
    computed from PCG64's raw outputs, which are drawn _REFILL at a time.
    Sub-streams for independent tasks (episode i, say) are a pure function
    of (root seed, key), so episode k's draws never depend on how long
    episodes 0..k-1 ran.
    """

    ALGORITHM = "pcg64-seedseq-v1"

    def __init__(self, seed: int, _key: tuple[int, ...] = (),
                 _state: np.ndarray | None = None):
        seed = operator.index(seed)
        if seed < 0 or seed >= 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.key = _key
        seed_seq = (np.random.SeedSequence(seed, spawn_key=_key) if _state is None
                    else _KnownState(_state))
        self._bits = np.random.PCG64(seed_seq)
        self._raw: list[int] = []  # buffered raw outputs, the next one last
        self._half: int | None = None  # high half of a raw output, kept for integers

    def substream(self, *key: int) -> "RngStream":
        """Independent stream derived from (seed, existing key, key)."""
        return RngStream(self.seed, self.key + tuple(map(operator.index, key)))

    def substreams(self, count: int, start: int = 0) -> Iterator["RngStream"]:
        """The streams self.substream(i) for i in range(start, start + count),
        in order, derived in chunks of up to _CHUNK indices.

        A chunk's PCG64 states are what SeedSequence(seed, spawn_key=key +
        (i,)).generate_state(4, np.uint64) gives for each i, computed as one
        uint32 array expression over the indices. An index that is not one
        32-bit word takes substream(i), which raises for a negative one.
        """
        from numpy.random.bit_generator import ISeedSequence  # numpy.random loads lazily
        ISeedSequence.register(_KnownState)  # PCG64 takes any ISeedSequence
        start = operator.index(start)
        stop = start + operator.index(count)
        # when SeedSequence mixes in the index word, its hash constant has
        # stepped 16 times over the seed's pool and 4 times per key word
        pool = np.random.SeedSequence(self.seed, spawn_key=self.key).pool.tolist()
        words = sum(max(1, -(-k.bit_length() // 32)) for k in self.key)
        hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * words, _MASK32 + 1) & _MASK32
        i = start
        while i < stop:
            if not 0 <= i <= _MASK32:
                yield self.substream(i)
                i += 1
                continue
            n = min(_CHUNK, stop - i, _MASK32 + 1 - i)
            states = _spawn_states(pool, hash_const, np.arange(i, i + n, dtype=np.uint32))
            for j, state in enumerate(states, start=i):
                yield RngStream(self.seed, self.key + (j,), state)
            i += n

    def random(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of the next raw output."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n) for n up to 2**32, by Lemire's method
        over the 32-bit draws, as numpy's Generator.integers draws a scalar
        int64. Every caller bounds it by an action count."""
        n = operator.index(n)
        if not 0 < n <= 2**32:
            raise ValueError(f"integers needs 0 < n <= 2**32, got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (2**32 - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def _next64(self) -> int:
        if not self._raw:
            self._raw = self._bits.random_raw(_REFILL)[::-1].tolist()
        return self._raw.pop()

    def _next32(self) -> int:
        """PCG64's next_uint32: the low half of a raw output, then its high half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self._next64()
        self._half = raw >> 32
        return raw & _MASK32

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key}, algorithm={self.ALGORITHM!r})"


class _KnownState:
    """Hands PCG64 a state computed beforehand, which is all it asks a
    seed sequence for."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.state


def _spawn_states(pool: list[int], hash_const: int, index: np.ndarray) -> np.ndarray:
    """SeedSequence's pool after mixing in each one-word index, then its
    generate_state(4, np.uint64), vectorised over the index axis: one row
    of four uint64 words per index."""
    mixed = []
    for word in pool:  # mix(pool word, hashmix(index))
        value = index ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        value = np.uint32(word * _MIX_MULT_L & _MASK32) - value * np.uint32(_MIX_MULT_R)
        value ^= value >> np.uint32(16)
        mixed.append(value)
    words = np.empty((len(index), 8), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(8):  # generate_state cycles the pool for 8 uint32 words
        value = mixed[k % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        words[:, k] = value
    # little-endian word pairs, as generate_state assembles its uint64s
    return words.astype("<u4").view("<u8").astype(np.uint64)

