"""RngStream draws what numpy's Generator draws, and substreams derives
each stream exactly as substream does.

random() and integers() compute numpy's Generator results from buffered
PCG64 raw outputs, so a property holds long interleaved draw sequences to
the installed numpy's Generator over the same seed sequence, in value and
type, across buffer refills and the kept half of a 32-bit draw. integers
takes bounds up to 2**32 only, the one path of numpy's it reproduces.

substreams computes SeedSequence's hashing for many indices at once, so
these properties hold it to numpy's SeedSequence and to substream: the
same first draws for every stream, over edge and random seeds, key
prefixes with words at and above 2**32, chunk edges, and indices on both
sides of 2**32, where it falls back to substream.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promo_gym.envcore import _CHUNK, _REFILL, RngStream

EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
keys = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1),
                 st.integers(2**32, 2**40), st.just(2**64))
prefixes = st.lists(keys, max_size=2).map(tuple)
# None draws random(), a number k draws integers(k)
draw_plans = st.lists(st.one_of(st.none(), st.integers(1, 10), st.integers(1, 2**32)),
                      min_size=8, max_size=8)
PLAN = [None, 3, None, 1, None, 2**32, None, 7]


def first_draws(stream, plan=PLAN) -> list:
    return [stream.random() if k is None else stream.integers(k) for k in plan]


def numpy_draws(seed, key, plan=PLAN) -> list:
    """The same draws straight from numpy's SeedSequence and PCG64."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    return [gen.random() if k is None else int(gen.integers(k)) for k in plan]


# n at the edges of the one 32-bit path, powers of two, whose rejection
# threshold is 0, and drawn values, some above 2**31, where up to half of a
# bound's draws are rejected
EDGE_BOUNDS = (1, 2, 3, 7, 2**31, 2**31 + 1, 2**32 - 1, 2**32)
bounds = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, 2**32),
                   st.integers(2**31, 2**32))
# long enough that refills of the raw-output buffer fall between draws
long_plans = st.lists(st.one_of(st.none(), bounds), min_size=3 * _REFILL,
                      max_size=6 * _REFILL)


@settings(deadline=None, max_examples=300)
@given(seed=seeds, key=st.lists(keys, max_size=3).map(tuple), plan=long_plans)
def test_draws_equal_numpy_generator_in_value_and_type(seed, key, plan):
    stream = RngStream(seed).substream(*key)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    for k in plan:
        got = stream.random() if k is None else stream.integers(k)
        want = gen.random() if k is None else int(gen.integers(k))
        assert type(got) is type(want)
        assert got == want


@pytest.mark.parametrize("n", [0, -1, 2**63 + 1, -(2**70), 2**70])
def test_bound_out_of_range_raises_as_numpy_does(n):
    gen = np.random.Generator(np.random.PCG64(5))
    with pytest.raises(ValueError):
        gen.integers(n)
    with pytest.raises(ValueError):
        RngStream(5).integers(n)


@pytest.mark.parametrize("n", [2**32 + 1, 2**40, 2**62, 2**63])
def test_bound_above_two_to_the_32_raises_without_a_draw(n):
    stream = RngStream(5)
    with pytest.raises(ValueError, match=re.escape("0 < n <= 2**32")):
        stream.integers(n)
    assert stream.random() == RngStream(5).random()


def test_non_integer_bound_raises_type_error():
    with pytest.raises(TypeError):
        RngStream(5).integers(2.5)


@settings(deadline=None, max_examples=200)
@given(seed=seeds, prefix=prefixes, plan=draw_plans, count=st.integers(1, 6),
       start=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 6, 2**32 + 6),
                       st.integers(2**32, 2**70)))
def test_each_stream_draws_as_substream_and_seed_sequence(seed, prefix, plan, count, start):
    root = RngStream(seed).substream(*prefix)
    streams = list(root.substreams(count, start))
    assert [s.key for s in streams] == [prefix + (i,) for i in range(start, start + count)]
    for i, stream in zip(range(start, start + count), streams):
        assert stream.seed == seed
        expected = first_draws(root.substream(i), plan)
        assert first_draws(stream, plan) == expected
        assert numpy_draws(seed, prefix + (i,), plan) == expected


@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_chunk_edges(count):
    assert _CHUNK == 4096
    root = RngStream(2**32 + 17).substream(1)
    streams = list(root.substreams(count))
    assert len(streams) == count
    for i, stream in enumerate(streams):
        assert first_draws(stream) == first_draws(root.substream(i)), i


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_indices_across_two_to_the_32(seed):
    root = RngStream(seed).substream(0)
    start = 2**32 - 3
    streams = list(root.substreams(6, start))
    for i, stream in zip(range(start, start + 6), streams):
        assert stream.key == (0, i)
        assert first_draws(stream) == numpy_draws(seed, (0, i))


def test_empty_prefix_and_no_streams():
    root = RngStream(5)
    assert [first_draws(s) for s in root.substreams(3)] == [
        numpy_draws(5, (i,)) for i in range(3)]
    assert list(root.substreams(0)) == []
    assert list(root.substreams(-2, 10)) == []


@pytest.mark.parametrize("start", [-1, -(2**40), "x", None, "2**3"])
def test_bad_index_raises_as_substream_does(start):
    root = RngStream(9).substream(0)
    with pytest.raises(Exception) as expected:
        root.substream(start)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        list(root.substreams(1, start))


def test_non_integer_index_raises_type_error():
    root = RngStream(9).substream(0)
    with pytest.raises(TypeError):
        root.substream(2.7)
    with pytest.raises(TypeError):
        list(root.substreams(1, 2.7))
    with pytest.raises(TypeError):
        list(root.substreams(1.5))


def test_streams_do_not_depend_on_parent_consumption():
    parent = RngStream(7).substream(0)
    parent.random()
    late = [first_draws(s) for s in parent.substreams(3)]
    assert late == [first_draws(s) for s in RngStream(7).substream(0).substreams(3)]
