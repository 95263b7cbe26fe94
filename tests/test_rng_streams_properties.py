"""RngStream.substreams derives each stream exactly as substream does.

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

from promo_gym.envcore import _CHUNK, RngStream

EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
keys = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1),
                 st.integers(2**32, 2**40), st.just(2**64))
prefixes = st.lists(keys, max_size=2).map(tuple)
# None draws random(), a number k draws integers(k)
draw_plans = st.lists(st.one_of(st.none(), st.integers(1, 10), st.integers(1, 2**62)),
                      min_size=8, max_size=8)
PLAN = [None, 3, None, 1, None, 2**40, None, 7]


def first_draws(stream, plan=PLAN) -> list:
    return [stream.random() if k is None else stream.integers(k) for k in plan]


def numpy_draws(seed, key, plan=PLAN) -> list:
    """The same draws straight from numpy's SeedSequence and PCG64."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    return [gen.random() if k is None else int(gen.integers(k)) for k in plan]


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
