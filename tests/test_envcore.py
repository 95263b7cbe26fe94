import dataclasses

import pytest

from promo_gym.envcore import RngStream
from promo_gym.promoenv import build_promo_mdp
from promo_gym.tables import TabularEnv, TransitionEntry


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42)
        b = RngStream(42)
        assert [a.integers(7) for _ in range(100)] == [b.integers(7) for _ in range(100)]
        assert [RngStream(5).random() for _ in range(3)] == [
            RngStream(5).random() for _ in range(3)
        ]

    def test_different_seeds_differ(self):
        a = [RngStream(1).random() for _ in range(8)]
        b = [RngStream(2).random() for _ in range(8)]
        assert a != b

    def test_substream_pure_function_of_seed_and_key(self):
        a = RngStream(7).substream(3)
        b = RngStream(7).substream(3)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_substreams_independent_of_parent_consumption(self):
        parent = RngStream(7)
        parent.random()
        parent.random()
        late = parent.substream(3)
        fresh = RngStream(7).substream(3)
        assert [late.random() for _ in range(10)] == [fresh.random() for _ in range(10)]

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        RngStream(2**64 - 1)  # max unsigned 64-bit is fine

    @pytest.mark.parametrize("value", [2.7, 3.0, "3", None])
    def test_non_integer_seed_or_key_raises_type_error(self, value):
        with pytest.raises(TypeError):
            RngStream(value)
        with pytest.raises(TypeError):
            RngStream(1).substream(0, value)

    def test_algorithm_label_pinned(self):
        assert RngStream.ALGORITHM == "pcg64-seedseq-v1"


class TestReset:
    def test_single_point_start_frozen_lake(self, lake_table):
        env = TabularEnv(lake_table)
        assert env.reset(RngStream(0)) == 0

    def test_single_point_start_promo(self, reference_table):
        env = TabularEnv(reference_table)
        assert env.reset(RngStream(0)) == 35

    def test_two_point_uniform_start(self, reference_spec):
        spec = dataclasses.replace(
            reference_spec, initial_states=frozenset({(3, 5), (3, 6)})
        )
        env = TabularEnv(build_promo_mdp(spec))
        rng = RngStream(77)
        n = 10_000
        hits_35 = sum(env.reset(rng) == 35 for _ in range(n))
        assert abs(hits_35 / n - 0.5) <= 0.02


class TestDeterminism:
    def test_replay_identical_outcomes(self, reference_table):
        def roll(seed: int) -> list[TransitionEntry]:
            env = TabularEnv(reference_table)
            rng = RngStream(seed)
            env.reset(rng)
            outs = []
            for _ in range(40):
                action = rng.integers(reference_table.n_actions)
                out = env.step(action, rng)
                outs.append(out)
                if out.done:
                    env.reset(rng)
            return outs

        assert roll(99) == roll(99)

    def test_outcomes_stay_in_space(self, lake_table_slippery):
        env = TabularEnv(lake_table_slippery)
        rng = RngStream(4)
        env.reset(rng)
        for _ in range(500):
            out = env.step(rng.integers(4), rng)
            assert 0 <= out.next_state < lake_table_slippery.n_states
            if out.done:
                env.reset(rng)

