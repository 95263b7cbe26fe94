import math
import random

import pytest

from promo_gym.binning import (
    BinningModel,
    assign_bin,
    fit_bins,
    model_from_json,
    model_to_json,
)
from promo_gym.errors import EmptySeries, SchemaError


def nearest_rank_percentile(values: list[int], p: int) -> int:
    """Independent oracle: 1-based rank ceil(p*n/100) of the sorted multiset."""
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[rank - 1]


def brute_force_bin(boundaries, units: int) -> int:
    """Independent oracle: scan the boundary list."""
    for b, cut in enumerate(boundaries):
        if units <= cut:
            return b
    return 4


class TestFitBins:
    def test_0_to_99_boundaries(self):
        units = list(range(100))
        oracle = tuple(nearest_rank_percentile(units, p) for p in (20, 40, 60, 80))
        assert oracle == (19, 39, 59, 79)
        model = fit_bins(units)
        assert model.boundaries == oracle
        assert model.fitted_on == 100
        assert not model.degenerate

    def test_matches_oracle_on_random_multisets(self):
        rng = random.Random(7)
        for _ in range(50):
            units = [rng.randrange(200) for _ in range(rng.randrange(40, 400))]
            model = fit_bins(units)
            if model.degenerate:
                continue
            expected = tuple(
                nearest_rank_percentile(units, p) for p in (20, 40, 60, 80)
            )
            assert model.boundaries == expected

    def test_constant_series_degenerate(self):
        model = fit_bins([5, 5, 5, 5, 5])
        assert model.degenerate
        assert model.boundaries[0] == 5
        assert all(b < c for b, c in zip(model.boundaries, model.boundaries[1:]))
        assert all(assign_bin(model, 5) == 0 for _ in range(3))

    def test_two_distinct_values(self):
        model = fit_bins([2, 2, 2, 9, 9])
        assert model.degenerate
        assert model.boundaries == (2, 9, 10, 11)

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            fit_bins([])


class TestAssignBin:
    MODEL = BinningModel(boundaries=(19, 39, 59, 79), fitted_on=100)

    def test_tie_falls_in_lower_bin(self):
        assert assign_bin(self.MODEL, 19) == 0

    def test_mid_value(self):
        assert assign_bin(self.MODEL, 40) == brute_force_bin((19, 39, 59, 79), 40) == 2

    def test_overflow_goes_to_top_bin(self):
        assert assign_bin(self.MODEL, 1000) == 4

    def test_zero_goes_to_bottom(self):
        assert assign_bin(self.MODEL, 0) == 0

    def test_matches_brute_force_everywhere(self):
        rng = random.Random(99)
        for _ in range(10_000):
            units = rng.randrange(0, 120)
            assert assign_bin(self.MODEL, units) == brute_force_bin(
                self.MODEL.boundaries, units
            )

    def test_partition_property(self):
        # every non-negative value maps to exactly one bin, monotonically
        model = fit_bins([3, 8, 1, 40, 22, 17, 5, 60, 90, 2, 11])
        bins = [assign_bin(model, u) for u in range(200)]
        assert all(0 <= b <= 4 for b in bins)
        assert bins == sorted(bins)

    def test_quantile_sanity_each_bin_10_to_30_percent(self):
        rng = random.Random(5)
        values = rng.sample(range(10_000), 500)  # distinct
        model = fit_bins(values)
        counts = [0] * 5
        for u in values:
            counts[assign_bin(model, u)] += 1
        for c in counts:
            assert 0.10 * len(values) <= c <= 0.30 * len(values)


class TestModelDocument:
    def test_round_trip(self):
        model = fit_bins(list(range(100)))
        assert model_from_json(model_to_json(model)) == model

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(SchemaError):
            model_from_json(
                '{"k": 5, "boundaries": [4, 3, 5, 6], "fitted_on": 10}'
            )
