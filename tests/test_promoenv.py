import dataclasses
import json
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promo_gym.binning import assign_bin, fit_bins
from promo_gym.errors import NoPromoInHorizon, SpecError
from promo_gym.ingest import DailySalesRecord, PromoPlanRecord
from promo_gym.promoenv import (
    FORECAST,
    INCREASE,
    LOWER,
    REALIGN,
    PromoGridSpec,
    build_promo_mdp,
    derive_spec_from_data,
    spec_from_json,
    spec_to_json,
)
from promo_gym.solve import value_iteration
from promo_gym.tables import validate

# the two demo-state transition blocks, frozen as golden data
FAN = 0.14285714285714285
GOLDEN = {
    35: {
        0: [(FAN, 30, -1.0, False), (FAN, 31, -1.0, False), (FAN, 32, -1.0, False),
            (FAN, 33, -1.0, False), (FAN, 34, -1.0, False), (FAN, 35, -1.0, False),
            (FAN, 38, -1.0, False)],
        1: [(1.0, 25, -1.0, False)],
        2: [(1.0, 45, -1.0, False)],
        3: [(1.0, 35, -10.0, False)],
    },
    36: {
        0: [(FAN, 30, -1.0, False), (FAN, 31, -1.0, False), (FAN, 32, -1.0, False),
            (FAN, 33, -1.0, False), (FAN, 34, -1.0, False), (FAN, 35, -1.0, False),
            (FAN, 38, -1.0, False)],
        1: [(1.0, 26, -1.0, False)],
        2: [(1.0, 46, -1.0, False)],
        3: [(1.0, 36, -10.0, False)],
    },
}


def as_tuples(table, state, action):
    return [
        (e.probability, e.next_state, e.reward, e.done)
        for e in table.pair(state, action)
    ]


class TestGoldenBlocks:
    def test_states_35_and_36_match_golden(self, reference_table):
        for state, actions in GOLDEN.items():
            for action, expected in actions.items():
                assert as_tuples(reference_table, state, action) == expected

    def test_table_validates(self, reference_table):
        assert validate(reference_table) == []


class TestBuildRules:
    def test_realign_fans_over_availability_in_column_order(self, reference_table):
        table = reference_table
        for col in range(10):
            entries = table.pair(10 + col, REALIGN)  # row 1
            assert [e.next_state for e in entries] == [10, 11, 12, 13, 14, 15, 18]
            assert all(abs(e.probability - 1 / 7) < 1e-15 for e in entries)

    def test_row_moves_clamp_at_edges(self, reference_table):
        table = reference_table
        [bottom] = table.pair(3, LOWER)       # row 0 col 3
        assert bottom.next_state == 3
        [top] = table.pair(43, INCREASE)      # row 4 col 3
        assert top.next_state == 43
        assert bottom.reward == top.reward == -1.0

    def test_only_realign_is_stochastic(self, reference_table):
        for s in range(reference_table.n_states):
            assert len(reference_table.pair(s, REALIGN)) == 7
            for a in (LOWER, INCREASE, FORECAST):
                assert len(reference_table.pair(s, a)) == 1

    def test_no_transition_leaves_the_grid(self, reference_table):
        for s in range(reference_table.n_states):
            for a in range(4):
                for e in reference_table.pair(s, a):
                    assert 0 <= e.next_state < 50

    def test_goal_forecast_terminates_with_reward(self):
        spec = PromoGridSpec(
            rows=3,
            avail={r: frozenset({0, 3}) for r in range(3)},
            goals=frozenset({(2, 3)}),
            initial_states=frozenset({(0, 0)}),
        )
        table = build_promo_mdp(spec)
        [e] = table.pair(23, FORECAST)
        assert (e.probability, e.next_state, e.reward, e.done) == (1.0, 23, 20.0, True)

    def test_goal_cell_other_actions_stay_live(self, reference_table):
        # goal (2, 4) = state 24: moving off the goal must remain possible
        [lower] = reference_table.pair(24, LOWER)
        assert (lower.next_state, lower.done) == (14, False)
        realign = reference_table.pair(24, REALIGN)
        assert all(not e.done for e in realign)

    def test_failed_forecast_self_loop(self, reference_table):
        [e] = reference_table.pair(35, FORECAST)
        assert (e.next_state, e.reward, e.done) == (35, -10.0, False)

    def test_initial_distribution_uniform(self, reference_spec):
        spec = dataclasses.replace(
            reference_spec, initial_states=frozenset({(3, 5), (3, 6)})
        )
        table = build_promo_mdp(spec)
        assert table.initial_distribution == {35: 0.5, 36: 0.5}

    def test_layout_recorded(self, reference_table):
        assert reference_table.layout == (5, 10)


class TestSpecValidation:
    def test_empty_avail_row_rejected(self):
        spec = PromoGridSpec(
            rows=2,
            avail={0: frozenset({1}), 1: frozenset()},
            initial_states=frozenset({(0, 0)}),
        )
        with pytest.raises(SpecError) as err:
            build_promo_mdp(spec)
        assert "row 1" in str(err.value)

    def test_goal_outside_availability_rejected(self):
        spec = PromoGridSpec(
            rows=2,
            avail={0: frozenset({1}), 1: frozenset({1})},
            goals=frozenset({(0, 2)}),
            initial_states=frozenset({(0, 0)}),
        )
        with pytest.raises(SpecError):
            build_promo_mdp(spec)

    def test_width_pinned_to_ten(self, reference_spec):
        doc = json.loads(spec_to_json(reference_spec))
        assert doc["width"] == 10
        for width in (8, 11):
            doc["width"] = width
            with pytest.raises(SpecError, match=f"^width is fixed at 10, got {width}$"):
                spec_from_json(json.dumps(doc))

    def test_missing_initial_states_rejected(self):
        spec = PromoGridSpec(
            rows=1, avail={0: frozenset({0})}, initial_states=frozenset()
        )
        with pytest.raises(SpecError):
            spec.check()

    def test_avail_column_out_of_range(self):
        spec = PromoGridSpec(
            rows=1, avail={0: frozenset({10})}, initial_states=frozenset({(0, 0)})
        )
        with pytest.raises(SpecError):
            spec.check()


class TestDominance:
    @pytest.mark.parametrize("gamma", [0.9, 0.99, 0.999])
    def test_oracle_forecasts_only_at_goals(self, reference_table, gamma):
        sol = value_iteration(reference_table, gamma=gamma)
        forecast_states = set(np.nonzero(sol.policy == FORECAST)[0].tolist())
        assert forecast_states == {24}

    @pytest.mark.parametrize("gamma", [0.9, 0.99])
    def test_goal_row_avail_states_have_positive_value(self, reference_table, gamma):
        sol = value_iteration(reference_table, gamma=gamma)
        for col in (0, 1, 2, 3, 4, 5, 8):
            assert sol.V[20 + col] > 0.0


def daily(store, product, d, units, promo=False):
    return DailySalesRecord(store, product, d, d.weekday(), units, promo,
                            False, False)


def promo_record(code, ptype, event, start, end, store="S01", product="P100",
                 target=100.0, offer_qty=2, offer_price=5.0):
    return PromoPlanRecord(code, ptype, event, start, end, target, store,
                           "AD-1", product, offer_qty, offer_price,
                           False, False, False, False)


class TestDeriveSpec:
    # fit_bins(0..99) gives boundaries (19, 39, 59, 79) throughout

    def test_one_friday_promo(self):
        units = list(range(100))
        bins = fit_bins(units)  # boundaries (19, 39, 59, 79)
        monday = date(2015, 6, 8)
        friday = date(2015, 6, 12)
        series = [daily("S01", "P100", friday, 45, promo=True)]
        promos = [promo_record("PR-1", "TPR", "E-1", friday, friday)]
        spec = derive_spec_from_data(series, bins, promos, monday)
        assert spec.goals == frozenset({(2, 4)})  # 45 lands in bin 2
        for r in range(5):
            assert 4 in spec.avail[r]

    def test_two_promos_tuesday_saturday(self):
        bins = fit_bins(list(range(100)))
        monday = date(2015, 6, 8)
        series = [
            daily("S01", "P100", date(2015, 6, 9), 10, promo=True),
            daily("S01", "P100", date(2015, 6, 13), 85, promo=True),
        ]
        promos = [
            promo_record("PR-1", "TPR", "E-1", date(2015, 6, 9), date(2015, 6, 9)),
            promo_record("PR-2", "Ad", "E-2", date(2015, 6, 13), date(2015, 6, 13)),
        ]
        spec = derive_spec_from_data(series, bins, promos, monday)
        assert spec.avail[0] >= {1, 5}
        assert spec.goals == frozenset({(0, 1), (4, 5)})

    def test_no_promo_errors_without_flag(self):
        bins = fit_bins(list(range(100)))
        series = [daily("S01", "P100", date(2015, 6, 8), 10)]
        with pytest.raises(NoPromoInHorizon):
            derive_spec_from_data(series, bins, [], date(2015, 6, 8))

    def test_no_promo_with_flag_gives_goalless_week(self):
        bins = fit_bins(list(range(100)))
        series = [daily("S01", "P100", date(2015, 6, 8), 10)]
        spec = derive_spec_from_data(series, bins, [], date(2015, 6, 8),
                                     allow_empty_promos=True)
        assert spec.goals == frozenset()
        assert spec.avail[0] == frozenset(range(7))
        table = build_promo_mdp(spec)
        # forecast fails everywhere: modeling a promotion-free week
        for s in range(table.n_states):
            [e] = table.pair(s, FORECAST)
            assert e.reward == -10.0 and not e.done

    def test_seasonal_event_gets_aux_column(self):
        bins = fit_bins(list(range(100)))
        monday = date(2015, 6, 8)
        friday = date(2015, 6, 12)
        series = [daily("S01", "P100", friday, 45, promo=True)]
        promos = [
            promo_record("PR-1", "TPR", "E-1", friday, friday),
            promo_record("PR-2", "Seasonal", "E-9", date(2015, 6, 26),
                         date(2015, 6, 28), target=150.0, offer_price=5.0),
        ]
        spec = derive_spec_from_data(series, bins, promos, monday)
        assert spec.avail[0] == frozenset({4, 7})
        # seasonal goal: no realized units -> target 150 / 5.0 = 30 -> bin 1
        assert spec.goals == frozenset({(2, 4), (1, 7)})

    def test_seasonal_beyond_horizon_ignored(self):
        bins = fit_bins(list(range(100)))
        monday = date(2015, 6, 8)
        friday = date(2015, 6, 12)
        series = [daily("S01", "P100", friday, 45, promo=True)]
        promos = [
            promo_record("PR-1", "TPR", "E-1", friday, friday),
            promo_record("PR-2", "Seasonal", "E-9", date(2015, 8, 1),
                         date(2015, 8, 2)),
        ]
        spec = derive_spec_from_data(series, bins, promos, monday)
        assert spec.avail[0] == frozenset({4})

    def test_initial_state_from_trailing_mondays(self):
        bins = fit_bins(list(range(100)))
        monday = date(2015, 6, 8)
        friday = date(2015, 6, 12)
        series = [daily("S01", "P100", friday, 45, promo=True)]
        # four prior Mondays with units 70, 72, 74, 76 -> lower median 72 -> bin 3
        for k, units in zip(range(1, 5), (76, 74, 72, 70)):
            series.append(daily("S01", "P100",
                                date.fromordinal(monday.toordinal() - 7 * k), units))
        promos = [promo_record("PR-1", "TPR", "E-1", friday, friday)]
        spec = derive_spec_from_data(series, bins, promos, monday)
        assert spec.initial_states == frozenset({(3, 0)})

    def test_no_history_starts_at_bottom_bin(self):
        bins = fit_bins(list(range(100)))
        friday = date(2015, 6, 12)
        series = [daily("S01", "P100", friday, 45, promo=True)]
        promos = [promo_record("PR-1", "TPR", "E-1", friday, friday)]
        spec = derive_spec_from_data(series, bins, promos, date(2015, 6, 8))
        assert spec.initial_states == frozenset({(0, 0)})

    def test_promos_outside_scope_ignored(self):
        bins = fit_bins(list(range(100)))
        series = [daily("S01", "P100", date(2015, 6, 12), 45)]
        promos = [promo_record("PR-1", "TPR", "E-1", date(2015, 6, 12),
                               date(2015, 6, 12), store="S99")]
        with pytest.raises(NoPromoInHorizon):
            derive_spec_from_data(series, bins, promos, date(2015, 6, 8))

    @settings(deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["P1", "P2", "P3"]),
        st.one_of(st.integers(-40, 6), st.integers(-6, 0).map(lambda w: 7 * w)),
        st.integers(0, 120),
    ), max_size=12))
    def test_start_row_matches_scan_of_trailing_mondays(self, rows):
        bins = fit_bins(list(range(100)))
        monday = date(2015, 6, 8)
        series = [daily("S01", product, monday + timedelta(days=offset), units)
                  for product, offset, units in rows]
        # reference: one scan of the series per trailing Monday
        totals = []
        for k in range(1, 5):
            day = monday - timedelta(weeks=k)
            observed = [rec.units_sold for rec in series if rec.date == day]
            if observed:
                totals.append(sum(observed))
        totals.sort()
        row = assign_bin(bins, totals[(len(totals) - 1) // 2] if totals else 0)
        spec = derive_spec_from_data(series, bins, [], monday, allow_empty_promos=True)
        assert spec.initial_states == frozenset({(row, 0)})


class TestSpecDocument:
    def test_round_trip(self, reference_spec):
        again = spec_from_json(spec_to_json(reference_spec))
        assert again == reference_spec

    def test_defaults_fill_in(self):
        text = """{"rows": 1, "avail": {"0": [0]}, "initial_states": [[0, 0]]}"""
        spec = spec_from_json(text)
        assert spec.goal_reward == 20.0
        assert spec.step_reward == -1.0
        assert json.loads(spec_to_json(spec))["width"] == 10

    def test_invalid_document_rejected(self):
        with pytest.raises(SpecError):
            spec_from_json('{"rows": 1, "avail": {"0": []}, "initial_states": [[0, 0]]}')
