"""Tests for repro.data.profiles and repro.data.seasonality."""

from __future__ import annotations

import pytest

from repro.data import (
    MFNP,
    QENP,
    SWS,
    SWS_DRY,
    ParkProfile,
    Season,
    get_profile,
    list_profiles,
    season_of_month,
    seasonal_risk_shift,
)
from repro.data.seasonality import months_of_period, period_season
from repro.exceptions import ConfigurationError
from repro.geo import Grid


class TestProfiles:
    def test_stock_profiles_lookup(self):
        assert get_profile("MFNP") is MFNP
        assert get_profile("qenp") is QENP
        assert get_profile("SWS dry") is SWS_DRY
        assert get_profile("sws_dry") is SWS_DRY

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            get_profile("yellowstone")

    def test_list_profiles(self):
        assert list_profiles() == ["MFNP", "QENP", "SWS", "SWS dry"]

    def test_imbalance_ordering_matches_table1(self):
        """MFNP > QENP >> SWS > SWS dry in positive-label rate."""
        assert MFNP.target_positive_rate > QENP.target_positive_rate
        assert QENP.target_positive_rate > SWS.target_positive_rate
        assert SWS.target_positive_rate > SWS_DRY.target_positive_rate

    def test_sws_has_sparser_waypoints_than_uganda(self):
        """Motorbike patrols record fewer GPS points (Section III-A)."""
        assert SWS.waypoint_interval > MFNP.waypoint_interval
        assert SWS.waypoint_interval > QENP.waypoint_interval

    def test_periods_per_year(self):
        assert MFNP.periods_per_year == 4
        assert SWS_DRY.periods_per_year == 3
        assert MFNP.n_periods == MFNP.years * 4

    def test_scaled(self):
        small = MFNP.scaled(0.5)
        assert small.shape == (12, 12)
        assert small.name == MFNP.name
        tiny = MFNP.scaled(0.01)
        assert tiny.shape == (6, 6)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            MFNP.scaled(0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scaled_rejects_nonfinite(self, factor):
        with pytest.raises(ConfigurationError, match="finite"):
            MFNP.scaled(factor)

    @pytest.mark.parametrize("factor", [42.0, 1e308])
    def test_scaled_rejects_lattices_past_the_cell_limit(self, factor):
        """A factor whose lattice size overflows is refused, not raised as
        OverflowError."""
        assert MFNP.scaled(41.67).shape == (1000, 1000)  # exactly at the limit
        with pytest.raises(ConfigurationError, match="at most 1,000,000"):
            MFNP.scaled(factor)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParkProfile(name="x", shape=(8, 8), geometry="hexagon")
        with pytest.raises(ConfigurationError):
            ParkProfile(name="x", shape=(8, 8), attack_rate=0.0)
        with pytest.raises(ConfigurationError):
            ParkProfile(name="x", shape=(8, 8), detect_rate=-1.0)
        with pytest.raises(ConfigurationError):
            ParkProfile(name="x", shape=(8, 8), years=1)
        with pytest.raises(ConfigurationError):
            ParkProfile(name="x", shape=(8, 8), waypoint_interval=0)


class TestSeasonality:
    def test_dry_months(self):
        assert season_of_month(12) is Season.DRY
        assert season_of_month(2) is Season.DRY
        assert season_of_month(7) is Season.WET

    def test_bad_month(self):
        with pytest.raises(ConfigurationError):
            season_of_month(0)
        with pytest.raises(ConfigurationError):
            season_of_month(13)

    def test_quarterly_period_months(self):
        assert months_of_period(0, 4) == [1, 2, 3]
        assert months_of_period(3, 4) == [10, 11, 12]
        assert months_of_period(5, 4) == [4, 5, 6]  # wraps into year 2

    def test_dry_period_months(self):
        assert months_of_period(0, 3, dry_season_only=True) == [11, 12]
        assert months_of_period(1, 3, dry_season_only=True) == [1, 2]
        assert months_of_period(2, 3, dry_season_only=True) == [3, 4]

    def test_dry_periods_are_all_dry(self):
        for t in range(6):
            assert period_season(t, 3, dry_season_only=True) is Season.DRY

    def test_quarterly_seasons(self):
        assert period_season(0, 4) is Season.DRY   # Jan-Mar
        assert period_season(2, 4) is Season.WET   # Jul-Sep

    def test_risk_shift_flips_with_season(self):
        grid = Grid.rectangular(10, 10)
        dry = seasonal_risk_shift(grid, Season.DRY)
        wet = seasonal_risk_shift(grid, Season.WET)
        north = grid.cell_id(0, 5)
        south = grid.cell_id(9, 5)
        assert dry[north] > dry[south]
        assert wet[south] > wet[north]
        # Paper alignment: dry season raises risk in the north.
        assert dry[north] > 0

    def test_risk_shift_strength_zero(self):
        grid = Grid.rectangular(4, 4)
        shift = seasonal_risk_shift(grid, Season.DRY, strength=0.0)
        assert (shift == 0).all()

    def test_risk_shift_rejects_negative_strength(self):
        grid = Grid.rectangular(4, 4)
        with pytest.raises(ConfigurationError):
            seasonal_risk_shift(grid, Season.DRY, strength=-1.0)
