"""Park profiles calibrated to Table I of the paper.

A :class:`ParkProfile` captures everything park-specific: geometry, feature
inventory, poaching prevalence, patrol resources, transport mode, and
seasonality. The four stock profiles mirror the paper's four dataset
variants (MFNP, QENP, SWS, and SWS dry-season), scaled down ~9x in cell
count so the full experiment grid runs on a laptop; all the *rates* (positive
label fraction, mean patrol effort per cell) target the paper's Table I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ParkProfile:
    """Static description of a protected area and its data regime.

    Attributes
    ----------
    name:
        Short identifier, e.g. ``"MFNP"``.
    shape:
        Lattice (height, width) in cells.
    geometry:
        ``"ellipse"`` (round parks, protected core — MFNP) or
        ``"rectangle"`` (long thin parks — QENP).
    n_rivers, n_roads, n_villages, n_patrol_posts:
        Landscape inventory counts.
    extra_features:
        Number of additional smooth ecological rasters (forest cover, NPP,
        etc.) so the total feature count matches Table I's "Number of
        features" row.
    attack_rate:
        Target mean per-cell-per-period probability of a poaching attack.
    detect_rate:
        Detection-curve steepness ``k`` in ``P(detect|attack) = 1-e^{-kc}``
        with ``c`` the km of patrol effort in the cell.
    mean_effort_km:
        Target mean patrol effort per *patrolled* cell per period (Table I's
        "Avg. patrol effort").
    patrols_per_period:
        Number of distinct patrols simulated in each time period.
    patrol_length_km:
        Length of a single patrol in km (= simulator steps).
    waypoint_interval:
        Record a GPS waypoint every this many km. Motorbike parks (SWS) have
        sparser waypoints (the paper: "waypoints ... are even more sparse").
    boundary_attraction:
        Weight on proximity-to-boundary in the poacher utility. High for
        MFNP ("most poaching occurs at the edges of the park").
    seasonal:
        Whether poaching intensity shifts with the wet/dry season (SWS).
    dry_season_only:
        Restrict datasets to dry-season months (the SWS-dry variant), using
        2-month periods instead of 3-month ones.
    deterrence:
        Strength of the deterrence effect of last period's patrol coverage
        on the attack probability.
    years:
        Number of simulated years of historical data.
    """

    name: str
    shape: tuple[int, int]
    geometry: str = "rectangle"
    n_rivers: int = 2
    n_roads: int = 2
    n_villages: int = 4
    n_patrol_posts: int = 4
    extra_features: int = 3
    attack_rate: float = 0.10
    detect_rate: float = 0.9
    mean_effort_km: float = 2.0
    patrols_per_period: int = 30
    patrol_length_km: int = 10
    waypoint_interval: int = 1
    boundary_attraction: float = 1.0
    seasonal: bool = False
    dry_season_only: bool = False
    deterrence: float = 0.5
    years: int = 6
    feature_noise: float = 0.15
    #: Target fraction of positive labels in the assembled dataset; the
    #: generator calibrates the poacher intercept to hit it (None = skip).
    target_positive_rate: float | None = None

    def __post_init__(self) -> None:
        if self.geometry not in ("ellipse", "rectangle"):
            raise ConfigurationError(f"unknown geometry '{self.geometry}'")
        if not 0.0 < self.attack_rate < 1.0:
            raise ConfigurationError(f"attack_rate must be in (0,1), got {self.attack_rate}")
        if self.detect_rate <= 0:
            raise ConfigurationError(f"detect_rate must be positive, got {self.detect_rate}")
        if self.years < 2:
            raise ConfigurationError(f"need >= 2 years of data, got {self.years}")
        if self.waypoint_interval < 1:
            raise ConfigurationError("waypoint_interval must be >= 1")
        if self.patrol_length_km < 2:
            raise ConfigurationError("patrol_length_km must be >= 2")

    @property
    def periods_per_year(self) -> int:
        """3-month periods normally; 2-month dry-season periods for SWS dry.

        The paper: "to process dry season, we discretize time into two-month
        periods (rather than three) to obtain three points per year" — both
        schemes give 3-4 periods/year; we use 4 for full-year parks
        (quarters) and 3 for dry-season-only datasets.
        """
        return 3 if self.dry_season_only else 4

    @property
    def n_periods(self) -> int:
        """Total number of time steps of historical data."""
        return self.years * self.periods_per_year

    def scaled(self, factor: float) -> "ParkProfile":
        """A copy with lattice dimensions scaled by ``factor`` (min 6x6).

        Useful for fast unit tests (factor < 1) or paper-scale runs
        (factor > 1).
        """
        if not (factor > 0 and math.isfinite(factor)):
            raise ConfigurationError(
                f"scale factor must be positive and finite, got {factor}"
            )
        height = max(6, int(round(self.shape[0] * factor)))
        width = max(6, int(round(self.shape[1] * factor)))
        return replace(self, shape=(height, width))


# ---------------------------------------------------------------------------
# Stock profiles (Table I, scaled down ~9x in cells, rates preserved)
# ---------------------------------------------------------------------------

#: Murchison Falls NP: circular savanna, high positive rate (14.3%),
#: poaching concentrated at the park edges, foot patrols.
MFNP = ParkProfile(
    name="MFNP",
    shape=(24, 24),
    geometry="ellipse",
    n_rivers=2,
    n_roads=2,
    n_villages=5,
    n_patrol_posts=5,
    extra_features=4,
    attack_rate=0.42,
    detect_rate=0.20,
    mean_effort_km=1.75,
    patrols_per_period=26,
    patrol_length_km=10,
    waypoint_interval=1,
    boundary_attraction=2.0,
    seasonal=False,
    deterrence=0.5,
    target_positive_rate=0.143,
)

#: Queen Elizabeth NP: long thin park, moderate positive rate (4.7%),
#: centre accessible from the boundary, foot patrols.
QENP = ParkProfile(
    name="QENP",
    shape=(12, 36),
    geometry="rectangle",
    n_rivers=2,
    n_roads=3,
    n_villages=5,
    n_patrol_posts=4,
    extra_features=2,
    attack_rate=0.088,
    detect_rate=0.20,
    mean_effort_km=2.08,
    patrols_per_period=28,
    patrol_length_km=10,
    waypoint_interval=1,
    boundary_attraction=0.8,
    seasonal=False,
    deterrence=0.5,
    target_positive_rate=0.047,
)

#: Srepok Wildlife Sanctuary: extreme imbalance (0.36% positives), dense
#: terrain, motorbike patrols with sparse waypoints, strong seasonality,
#: few rangers covering a large area.
SWS = ParkProfile(
    name="SWS",
    shape=(20, 20),
    geometry="rectangle",
    n_rivers=3,
    n_roads=2,
    n_villages=3,
    n_patrol_posts=3,
    extra_features=3,
    attack_rate=0.070,
    detect_rate=0.18,
    mean_effort_km=3.96,
    patrols_per_period=20,
    patrol_length_km=16,
    waypoint_interval=3,
    boundary_attraction=0.5,
    seasonal=True,
    deterrence=0.4,
    target_positive_rate=0.013,
)

#: SWS restricted to dry-season months: even fewer positives (0.25%),
#: 2-month discretisation.
SWS_DRY = ParkProfile(
    name="SWS dry",
    shape=(20, 20),
    geometry="rectangle",
    n_rivers=3,
    n_roads=2,
    n_villages=3,
    n_patrol_posts=3,
    extra_features=3,
    attack_rate=0.055,
    detect_rate=0.18,
    mean_effort_km=3.03,
    patrols_per_period=20,
    patrol_length_km=16,
    waypoint_interval=3,
    boundary_attraction=0.5,
    seasonal=True,
    dry_season_only=True,
    deterrence=0.4,
    target_positive_rate=0.010,
)

_PROFILES: dict[str, ParkProfile] = {
    "MFNP": MFNP,
    "QENP": QENP,
    "SWS": SWS,
    "SWS dry": SWS_DRY,
    "SWS_DRY": SWS_DRY,
}


def get_profile(name: str) -> ParkProfile:
    """Look up a stock profile by (case-insensitive) name."""
    for key, profile in _PROFILES.items():
        if key.lower() == name.lower():
            return profile
    raise ConfigurationError(
        f"unknown park profile '{name}'; available: {list_profiles()}"
    )


def list_profiles() -> list[str]:
    """Names of the stock park profiles."""
    return ["MFNP", "QENP", "SWS", "SWS dry"]
