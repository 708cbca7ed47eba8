"""Ranger patrol simulator.

Simulates the patrols whose GPS traces populate the SMART database. The
simulator reproduces the data-collection pathologies the paper highlights:

* **Spatial bias** — patrols start at posts and prefer accessible,
  historically favoured terrain, so effort is unevenly distributed and some
  cells are never patrolled (Fig. 3).
* **Sparse waypoints** — GPS points are recorded only every
  ``waypoint_interval`` km (30-minute syncs; worse on motorbikes in SWS), so
  recorded effort must be *reconstructed* by interpolating between waypoints
  and differs from the true path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.park import SyntheticPark
from repro.exceptions import ConfigurationError


@dataclass
class PatrolRecord:
    """One ranger patrol: the true path and its recorded waypoints.

    Attributes
    ----------
    period_index:
        Time period during which the patrol happened.
    post:
        Cell id of the patrol post the patrol starts from.
    path:
        Sequence of cell ids actually visited (1 km per step).
    waypoints:
        Subsampled path — the GPS points that reach the SMART database.
    """

    period_index: int
    post: int
    path: list[int]
    waypoints: list[int] = field(default_factory=list)

    @property
    def length_km(self) -> float:
        """True patrol length in km (one km per path step)."""
        return float(len(self.path))


class PatrolSimulator:
    """Biased-random-walk patrol generator over a synthetic park.

    Parameters
    ----------
    park:
        The park to patrol.
    seed:
        Randomness for walk decisions and post choice.
    focus:
        Softmax temperature on the preference raster; larger = more biased
        (more concentrated, less exploratory) patrols.
    """

    def __init__(self, park: SyntheticPark, seed: int = 7, focus: float = 1.5):
        if focus <= 0:
            raise ConfigurationError(f"focus must be positive, got {focus}")
        self.park = park
        self.rng = np.random.default_rng(seed)
        self.focus = focus
        self._preference = self._build_preference()
        with np.errstate(over="ignore"):  # refused just below
            weights = np.exp(focus * self._preference)
        # A walk step divides by its candidates' weight sum, which must be
        # finite and positive.
        if not (np.all(weights > 0) and np.isfinite(weights.sum())):
            raise ConfigurationError(
                f"focus={focus} overflows or underflows the patrol weights "
                "exp(focus * preference)"
            )
        #: Per-cell walk weights and neighbour lists, as Python scalars.
        self._weights: list[float] = weights.tolist()
        self._neighbors: list[list[int]] = [
            park.grid.neighbors(cid, connectivity=4) for cid in range(park.n_cells)
        ]

    # ------------------------------------------------------------------
    def _build_preference(self) -> np.ndarray:
        """Where rangers like to patrol: accessible, near posts, plus habit.

        The persistent random component models institutional habit — routes
        that have "always been patrolled" — which is a key source of bias in
        the historical data.
        """
        features = self.park.features
        z = lambda v: (v - v.mean()) / (v.std() + 1e-12)  # noqa: E731
        pref = (
            -0.8 * z(features.column("dist_patrol_post"))
            - 0.5 * z(features.column("dist_road"))
            + 0.3 * z(features.column("animal_density"))
            - 0.2 * z(features.column("slope"))
        )
        habit = self.rng.normal(0.0, 0.8, size=pref.shape)
        return pref + habit

    @property
    def preference(self) -> np.ndarray:
        """The (fixed) per-cell patrol preference on an arbitrary scale."""
        return self._preference.copy()

    # ------------------------------------------------------------------
    def simulate_patrol(self, period_index: int) -> PatrolRecord:
        """One patrol: biased random walk from a random post and back.

        The walk spends ``patrol_length_km`` steps moving between adjacent
        cells, preferring high-preference neighbours; the last third of the
        walk adds a homeward bias so patrols plausibly end near their post.
        """
        profile = self.park.profile
        posts = self.park.patrol_posts
        post = int(posts[self.rng.integers(len(posts))])  # = rng.choice(posts)
        neighbors, weights, step = self._neighbors, self._weights, self._step
        path = [post]
        current = post
        for __ in range(profile.patrol_length_km - 1):
            options = neighbors[current]
            if not options:
                break
            # Avoid doubling straight back over the last few cells when any
            # fresh neighbour exists — real patrols sweep, they don't pace.
            recent = path[-3:]
            candidates = [o for o in options if o not in recent] or options
            current = candidates[step([weights[o] for o in candidates])]
            path.append(current)
        waypoints = path[:: profile.waypoint_interval]
        if waypoints[-1] != path[-1]:
            waypoints.append(path[-1])
        return PatrolRecord(
            period_index=period_index, post=post, path=path, waypoints=waypoints
        )

    def _step(self, weights: list[float]) -> int:
        """Index drawn as ``rng.choice(len(weights), p=weights / sum)``.

        Repeats numpy's arithmetic on scalars for one ``rng.random()``
        double: the left-to-right sum, the normalised weights, their running
        sum divided by its last entry, and the count of entries <= ``u``.
        """
        total = 0.0
        for w in weights:
            total += w
        cdf = []
        run = 0.0
        for w in weights:
            run += w / total
            cdf.append(run)
        u = self.rng.random()
        index = 0
        for c in cdf:
            if c / run <= u:
                index += 1
        return index

    def simulate_period(
        self, period_index: int, n_patrols: int | None = None
    ) -> tuple[np.ndarray, list[PatrolRecord]]:
        """All patrols of one time period.

        Returns
        -------
        (true_effort, patrols):
            ``true_effort`` is the ``(n_cells,)`` km actually walked per
            cell; ``patrols`` the individual patrol records (whose waypoints
            feed the SMART reconstruction).
        """
        profile = self.park.profile
        n_patrols = profile.patrols_per_period if n_patrols is None else n_patrols
        if n_patrols < 0:
            raise ConfigurationError(f"n_patrols must be >= 0, got {n_patrols}")
        effort = np.zeros(self.park.n_cells)
        patrols: list[PatrolRecord] = []
        for __ in range(n_patrols):
            patrol = self.simulate_patrol(period_index)
            for cid in patrol.path:
                effort[cid] += 1.0
            patrols.append(patrol)
        return effort, patrols
