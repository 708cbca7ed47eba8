"""The :class:`PatrolPlanner` facade — predictor in, deployable plan out.

Wires together the pieces of Section VI: build the time-unrolled graph for a
patrol post, resample the predictor's effort-response surfaces onto the PWL
breakpoints of problem (P), apply the robust (Eq. 4) penalty, solve the
MILP, and decompose the optimal flow into ranger routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geo.grid import Grid
from repro.planning.graph import TimeUnrolledGraph
from repro.planning.milp import MILPSolution, PatrolMILP, SOLVER_MODES
from repro.planning.paths import PatrolRoute, decompose_flow_into_routes
from repro.planning.pwl import StackedPWL, sample_breakpoints
from repro.planning.robust import RobustObjective


@dataclass
class PatrolPlan:
    """A solved patrol plan for one post and period.

    Attributes
    ----------
    coverage:
        ``(n_cells,)`` prescribed patrol effort (km) per cell.
    objective_value:
        Optimal robust utility at the planning beta.
    beta:
        Robustness weight the plan was computed with.
    routes:
        Mixed-strategy route decomposition (weights sum to ~1).
    solution:
        Raw MILP solution (flows, status).
    """

    coverage: np.ndarray
    objective_value: float
    beta: float
    routes: list[PatrolRoute]
    solution: MILPSolution


class PatrolPlanner:
    """Plans risk-aware patrols for a single patrol post.

    Parameters
    ----------
    grid:
        Park lattice.
    source_cell:
        Patrol post cell id.
    horizon:
        Patrol length T in time steps (cells).
    n_patrols:
        Patrols per period K (coverage scale).
    n_segments:
        PWL segments m in the MILP's utility approximation.
    time_limit:
        MILP time limit (seconds).
    solver_mode:
        ``"auto"`` (default) drops the SOS2 binaries and solves a pure LP
        whenever every utility is concave; ``"milp"`` always carries them;
        ``"lp"`` forces the fast path (rejecting non-concave utilities).
    """

    def __init__(
        self,
        grid: Grid,
        source_cell: int,
        horizon: int = 8,
        n_patrols: int = 4,
        n_segments: int = 10,
        time_limit: float = 60.0,
        solver_mode: str = "auto",
    ):
        if n_segments < 1:
            raise ConfigurationError(f"n_segments must be >= 1, got {n_segments}")
        if solver_mode not in SOLVER_MODES:
            raise ConfigurationError(
                f"solver_mode must be one of {SOLVER_MODES}, got '{solver_mode}'"
            )
        self.grid = grid
        self.source_cell = int(source_cell)
        self.horizon = int(horizon)
        self.n_patrols = int(n_patrols)
        self.n_segments = int(n_segments)
        self.time_limit = time_limit
        self.solver_mode = solver_mode
        self.graph = TimeUnrolledGraph(grid, self.source_cell, self.horizon)
        self._milp = PatrolMILP(
            self.graph, n_patrols=self.n_patrols, time_limit=time_limit
        )

    # ------------------------------------------------------------------
    @property
    def milp(self) -> PatrolMILP:
        """The underlying problem-(P) solver (owns the structure cache)."""
        return self._milp

    @property
    def max_coverage(self) -> float:
        """T*K, the largest coverage one cell could receive."""
        return self._milp.max_coverage

    @staticmethod
    def breakpoints_for(
        horizon: int, n_patrols: int, n_segments: int
    ) -> np.ndarray:
        """PWL abscissae on [0, T*K] for the given planner parameters.

        The single source of the breakpoint grid: planners and the
        multi-post :class:`~repro.planning.service.PlanService` must agree
        on it exactly, or shared utility functions would be resampled on a
        mismatched domain.
        """
        return sample_breakpoints(float(horizon * n_patrols), n_segments)

    def breakpoints(self) -> np.ndarray:
        """The planner's PWL abscissae on [0, T*K]."""
        return self.breakpoints_for(self.horizon, self.n_patrols, self.n_segments)

    def _utilities_from_objective(
        self, objective: RobustObjective, beta: float | None
    ) -> StackedPWL:
        """The robust objective's rows for the reachable cells, resampled
        onto the planner breakpoints (as a PWL call on each row would)."""
        if objective.n_cells != self.grid.n_cells:
            raise ConfigurationError(
                f"objective covers {objective.n_cells} cells, park has "
                f"{self.grid.n_cells}"
            )
        xs = self.breakpoints()
        grid = objective.effort_grid
        cells = self.graph.reachable_cells
        at = np.clip(xs, grid[0], grid[-1])
        samples = objective.utility_samples(beta)[cells]
        ys = np.array([np.interp(at, grid, row) for row in samples])
        return StackedPWL(cells, np.broadcast_to(xs, ys.shape), ys)

    def plan_from_model(
        self, model, features: np.ndarray, beta: float = 0.8
    ) -> PatrolPlan:
        """Predictor in, deployable plan out — the serving-path entry point.

        Samples the model's effort-response surfaces on this planner's PWL
        breakpoints, wraps them in a robust objective at ``beta``, and
        solves. ``model`` is anything exposing
        ``effort_response(features, xs) -> (risk, nu)``: a fitted
        :class:`~repro.core.predictor.PawsPredictor` or a cached
        :class:`~repro.runtime.service.RiskMapService` (which makes repeated
        planning at different betas hit the prediction cache).
        """
        xs = self.breakpoints()
        risk, nu = model.effort_response(features, xs)
        objective = RobustObjective(xs, risk, nu, beta=beta)
        return self.plan(objective)

    def plan(
        self, objective: RobustObjective, beta: float | None = None
    ) -> PatrolPlan:
        """Solve problem (P) under the (robust) objective.

        Parameters
        ----------
        objective:
            Per-cell sampled risk and uncertainty surfaces.
        beta:
            Override the objective's robustness weight for this solve.
        """
        effective_beta = objective.beta if beta is None else beta
        utilities = self._utilities_from_objective(objective, effective_beta)
        solution = self._milp.solve(utilities, mode=self.solver_mode)
        routes = decompose_flow_into_routes(self.graph, solution.edge_flows)
        return PatrolPlan(
            coverage=solution.coverage,
            objective_value=solution.objective_value,
            beta=effective_beta,
            routes=routes,
            solution=solution,
        )

    # ------------------------------------------------------------------
    def solution_quality_ratio(
        self,
        objective: RobustObjective,
        beta: float,
        baseline_plan: PatrolPlan | None = None,
    ) -> float:
        """Fig. 8's metric: ``U_beta(C_beta) / U_beta(C_{beta=0})``.

        Plans computed with and without the uncertainty penalty are both
        scored under the *robust* ground truth ``U_beta``; a ratio above 1
        means accounting for uncertainty changed the plan in a way the
        robust objective values.
        """
        robust_plan = self.plan(objective, beta=beta)
        if baseline_plan is None:
            baseline_plan = self.plan(objective, beta=0.0)
        numer = objective.evaluate_coverage(robust_plan.coverage, beta=beta)
        denom = objective.evaluate_coverage(baseline_plan.coverage, beta=beta)
        if abs(denom) < 1e-12:
            return 1.0
        return float(numer / denom)
