"""Game-theoretic patrol planning (the paper's prescriptive stage).

Planning is a single-defender resource-allocation game on the park graph
(Section VI): rangers pick a mixed strategy over patrol routes — paths on a
*time-unrolled* copy of the park graph that start and end at a patrol post —
to maximise expected detections of boundedly rational poachers' snares.

The optimisation problem (P) maximises a piecewise-linear approximation of
the black-box prediction ``g_v(c_v)`` subject to flow constraints; the
paper's contribution makes it *robust* by penalising predictions by their
GP-derived uncertainty: ``U_v(c) = g_v(c) - beta * g_v(c) * nu_v(c)``.

Modules
-------
* :mod:`repro.planning.graph` — time-unrolled graph and the flow polytope F.
* :mod:`repro.planning.pwl` — piecewise-linear approximations of g and nu.
* :mod:`repro.planning.robust` — the uncertainty-penalised objective (Eq. 4).
* :mod:`repro.planning.milp` — the MILP formulation, its LP and certified
  envelope fast paths, solved with HiGHS (``scipy.optimize.milp``).
* :mod:`repro.planning.paths` — flow decomposition into ranger routes.
* :mod:`repro.planning.planner` — the :class:`PatrolPlanner` facade.
* :mod:`repro.planning.service` — :class:`PlanService`, the parallel
  multi-post / multi-beta planning facade (LP fast path, model-structure
  reuse, cached effort-response surfaces).
* :mod:`repro.planning.game` — Green Security Game evaluation utilities.
"""

from repro.planning.graph import TimeUnrolledGraph
from repro.planning.pwl import PiecewiseLinear, StackedPWL, sample_breakpoints
from repro.planning.robust import RobustObjective, robust_utility
from repro.planning.milp import PatrolMILP, MILPSolution, MILPStructure, SOLVER_MODES
from repro.planning.paths import (
    PatrolRoute,
    coverage_of_routes,
    decompose_flow_into_routes,
    sample_routes,
)
from repro.planning.planner import PatrolPlan, PatrolPlanner
from repro.planning.game import GreenSecurityGame
from repro.planning.online import Exp3StrategySelector, run_online_deployment

__all__ = [
    "TimeUnrolledGraph",
    "PiecewiseLinear",
    "StackedPWL",
    "sample_breakpoints",
    "RobustObjective",
    "robust_utility",
    "PatrolMILP",
    "MILPSolution",
    "MILPStructure",
    "SOLVER_MODES",
    "PatrolRoute",
    "coverage_of_routes",
    "decompose_flow_into_routes",
    "sample_routes",
    "PatrolPlan",
    "PatrolPlanner",
    "PlanService",
    "GreenSecurityGame",
    "Exp3StrategySelector",
    "run_online_deployment",
]


def __getattr__(name: str):
    # PlanService sits above repro.core/runtime in the layering, so it is
    # exported lazily to keep `import repro.planning` lightweight (the same
    # idiom repro.runtime uses for RiskMapService).
    if name == "PlanService":
        from repro.planning.service import PlanService

        return PlanService
    raise AttributeError(f"module 'repro.planning' has no attribute '{name}'")
