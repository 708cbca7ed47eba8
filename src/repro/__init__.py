"""PAWS reproduction: poaching prediction and patrol planning under uncertainty.

Reproduction of Xu, Gholami, Mc Carthy et al., "Stay Ahead of Poachers:
Illegal Wildlife Poaching Prediction and Patrol Planning Under Uncertainty
with Field Test Evaluations" (ICDE 2020).

Quick start::

    from repro import DataToDeploymentPipeline
    from repro.data import MFNP

    pipeline = DataToDeploymentPipeline(MFNP.scaled(0.5), beta=0.8, seed=0)
    result = pipeline.run(field_test=True)
    print(result.test_auc, result.field_p_value)

Subpackages
-----------
* :mod:`repro.geo` — grids, rasters, distances, feature stacks.
* :mod:`repro.data` — synthetic parks, poacher/ranger simulation, datasets.
* :mod:`repro.ml` — from-scratch classifiers (trees, bagging, SVM, GP).
* :mod:`repro.core` — the enhanced iWare-E ensemble (the paper's stage 1).
* :mod:`repro.planning` — the robust patrol-planning MILP (stage 2).
* :mod:`repro.runtime` — serving: member-pass prediction, parallel fitting,
  model persistence, and the cached :class:`RiskMapService`.
* :mod:`repro.fieldtest` — field-test design, simulation, and statistics.
* :mod:`repro.evaluation` — experiment runners and report rendering.
"""

from repro.exceptions import (
    AdmissionError,
    CircuitOpenError,
    ConfigurationError,
    ConvergenceError,
    DataError,
    DeadlineExceededError,
    InfeasibleError,
    NotFittedError,
    PersistenceError,
    PlanningError,
    ReproError,
    ResilienceError,
    WorkerCrashError,
)

__version__ = "1.7.0"

from repro.pipeline import DataToDeploymentPipeline, PipelineResult
from repro.planning.service import PlanService
from repro.runtime.service import RiskMapService

__all__ = [
    "DataToDeploymentPipeline",
    "PipelineResult",
    "PlanService",
    "RiskMapService",
    "ReproError",
    "ConfigurationError",
    "DataError",
    "NotFittedError",
    "ConvergenceError",
    "ResilienceError",
    "DeadlineExceededError",
    "WorkerCrashError",
    "AdmissionError",
    "CircuitOpenError",
    "PersistenceError",
    "PlanningError",
    "InfeasibleError",
    "__version__",
]
