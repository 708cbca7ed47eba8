"""The serving layer: member-pass prediction, parallel fitting, persistence.

The predictive stage (``repro.core``) answers one question at a time; this
package turns it into a serving engine for the deployment workloads of
Section VII:

* :mod:`repro.runtime.parallel` — two-phase (seed-serial, fit-parallel)
  pool fan-out used by bagging and iWare-E fitting, plus the tiled
  ``(member x tile)`` prediction fan-out (:func:`predict_map`) that serves
  million-cell risk maps memory-bounded and multi-core; parallel results
  are bit-identical to serial ones in both directions.
* :mod:`repro.runtime.persistence` — ``save()``/``load()`` for every
  classifier, :class:`~repro.core.ensemble.IWareEnsemble`, and
  :class:`~repro.core.predictor.PawsPredictor` as an npz + json-manifest
  directory, so fitted models serve risk maps without refitting.
* :mod:`repro.runtime.service` — :class:`RiskMapService`, the cached
  fit-once / predict-many facade the CLI and examples build on.
* :mod:`repro.runtime.concurrency` — the ``@thread_shared`` registry:
  classes declared safe for cross-thread sharing, whose lock discipline
  is machine-checked by ``repro lint`` rule RP004.
* :mod:`repro.runtime.resilience` — the supervised fan-out engine under
  ``parallel_map``: per-task futures, crash recovery with a
  process→thread→serial degradation ladder, deadlines
  (:class:`~repro.runtime.resilience.Deadline`), and per-call
  :class:`~repro.runtime.resilience.ResilienceStats`.
* :mod:`repro.runtime.faults` — the deterministic fault-injection harness
  the chaos suite replays against real fits, serves, and saves.
* :mod:`repro.runtime.admission`, :mod:`repro.runtime.breaker`,
  :mod:`repro.runtime.registry`, :mod:`repro.runtime.daemon` — the
  park-service daemon: bounded admission with load shedding, circuit
  breakers over loads and dispatch, a hot-swappable multi-park model
  registry, and the HTTP skin + graceful drain tying them together
  (``repro serve``).

``repro.ml`` modules import this package for ``parallel_map`` and the
persistence codec, so this ``__init__`` must not import ``repro.core`` at
module scope; :class:`RiskMapService` is exposed lazily instead.
"""

from repro.runtime.admission import AdmissionGate
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.concurrency import thread_shared, thread_shared_classes
from repro.runtime.parallel import (
    parallel_map,
    predict_map,
    resolve_n_jobs,
    tile_slices,
)
from repro.runtime.persistence import load_model, save_model
from repro.runtime.resilience import (
    Deadline,
    ResilienceStats,
    RetryPolicy,
    collect_stats,
    deadline_scope,
    supervised_map,
)

__all__ = [
    "parallel_map",
    "predict_map",
    "tile_slices",
    "resolve_n_jobs",
    "save_model",
    "load_model",
    "thread_shared",
    "thread_shared_classes",
    "supervised_map",
    "Deadline",
    "deadline_scope",
    "collect_stats",
    "ResilienceStats",
    "RetryPolicy",
    "AdmissionGate",
    "CircuitBreaker",
    "RiskMapService",
    "ModelRegistry",
    "ParkServiceDaemon",
]


def __getattr__(name: str):
    # Lazy: these pull in repro.core, which imports this package.
    if name == "RiskMapService":
        from repro.runtime.service import RiskMapService

        return RiskMapService
    if name == "ModelRegistry":
        from repro.runtime.registry import ModelRegistry

        return ModelRegistry
    if name == "ParkServiceDaemon":
        from repro.runtime.daemon import ParkServiceDaemon

        return ParkServiceDaemon
    raise AttributeError(f"module 'repro.runtime' has no attribute '{name}'")
