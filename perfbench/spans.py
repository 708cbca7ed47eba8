"""Span recording from outside the program: wrap public calls, keep spans in memory.

The benchmark never edits ``src/``. A traced process installs wrappers around
the public calls named in :data:`TARGETS`; each call records one span::

    (span_id, parent_id, root_id, name, start, end, self_s, thread_id, attrs)

``parent_id`` is the innermost open span on the same thread (``-1`` for a
root), ``root_id`` identifies the request (spans of one request share it) and
``self_s`` is the span's duration minus the time its child spans cover.
Spans opened on pool threads have no parent: their time is busy time of that
thread. Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), so the
client process can window server spans by its own phase boundaries.

Spans stay in a list until :meth:`Tracer.dump` writes them out, when the
traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

#: (module, attribute path, span name, kind). ``kind`` picks how the wrapper
#: is re-installed: ``function`` (module attribute), ``method``,
#: ``staticmethod`` or ``classmethod`` (class attribute). Modules that import
#: a wrapped function by name are listed again under their own module.
TARGETS = (
    ("repro.runtime.daemon", "ParkServiceDaemon.dispatch", "daemon.dispatch", "method"),
    ("repro.runtime.admission", "AdmissionGate.acquire", "admission.wait", "method"),
    ("repro.runtime.registry", "ModelRegistry.entry", "registry.entry", "method"),
    ("repro.runtime.registry", "ParkEntry.context", "registry.context", "method"),
    ("repro.runtime.persistence", "load_model", "persistence.load", "function"),
    ("repro.runtime.persistence", "save_model", "persistence.save", "function"),
    ("repro.data.generator", "generate_dataset", "data.generate", "function"),
    ("repro.data", "generate_dataset", "data.generate", "function"),
    ("repro.data.park", "SyntheticPark.generate", "geo.park", "classmethod"),
    ("repro.core.predictor", "PawsPredictor.cell_feature_matrix", "core.features", "staticmethod"),
    ("repro.runtime.service", "RiskMapService.risk_map", "service.riskmap", "method"),
    ("repro.runtime.service", "RiskMapService.effort_response", "service.effort_response", "method"),
    ("repro.runtime.service", "RiskMapService.register_features", "service.register", "method"),
    ("repro.core.predictor", "PawsPredictor.predict_proba", "core.predict", "method"),
    ("repro.core.ensemble", "IWareEnsemble.member_probabilities", "core.member_pass", "method"),
    ("repro.core.ensemble", "IWareEnsemble.fit", "core.ensemble_fit", "method"),
    ("repro.runtime.parallel", "predict_map", "parallel.predict_map", "function"),
    ("repro.runtime.parallel", "run_deferred", "parallel.run_deferred", "function"),
    ("repro.ml.gp", "GaussianProcessClassifier.prediction_stats", "ml.gp_predict", "method"),
    ("repro.ml.gp", "GaussianProcessClassifier.predict_proba", "ml.gp_predict", "method"),
    ("repro.ml.gp", "GaussianProcessClassifier.predict_variance", "ml.gp_predict", "method"),
    ("repro.ml.gp", "GaussianProcessClassifier.fit", "ml.gp_fit", "method"),
    ("repro.ml.tree", "DecisionTreeClassifier.fit", "ml.tree_fit", "method"),
    ("repro.ml.bagging", "BaggingClassifier.fit_deferred", "ml.bagging_fit", "method"),
    ("repro.ml.bagging", "_MemberFits.__call__", "ml.bagging_fit", "method"),
    ("repro.planning.service", "PlanService.plan_post", "planning.plan", "method"),
    ("repro.planning.robust", "RobustObjective.utility_functions", "planning.utilities", "method"),
    ("repro.planning.planner", "PatrolPlanner.plan", "planning.resample", "method"),
    ("repro.planning.milp", "PatrolMILP.build_structure", "planning.structure", "method"),
    ("repro.planning.milp", "PatrolMILP.solve", "planning.solve", "method"),
    ("repro.planning.paths", "decompose_flow_into_routes", "planning.decompose", "function"),
    ("repro.planning.planner", "decompose_flow_into_routes", "planning.decompose", "function"),
)


def _route_attrs(args, kwargs, result, before):
    """``daemon.dispatch``: the route, so /stats and /ready can be told apart."""
    handler = args[1] if len(args) > 1 else kwargs.get("handler")
    return {"route": handler.path.split("?", 1)[0]}


def _run_deferred_attrs(args, kwargs, result, before):
    tasks = args[0] if args else kwargs.get("tasks", ())
    return {"tasks": len(tasks)}


def _solve_attrs(args, kwargs, result, before):
    return {"method": result.method} if result is not None else None


def _structure_attrs(args, kwargs, result, before):
    return {"hit": args[0].structure_hits > before}


def _structure_before(args):
    return args[0].structure_hits


#: Span name -> ``attrs(args, kwargs, result, before)`` recorded with the
#: span; ``before`` is what :data:`BEFORE` read when the call started.
ATTRS = {
    "daemon.dispatch": _route_attrs,
    "parallel.run_deferred": _run_deferred_attrs,
    "planning.solve": _solve_attrs,
    "planning.structure": _structure_attrs,
}
BEFORE = {"planning.structure": _structure_before}


class Tracer:
    """Per-thread span stacks feeding one in-memory span list."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.statuses: list[tuple[float, str, int]] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        before_of = BEFORE.get(name)
        spans = self.spans
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent = stack[-1]
                parent_id, root_id = parent[0], parent[1]
            else:
                parent, parent_id, root_id = None, -1, span_id
            frame = [span_id, root_id, 0.0]  # id, root, child seconds
            stack.append(frame)
            before = before_of(args) if before_of is not None else None
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                attrs = (
                    attrs_of(args, kwargs, result, before)
                    if attrs_of is not None else None
                )
                spans.append((
                    span_id, parent_id, root_id, name, start, end,
                    duration - frame[2], threading.get_ident(), attrs,
                ))

        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` to count its calls (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every target in :data:`TARGETS`; call once per process."""
        for module_name, path, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if kind == "staticmethod":
                setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif kind == "classmethod":
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))
        self._install_counters()
        return self

    def _install_counters(self) -> None:
        from repro.runtime.daemon import ParkServiceDaemon
        from repro.runtime.registry import ParkEntry

        ParkEntry.install_context = self.count(
            "registry.context_builds", ParkEntry.install_context
        )
        respond = ParkServiceDaemon.__dict__["_respond"].__func__
        statuses = self.statuses

        def counted_respond(handler, status, payload, headers):
            statuses.append(
                (time.monotonic(), handler.path.split("?", 1)[0], int(status))
            )
            return respond(handler, status, payload, headers)

        ParkServiceDaemon._respond = staticmethod(counted_respond)

    def dump(self, path) -> None:
        """Write every recorded span (and the counters) as one JSON file."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "root", "name", "start", "end",
                               "self_s", "thread", "attrs"],
                    "spans": self.spans,
                    "counts": self.counts,
                    "statuses": self.statuses,
                    "main_thread": threading.main_thread().ident,
                },
                handle,
            )
