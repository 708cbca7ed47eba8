"""The park-service daemon: fit once, serve forever, die gracefully.

ROADMAP item 1: deployed PAWS installations (Section VII) need risk maps
and patrol plans *served*, not re-fit — one long-running process fronting
many parks and many clients. :class:`ParkServiceDaemon` assembles the
runtime substrate into that process, stdlib only
(:class:`http.server.ThreadingHTTPServer` + ``json``):

* a :class:`~repro.runtime.registry.ModelRegistry` loads saved models
  lazily (checksum-verified, LRU-budgeted) and hot-swaps them atomically
  on ``POST /models/<park>/reload``;
* an :class:`~repro.runtime.admission.AdmissionGate` bounds concurrency —
  overflow is shed with ``503 + Retry-After`` instead of queueing
  unboundedly, and every admitted request runs under a server-default or
  client-supplied :class:`~repro.runtime.resilience.Deadline` (overrun =
  ``504``);
* per-park :class:`~repro.runtime.breaker.CircuitBreaker` pairs flag
  repeatedly failing loads and crashing pools on ``/health`` and steer
  dispatch onto the degraded thread rung until a probe recovers;
* SIGTERM triggers a **graceful drain**: stop admitting, let in-flight
  requests finish (or deadline out), flush the accumulated
  ``resilience_info()`` counters, exit 0.

Endpoints (all JSON)::

    GET  /riskmap?park=MFNP[&effort=][&seed=][&scale=][&deadline=]
    GET  /plan?park=MFNP[&beta=][&post=][&seed=][&scale=][&deadline=]
    GET  /health        GET /ready        GET /stats
    POST /models/<park>/reload

Responses carry float64 values through ``repr``-round-tripping JSON, so an
admitted ``/riskmap`` body is **bit-identical** to the direct library
call's array — the chaos suite asserts exactly that.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.exceptions import (
    AdmissionError,
    CircuitOpenError,
    ConfigurationError,
    DataError,
    DeadlineExceededError,
    PersistenceError,
    ReproError,
)
from repro.runtime import faults
from repro.runtime.admission import AdmissionGate
from repro.runtime.registry import ModelRegistry
from repro.runtime.resilience import Deadline, deadline_scope

#: Seconds clients are told to back off when shed or refused (Retry-After).
RETRY_AFTER = 1


def _json_default(value):
    """Serialize the numpy scalars that leak into payload dicts."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(  # repro: ignore[RP002] -- json.dumps contract
        f"unserializable {type(value).__name__} in response payload"
    )


def _finite_float(raw: str) -> float:
    """``float(raw)`` refusing NaN and infinities, which JSON cannot carry."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(  # repro: ignore[RP002] -- float() cast contract
            f"non-finite number {raw!r}"
        )
    return value


def plan_payload(plan) -> dict:
    """A :class:`~repro.planning.planner.PatrolPlan` as a JSON-able dict."""
    return {
        "objective_value": float(plan.objective_value),
        "beta": float(plan.beta),
        "coverage": plan.coverage.tolist(),
        "routes": [
            {"cells": [int(c) for c in route.cells],
             "weight": float(route.weight)}
            for route in plan.routes
        ],
        "status": plan.solution.status,
        "method": plan.solution.method,
    }


class _HTTPError(ReproError):
    """Internal: carry an HTTP status + payload up to the handler.

    Every payload names its ``kind``, the ``ReproError`` class the library
    raises for the same fault (an unknown park or route is a
    ``ConfigurationError``, as in ``ModelRegistry.entry``).
    """

    def __init__(self, status: int, payload: dict, headers: dict | None = None):
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP skin; all logic lives on the daemon (``server.daemon_ref``)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-park-service"

    # Quiet by default: one line per request on stderr only when verbose.
    def log_message(self, fmt, *args):  # noqa: A002 - stdlib signature
        daemon = getattr(self.server, "daemon_ref", None)
        if daemon is not None and daemon.verbose:
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), fmt % args)
            )

    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        self.server.daemon_ref.dispatch(self, "GET")

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        self.server.daemon_ref.dispatch(self, "POST")


class _Server(ThreadingHTTPServer):
    """Per-connection threads, and a listen backlog sized for bursts.

    ``socketserver``'s default backlog of 5 drops SYNs under a concurrent
    connection burst; the kernel's 1 s retransmit then shows up as a
    mysterious tail-latency cliff. Admission control — not the accept
    queue — is where this daemon sheds load, so the backlog stays large.
    """

    daemon_threads = True
    request_queue_size = 128


class ParkServiceDaemon:
    """One process serving risk maps and patrol plans for many parks.

    Parameters
    ----------
    models_dir:
        Root of saved models (one ``save_model`` directory per park).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see :attr:`port`
        after :meth:`start`).
    max_inflight, max_queue, queue_wait:
        Admission limits (see :class:`~repro.runtime.admission.AdmissionGate`).
    default_deadline:
        Per-request budget (seconds) when the client sends none. ``None``
        disables the server-side default.
    drain_timeout:
        Longest :meth:`drain` waits for in-flight requests before giving up
        (they are deadline-bounded anyway, so this is a backstop).
    registry_options:
        Extra keyword arguments for the
        :class:`~repro.runtime.registry.ModelRegistry` (``max_parks``,
        ``tile_size``, ``n_jobs``, ``backend``...).
    verbose:
        Log one line per request to stderr.
    """

    def __init__(
        self,
        models_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        max_queue: int = 16,
        queue_wait: float = 0.5,
        default_deadline: float | None = 30.0,
        drain_timeout: float = 30.0,
        registry_options: dict | None = None,
        verbose: bool = False,
    ):
        if default_deadline is not None and float(default_deadline) <= 0.0:
            raise ConfigurationError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        self.registry = ModelRegistry(models_dir, **(registry_options or {}))
        self.gate = AdmissionGate(
            max_inflight=max_inflight, max_queue=max_queue,
            queue_wait=queue_wait,
        )
        self.host = host
        self.requested_port = int(port)
        self.default_deadline = (
            None if default_deadline is None else float(default_deadline)
        )
        self.drain_timeout = float(drain_timeout)
        self.verbose = bool(verbose)
        self._server: ThreadingHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._drained = threading.Event()
        self._drain_lock = threading.Lock()
        self._final_stats: dict | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None:
            return self.requested_port
        return self._server.server_address[1]

    def start(self) -> "ParkServiceDaemon":
        """Bind and serve on a background thread; returns immediately."""
        if self._server is not None:
            raise ConfigurationError("the daemon is already started")
        server = _Server((self.host, self.requested_port), _Handler)
        server.daemon_ref = self
        self._server = server
        self._serve_thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            name="park-service", daemon=True,
        )
        self._serve_thread.start()
        return self

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`drain` (main thread only)."""

        def handle(signum, frame):
            # Drain on a separate thread: signal handlers run on the main
            # thread, which run_forever() is blocking.
            threading.Thread(
                target=self.drain, name="park-service-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, handle)
        signal.signal(signal.SIGINT, handle)

    def run_forever(self) -> int:
        """Serve until drained (the CLI entry point); returns exit code 0."""
        if self._server is None:
            self.start()
        self.install_signal_handlers()
        self._drained.wait()
        return 0

    def drain(self) -> dict:
        """Graceful shutdown: shed new work, finish in-flight, flush stats.

        Idempotent; returns the final stats snapshot. Sequence: the gate
        stops admitting (new arrivals and queued waiters shed with 503),
        in-flight requests run to completion (their own deadlines bound
        them; ``drain_timeout`` is the backstop), the listener closes, and
        the accumulated resilience counters are flushed to stderr.
        """
        with self._drain_lock:
            if self._final_stats is not None:
                return self._final_stats
            self.gate.begin_drain()
            self.gate.wait_idle(timeout=self.drain_timeout)
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=5.0)
            stats = self.stats_payload()
            self._final_stats = stats
            sys.stderr.write(
                "park-service drained: "
                + json.dumps(stats, default=_json_default)
                + "\n"
            )
            self._drained.set()
            return stats

    def close(self) -> None:
        """Tear down without the drain ceremony (tests' cleanup path)."""
        if self._final_stats is None:
            self.gate.begin_drain()
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
            self._drained.set()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def dispatch(self, handler: _Handler, method: str) -> None:
        """Route one HTTP request; all responses (and errors) are JSON."""
        split = urlsplit(handler.path)
        route = split.path.rstrip("/") or "/"
        params = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        try:
            status, payload, headers = self._route(method, route, params)
        except _HTTPError as exc:
            status, payload, headers = exc.status, exc.payload, exc.headers
        except AdmissionError as exc:
            status = 503
            payload = {"error": str(exc), "kind": "AdmissionError"}
            headers = {"Retry-After": str(RETRY_AFTER)}
        except CircuitOpenError as exc:
            status = 503
            payload = {"error": str(exc), "kind": "CircuitOpenError"}
            headers = {"Retry-After": str(RETRY_AFTER)}
        except DeadlineExceededError as exc:
            status = 504
            payload = {"error": str(exc), "kind": "DeadlineExceededError"}
            headers = {}
        except (ConfigurationError, DataError) as exc:
            status = 400
            payload = {"error": str(exc), "kind": type(exc).__name__}
            headers = {}
        except ReproError as exc:
            status = 500
            payload = {"error": str(exc), "kind": type(exc).__name__}
            headers = {}
        except Exception as exc:
            status = 500
            payload = {"error": str(exc), "kind": type(exc).__name__}
            headers = {}
        self._respond(handler, status, payload, headers)

    @staticmethod
    def _respond(handler, status: int, payload: dict, headers: dict) -> None:
        body = json.dumps(payload, default=_json_default).encode()
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                handler.send_header(name, value)
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up; nothing useful to do

    def _route(self, method: str, route: str, params: dict):
        if method == "GET":
            if route == "/riskmap":
                return self._admitted_request(
                    "riskmap", params, self._handle_riskmap
                )
            if route == "/plan":
                return self._admitted_request(
                    "plan", params, self._handle_plan
                )
            if route == "/health":
                return self._handle_health()
            if route == "/ready":
                return self._handle_ready()
            if route == "/stats":
                return 200, self.stats_payload(), {}
        elif method == "POST":
            parts = route.strip("/").split("/")
            if len(parts) == 3 and parts[0] == "models" and parts[2] == "reload":
                return self._admitted_request(
                    "reload", params,
                    lambda p, deadline: self._handle_reload(
                        parts[1], deadline
                    ),
                )
        raise _HTTPError(
            404 if method in ("GET", "POST") else 405,
            {"error": f"no route for {method} {route}",
             "kind": "ConfigurationError",
             "routes": ["/riskmap", "/plan", "/health", "/ready", "/stats",
                        "/models/<park>/reload"]},
        )

    def _admitted_request(self, label: str, params: dict, handle):
        """Admission + deadline envelope shared by the work endpoints."""
        deadline = self._deadline_from(params)
        with self.gate.admitted(deadline=deadline, label=label):
            with deadline_scope(deadline):
                # Inside the admission envelope on purpose: an injected
                # slow request holds its slot, which is exactly what the
                # flood and drain chaos tests need to be deterministic.
                faults.on_request(label)
                return handle(params, deadline)

    def _deadline_from(self, params: dict) -> Deadline | None:
        # Deadline() itself rejects non-positive budgets (a typed 400).
        seconds = self._param(
            params, "deadline", _finite_float, self.default_deadline
        )
        return None if seconds is None else Deadline.resolve(seconds)

    @staticmethod
    def _param(params: dict, name: str, cast, default):
        raw = params.get(name)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"invalid value for '{name}': '{raw}'"
            ) from None

    def _park_entry(self, params: dict, deadline=None):
        park = params.get("park")
        if not park:
            raise _HTTPError(
                400,
                {"error": "missing required query parameter 'park'",
                 "kind": "ConfigurationError",
                 "available": self.registry.available()},
            )
        if not self.registry.has_model(park):
            raise _HTTPError(
                404,
                {"error": f"no saved model for park '{park}'",
                 "kind": "ConfigurationError",
                 "available": self.registry.available()},
            )
        return self.registry.entry(park, deadline=deadline)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_riskmap(self, params: dict, deadline):
        entry = self._park_entry(params, deadline)
        effort = self._param(params, "effort", _finite_float, None)
        seed = self._param(params, "seed", int, 0)
        scale = self._param(params, "scale", _finite_float, 1.0)
        risk = entry.risk_map(
            effort=effort, seed=seed, scale=scale, deadline=deadline
        )
        return 200, {
            "park": entry.name,
            "version": entry.version,
            "effort": effort,
            "seed": seed,
            "scale": scale,
            "n_cells": int(risk.shape[0]),
            "risk": risk.tolist(),
        }, {}

    def _handle_plan(self, params: dict, deadline):
        entry = self._park_entry(params, deadline)
        beta = self._param(params, "beta", _finite_float, 0.8)
        post = self._param(params, "post", int, None)
        seed = self._param(params, "seed", int, 0)
        scale = self._param(params, "scale", _finite_float, 1.0)
        plans = entry.plan(
            beta=beta, post=post, seed=seed, scale=scale, deadline=deadline
        )
        return 200, {
            "park": entry.name,
            "version": entry.version,
            "beta": beta,
            "seed": seed,
            "scale": scale,
            "plans": {
                str(number): plan_payload(plan)
                for number, plan in sorted(plans.items())
            },
        }, {}

    def _handle_reload(self, park: str, deadline=None):
        if not self.registry.has_model(park):
            raise _HTTPError(
                404,
                {"error": f"no saved model for park '{park}'",
                 "kind": "ConfigurationError",
                 "available": self.registry.available()},
            )
        try:
            entry = self.registry.reload(park, deadline=deadline)
        except PersistenceError as exc:
            # The artifact was rejected; the old model keeps serving.
            raise _HTTPError(
                409,
                {"error": str(exc), "kind": "PersistenceError",
                 "park": park, "serving": park in self.registry.loaded()},
            ) from exc
        return 200, {
            "park": park,
            "version": entry.version,
            "reloaded": True,
        }, {}

    def _handle_health(self):
        parks = self.registry.park_health()
        degraded = sorted(
            name for name, flags in parks.items() if not flags["ok"]
        )
        healthy = not degraded and not self.gate.draining
        payload = {
            "status": "ok" if healthy else "degraded",
            "draining": self.gate.draining,
            "degraded_parks": degraded,
            "parks": parks,
        }
        return (200 if healthy else 503), payload, (
            {} if healthy else {"Retry-After": str(RETRY_AFTER)}
        )

    def _handle_ready(self):
        if self.gate.draining:
            return 503, {"ready": False, "draining": True}, {
                "Retry-After": str(RETRY_AFTER)
            }
        return 200, {
            "ready": True,
            "parks": self.registry.available(),
        }, {}

    def stats_payload(self) -> dict:
        """The ``/stats`` body: admission, registry, and per-park counters."""
        return {
            "admission": self.gate.info(),
            "registry": self.registry.info(),
            "parks": self.registry.stats(),
        }
