"""Load generation from one process over persistent HTTP/1.1 connections.

Two shapes, as the workloads need them:

* :func:`closed_loop` — each connection sends its next request only after
  the previous response has been read in full, for a fixed time.
* :func:`open_loop` — requests leave at their due times (a seeded Poisson
  schedule), in order, on whichever connection is free. Latency counts
  from the due time, so a stall also charges the requests queued behind
  it, and the generator's own lateness is reported apart.

A non-200 answer, a timeout, a refused or reset connection is a failed
request (status 0 for transport failures); failed requests count as
missing every latency limit.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass

#: Seconds a request may take before it counts as failed.
TIMEOUT = 20.0


class Connection:
    """One persistent connection; reconnects after a transport failure."""

    def __init__(self, port: int, timeout: float = TIMEOUT):
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def get(self, path: str) -> tuple[int, bytes]:
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout
                )
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Sample:
    """One timed request."""

    index: int
    path: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes | None  # kept only for the seeded verification sample

    @property
    def ok(self) -> bool:
        return self.status == 200


def _run_threads(workers) -> None:
    threads = [threading.Thread(target=w, daemon=True) for w in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT * 4)
        if thread.is_alive():
            raise RuntimeError("a load-generator connection did not finish")


def closed_loop(connections, request, seconds: float, keep) -> tuple[list[Sample], float, float]:
    """Keep every connection busy for ``seconds``.

    ``request(i)`` gives the path of the i-th request of the phase (in send
    order across connections) and ``keep(i)`` whether to keep its body.
    Returns the samples plus the phase's start and stop times.
    """
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    samples: list[Sample] = []
    start = time.monotonic()
    stop = start + seconds

    def worker(conn):
        local = []
        while True:
            now = time.monotonic()
            if now >= stop:
                break
            with lock:
                index = next(counter)
            path = request(index)
            sent = time.monotonic()
            status, body = conn.get(path)
            done = time.monotonic()
            local.append(Sample(index, path, sent, sent, done, status,
                                body if keep(index) else None))
        with lock:
            samples.extend(local)

    _run_threads([lambda c=c: worker(c) for c in connections])
    samples.sort(key=lambda s: s.index)
    return samples, start, stop


def open_loop(connections, schedule, keep) -> tuple[list[Sample], list[float], float]:
    """Send ``schedule`` (``[(offset_s, path), ...]``) at its due times.

    Requests go out in schedule order, each on the first connection that is
    free: a free connection sleeps until the next request is due, a busy
    one takes it late (the backlog a stall causes). Returns the samples,
    the generator's lateness (seconds past the due time at which a free
    connection woke up; backlogged requests are not generator lateness) and
    the phase's start time.
    """
    lock = threading.Lock()
    counter = iter(range(len(schedule)))
    lateness: list[float] = []
    samples: list[Sample] = []
    start = time.monotonic() + 0.05

    def worker(conn):
        local, late = [], []
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                break
            offset, path = schedule[index]
            due = start + offset
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
                late.append(time.monotonic() - due)
            sent = time.monotonic()
            status, body = conn.get(path)
            done = time.monotonic()
            local.append(Sample(index, path, due, sent, done, status,
                                body if keep(index) else None))
        with lock:
            samples.extend(local)
            lateness.extend(late)

    _run_threads([lambda c=c: worker(c) for c in connections])
    samples.sort(key=lambda s: s.index)
    return samples, lateness, start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def latencies_ms(samples, from_due: bool) -> list[float]:
    """Per-request latency; failed requests count as the timeout."""
    return [
        ((s.done - (s.due if from_due else s.sent)) * 1000.0)
        if s.ok else TIMEOUT * 1000.0
        for s in samples
    ]
