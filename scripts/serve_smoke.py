"""End-to-end smoke test for ``repro serve`` (the `make serve-smoke` target).

Exercises the daemon exactly the way an operator does — as a subprocess
speaking HTTP — rather than in-process like the unit suite:

1. fit and save a tiny model into a temp models dir;
2. start ``python -m repro serve --models-dir ... --port 0`` and parse the
   ephemeral port from its announcement line;
3. hit every endpoint (``/ready``, ``/health``, ``/stats``, ``/riskmap``,
   ``/plan``, ``POST /models/MFNP/reload``) and check the risk map is
   bit-identical to the direct library call;
4. sweep ``/riskmap`` over 10 more efforts on one keep-alive connection:
   every map bit-identical to the direct call, and ``/stats`` still
   showing the one member pass the first map ran;
5. send SIGTERM and assert the graceful drain exits with code 0.

Exits 0 on success; any failure prints a diagnosis and exits 1.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.core import PawsPredictor
from repro.data import MFNP, generate_dataset
from repro.runtime.service import RiskMapService

SEED = 0
SCALE = 0.4
TIMEOUT = 120.0  # whole-script watchdog, seconds
SWEEP = [0.25 * k for k in range(1, 11)]  # efforts the keep-alive sweep asks for


def log(message: str) -> None:
    print(f"serve-smoke: {message}", file=sys.stderr)


def get(port: int, path: str, method: str = "GET"):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def sweep(port: int, predictor, features) -> str | None:
    """``None`` if every effort serves bit-identical maps from one pass."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        for effort in SWEEP:
            conn.request(
                "GET",
                f"/riskmap?park=MFNP&effort={effort}&seed={SEED}&scale={SCALE}",
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            direct = predictor.predict_proba(features, effort=effort)
            if response.status != 200:
                return f"effort {effort} answered {response.status}: {body}"
            if np.asarray(body["risk"]).tobytes() != direct.tobytes():
                return f"effort {effort}: map differs from the direct call"
        conn.request("GET", "/stats")
        passes = json.loads(conn.getresponse().read())["parks"]["MFNP"][
            "cache"]["member_passes"]
    finally:
        conn.close()
    log(f"sweep: {len(SWEEP)} efforts, {passes} member pass(es)")
    if passes != 1:
        return f"/stats shows {passes} member passes for MFNP, expected 1"
    return None


def main() -> int:
    deadline = time.monotonic() + TIMEOUT
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        models_dir = Path(tmp) / "models"
        log("fitting and saving a tiny MFNP model...")
        park = generate_dataset(MFNP.scaled(SCALE), seed=SEED)
        split = park.dataset.split_by_test_year(4)
        predictor = PawsPredictor(
            model="dtb", iware=True, n_classifiers=2, n_estimators=2, seed=5
        ).fit(split.train)
        predictor.save(models_dir / "MFNP")
        features = predictor.cell_feature_matrix(
            park.park, park.recorded_effort[-1]
        )
        direct = RiskMapService(predictor).risk_map(features, effort=1.5)
        post = int(park.park.patrol_posts[0])

        log("starting the daemon on an ephemeral port...")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--models-dir", str(models_dir), "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = daemon.stdout.readline().strip()
            log(f"announcement: {line!r}")
            if "listening on http://" not in line:
                log("FAIL: no listening announcement")
                return 1
            port = int(line.split("listening on http://", 1)[1]
                       .split(None, 1)[0].rsplit(":", 1)[1])

            while True:  # /ready flips 200 once the registry has scanned
                try:
                    status, body = get(port, "/ready")
                    if status == 200 and body["ready"]:
                        break
                except (urllib.error.URLError, OSError):
                    pass
                if time.monotonic() > deadline:
                    log("FAIL: /ready never returned 200")
                    return 1
                time.sleep(0.05)
            log(f"ready (parks: {body['parks']})")

            status, body = get(port, "/health")
            assert status == 200 and body["status"] == "ok", body
            log("health ok")

            path = f"/riskmap?park=MFNP&effort=1.5&seed={SEED}&scale={SCALE}"
            status, body = get(port, path)
            assert status == 200, body
            assert np.array_equal(np.asarray(body["risk"]), direct), (
                "served risk map is not bit-identical to the library call"
            )
            log(f"riskmap ok ({body['n_cells']} cells, bit-identical)")

            problem = sweep(port, predictor, features)
            if problem is not None:
                log(f"FAIL: {problem}")
                return 1
            log("keep-alive sweep ok (bit-identical, one member pass)")

            status, body = get(
                port,
                f"/plan?park=MFNP&post={post}&seed={SEED}&scale={SCALE}",
            )
            assert status == 200, body
            plan = body["plans"][str(post)]
            assert plan["routes"], body
            log(f"plan ok (post {post}, {len(plan['routes'])} route(s))")

            status, body = get(port, "/models/MFNP/reload", method="POST")
            assert status == 200 and body["reloaded"], body
            log(f"reload ok (version {body['version']})")

            status, body = get(port, "/stats")
            assert status == 200, body
            admission = body["admission"]
            assert admission["shed_saturated"] == 0, admission
            log(f"stats ok (completed={admission['completed']})")

            log("sending SIGTERM for the graceful drain...")
            daemon.send_signal(signal.SIGTERM)
            code = daemon.wait(timeout=max(1.0, deadline - time.monotonic()))
            if code != 0:
                log(f"FAIL: daemon exited {code} after SIGTERM, wanted 0")
                return 1
            log("drained, exit 0")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
    log("PASS: every endpoint answered and SIGTERM drained cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
