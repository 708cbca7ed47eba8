"""Spawn and stop `repro serve` as the README deploys it.

The untraced daemon is exactly ``python -m repro serve --models-dir DIR
--port 0`` with every other flag at its default (``--n-jobs 1``, 8
in-flight slots; contexts use seed 0, scale 1.0). The traced daemon is the
same command run through ``traced_serve.py``, which wraps the public calls
first and writes the spans out when the daemon has drained.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

#: The daemon flags, recorded with every result.
SERVE_ARGS = ("serve", "--port", "0")

#: Seconds to wait for the listening announcement / for the drain.
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


class DaemonError(RuntimeError):
    """The daemon did not start, or did not drain cleanly."""


def vmhwm_mb(pid="self") -> float:
    """Peak resident memory (VmHWM) of a process so far, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise DaemonError(f"no VmHWM in /proc/{pid}/status")


class Daemon:
    """One `repro serve` process on an ephemeral port."""

    def __init__(self, root: Path, models_dir: Path, workdir: Path,
                 spans_out: Path | None = None):
        self.spans_out = spans_out
        args = [*SERVE_ARGS, "--models-dir", str(models_dir)]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
                       str(spans_out), *args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = workdir / f"daemon-{time.monotonic_ns()}.err"
        self._stderr = open(self.stderr_path, "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, stdin=subprocess.DEVNULL,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = self.spawned + START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.kill()
                raise DaemonError(f"repro serve did not announce its port: "
                                  f"{self.stderr_tail()}")
            ready, __, __ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    continue
                line += chunk
        text = line.decode()
        if "listening on http://" not in text:
            self.kill()
            raise DaemonError(f"unexpected announcement {text!r}")
        return int(text.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""
