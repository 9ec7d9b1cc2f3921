"""Start, probe and stop a ``repro serve`` process.

The server runs in a process of its own, launched either straight
from the CLI (``python -m repro serve``) or, for a traced run, through
``perfbench/launcher.py``, which wraps the program's entry points and
then calls the same CLI.  Set-up time is measured from the spawn to
the first ``200`` on ``GET /healthz``.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def free_port() -> int:
    """An unused local TCP port."""
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def program_env(root: Path) -> dict[str, str]:
    """The environment the program runs with: its sources, no REPRO_*."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One server process; a context manager that always stops it."""

    def __init__(self, root: Path, workdir: Path, *, record: bool,
                 trace_out: Path | None = None) -> None:
        self.port = free_port()
        args = ["serve", "--host", HOST, "--port", str(self.port)]
        if record:
            args += ["--record", str(workdir / f"record-{self.port}.jsonl")]
        if trace_out is None:
            self.argv = [sys.executable, "-m", "repro", *args]
        else:
            self.argv = [sys.executable,
                         str(root / "perfbench" / "launcher.py"),
                         str(trace_out), *args]
        self.root = root
        self.log = workdir / f"server-{self.port}.log"
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait for a healthy answer; returns set-up seconds."""
        t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=program_env(self.root),
                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        while not self._healthy():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log.read_text()[-2000:]}")
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.002)
        return time.perf_counter() - t0

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def stop(self) -> int:
        """Drain with SIGTERM (kill after a timeout); returns exit code."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain; killed") from None

    def kill(self) -> None:
        """Kill the process if it still runs, and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.kill()
