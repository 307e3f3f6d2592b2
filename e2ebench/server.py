"""One ``python -m repro.service serve`` process group, from outside.

Each server starts in its own session, so its shard workers share its
process group; stopping or killing goes to the whole group and waits
until every member has exited.  Shared-memory rings that a killed group
leaves in ``/dev/shm`` are removed and counted.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from host import ROOT

SHM_DIR = Path("/dev/shm")
SERVE_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _shm_rings() -> set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


def _group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        # fields[0] is the state; a zombie has exited already
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _cpu_seconds(pid: int) -> float:
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def get_json(port: int, path: str, timeout: float = 10.0) -> tuple[int, object]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, json.loads(body) if body else None
    finally:
        conn.close()


class Server:
    """A serve process group started from ``argv`` in ``workdir``."""

    def __init__(
        self,
        serve_args: list[str],
        workdir: Path,
        *,
        workers: int = 0,
        launcher: list[str] | None = None,
    ) -> None:
        self.serve_args = serve_args
        self.workdir = workdir
        self.workers = workers
        self.launcher = launcher or ["-m", "repro.service"]
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.leaked_shm = 0

    def start(self) -> float:
        """Start and wait until healthy; returns the set-up seconds."""
        self._shm_before = _shm_rings()
        log = self.workdir / "serve.out"
        log.unlink(missing_ok=True)
        started = time.perf_counter()
        with open(log, "wb") as out, open(self.workdir / "serve.err", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-B", *self.launcher, "serve",
                 "--port", "0", *self.serve_args],
                cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        self.port = self._wait_ready(log)
        self._wait_healthy()
        return time.perf_counter() - started

    def _wait_ready(self, log: Path) -> int:
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.proc.returncode}: "
                    + (self.workdir / "serve.err").read_text()[-2000:]
                )
            line = log.read_bytes().split(b"\n", 1)
            if len(line) == 2:
                ready = json.loads(line[0])
                return int(ready["listening"].rsplit(":", 1)[1])
            time.sleep(0.002)
        raise RuntimeError("serve did not report ready in time")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        while time.monotonic() < deadline:
            status, _ = get_json(self.port, "/v1/healthz")
            if status == 200:
                if not self.workers:
                    return
                _, metrics = get_json(self.port, "/v1/metrics")
                alive = [w for w in metrics["workers"] if w["alive"]]
                if len(alive) == self.workers:
                    return
            time.sleep(0.002)
        raise RuntimeError("serve did not become healthy in time")

    # -- process-group readings (before the group goes away) -----------
    def members(self) -> list[int]:
        return _group_members(self.proc.pid)

    def cpu_seconds(self) -> float:
        return sum(_cpu_seconds(pid) for pid in self.members())

    def peak_rss_mb(self) -> float:
        return sum(_peak_rss_mb(pid) for pid in self.members())

    # -- ending ----------------------------------------------------------
    def signal(self, signum: int) -> None:
        os.killpg(self.proc.pid, signum)

    def kill(self) -> None:
        """SIGKILL the group, wait for every member, clear its rings."""
        if self.proc is None:
            return
        try:
            self.signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reap()

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM the group; SIGKILL what is left after ``timeout``."""
        if self.proc is None:
            return
        try:
            self.signal(signal.SIGTERM)
            self.proc.wait(timeout)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def _reap(self) -> None:
        self.proc.wait()
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        while self.members():
            if time.monotonic() > deadline:
                raise RuntimeError("server group members did not exit")
            time.sleep(0.005)
        for name in _shm_rings() - self._shm_before:
            try:
                (SHM_DIR / name).unlink()
                self.leaked_shm += 1
            except FileNotFoundError:
                pass
        self.proc = None
