"""Helper server subprocesses: start, scrape the address, always stop.

Both helpers (``python -m repro.serve`` and ``python -m
repro.store.fallback_server``) bind port 0 and print their URL/DSN on
stdout once they listen; nproc is 2 here, so at most one helper exists
at any time.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.obs import now

from benchmarks.ledger.spec import SRC_DIR

START_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 5.0

_ADDRESS = re.compile(r"\bat ((?:https?|fallback)://\S+)")


class HelperStartError(RuntimeError):
    """A helper server never became healthy; the workload marks every op
    failed instead of hanging."""


class Helper:
    """One helper server subprocess and the address it printed."""

    def __init__(self, module: str, args: List[str], workdir: Path) -> None:
        self._stderr_path = workdir / f"{module.rsplit('.', 1)[-1]}.stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in (env.get("PYTHONPATH"),) if p])
        with open(self._stderr_path, "wb") as stderr:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", module, *args], env=env,
                stdout=subprocess.PIPE, stderr=stderr, text=True)
        try:
            self.address = self._scrape_address()
        except BaseException:
            self.stop()
            raise

    def _scrape_address(self) -> str:
        assert self._proc.stdout is not None
        deadline = now() + START_TIMEOUT_S
        while now() < deadline:
            if self._proc.poll() is not None:
                break
            ready, _, _ = select.select([self._proc.stdout], [], [], 0.2)
            if not ready:
                continue
            match = _ADDRESS.search(self._proc.stdout.readline())
            if match:
                return match.group(1)
        tail = self._stderr_path.read_text(errors="replace")[-400:]
        raise HelperStartError(
            f"helper {self._proc.args!r} printed no address within "
            f"{START_TIMEOUT_S:.0f}s (exit={self._proc.poll()}): {tail}")

    def stop(self) -> None:
        """Terminate (the helpers hold nothing worth a clean shutdown:
        their files are removed with the scratch directory), kill if that
        is ignored; returns only once the process has ended."""
        proc = self._proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def start_fallback_server(db_path: Path, workdir: Path) -> Helper:
    """The stdlib wire server of :mod:`repro.store.fallback_server`."""
    return Helper("repro.store.fallback_server",
                  ["--db", str(db_path), "--port", "0"], workdir)


def start_shard_server(catalog: Path, workdir: Path,
                       shard_id: Optional[str] = None) -> Helper:
    """One ``python -m repro.serve`` shard over ``catalog``."""
    args = ["--catalog", str(catalog), "--port", "0"]
    if shard_id is not None:
        args += ["--shard-id", shard_id]
    return Helper("repro.serve", args, workdir)
