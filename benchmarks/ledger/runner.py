"""One run of one workload in this interpreter: timed, or traced.

The timed run produces the end-to-end metrics and records no spans; the
traced run replays the first K ops of the same stream with the
benchmark's spans on and produces the per-layer metrics.  Both check
every answer against the oracle.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.errors import ReproError
from repro.obs import now, timer
from repro.workload.harness import percentile

from benchmarks.ledger import layers
from benchmarks.ledger.ops import stream_digest
from benchmarks.ledger.procs import HelperStartError
from benchmarks.ledger.spans import SpanRecorder
from benchmarks.ledger.spec import (
    FAILED_SHARE,
    RESULTS_DIR,
    SETUP_MAX_REPEATS,
    SETUP_MIN_SECONDS,
    metric_units,
    sizing,
)
from benchmarks.ledger.workloads import WORKLOADS, Workload

MAX_FAILURE_SAMPLES = 10


@dataclass
class RunResult:
    """What one run measured; ``driver_line`` is the contract's last line."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_SAMPLES:
            self.failures.append(message)

    def driver_line(self) -> str:
        units = metric_units("per_layer" if self.trace else "end_to_end")
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()},
        })

    def as_dict(self) -> Dict[str, object]:
        """The ledger's record of the run.  A timed run's metrics are the
        six end-to-end ones: ``failed_share`` joins the five that
        ``BENCHMARK.json`` may declare (see ``spec.FAILED_SHARE``)."""
        metrics = dict(self.metrics)
        if not self.trace:
            metrics[FAILED_SHARE] = self.failed / max(self.attempted, 1)
        return {
            "workload": self.workload, "seed": self.seed,
            "trace": self.trace, "correct": self.correct,
            "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures, "metrics": metrics,
            "info": self.info,
        }


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter plus the largest helper
    subprocess already reaped (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    helpers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + helpers) / 1024.0


def _set_up_repeatedly(workload: Workload, result: RunResult,
                       repeats: int) -> List[float]:
    """At least ``repeats`` from-scratch set-ups, more while they are too
    short to time steadily (``spec.SETUP_MIN_SECONDS``; a single set-up,
    as in the traced pass and the smoke test, is never repeated); the
    last one stays up.  A helper that never becomes healthy (or a set-up the
    program refuses with a typed error) fails every op of the workload
    instead of hanging."""
    seconds: List[float] = []
    try:
        while len(seconds) < repeats or (
                repeats > 1 and sum(seconds) < SETUP_MIN_SECONDS
                and len(seconds) < SETUP_MAX_REPEATS):
            if seconds:
                workload.tear_down()
            with timer() as took:
                workload.set_up()
            seconds.append(took.seconds)
    except (HelperStartError, ReproError) as exc:
        result.attempted = len(workload.ops)
        result.failed = len(workload.ops)
        result.failures.append(f"set-up failed: {exc}")
    return seconds


def _check(workload: Workload, result: RunResult, index: int,
           got: Optional[float], problem: Optional[str]) -> bool:
    op, want = workload.ops[index], workload.expected[index]
    if problem is None and got != want:
        problem = (f"op {op.op_id} {op.graph} {op.source}->{op.target} "
                   f"{op.kind}: expected {want}, got {got}")
    if problem is not None:
        result.fail(problem)
    return problem is None


def run_timed(workload: Workload, result: RunResult) -> None:
    """The untraced closed loop over the whole stream."""
    setup_seconds = _set_up_repeatedly(workload, result,
                                       workload.sizes.setups)
    if result.failed:
        return
    latencies_ms: List[float] = []
    correct = 0
    for index, op in enumerate(workload.ops):
        result.attempted += 1
        got, problem = None, None
        try:
            workload.before(op)
            begin = now()
            try:
                got = workload.execute(op)
            finally:
                latencies_ms.append((now() - begin) * 1000.0)
            problem = workload.after(op)
        except Exception as exc:  # typed errors and crashes both fail the op
            problem = f"op {op.op_id}: {type(exc).__name__}: {exc}"
        correct += _check(workload, result, index, got, problem)
    if not latencies_ms:
        return
    # One client, closed loop: the stream's timed wall is the sum of its
    # ops' latencies (``before``/``after`` and the checks are untimed).
    wall = sum(latencies_ms) / 1000.0
    workload.tear_down()  # reap helpers before reading their peak RSS
    ordered = sorted(latencies_ms)
    result.metrics = {
        "setup_s": statistics.median(setup_seconds),
        "latency_p50_ms": percentile(ordered, 50.0),
        "latency_p95_ms": percentile(ordered, 95.0),
        "ops_per_s": correct / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    result.info.update(latency_samples=len(ordered), timed_wall_s=wall,
                       setup_samples=setup_seconds)


def run_traced(workload: Workload, result: RunResult,
               trace_path: Path) -> None:
    """Replay the first K ops with the benchmark's spans on."""
    _set_up_repeatedly(workload, result, repeats=1)
    if result.failed:
        return
    recorder = SpanRecorder()
    measured = layers.trace(workload, recorder, result)
    unknown = set(measured) - set(metric_units("per_layer"))
    if unknown:
        raise KeyError(f"traced pass produced undeclared metrics: {unknown}")
    # The result line carries every declared per-layer metric on every
    # workload.  Per-layer metrics have no bound and are never compared
    # as shares of a median (the contract's "never 0" rule is about
    # end-to-end metrics), so a layer this workload bypasses reads 0 —
    # which is the check that the bypass the README claims is real.
    result.metrics = {**dict.fromkeys(metric_units("per_layer"), 0.0),
                      **measured}
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed,
        "traced_ops": workload.sizes.traced_ops,
        "spans": recorder.spans,
    }), encoding="utf-8")
    result.info["trace_file"] = str(trace_path)


@contextmanager
def scratch_directory(name: str) -> Iterator[Path]:
    """One scratch directory under ``benchmarks/results/`` for everything
    a run writes — database files, catalogs, helper logs, and whatever the
    program or SQLite create as temp files (both follow ``TMPDIR``) — so
    nothing lands outside the checkout.  Removed on the way out, also on
    Ctrl-C and SIGTERM."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"ledger_{name}_",
                                    dir=RESULTS_DIR))
    previous_env = os.environ.get("TMPDIR")
    previous_tempdir, tempfile.tempdir = tempfile.tempdir, str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    previous_term = signal.signal(signal.SIGTERM,
                                  lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        yield workdir
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        tempfile.tempdir = previous_tempdir
        if previous_env is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous_env
        shutil.rmtree(workdir, ignore_errors=True)


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, corrupt_oracle: bool = False,
        trace_dir: Path = RESULTS_DIR) -> RunResult:
    """Run workload ``name`` once in this interpreter; a traced pass
    writes its spans to ``trace_dir/ledger_trace_<name>.json``."""
    sizes = sizing(name, seconds, scale)
    result = RunResult(workload=name, seed=seed, trace=trace)
    with scratch_directory(name) as workdir:
        workload = WORKLOADS[name](sizes, seed, workdir)
        try:
            workload.prepare()
            if corrupt_oracle:
                # The smoke test's "a wrong oracle entry flips the exit code".
                workload.expected[0] = -1.0
            result.info.update(nodes=sizes.nodes, ops=len(workload.ops),
                               stream_sha256=stream_digest(workload.ops))
            if trace:
                run_traced(workload, result,
                           trace_dir / f"ledger_trace_{name}.json")
            else:
                run_timed(workload, result)
        finally:
            workload.tear_down()
    return result
