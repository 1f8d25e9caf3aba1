"""Command line of the ledger.

* ``--workload NAME --seed N --seconds S --trace 0|1`` runs ONE workload
  in this interpreter and prints the contract's JSON object as the last
  line of stdout (the form the benchmark driver calls).
* With no ``--workload`` it runs all of them, each pass in a fresh
  interpreter (so caches and ``peak_rss_mb`` are per workload), prints
  every metric by name with its unit and writes one JSON result.
* ``noise --runs N`` runs the whole set N times back to back and fails
  when any end-to-end cell's (max-min)/median exceeds half its bound, or
  an exact-count layer metric differs between runs.
* ``report FILE`` prints a result file's metrics, or a trace file's
  layer budget.

Exit status is non-zero whenever any answer was wrong or any op failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.ledger import report
from benchmarks.ledger.spec import (
    DEFAULT_SEED,
    REFERENCE_SECONDS,
    RESULTS_DIR,
    ROOT,
    workload_names,
)

RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"


def run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Run the perf ledger (all workloads, or one).")
    parser.add_argument("--workload", choices=workload_names(),
                        help="run only this workload, in this interpreter")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the op stream (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="sizes the op stream: about this many seconds "
                             "of timed work at the seed commit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed run (end-to-end metrics); 1: traced "
                             "pass (per-layer metrics); default: both")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink graphs and streams (smoke test only)")
    return parser


def run_one(args: argparse.Namespace) -> int:
    """One workload, here: the form the benchmark driver invokes."""
    from benchmarks.ledger.runner import run
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 scale=args.scale)
    report.print_record(result.as_dict())
    print(json.dumps({"ledger": result.as_dict()}))
    print(result.driver_line())
    return 0 if result.correct else 1


def child_run(workload: str, seed: int, seconds: float, trace: bool,
              scale: float = 1.0) -> Dict[str, object]:
    """Run one pass in a fresh interpreter; returns its ledger record.
    The child is waited for even when this process is interrupted."""
    command = [sys.executable, str(RUN_SCRIPT), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--scale", str(scale)]
    proc = subprocess.Popen(command, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith('{"ledger"'):
        raise RuntimeError(
            f"{' '.join(command)} exited {proc.returncode} without a "
            f"result:\n{stdout[-2000:]}")
    return json.loads(lines[-2])["ledger"]


def run_all(args: argparse.Namespace) -> int:
    passes = [False, True] if args.trace is None else [bool(args.trace)]
    records: List[Dict[str, object]] = []
    for workload in workload_names():
        for trace in passes:
            record = child_run(workload, args.seed, args.seconds, trace,
                               args.scale)
            records.append(record)
            report.print_record(record)
    document = {"seed": args.seed, "seconds": args.seconds,
                "scale": args.scale, "runs": records}
    write_json(RESULTS_DIR / "ledger.json", document)
    failed = [r for r in records if not r["correct"]]
    print(f"{len(records) - len(failed)}/{len(records)} passes correct")
    return 1 if failed else 0


def write_json(path: Path, document: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path}")


def noise(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger noise")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    records: List[Dict[str, object]] = []
    for run in range(args.runs):
        for workload in workload_names():
            for trace in (False, True):
                record = child_run(workload, args.seed, REFERENCE_SECONDS,
                                   trace)
                records.append(record)
                print(f"run {run + 1}/{args.runs} {workload} "
                      f"{'traced' if trace else 'timed'}: "
                      f"failed {record['failed']}/{record['attempted']}",
                      flush=True)
    cells = report.noise_cells(records)
    document = {"seed": args.seed, "seconds": REFERENCE_SECONDS,
                "cells": cells, "layers": report.layer_medians(records)}
    report.print_noise(document)
    write_json(RESULTS_DIR / "ledger_noise.json", document)
    problems = [f"{r['workload']}: {r['failures']}"
                for r in records if not r["correct"]]
    problems += report.inexact_counts(records)
    problems += [f"{cell['workload']} {cell['metric']}: spread "
                 f"{cell['spread']:.3f} > {cell['bound'] / 2:.3f}"
                 for cell in cells if cell["spread"] > cell["bound"] / 2]
    for problem in problems:
        print(f"NOISE GATE: {problem}")
    return 1 if problems else 0


def show(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger report")
    parser.add_argument("file", type=Path,
                        help="a ledger result, noise summary or trace file")
    args = parser.parse_args(argv)
    report.print_report(json.loads(args.file.read_text(encoding="utf-8")))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "noise":
        return noise(argv[1:])
    if argv and argv[0] == "report":
        return show(argv[1:])
    args = run_parser().parse_args(argv)
    return run_one(args) if args.workload else run_all(args)
