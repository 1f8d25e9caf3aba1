"""What the ledger measures: the declared contract and the workload sizes.

``BENCHMARK.json`` is the single source of metric and workload *names*,
units and bounds; this module only loads it.  The *sizes* live here
because they are the benchmark's own business: they were probed on a
2-core box so that one run's timed stream takes about ``--seconds``
seconds at the seed commit.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = ROOT / "src"
RESULTS_DIR = ROOT / "benchmarks" / "results"
BASELINES_DIR = Path(__file__).resolve().parent / "baselines"

DEFAULT_SEED = 11
HELD_OUT_SEED = 12
"""Perf PRs develop on ``DEFAULT_SEED`` and must confirm on this one."""

REFERENCE_SECONDS = 20
"""The ``run_seconds`` the op counts below were sized for."""

FAILED_SHARE = "failed_share"
"""The sixth end-to-end metric (unit ``ratio``, lower is better, any
increase fails): (typed errors + wrong answers + ops that never
returned) / ops attempted.  It is 0 on a correct program, and the
builder contract forbids an ``end_to_end`` entry that can read 0 (the
driver compares metrics as shares of a median), so it is not declared
in ``BENCHMARK.json``: the driver reads it from the result line's
``failed`` and ``attempted``, and every other output of the ledger
carries it by this name."""

MIN_OPS = 220
"""Floor of a full-size stream: nearest-rank p95 then has >= 10 samples
beyond it."""

LTHD = 3.0
SETUP_REPEATS = 5
"""``setup_s`` is the median of at least this many from-scratch set-ups."""
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
"""A set-up of a few tens of milliseconds is repeated beyond
``SETUP_REPEATS``, until the repeats total ``SETUP_MIN_SECONDS`` or
number ``SETUP_MAX_REPEATS``: the median of five 20 ms samples moved by
a third between runs of one seed."""


@functools.lru_cache(maxsize=None)
def load_contract() -> Dict[str, object]:
    """The parsed ``BENCHMARK.json`` (read once; treat as read-only)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names() -> List[str]:
    return [entry["name"] for entry in load_contract()["workloads"]]


def metric_units(section: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` section."""
    return {entry["name"]: entry["unit"]
            for entry in load_contract()[section]}


def end_to_end_bounds() -> Dict[str, float]:
    """``name -> bound`` of the six end-to-end metrics; ``failed_share``
    may not rise at all."""
    bounds = {entry["name"]: entry["bound"]
              for entry in load_contract()["end_to_end"]}
    bounds[FAILED_SHARE] = 0.0
    return bounds


@dataclass(frozen=True)
class Sizing:
    """Resolved sizes of one run.

    Attributes:
        nodes: graph size (of each graph, where a workload has two).
        ops: length of the timed op stream — a fixed count, never a
            duration, so both sides of a comparison answer exactly the
            same queries.
        traced_ops: how many leading ops the traced pass replays.
        setups: the least number of from-scratch set-ups ``setup_s`` is
            the median of.
    """

    nodes: int
    ops: int
    traced_ops: int
    setups: int


# name -> (nodes, ops at REFERENCE_SECONDS, traced ops)
_BASE: Dict[str, tuple] = {
    "cold_bseg_sqlite": (3000, 560, 40),
    "cold_bsdj_wire": (700, 600, 40),
    "zipf_served_http": (1000, 7000, 400),
    "cold_bsdj_minidb": (100, 1200, 40),
    "segtable_build_sqlite": (1000, 380, 40),
}


def sizing(workload: str, seconds: float, scale: float = 1.0) -> Sizing:
    """Sizes for ``workload`` at ``--seconds`` and ``--scale``.

    ``scale`` below 1 is for the smoke test only: it shrinks graphs and
    streams together and sets up once.
    """
    nodes, ops, traced = _BASE[workload]
    full = scale >= 1.0
    stream = int(round(ops * scale * seconds / REFERENCE_SECONDS))
    return Sizing(
        nodes=max(60, int(nodes * scale)),
        ops=max(MIN_OPS if full else 12, stream),
        traced_ops=max(4, int(traced * min(scale, 1.0))),
        setups=SETUP_REPEATS if full else 1,
    )
