"""Reading ledger output: metric tables, the layer budget, run-to-run noise.

Pure functions over the JSON the runs write; nothing here runs a
workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from benchmarks.ledger.spans import children_of, self_ms
from benchmarks.ledger.spec import (
    FAILED_SHARE,
    end_to_end_bounds,
    metric_units,
)

EXACT_COUNTS = ("store.statements", "core.expansions", "core.visited_nodes",
                "core.segtable.rows_per_edge")
"""Layer counts that must repeat exactly from run to run ..."""

EXACT_WORKLOADS = ("cold_bseg_sqlite", "cold_bsdj_wire", "cold_bsdj_minidb",
                   "segtable_build_sqlite")
"""... on the workloads whose planner makes no timing-trained choice."""


def units() -> Dict[str, str]:
    return {**metric_units("end_to_end"), FAILED_SHARE: "ratio",
            **metric_units("per_layer")}


def print_record(record: Dict[str, object]) -> None:
    """Every metric of one pass, by name, with its unit."""
    unit_of = units()
    kind = "traced pass" if record["trace"] else "timed run"
    print(f"\n== {record['workload']} ({kind}, seed {record['seed']}): "
          f"{record['failed']} of {record['attempted']} ops failed")
    for name, value in record["metrics"].items():
        print(f"  {name:<34} {value:>14.4f} {unit_of[name]}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


# -- layer budget (the Fig 6b/6c view for the whole stack) ----------------------

def layer_budget(spans: List[Dict[str, object]]
                 ) -> Dict[str, List[Dict[str, object]]]:
    """Self time per span name, one table per kind of root span.

    A span's self time is its duration minus what its child spans cover.
    Spans are grouped by the name of the root they descend from (the
    traced pass calls the same layers along more than one path, e.g.
    through ``service.session`` and directly as ``core.driver``); per-call
    figures divide by the number of such roots, shares are of their
    total duration.
    """
    by_parent = children_of(spans)
    root_of: List[int] = []
    for index, span in enumerate(spans):
        parent = span["parent"]
        root_of.append(index if parent is None else root_of[parent])
    tables: Dict[str, Dict[str, Dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "self_ms": 0.0,
                                     "statements": 0, "rows": 0}))
    for index, span in enumerate(spans):
        row = tables[spans[root_of[index]]["name"]][span["name"]]
        row["calls"] += 1
        row["self_ms"] += self_ms(index, spans, by_parent)
        if span["name"].startswith("store."):
            row["statements"] += span.get("statements", 0)
            row["rows"] += span.get("rows", 0)
    budget: Dict[str, List[Dict[str, object]]] = {}
    for root, layers in tables.items():
        roots = layers[root]["calls"]
        total = sum(row["self_ms"] for row in layers.values())
        budget[root] = [{
            "layer": name,
            "calls_per_root": row["calls"] / roots,
            "self_ms_per_root": row["self_ms"] / roots,
            "share_pct": 100.0 * row["self_ms"] / total if total else 0.0,
            "statements_per_root": row["statements"] / roots,
            "rows_per_root": row["rows"] / roots,
        } for name, row in sorted(layers.items(),
                                  key=lambda item: -item[1]["self_ms"])]
    return budget


def print_budget(document: Dict[str, object]) -> None:
    print(f"layer budget of {document['workload']} "
          f"(seed {document['seed']}, {document['traced_ops']} traced ops)")
    for root, rows in layer_budget(document["spans"]).items():
        total = sum(row["self_ms_per_root"] for row in rows)
        print(f"\n  per {root} call ({total:.3f} ms):")
        print(f"    {'layer':<24}{'calls':>8}{'self ms':>10}{'share %':>9}"
              f"{'stmts':>9}{'rows':>9}")
        for row in rows:
            print(f"    {row['layer']:<24}{row['calls_per_root']:>8.1f}"
                  f"{row['self_ms_per_root']:>10.3f}{row['share_pct']:>9.1f}"
                  f"{row['statements_per_root']:>9.1f}"
                  f"{row['rows_per_root']:>9.1f}")


def print_report(document: Dict[str, object]) -> None:
    """A trace file gets the layer budget; a result file its metrics."""
    if "spans" in document:
        print_budget(document)
    elif "cells" in document:
        print_noise(document)
    else:
        for record in document["runs"]:
            print_record(record)


# -- noise ---------------------------------------------------------------------

def range_spread(values: Sequence[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def noise_cells(records: Sequence[Dict[str, object]]
                ) -> List[Dict[str, object]]:
    """Per (workload, end-to-end metric): median and (max-min)/median
    over the timed runs in ``records``, beside the metric's bound."""
    bounds = end_to_end_bounds()
    series: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        if not record["trace"]:
            for name, value in record["metrics"].items():
                series[(record["workload"], name)].append(value)
    return [{
        "workload": workload, "metric": metric,
        "median": statistics.median(values),
        "spread": range_spread(values),
        "bound": bounds[metric], "values": values,
    } for (workload, metric), values in series.items()]


def inexact_counts(records: Sequence[Dict[str, object]]) -> List[str]:
    """Layer counts that differed between traced runs of the same seed."""
    seen: Dict[Tuple[str, int, str], set] = defaultdict(set)
    for record in records:
        if record["trace"] and record["workload"] in EXACT_WORKLOADS:
            for name in EXACT_COUNTS:
                seen[(record["workload"], record["seed"], name)].add(
                    record["metrics"][name])
    return [f"{workload} seed {seed} {name}: {sorted(values)}"
            for (workload, seed, name), values in seen.items()
            if len(values) > 1]


def layer_medians(records: Sequence[Dict[str, object]]
                  ) -> Dict[str, Dict[str, float]]:
    """``workload -> per-layer metric -> median`` over the traced runs."""
    series: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for record in records:
        if record["trace"]:
            for name, value in record["metrics"].items():
                series[record["workload"]][name].append(value)
    return {workload: {name: statistics.median(values)
                       for name, values in metrics.items()}
            for workload, metrics in series.items()}


def print_noise(document: Dict[str, object]) -> None:
    unit_of = units()
    print(f"  {'workload':<24}{'metric':<18}{'median':>12} {'unit':<6}"
          f"{'(max-min)/med':>15}{'bound':>8}")
    for cell in document["cells"]:
        print(f"  {cell['workload']:<24}{cell['metric']:<18}"
              f"{cell['median']:>12.4f} {unit_of[cell['metric']]:<6}"
              f"{cell['spread']:>15.4f}{cell['bound']:>8.2f}")
