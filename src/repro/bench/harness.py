"""Rendering and scaling helpers for the benchmark harness.

Every benchmark writes a small text report (the reproduced table/figure
series plus the paper's reference numbers) into ``benchmarks/results/`` and
prints it, so a ``pytest benchmarks/ --benchmark-only`` run leaves behind the
full set of reproduced tables.

Graph sizes are scaled down from the paper's multi-million-node inputs; the
``REPRO_BENCH_SCALE`` environment variable multiplies the default sizes
(``1.0`` keeps the laptop-friendly defaults, larger values approach the
paper's setup at the cost of run time).
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def bench_scale() -> float:
    """Return the global size multiplier (``REPRO_BENCH_SCALE``, default 1).

    A value that is not a finite number raises rather than silently
    benchmarking the default sizes under the intended scale's label.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not math.isfinite(scale):
        raise ValueError(f"REPRO_BENCH_SCALE={raw!r} is not a finite number")
    return max(scale, 0.01)


def scaled(value: int, minimum: int = 50) -> int:
    """Scale an integer size by :func:`bench_scale`, keeping a floor."""
    return max(minimum, int(value * bench_scale()))


def bench_backend(default: str = "minidb") -> str:
    """Backend the benchmarks run against (``REPRO_BENCH_BACKEND``).

    The value is validated against the backend registry, so a CI matrix can
    re-run the whole suite on any registered engine.  Unknown names raise
    rather than silently benchmarking the wrong engine under the intended
    engine's label.
    """
    from repro.core.store import available_backends  # imports register stores

    raw = os.environ.get("REPRO_BENCH_BACKEND", default).lower()
    if raw not in available_backends():
        raise ValueError(
            f"REPRO_BENCH_BACKEND={raw!r} is not a registered backend; "
            f"expected one of {available_backends()}"
        )
    return raw


def num_bench_queries(default: int = 4) -> int:
    """Number of queries per configuration (``REPRO_BENCH_QUERIES``).

    A value that is not an integer raises rather than silently running
    ``default`` queries under the intended count's label.
    """
    raw = os.environ.get("REPRO_BENCH_QUERIES", str(default))
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_BENCH_QUERIES={raw!r} is not an integer") from None


def format_table(rows: Sequence[Dict[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(_cell(row.get(column))))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            "  ".join(_cell(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines) + "\n"


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def paper_reference(description: str, observations: Iterable[str]) -> str:
    """Format the paper's reported behaviour next to our reproduction."""
    lines = [f"Paper reference — {description}"]
    lines.extend(f"  * {observation}" for observation in observations)
    return "\n".join(lines) + "\n"


def write_report(name: str, *sections: str) -> Path:
    """Write the report sections to ``benchmarks/results/<name>.txt``.

    The report is also printed so it shows up with ``pytest -s``.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    body = "\n".join(section.rstrip("\n") for section in sections) + "\n"
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(body, encoding="utf-8")
    print(f"\n===== {name} =====\n{body}")
    return path
