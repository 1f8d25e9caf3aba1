"""Backend parity — embedded SQLite vs. the client-server DB-API store.

Not a paper figure, but the experiment behind the paper's core claim of
portability: the FEM framework runs *inside an unmodified RDBMS*, so the
same statements must produce the same answers whichever engine hosts the
tables.  The run answers one query batch (DJ and, over a built SegTable,
BSEG) twice — once on the embedded SQLite store and once on the generic
DB-API store speaking the stdlib wire protocol to the fallback server —
and asserts the results are bit-identical.

Each backend's cost per statement is the DJ batch's seconds divided by
the statements its results report, putting a number on what the wire
costs: DJ issues a few cheap statements per settled node, so the
per-statement overhead dominates, and it is what the paper's
set-at-a-time methods (BSDJ/BSEG) are designed to amortize.  Besides the
text report, the run writes ``benchmarks/results/backend_parity.json``
(CI merges it into the ``bench-results`` artifact) with the parity
verdict and the per-backend statement cost.
"""

import json
import random
import time

from repro.bench.harness import (
    RESULTS_DIR,
    format_table,
    paper_reference,
    scaled,
    write_report,
)
from repro.graph.generators import power_law_graph
from repro.service import PathService
from repro.store import serve_in_thread

NUM_QUERIES = 18
LTHD = 4.0


def _batch_queries(graph, count, seed=11):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


def _shapes(batch):
    return [(None if r is None else (r.distance, tuple(r.path)))
            for r in batch.results]


def _run_backend(backend, db_path, graph, queries):
    timings = {}
    shapes = {}
    with PathService(default_backend=backend, cache_size=0) as service:
        start = time.perf_counter()
        service.add_graph("parity", graph, backend=backend, db_path=db_path,
                          persist=False)
        timings["load_s"] = time.perf_counter() - start
        for method in ("DJ", "BSEG"):
            if method == "BSEG":
                build = service.build_segtable("parity", lthd=LTHD)
                timings["segtable_build_s"] = build.total_time
            start = time.perf_counter()
            batch = service.shortest_path_many(queries, graph="parity",
                                               method=method)
            timings[f"batch_{method.lower()}_s"] = time.perf_counter() - start
            shapes[method] = _shapes(batch)
            if method == "DJ":
                timings["batch_dj_statements"] = sum(
                    r.stats.statements for r in batch.results
                    if r is not None and r.stats is not None)
    return timings, shapes


def run_experiment():
    graph = power_law_graph(scaled(240), edges_per_node=2, seed=31)
    queries = _batch_queries(graph, NUM_QUERIES)

    with serve_in_thread() as server:
        sqlite_t, sqlite_shapes = _run_backend("sqlite", None, graph, queries)
        dsn = f"{server.dsn}?table_prefix=parity_"
        dbapi_t, dbapi_shapes = _run_backend("dbapi", dsn, graph, queries)

    identical = all(sqlite_shapes[m] == dbapi_shapes[m]
                    for m in ("DJ", "BSEG"))
    profiles = {
        backend: {"statement_cost_s": (timings["batch_dj_s"]
                                       / timings["batch_dj_statements"])}
        for backend, timings in (("sqlite", sqlite_t), ("dbapi", dbapi_t))
    }

    rows = []
    for backend, timings in (("sqlite", sqlite_t), ("dbapi", dbapi_t)):
        rows.append({
            "backend": backend,
            "load_s": round(timings["load_s"], 4),
            "segtable_s": round(timings["segtable_build_s"], 4),
            "batch_dj_s": round(timings["batch_dj_s"], 4),
            "batch_bseg_s": round(timings["batch_bseg_s"], 4),
            "stmt_cost_us": round(profiles[backend]["statement_cost_s"] * 1e6,
                                  2),
            "identical": identical,
        })
    summary = {"identical": identical, "profiles": profiles,
               "num_queries": NUM_QUERIES}
    return rows, summary


def _write_json(rows, summary):
    payload = {
        "benchmark": "backend_parity",
        "backends": ["sqlite", "dbapi (stdlib fallback wire server)"],
        "lthd": LTHD,
        "legs": rows,
        **summary,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "backend_parity.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path, payload


def test_backend_parity_bit_identical(benchmark):
    rows, summary = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    _, payload = _write_json(rows, summary)
    write_report(
        "backend_parity",
        paper_reference(
            "Section 3 context — FEM inside an unmodified RDBMS",
            [
                "Same FEM statements, two engines: embedded SQLite vs. the",
                "client-server DB-API store over the stdlib wire server",
                "DJ and BSEG batch answers are bit-identical (asserted)",
                "Per-backend statement cost from the DJ batch; the wire",
                "adds per-statement overhead, favoring set-at-a-time",
            ],
        ),
        format_table(rows, title="Reproduced (backend parity)"),
    )
    # Hard gates (timing-free, so they hold on any runner).
    assert payload["identical"], "backends disagreed on query results"
    for backend, profile in payload["profiles"].items():
        assert profile["statement_cost_s"] > 0, backend
