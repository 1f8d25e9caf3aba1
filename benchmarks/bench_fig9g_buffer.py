"""Figure 9(g) — SegTable construction time vs buffer size.

Paper: a larger buffer shortens construction (0.6 GB takes about twice as
long as 1.6 GB); once the buffer exceeds the working set (~1.2 GB) the curve
flattens.  We sweep the mini engine's buffer pool and report the buffer hit
ratio alongside the time.
"""

from repro.bench.harness import format_table, paper_reference, scaled, write_report
from repro.graph.datasets import livejournal_standin
from repro.service import PathService


def run_experiment():
    graph = livejournal_standin(num_nodes=scaled(500))
    rows = []
    for capacity in (16, 64, 512):
        with PathService() as service:
            service.add_graph("default", graph, backend="minidb",
                              buffer_capacity=capacity)
            database = service.store().database  # type: ignore[attr-defined]
            database.reset_stats()
            stats = service.build_segtable(lthd=3.0)
            buffer_stats = database.buffer_stats
            rows.append(
                {
                    "buffer_pages": capacity,
                    "build_time_s": round(stats.total_time, 4),
                    "buffer_misses": buffer_stats.misses,
                    "hit_ratio": round(buffer_stats.hit_ratio, 3),
                }
            )
    return rows


def test_fig9g_construction_buffer(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_report(
        "fig9g_buffer",
        paper_reference(
            "Figure 9(g) (LiveJournal, lthd=3, construction vs buffer 0.6-1.6 GB)",
            [
                "Larger buffers shorten construction; the curve flattens once the "
                "working set fits",
            ],
        ),
        format_table(rows, title="Reproduced construction vs buffer size (pages)"),
    )
    assert rows[-1]["hit_ratio"] >= rows[0]["hit_ratio"]
