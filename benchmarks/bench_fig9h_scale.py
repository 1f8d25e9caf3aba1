"""Figure 9(h) — SegTable construction time vs graph size.

Paper: construction time grows almost linearly with the number of nodes on
LiveJournal subsets, because the index only encodes local shortest segments.
"""

from repro.bench.experiments import construction_sweep
from repro.bench.harness import format_table, paper_reference, scaled, write_report
from repro.graph.datasets import livejournal_standin


def run_experiment():
    rows = []
    for num_nodes in (scaled(300), scaled(600), scaled(900)):
        graph = livejournal_standin(num_nodes=num_nodes)
        (built,) = construction_sweep({"livejournal": graph}, [3.0])
        rows.append(
            {
                "nodes": num_nodes,
                "edges": graph.num_edges,
                "segments": built["segments"],
                "build_time_s": built["build_time_s"],
            }
        )
    return rows


def test_fig9h_construction_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    write_report(
        "fig9h_scale",
        paper_reference(
            "Figure 9(h) (LiveJournal subsets, lthd=3, construction vs graph size)",
            [
                "Construction time grows almost linearly with the graph size",
            ],
        ),
        format_table(rows, title="Reproduced construction time vs graph size"),
    )
    times = [row["build_time_s"] for row in rows]
    assert times[-1] >= times[0]
