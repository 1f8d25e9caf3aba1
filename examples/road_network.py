"""Road-network scenario: route planning on a grid-shaped transportation graph.

Transportation networks are another motivating application from the paper's
introduction.  This example models a city as a weighted grid, compares the
relational methods on a long diagonal route, and demonstrates the effect of
the SegTable threshold (the Figure 7(c)/(d) trade-off) on query cost.

Run with::

    python examples/road_network.py
"""

from __future__ import annotations

from repro import PathService, grid_graph
from repro.workload import run_service_workload


def main() -> None:
    rows, cols = 25, 25
    graph = grid_graph(rows, cols, weight_range=(1, 20), seed=3)
    print(f"road grid: {rows}x{cols} intersections, {graph.num_edges} road segments")

    source = 0
    target = rows * cols - 1  # opposite corner

    # cache_size=0: every query below is measured, never replayed.
    with PathService(cache_size=0) as service:
        service.add_graph("default", graph)
        print("\ncorner-to-corner route without the SegTable index:")
        for method in ("BDJ", "BSDJ", "BBFS"):
            result = service.shortest_path(source, target, method=method)
            print(f"  {method:>4}: length={result.distance:g} "
                  f"({result.num_edges} segments, "
                  f"{result.stats.expansions} expansions, "
                  f"{result.stats.total_time:.3f} s)")

        print("\nBSEG with different index thresholds (paper Figure 7(c)):")
        for lthd in (5, 15, 30):
            build = service.build_segtable(lthd=lthd)
            result = service.shortest_path(source, target, method="BSEG")
            print(f"  lthd={lthd:<3} segments={build.encoding_number:<6} "
                  f"expansions={result.stats.expansions:<4} "
                  f"time={result.stats.total_time:.3f} s")

        workload = [(0, target), (cols - 1, rows * cols - cols), (12, 600)]
        aggregate, _stats = run_service_workload(service, workload, "BSEG")
        print(f"\naverage over {aggregate.queries} routes with BSEG: "
              f"{aggregate.avg_time:.3f} s, {aggregate.avg_expansions:.1f} expansions")

if __name__ == "__main__":
    main()
