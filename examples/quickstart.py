"""Quickstart: host a graph in a PathService and find shortest paths.

Run with::

    python examples/quickstart.py

The example builds a small scale-free graph, hosts it in a
:class:`~repro.service.PathService`, constructs the SegTable index, shows
what the planner picks for ``method="auto"`` (via ``explain()``), answers a
query with every method the paper evaluates, and finishes with a batch of
repeated queries served from the service's result cache.
"""

from __future__ import annotations

from repro import PathService, power_law_graph
from repro.workload import generate_queries


def main() -> None:
    graph = power_law_graph(1_000, edges_per_node=2, seed=7)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    with PathService() as service:
        service.add_graph("social", graph, backend="minidb",
                          buffer_capacity=256)
        build_stats = service.build_segtable("social", lthd=10)
        print(
            f"SegTable built: {build_stats.encoding_number} segments in "
            f"{build_stats.iterations} iterations ({build_stats.total_time:.2f} s)"
        )

        # Pick a pair of nodes that are at least a few hops apart.
        source, target = generate_queries(graph, 1, seed=3, min_hops=4).queries[0]

        # The planner picks the method from the graph's statistics.
        plan = service.explain(source, target, graph="social")
        print(f"\nplan for ({source} -> {target}) with method='auto':")
        print(plan.describe())

        print(f"\nshortest path from {source} to {target}, every method:")
        for method in ("DJ", "BDJ", "BSDJ", "BBFS", "BSEG", "MDJ", "MBDJ"):
            result = service.shortest_path(source, target, graph="social",
                                           method=method, use_cache=False)
            stats = result.stats
            print(
                f"  {method:>4}: distance={result.distance:<8g} "
                f"hops={result.num_edges:<3} time={stats.total_time:.3f}s "
                f"expansions={stats.expansions:<5} statements={stats.statements:<5} "
                f"visited={stats.visited_nodes}"
            )

        result = service.shortest_path(source, target, graph="social",
                                       method="BSEG")
        print(f"\npath found by BSEG: {result.path}")

        # Batch execution: repeated pairs hit the shared result cache.
        workload = generate_queries(graph, 10, seed=5).queries
        batch = service.shortest_path_many(workload * 3, graph="social")
        print(
            f"\nbatch: {batch.stats.total} queries in "
            f"{batch.stats.total_time:.3f}s — {batch.stats.cache_hits} cache "
            f"hits ({batch.stats.hit_rate:.0%}), {batch.stats.executed} executed"
        )


if __name__ == "__main__":
    main()
