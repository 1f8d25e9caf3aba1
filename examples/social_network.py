"""Social-network scenario: how are two people connected?

The paper's introduction motivates shortest-path discovery with social
networks — the shortest path between two individuals reveals how their
relationship is built.  This example uses the LiveJournal stand-in, compares
the bi-directional set Dijkstra with the SegTable-accelerated search, and
shows the trade-off the paper's Table 3 reports: fewer SQL round trips at
the cost of a slightly larger visited set.

Run with::

    python examples/social_network.py
"""

from __future__ import annotations

import random

from repro import PathService, livejournal_standin
from repro.errors import PathNotFoundError
from repro.workload import generate_queries


def main() -> None:
    graph = livejournal_standin(num_nodes=2_000)
    print(f"social graph stand-in: {graph.num_nodes} members, "
          f"{graph.num_edges} friendship links")

    with PathService() as service:
        service.add_graph("default", graph)
        build = service.build_segtable(lthd=3)
        print(f"SegTable(lthd=3): {build.encoding_number} segments, "
              f"built in {build.total_time:.2f} s")

        workload = generate_queries(graph, 5, seed=1, min_hops=3)
        totals = {"BSDJ": [0.0, 0, 0], "BSEG": [0.0, 0, 0]}
        for source, target in workload:
            print(f"\nconnection between member {source} and member {target}:")
            for method in ("BSDJ", "BSEG"):
                try:
                    result = service.shortest_path(source, target, method=method)
                except PathNotFoundError:
                    print(f"  {method}: not connected")
                    continue
                stats = result.stats
                totals[method][0] += stats.total_time
                totals[method][1] += stats.expansions
                totals[method][2] += stats.visited_nodes
                chain = " -> ".join(str(node) for node in result.path)
                print(f"  {method}: strength={result.distance:g} via {chain}")
                print(f"        ({stats.expansions} expansions, "
                      f"{stats.visited_nodes} people touched, "
                      f"{stats.total_time:.3f} s)")

        print("\naverages over the workload:")
        for method, (time_s, exps, visited) in totals.items():
            count = max(len(workload), 1)
            print(f"  {method}: {time_s / count:.3f} s, {exps / count:.1f} expansions, "
                  f"{visited / count:.0f} visited")

if __name__ == "__main__":
    main()
