"""FEM generality: the same framework runs other graph-search queries.

Section 3.1 of the paper argues that the FEM skeleton (select frontier,
expand, merge) covers many greedy graph-search algorithms beyond shortest
paths.  This example runs two of them on the relational engine — Prim's
minimal spanning tree and reachability — and also shows the two database
backends answering the same shortest-path query.

Run with::

    python examples/fem_generality.py
"""

from __future__ import annotations

from repro import PathService, power_law_graph
from repro.core.prim import prim_mst_fem
from repro.core.reachability import is_reachable_fem, reachable_set_fem


def main() -> None:
    graph = power_law_graph(300, edges_per_node=2, seed=11)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    # 1. Minimal spanning tree through the FEM framework.
    mst = prim_mst_fem(graph, root=0)
    print(f"\nPrim via FEM: {len(mst.edges)} tree edges, total weight "
          f"{mst.total_weight:g}, {mst.iterations} FEM iterations")

    # 2. Reachability through the FEM framework.
    reached = reachable_set_fem(graph, 0)
    print(f"reachability via FEM: {len(reached)} nodes reachable from node 0")
    print(f"is node 299 reachable from node 0? "
          f"{is_reachable_fem(graph, 0, 299)}")

    # 3. The same shortest-path query on both database backends.
    print("\nshortest path 0 -> 250 on both backends:")
    for backend in ("minidb", "sqlite"):
        with PathService(default_backend=backend) as service:
            service.add_graph("default", graph)
            service.build_segtable(lthd=10)
            result = service.shortest_path(0, 250, method="BSEG")
            print(f"  {backend:>7}: distance={result.distance:g} "
                  f"({result.stats.expansions} expansions, "
                  f"{result.stats.statements} statements)")


if __name__ == "__main__":
    main()
