"""FEM generality: the same framework runs other graph-search queries.

Section 3.1 of the paper argues that the FEM skeleton (select frontier,
expand, merge) covers many greedy graph-search algorithms beyond shortest
paths.  This example runs two of them relationally: Prim's minimal
spanning tree as three F/E/M statements on SQLite (:func:`prim_mst_sql`),
and reachability as the service's ``kind="reachability"`` query, which
runs on every backend.  It ends with the two database backends answering
the same shortest-path query.

Run with::

    python examples/fem_generality.py
"""

from __future__ import annotations

import sqlite3
from typing import List, Optional, Tuple

from repro import PathService, power_law_graph
from repro.errors import InvalidQueryError, PathNotFoundError
from repro.graph.model import Graph

# E+M in one statement: expand the frontier node's edges, keep the
# cheapest edge per neighbour, and merge it into the visited relation
# unless the neighbour is already in the tree or has a cheaper edge.
_EXPAND_MERGE = """
    INSERT INTO visited AS v (nid, p2s, w, f)
    SELECT tid, fid, min(cost), 0 FROM edges WHERE fid = ? GROUP BY tid
    ON CONFLICT (nid) DO UPDATE SET p2s = excluded.p2s, w = excluded.w
    WHERE v.f = 0 AND excluded.w < v.w
"""


def prim_mst_sql(graph: Graph,
                 root: Optional[int] = None) -> List[Tuple[int, int, float]]:
    """Prim's minimal spanning tree as F/E/M statements on SQLite.

    Each visited node is a row ``(nid, p2s, w, f)``: ``w`` is the cheapest
    known edge from the tree to ``nid``, ``p2s`` that edge's tree end, and
    ``f = 1`` marks tree membership.  F picks the cheapest non-tree row and
    flags it; E+M is one upsert from its edges.  The graph's directed edges
    are read as given (the usual Prim setting wants both directions).

    Returns:
        the tree edges as ``(parent, child, weight)`` triples.

    Raises:
        InvalidQueryError: if the graph is empty or not connected from root.
    """
    if graph.num_nodes == 0:
        raise InvalidQueryError("cannot build an MST of an empty graph")
    start = root if root is not None else min(graph.nodes())
    db = sqlite3.connect(":memory:")
    try:
        db.execute("CREATE TABLE edges (fid INTEGER, tid INTEGER, cost REAL)")
        db.executemany("INSERT INTO edges VALUES (?, ?, ?)",
                       ((e.fid, e.tid, e.cost) for e in graph.edges()))
        db.execute("CREATE INDEX edges_fid ON edges (fid)")
        db.execute("CREATE TEMP TABLE visited (nid INTEGER PRIMARY KEY, "
                   "p2s INTEGER, w REAL, f INTEGER)")
        db.execute("INSERT INTO visited VALUES (?, ?, 0, 0)", (start, start))
        while True:
            frontier = db.execute("SELECT nid FROM visited WHERE f = 0 "
                                  "ORDER BY w, nid LIMIT 1").fetchone()
            if frontier is None:
                break
            db.execute("UPDATE visited SET f = 1 WHERE nid = ?", frontier)
            db.execute(_EXPAND_MERGE, frontier)
        tree = db.execute("SELECT p2s, nid, w FROM visited WHERE f = 1 "
                          "AND nid <> ?", (start,)).fetchall()
    finally:
        db.close()
    if len(tree) + 1 < graph.num_nodes:
        raise InvalidQueryError(
            f"graph is not connected from node {start}: the tree covers "
            f"{len(tree) + 1} of {graph.num_nodes} nodes"
        )
    return tree


def is_reachable(service: PathService, source: int, target: int,
                 graph: str = "default") -> bool:
    """Whether ``target`` is reachable from ``source``, asked as the
    service's reachability kind (a layered BFS on the graph's store)."""
    try:
        service.shortest_path(source, target, graph=graph,
                              kind="reachability")
    except PathNotFoundError:
        return False
    return True


def main() -> None:
    graph = power_law_graph(300, edges_per_node=2, seed=11)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    # 1. Minimal spanning tree as F/E/M statements on SQLite.
    tree = prim_mst_sql(graph, root=0)
    print(f"\nPrim via FEM on SQLite: {len(tree)} tree edges, total weight "
          f"{sum(weight for _p, _c, weight in tree):g}")

    # 2. Reachability through the service (any backend answers it).
    with PathService(default_backend="sqlite") as service:
        service.add_graph("default", graph)
        reached = sum(is_reachable(service, 0, node)
                      for node in graph.nodes())
        print(f"reachability via FEM: {reached} nodes reachable from node 0")
        print(f"is node 299 reachable from node 0? "
              f"{is_reachable(service, 0, 299)}")

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
