"""repro — Relational shortest path discovery over large graphs.

A reproduction of *Gao, Jin, Zhou, Yu, Jiang, Wang: "Relational Approach for
Shortest Path Discovery over Large Graphs", PVLDB 5(4), 2011*.

The library stores graphs in relational tables and answers shortest-path
queries by issuing iterative FEM (Frontier / Expand / Merge) statements
against a relational engine.  It implements the paper's methods DJ, BDJ,
BSDJ, BBFS and BSEG, the SegTable index and its FEM-based construction, and
the in-memory competitors MDJ and MBDJ.

The public API is the session-based service layer in :mod:`repro.service`:
a :class:`PathService` hosts any number of named graphs over pluggable
store backends (``minidb`` — the built-in page/buffer-pool engine — or
``sqlite``; more via :func:`register_backend`), plans ``method="auto"``
queries from graph statistics, memoizes SegTable builds, and batches
queries behind a shared LRU result cache.

Quickstart::

    from repro import PathService, power_law_graph

    graph = power_law_graph(2_000, edges_per_node=3, seed=7)
    with PathService() as service:
        service.add_graph("social", graph)
        service.build_segtable("social", lthd=5)
        print(service.explain(0, 1234, graph="social").describe())
        result = service.shortest_path(0, 1234, graph="social")
        print(result.distance, result.path)
        batch = service.shortest_path_many([(0, 1234), (3, 99)],
                                           graph="social")
        print(batch.distances(), batch.stats.hit_rate)
"""

from repro.catalog import Catalog, CatalogEntry
from repro.core.path import PathResult
from repro.core.segtable import SegTableConfig, build_segtable
from repro.core.sqlstyle import NSQL, TSQL
from repro.core.stats import BatchStats, QueryStats, SegTableBuildStats
from repro.core.store.base import IndexMode
from repro.core.store.minidb import MiniDBGraphStore
from repro.core.store.sqlite import SQLiteGraphStore
from repro.graph.datasets import (
    dblp_standin,
    googleweb_standin,
    list_datasets,
    livejournal_standin,
    load_dataset,
)
from repro.graph.generators import (
    complete_graph,
    grid_graph,
    path_graph,
    power_law_graph,
    random_graph,
    star_graph,
)
from repro.graph.fingerprint import fingerprint_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.model import Edge, Graph
from repro.memory.bidirectional import bidirectional_dijkstra
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.rdb.engine import Database
from repro.service import (
    METHODS,
    BatchResult,
    PathService,
    QueryPlan,
    QuerySpec,
    available_backends,
    register_backend,
    unregister_backend,
)

__version__ = "2.0.0"

__all__ = [
    "BatchResult",
    "BatchStats",
    "Catalog",
    "CatalogEntry",
    "Database",
    "Edge",
    "Graph",
    "IndexMode",
    "METHODS",
    "MiniDBGraphStore",
    "NSQL",
    "PathResult",
    "PathService",
    "QueryPlan",
    "QuerySpec",
    "QueryStats",
    "SQLiteGraphStore",
    "SegTableBuildStats",
    "SegTableConfig",
    "TSQL",
    "__version__",
    "available_backends",
    "bidirectional_dijkstra",
    "build_segtable",
    "complete_graph",
    "dblp_standin",
    "dijkstra_shortest_path",
    "fingerprint_graph",
    "googleweb_standin",
    "grid_graph",
    "list_datasets",
    "livejournal_standin",
    "load_dataset",
    "path_graph",
    "power_law_graph",
    "random_graph",
    "read_edge_list",
    "register_backend",
    "star_graph",
    "unregister_backend",
    "write_edge_list",
]
