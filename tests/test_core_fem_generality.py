"""Section 3.1's FEM generality: Prim's MST and reachability.

Prim is the SQL F/E/M loop of ``examples/fem_generality.py``; reachability
is the service's ``kind="reachability"`` on the ``REPRO_TEST_BACKEND``
backend.  The last test keeps every loop in ``repro.core`` on
``GraphStore``: only minidb's store may import the mini engine.
"""

import ast
import heapq
import importlib.util
from pathlib import Path

import pytest

import repro
from repro import PathService
from repro.errors import InvalidQueryError
from repro.graph.generators import grid_graph, power_law_graph, random_graph
from repro.graph.model import Graph
from repro.graph.stats import reachable_set_size

ROOT = Path(__file__).resolve().parent.parent


def _load_example():
    path = ROOT / "examples" / "fem_generality.py"
    spec = importlib.util.spec_from_file_location("fem_generality", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


example = _load_example()


def reference_prim_weight(graph: Graph, root: int) -> float:
    """Classic in-memory Prim over the undirected view of the graph."""
    adjacency = {}
    for edge in graph.edges():
        adjacency.setdefault(edge.fid, []).append((edge.tid, edge.cost))
    visited = {root}
    heap = [(cost, neighbor) for neighbor, cost in adjacency.get(root, [])]
    heapq.heapify(heap)
    total = 0.0
    while heap:
        cost, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        total += cost
        for neighbor, weight in adjacency.get(node, []):
            if neighbor not in visited:
                heapq.heappush(heap, (weight, neighbor))
    return total


def _weight(tree):
    return sum(weight for _parent, _child, weight in tree)


class TestPrimViaFEM:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_prim_on_grids(self, seed):
        graph = grid_graph(4, 4, seed=seed)
        tree = example.prim_mst_sql(graph, root=0)
        assert _weight(tree) == pytest.approx(reference_prim_weight(graph, 0))
        assert len(tree) == graph.num_nodes - 1

    def test_matches_reference_on_power_graph(self):
        graph = power_law_graph(60, edges_per_node=2, seed=5)
        tree = example.prim_mst_sql(graph, root=0)
        assert _weight(tree) == pytest.approx(reference_prim_weight(graph, 0))

    def test_tree_edges_exist_in_graph(self):
        graph = grid_graph(3, 3, seed=7)
        for parent, child, weight in example.prim_mst_sql(graph, root=0):
            assert graph.edge_cost(parent, child) == weight

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidQueryError):
            example.prim_mst_sql(Graph())

    def test_disconnected_graph_rejected(self):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 0, 1.0)
        graph.add_edge(5, 6, 1.0)
        graph.add_edge(6, 5, 1.0)
        with pytest.raises(InvalidQueryError):
            example.prim_mst_sql(graph, root=0)


@pytest.fixture
def serve(test_backend):
    """Host a graph as ``"g"`` on the selected backend; yield the service."""
    services = []

    def host(graph):
        service = PathService(default_backend=test_backend.name)
        services.append(service)
        service.add_graph("g", graph, backend=test_backend.name,
                          db_path=test_backend.make_path())
        return service

    yield host
    for service in services:
        service.close()


class TestReachabilityViaFEM:
    def test_matches_bfs_reachability(self, serve):
        graph = random_graph(80, avg_degree=1.5, seed=4)
        service = serve(graph)
        reached = [node for node in graph.nodes()
                   if example.is_reachable(service, 0, node, graph="g")]
        assert len(reached) == reachable_set_size(graph, 0)

    def test_is_reachable(self, serve):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_node(9)
        service = serve(graph)
        assert example.is_reachable(service, 0, 2, graph="g")
        assert not example.is_reachable(service, 0, 9, graph="g")

    def test_directed_reachability(self, serve):
        graph = Graph()
        graph.add_edge(0, 1, 1.0)
        service = serve(graph)
        assert example.is_reachable(service, 0, 1, graph="g")
        assert not example.is_reachable(service, 1, 0, graph="g")


def _imported_modules(tree: ast.Module):
    """The module names an AST imports, ``from a import b`` as ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_minidb_imports_the_mini_engine():
    """Every FEM loop speaks ``GraphStore``: ``repro.rdb`` is imported
    only by minidb's store, the ``repro.Database`` export and itself."""
    src = Path(repro.__file__).resolve().parent
    allowed = {"core/store/minidb.py", "__init__.py"}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        if relative in allowed or relative.startswith("rdb/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(name == "repro.rdb" or name.startswith("repro.rdb.")
               for name in _imported_modules(tree)):
            offenders.append(relative)
    assert offenders == []
