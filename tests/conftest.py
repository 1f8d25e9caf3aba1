"""Shared fixtures for the test suite.

Backend selection: the ``REPRO_TEST_BACKEND`` environment variable (the
CI test matrix's ``backend`` axis) picks which store backend the
backend-generic tests run against — ``minidb``, ``sqlite`` (the default),
or ``dbapi-fallback`` (the generic DB-API store speaking to the stdlib
fallback wire server started once per test session).  Tests opt in by
taking the :func:`test_backend` fixture; backend-specific tests are
unaffected.
"""

from __future__ import annotations

import os
import random
import uuid
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import pytest

from repro.core.store.base import GraphStore
from repro.core.store.minidb import MiniDBGraphStore
from repro.graph.generators import grid_graph, path_graph, power_law_graph, random_graph
from repro.graph.model import Graph

HERMETIC_BACKENDS = ("minidb", "sqlite", "dbapi-fallback")
"""Backends the suite can exercise with no external services."""


def selected_backend() -> str:
    """The CI matrix's backend choice (``sqlite`` when unset)."""
    name = os.environ.get("REPRO_TEST_BACKEND", "").strip().lower()
    if not name:
        return "sqlite"
    if name not in HERMETIC_BACKENDS:
        raise RuntimeError(
            f"REPRO_TEST_BACKEND={name!r} is not one of {HERMETIC_BACKENDS}"
        )
    return name


@pytest.fixture(scope="session")
def fallback_dsn() -> Iterator[str]:
    """One stdlib fallback wire server for the whole test session.

    Yields its base DSN; tests derive isolated namespaces from it via
    :func:`fresh_dsn` rather than using this DSN directly.
    """
    from repro.store.fallback_server import serve_in_thread

    handle = serve_in_thread()
    try:
        yield handle.dsn
    finally:
        handle.close()


@pytest.fixture
def fresh_dsn(fallback_dsn: str) -> Callable[[], str]:
    """Factory for fallback-server DSNs with a unique table prefix each —
    tests sharing the session server can never touch each other's
    tables."""
    def make() -> str:
        return f"{fallback_dsn}?table_prefix=t{uuid.uuid4().hex[:10]}_"
    return make


@dataclass
class BackendUnderTest:
    """What :func:`test_backend` hands to backend-generic tests.

    ``name`` is the registry backend name; ``make_path()`` returns a
    fresh ``path``/DSN for one store (``None`` for in-memory embedded
    stores, a unique-prefix DSN for the client-server backend).
    """

    name: str
    make_path: Callable[[], Optional[str]]


@pytest.fixture
def test_backend(request: pytest.FixtureRequest) -> BackendUnderTest:
    """The ``REPRO_TEST_BACKEND``-selected backend, ready to instantiate."""
    choice = selected_backend()
    if choice == "dbapi-fallback":
        make = request.getfixturevalue("fresh_dsn")
        return BackendUnderTest(name="dbapi", make_path=make)
    return BackendUnderTest(name=choice, make_path=lambda: None)


@pytest.fixture
def tiny_graph() -> Graph:
    """The 12-node weighted graph of the paper's Figure 1."""
    graph = Graph(directed=False)
    edges = [
        ("s", "b", 2), ("s", "c", 1), ("s", "d", 6),
        ("b", "e", 2), ("c", "d", 1), ("c", "e", 3),
        ("d", "i", 7), ("e", "f", 7), ("e", "g", 3),
        ("f", "h", 4), ("g", "h", 9), ("g", "j", 4),
        ("h", "t", 3), ("i", "j", 8), ("j", "t", 5),
        ("i", "t", 8), ("b", "c", 2), ("f", "t", 1),
    ]
    names = sorted({name for fid, tid, _ in edges for name in (fid, tid)})
    ids = {name: index for index, name in enumerate(names)}
    for fid, tid, cost in edges:
        graph.add_edge(ids[fid], ids[tid], cost)
    graph.node_names = ids  # type: ignore[attr-defined]
    return graph


@pytest.fixture
def small_path_graph() -> Graph:
    """A 10-node path with unit weights (known distances)."""
    return path_graph(10, weight_range=(1, 1), seed=1)


@pytest.fixture
def small_grid_graph() -> Graph:
    """A 5x5 grid with random weights."""
    return grid_graph(5, 5, seed=2)


@pytest.fixture
def small_power_graph() -> Graph:
    """A 120-node scale-free graph."""
    return power_law_graph(120, edges_per_node=2, seed=3)


@pytest.fixture
def small_random_graph() -> Graph:
    """A 150-node random graph with average degree 3."""
    return random_graph(150, avg_degree=3.0, seed=4)


@pytest.fixture
def query_rng() -> random.Random:
    """Deterministic RNG for sampling query endpoints in tests."""
    return random.Random(42)


VISITED_COLUMNS = ("nid", "d2s", "p2s", "f", "d2t", "p2t", "b")


def visited_rows(store: GraphStore) -> List[Dict[str, object]]:
    """Materialize a store's ``TVisited`` for assertions."""
    if isinstance(store, MiniDBGraphStore):
        return list(store.visited.scan())
    rows = store._execute_unlogged(
        f"SELECT {', '.join(VISITED_COLUMNS)} FROM tvisited").fetchall()
    return [dict(zip(VISITED_COLUMNS, row)) for row in rows]
