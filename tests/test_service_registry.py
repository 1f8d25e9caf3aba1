"""Tests for the backend registry (repro.core.store.registry)."""

import pytest

from repro.core.store import GraphStore, MiniDBGraphStore, SQLiteGraphStore
from repro.core.store.registry import (
    available_backends,
    backend_factory,
    create_store,
    register_backend,
    unregister_backend,
)
from repro.errors import (
    DuplicateBackendError,
    InvalidQueryError,
    UnknownBackendError,
)
from repro.graph.generators import path_graph
from repro.service import PathService


@pytest.fixture
def scratch_backend():
    """Register a throwaway backend for the test, cleaned up afterwards."""
    name = "scratch"
    register_backend(name, lambda path=None, buffer_capacity=256:
                     SQLiteGraphStore(path=path or ":memory:"))
    yield name
    try:
        unregister_backend(name)
    except UnknownBackendError:
        pass


class TestRegistry:
    def test_default_backends_registered(self):
        assert "minidb" in available_backends()
        assert "sqlite" in available_backends()

    def test_create_store_instances(self):
        minidb = create_store("minidb")
        sqlite = create_store("sqlite")
        try:
            assert isinstance(minidb, MiniDBGraphStore)
            assert isinstance(sqlite, SQLiteGraphStore)
            assert isinstance(minidb, GraphStore)
        finally:
            minidb.close()
            sqlite.close()

    def test_backend_names_match_class_attribute(self):
        assert MiniDBGraphStore.backend_name == "minidb"
        assert SQLiteGraphStore.backend_name == "sqlite"

    def test_lookup_is_case_insensitive(self):
        assert backend_factory("MiniDB") is backend_factory("minidb")

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError):
            create_store("oracle")

    def test_unknown_backend_is_invalid_query_error(self):
        # Legacy callers guarded backend selection with InvalidQueryError.
        with pytest.raises(InvalidQueryError):
            backend_factory("oracle")

    def test_duplicate_registration_raises(self, scratch_backend):
        with pytest.raises(DuplicateBackendError):
            register_backend(scratch_backend, lambda **kwargs: None)

    def test_duplicate_registration_replace(self, scratch_backend):
        sentinel = lambda path=None, buffer_capacity=256: MiniDBGraphStore(
            buffer_capacity=buffer_capacity, path=path)
        register_backend(scratch_backend, sentinel, replace=True)
        assert backend_factory(scratch_backend) is sentinel

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownBackendError):
            unregister_backend("never-registered")

    def test_unregister_removes(self, scratch_backend):
        unregister_backend(scratch_backend)
        assert scratch_backend not in available_backends()

    def test_registered_backend_usable_by_service(self, scratch_backend):
        graph = path_graph(5, weight_range=(2, 2))
        with PathService() as service:
            service.add_graph("g", graph, backend=scratch_backend)
            assert isinstance(service.store("g"), SQLiteGraphStore)
            result = service.shortest_path(0, 4, graph="g", method="BDJ")
            assert result.distance == 8

    def test_store_module_reload_safe(self):
        # In a subprocess: importlib.reload rebinds the module's globals in
        # place, so running it here would poison this process's registry
        # with factories building fresh class objects.
        import subprocess
        import sys

        code = (
            "import importlib, repro.core.store.minidb as m, "
            "repro.core.store.sqlite as s; "
            "importlib.reload(m); importlib.reload(s); "  # must not raise
            "from repro.service import create_store; "
            "store = create_store('minidb'); store.close(); print('ok')"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout
