"""Deterministic fault injection: plan semantics, the three seam
installers, and the wire-garbage regression on the fallback DB-API
server (every way a peer can hand the client garbage must normalize to
``InterfaceError``, which the generic DB-API store maps to
:class:`~repro.errors.BackendConnectionError`)."""

import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    BackendConnectionError,
    InvalidQueryError,
    ShardUnavailableError,
)
from repro.faults import (
    KIND_ERROR,
    KIND_LATENCY,
    STORE_STATEMENT_METHODS,
    FaultPlan,
    FaultSpec,
    drop_at,
    flaky,
    install_client_faults,
    install_connection_faults,
    install_store_faults,
    slow,
    uninstall_faults,
)
from repro.graph.generators import power_law_graph
from repro.service import PathService

GRAPH = power_law_graph(50, edges_per_node=2, seed=3)


# -- FaultSpec / FaultPlan semantics ------------------------------------------


class TestFaultSpec:
    def test_helpers_build_the_right_kinds(self):
        assert drop_at(3).kind == KIND_ERROR
        assert drop_at(3).at_op == 3
        assert flaky(2).times == 2
        assert flaky(2, probability=0.5).probability == 0.5
        assert slow(0.01).kind == KIND_LATENCY
        assert slow(0.01).times is None

    @pytest.mark.parametrize("bad", [
        dict(kind="panic"),
        dict(at_op=0),
        dict(probability=1.5),
        dict(probability=-0.1),
        dict(times=0),
        dict(latency_s=-1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(InvalidQueryError):
            FaultSpec(**bad)


class TestFaultPlan:
    def test_seeded_plans_replay_identically(self):
        def schedule(seed):
            plan = FaultPlan([FaultSpec(probability=0.3, times=None)],
                             seed=seed)
            for _ in range(100):
                plan.before("op")
            return plan.log

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_at_op_counts_eligible_ops_only(self):
        plan = FaultPlan([drop_at(1, match="iterate")], seed=0)
        assert plan.before("store.reset_visited") is None
        assert plan.before("store.insert_visited") is None
        fired = plan.before("store.iterate")
        assert fired is not None and fired.kind == KIND_ERROR
        assert plan.before("store.iterate") is None, "at_op fires once"

    def test_times_bounds_firing_then_recovers(self):
        plan = FaultPlan([flaky(2)], seed=0)
        outcomes = [plan.before("op") is not None for _ in range(5)]
        assert outcomes == [True, True, False, False, False]
        assert plan.fired == 2
        assert plan.ops == 5

    def test_latency_fault_sleeps(self):
        plan = FaultPlan([slow(0.05)], seed=0)
        started = time.monotonic()
        assert plan.before("op") is None, "latency faults do not raise"
        assert time.monotonic() - started >= 0.045
        assert plan.fired == 1

    def test_as_dict_summarizes(self):
        plan = FaultPlan([flaky(1), slow(0.0)], seed=0)
        plan.before("op")
        summary = plan.as_dict()
        assert summary["ops"] == 1
        assert summary["fired"] == 2
        assert summary["per_spec"] == [1, 1]


# -- the store seam (backend-generic) -----------------------------------------


class TestStoreSeam:
    def test_drop_mid_fem_raises_typed_error(self, test_backend):
        with PathService(default_backend=test_backend.name,
                         cache_size=0) as service:
            service.add_graph("g", GRAPH, backend=test_backend.name,
                              db_path=test_backend.make_path())
            store = service.store("g")
            # Calls 1 and 2 set TVisited up; call 4 is the second FEM
            # iteration.
            install_store_faults(store, FaultPlan([drop_at(4)], seed=0))
            with pytest.raises(BackendConnectionError, match="injected"):
                service.shortest_path(0, 23, graph="g")
            uninstall_faults(store)
            result = service.shortest_path(0, 23, graph="g")
            assert result.distance is not None

    def test_match_targets_one_statement(self, test_backend):
        with PathService(default_backend=test_backend.name,
                         cache_size=0) as service:
            service.add_graph("g", GRAPH, backend=test_backend.name,
                              db_path=test_backend.make_path())
            store = service.store("g")
            install_store_faults(
                store, FaultPlan([drop_at(1, match="iterate")], seed=0))
            with pytest.raises(BackendConnectionError, match="iterate"):
                service.shortest_path(0, 23, graph="g")

    def test_flaky_store_recovers(self, test_backend):
        with PathService(default_backend=test_backend.name,
                         cache_size=0) as service:
            service.add_graph("g", GRAPH, backend=test_backend.name,
                              db_path=test_backend.make_path())
            plan = FaultPlan([flaky(1)], seed=0)
            install_store_faults(service.store("g"), plan)
            with pytest.raises(BackendConnectionError):
                service.shortest_path(0, 23, graph="g")
            result = service.shortest_path(0, 23, graph="g")
            assert result.distance is not None
            assert plan.fired == 1

    def test_statement_surface_matches_the_abc(self):
        from repro.core.store.base import GraphStore
        for name in STORE_STATEMENT_METHODS:
            assert callable(getattr(GraphStore, name, None)), \
                f"{name} is not a GraphStore method"


# -- the client seam ----------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    import os
    from repro.serve import ShardServer
    catalog = str(tmp_path / "cat")
    with PathService(catalog_path=catalog) as seeder:
        seeder.add_graph("g", GRAPH, backend="sqlite",
                         db_path=os.path.join(catalog, "g.db"))
    service = PathService.open(catalog, shard_id="srv")
    with ShardServer(service, port=0, own_service=True) as server:
        yield server


class TestClientSeam:
    def test_retries_absorb_flaky_faults(self, served):
        from repro.serve import ShardClient
        from repro.service.planner import QuerySpec
        client = ShardClient(served.url, retries=3, backoff_seed=1)
        plan = FaultPlan([flaky(2)], seed=0)
        install_client_faults(client, plan)
        result = client.shortest_path(QuerySpec(source=0, target=23,
                                                graph="g"))
        assert result.distance is not None
        assert plan.fired == 2

    def test_exhausted_retries_surface_the_typed_error(self, served):
        from repro.serve import ShardClient
        from repro.service.planner import QuerySpec
        client = ShardClient(served.url, retries=1, backoff_seed=1)
        install_client_faults(client, FaultPlan([flaky(99)], seed=0))
        with pytest.raises(ShardUnavailableError, match="injected"):
            client.shortest_path(QuerySpec(source=0, target=23, graph="g"))
        uninstall_faults(client)
        result = client.shortest_path(QuerySpec(source=0, target=23,
                                                graph="g"))
        assert result.distance is not None


# -- the fallback wire seam + garbage regression ------------------------------


class TestFallbackSeam:
    def test_injected_drop_severs_the_connection(self):
        from repro.store.fallback_server import (
            FallbackConnection,
            InterfaceError,
            serve_in_thread,
        )
        from urllib.parse import urlsplit
        handle = serve_in_thread()
        try:
            parts = urlsplit(handle.dsn.replace("fallback://", "http://"))
            conn = FallbackConnection(parts.hostname, parts.port)
            install_connection_faults(conn, FaultPlan([drop_at(2)], seed=0))
            cursor = conn.cursor()
            cursor.execute("CREATE TABLE chaos_t (a INTEGER)")
            with pytest.raises(InterfaceError, match="injected"):
                cursor.execute("INSERT INTO chaos_t VALUES (1)")
            with pytest.raises(InterfaceError):
                conn.cursor().execute("SELECT 1")  # severed for real
        finally:
            handle.close()


def _garbage_server(frames):
    """A TCP server that answers every connection's hello with the given
    raw byte strings, then closes.  Returns ``(host, port, closer)``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    host, port = listener.getsockname()
    done = threading.Event()

    def serve():
        while not done.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                for frame in frames:
                    try:
                        conn.sendall(frame)
                    except OSError:
                        break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    def closer():
        done.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the join below returns at once.
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        listener.close()
        thread.join(timeout=5.0)

    return host, port, closer


def _framed(payload):
    return struct.pack(">I", len(payload)) + payload


class TestWireGarbageRegression:
    """Satellite regression: garbled wire bytes must surface as the
    DB-API ``InterfaceError`` (mapped to ``BackendConnectionError`` by
    the generic store), never as a leaked ``UnicodeDecodeError`` /
    ``JSONDecodeError`` / ``struct.error``."""

    def _connect_expecting_interface_error(self, frames):
        from repro.store.fallback_server import (
            FallbackConnection,
            InterfaceError,
        )
        host, port, closer = _garbage_server(frames)
        try:
            with pytest.raises(InterfaceError):
                FallbackConnection(host, port, timeout=5.0)
        finally:
            closer()

    def test_invalid_utf8_hello(self):
        self._connect_expecting_interface_error(
            [_framed(b"\xff\xfe\xfd\xfc")])

    def test_malformed_json_hello(self):
        self._connect_expecting_interface_error(
            [_framed(b"{not json at all")])

    def test_truncated_header_then_close(self):
        self._connect_expecting_interface_error([b"\x00\x00"])

    def test_mid_frame_disconnect(self):
        # Header promises 100 bytes; only 10 arrive before the close.
        self._connect_expecting_interface_error(
            [struct.pack(">I", 100) + b"0123456789"])

    def test_dbapi_store_maps_garbage_to_backend_connection_error(
            self, fresh_dsn):
        """End to end through the generic DB-API store: a connection
        severed mid-query surfaces as ``BackendConnectionError``."""
        with PathService(default_backend="dbapi", cache_size=0) as service:
            service.add_graph("g", GRAPH, backend="dbapi",
                              db_path=fresh_dsn())
            store = service.store("g")
            # Sever the store's live wire connection out from under it.
            store.connection._sock.close()
            with pytest.raises(BackendConnectionError):
                service.shortest_path(0, 23, graph="g")


# -- uninstall ----------------------------------------------------------------


def test_uninstall_is_safe_on_clean_objects():
    class Thing:
        pass

    uninstall_faults(Thing())  # no installer ever touched it: no-op


def test_stacked_installs_unwind_in_reverse():
    class Probe:
        def ping(self):
            return "real"

    probe = Probe()
    install_store_faults(probe, FaultPlan([flaky(99)], seed=0),
                         methods=("ping",))
    install_store_faults(probe, FaultPlan([], seed=0), methods=("ping",))
    with pytest.raises(BackendConnectionError):
        probe.ping()
    uninstall_faults(probe)
    assert probe.ping() == "real"
