"""The resilience layer: end-to-end deadlines at every tier, admission
control with typed load sheds, seedable jittered backoff, and the
shutdown accounting on :class:`~repro.serve.ShardServer.close`.

Deadline-expiry coverage walks the stages a budget crosses: the spec
(validation), the planner/service (pool wait, FEM iteration checks,
batch siblings), and the serve wire (client-local expiry, server-side
raw-budget rejection, remaining-budget clamping, positional batch
errors over HTTP).  Backend-generic pieces run under the
``REPRO_TEST_BACKEND`` matrix via the ``test_backend`` fixture.
"""

import os
import threading
import time

import pytest

from repro.core.deadline import (
    check_deadline,
    deadline_from_timeout,
    expired,
    remaining_budget,
)
from repro.errors import (
    DeadlineExceededError,
    InvalidQueryError,
    ServerOverloadedError,
    ShardUnavailableError,
)
from repro.graph.generators import power_law_graph
from repro.serve import ShardClient, ShardServer
from repro.serve.client import BACKOFF_SECONDS
from repro.serve.server import SHUTDOWN_JOIN_TIMEOUT
from repro.serve.protocol import spec_to_dict
from repro.service import PathService
from repro.service.batch import execute_batch
from repro.service.planner import QuerySpec

GRAPH = power_law_graph(80, edges_per_node=2, seed=9)
TINY = 1e-9
"""A budget that is arithmetically positive but has always already
expired by the time anything checks it."""


# -- the deadline primitive ---------------------------------------------------


def test_deadline_helpers():
    assert deadline_from_timeout(None) is None
    assert remaining_budget(None) is None
    assert not expired(None)
    check_deadline(None, "never trips")

    deadline = deadline_from_timeout(60.0)
    assert remaining_budget(deadline) > 59.0
    assert not expired(deadline)
    check_deadline(deadline, "plenty left")

    past = deadline_from_timeout(TINY)
    assert remaining_budget(past) <= 0.0
    assert expired(past)
    with pytest.raises(DeadlineExceededError, match="before the F-step"):
        check_deadline(past, "the F-step")


def test_spec_rejects_non_positive_timeout():
    for bad in (0.0, -1.0):
        with pytest.raises(InvalidQueryError, match="timeout_s"):
            QuerySpec(source=0, target=1, graph="g", timeout_s=bad)
    spec = QuerySpec(source=0, target=1, graph="g", timeout_s=2.5)
    assert spec.timeout_s == 2.5


def test_timeout_survives_the_wire_encoding():
    spec = QuerySpec(source=0, target=5, graph="g", timeout_s=1.25)
    assert spec_to_dict(spec)["timeout_s"] == 1.25


# -- service tier: pool wait, FEM iterations, batch siblings ------------------


def _service(test_backend, tmp_path):
    service = PathService(default_backend=test_backend.name, cache_size=32)
    service.add_graph("g", GRAPH, backend=test_backend.name,
                      db_path=test_backend.make_path())
    return service


def test_expired_budget_raises_typed_error(test_backend, tmp_path):
    with _service(test_backend, tmp_path) as service:
        with pytest.raises(DeadlineExceededError):
            service.shortest_path(0, 33, graph="g", timeout_s=TINY)


def test_generous_budget_answers_normally(test_backend, tmp_path):
    with _service(test_backend, tmp_path) as service:
        unbudgeted = service.shortest_path(0, 33, graph="g")
        budgeted = service.shortest_path(0, 33, graph="g", timeout_s=60.0)
        assert budgeted.distance == unbudgeted.distance
        assert budgeted.path == unbudgeted.path


def test_budgeted_queries_bypass_the_result_cache(test_backend, tmp_path):
    with _service(test_backend, tmp_path) as service:
        service.shortest_path(0, 33, graph="g", timeout_s=60.0)
        before = service.cache_info().hits
        service.shortest_path(0, 33, graph="g", timeout_s=60.0)
        assert service.cache_info().hits == before, \
            "a budgeted repeat must not be a cache hit"


def test_deadline_counter_increments(test_backend, tmp_path):
    from repro.obs.schema import METRIC_DEADLINE_EXCEEDED
    with _service(test_backend, tmp_path) as service:
        with pytest.raises(DeadlineExceededError):
            service.shortest_path(0, 33, graph="g", timeout_s=TINY)
        rendered = service.registry.render_prometheus()
        assert METRIC_DEADLINE_EXCEEDED in rendered


def test_batch_sibling_expiry_is_positional(test_backend, tmp_path):
    with _service(test_backend, tmp_path) as service:
        batch = service.shortest_path_many(
            [("g", 0, 33),
             QuerySpec(source=0, target=21, graph="g", timeout_s=TINY),
             ("g", 0, 40)])
        assert batch.errors[0] is None and batch.errors[2] is None
        assert isinstance(batch.errors[1], DeadlineExceededError)
        assert batch.results[1] is None
        assert batch.results[0] is not None and batch.results[2] is not None
        assert batch.stats.deadline_exceeded == 1


def test_batch_default_timeout_applies_to_unbudgeted_specs(test_backend,
                                                           tmp_path):
    with _service(test_backend, tmp_path) as service:
        batch = service.shortest_path_many(
            [("g", 0, 33), ("g", 0, 40)],
            timeout_s=TINY)
        assert all(isinstance(error, DeadlineExceededError)
                   for error in batch.errors)
        assert batch.stats.deadline_exceeded == 2
        generous = service.shortest_path_many(
            [("g", 0, 33)], timeout_s=60.0)
        assert generous.errors == [None]


def test_explicit_spec_timeout_wins_over_batch_default(test_backend,
                                                       tmp_path):
    with _service(test_backend, tmp_path) as service:
        batch = service.shortest_path_many(
            [QuerySpec(source=0, target=33, graph="g", timeout_s=60.0),
             ("g", 0, 40)],
            timeout_s=TINY)
        assert batch.errors[0] is None, "its own generous budget wins"
        assert isinstance(batch.errors[1], DeadlineExceededError)


def test_pool_checkout_respects_the_deadline(test_backend, tmp_path):
    """With every store connection held, a budgeted query must give up
    within its budget (not hang for the full checkout timeout)."""
    with _service(test_backend, tmp_path) as service:
        pool = service._host("g").pool
        held = [pool.checkout()
                for _ in range(pool.stats().capacity)]
        try:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                service.shortest_path(0, 33, graph="g", timeout_s=0.05)
            assert time.monotonic() - started < 5.0, \
                "the pool wait must be clamped to the query budget"
        finally:
            for store in held:
                pool.checkin(store)


# -- serve wire tier ----------------------------------------------------------


def _seed_catalog(catalog_dir):
    with PathService(catalog_path=catalog_dir) as service:
        service.add_graph("g", GRAPH, backend="sqlite",
                          db_path=os.path.join(catalog_dir, "g.db"))


@pytest.fixture
def served(tmp_path):
    catalog = str(tmp_path / "cat")
    _seed_catalog(catalog)
    service = PathService.open(catalog, shard_id="srv")
    with ShardServer(service, port=0, own_service=True) as server:
        yield server


def test_client_raises_locally_on_expired_budget(served):
    client = ShardClient(served.url)
    with pytest.raises(DeadlineExceededError):
        client.shortest_path(
            QuerySpec(source=0, target=33, graph="g", timeout_s=TINY))


def test_server_rejects_expired_raw_budget(served):
    """A request whose wire budget is already <= 0 (impossible to build
    via QuerySpec, but any client can send it) is rejected with the
    typed error before planning."""
    client = ShardClient(served.url)
    body = {"spec": dict(spec_to_dict(
        QuerySpec(source=0, target=33, graph="g")), timeout_s=-0.5),
        "use_cache": True}
    with pytest.raises(DeadlineExceededError):
        client._request_once("/shortest_path", body)


def test_budgeted_query_over_the_wire_answers(served):
    client = ShardClient(served.url)
    spec = QuerySpec(source=0, target=33, graph="g")
    clean = client.shortest_path(spec)
    budgeted = client.shortest_path(
        QuerySpec(source=0, target=33, graph="g", timeout_s=60.0))
    assert budgeted.distance == clean.distance


def test_execute_wire_reports_positional_errors(served):
    client = ShardClient(served.url)
    results, from_cache, stats, errors = client.execute([
        QuerySpec(source=0, target=33, graph="g"),
        QuerySpec(source=0, target=21, graph="g", timeout_s=TINY),
    ])
    assert errors[0] is None
    assert isinstance(errors[1], DeadlineExceededError)
    assert results[0] is not None and results[1] is None
    assert stats.deadline_exceeded == 1


# -- admission control --------------------------------------------------------


def _overloaded_server(tmp_path, **kwargs):
    catalog = str(tmp_path / "adm")
    _seed_catalog(catalog)
    service = PathService.open(catalog, shard_id="adm")
    return ShardServer(service, port=0, own_service=True, **kwargs)


def test_admission_sheds_with_typed_retryable_error(tmp_path):
    with _overloaded_server(tmp_path, max_inflight=1, max_queue=0,
                            shed_retry_after=0.02) as server:
        release = threading.Event()
        entered = threading.Event()
        original = server._service.shortest_path

        def slow(*args, **kwargs):
            entered.set()
            release.wait(timeout=10.0)
            return original(*args, **kwargs)

        server._service.shortest_path = slow
        hog = threading.Thread(
            target=lambda: ShardClient(server.url).shortest_path(
                QuerySpec(source=0, target=33, graph="g")))
        hog.start()
        try:
            assert entered.wait(timeout=10.0)
            client = ShardClient(server.url, retries=0)
            with pytest.raises(ServerOverloadedError) as shed:
                client.shortest_path(QuerySpec(source=0, target=21,
                                               graph="g"))
            assert shed.value.retry_after is not None
            assert shed.value.retry_after >= 0.02
            # Non-query endpoints stay open under overload.
            assert client.health()["status"] == "ok"
            assert "repro_shed_total" in client.metrics_text()
        finally:
            release.set()
            hog.join(timeout=10.0)


def test_shed_is_retryable_and_retries_succeed(tmp_path):
    """The typed shed rides the retry machinery: once the hog finishes,
    a retrying client's later attempt is admitted."""
    with _overloaded_server(tmp_path, max_inflight=1, max_queue=0,
                            shed_retry_after=0.01) as server:
        release = threading.Event()
        entered = threading.Event()
        original = server._service.shortest_path

        def slow(*args, **kwargs):
            entered.set()
            release.wait(timeout=10.0)
            return original(*args, **kwargs)

        server._service.shortest_path = slow
        hog = threading.Thread(
            target=lambda: ShardClient(server.url).shortest_path(
                QuerySpec(source=0, target=33, graph="g")))
        hog.start()
        try:
            assert entered.wait(timeout=10.0)
            timer = threading.Timer(0.3, lambda: (
                release.set(),
                setattr(server._service, "shortest_path", original)))
            timer.start()
            result = ShardClient(server.url, retries=8).shortest_path(
                QuerySpec(source=0, target=21, graph="g"))
            assert result.distance is not None
            timer.cancel()
        finally:
            release.set()
            server._service.shortest_path = original
            hog.join(timeout=10.0)


def test_admission_queue_admits_when_capacity_frees(tmp_path):
    with _overloaded_server(tmp_path, max_inflight=2, max_queue=4) as server:
        client = ShardClient(server.url)
        results = [client.shortest_path(QuerySpec(source=0, target=t,
                                                  graph="g"))
                   for t in (21, 33, 40)]
        assert all(r.distance is not None for r in results)


# -- shutdown accounting ------------------------------------------------------


def test_close_reports_shutdown_stats(tmp_path):
    server = _overloaded_server(tmp_path)
    server.start()
    assert server.shutdown_stats is None
    server.close()
    stats = server.shutdown_stats
    assert stats is not None
    assert stats["thread_joined"] is True
    assert stats["join_timeout_s"] == SHUTDOWN_JOIN_TIMEOUT
    assert stats["join_seconds"] >= 0.0


# -- seedable jitter ----------------------------------------------------------


def test_backoff_jitter_is_seed_deterministic(served):
    a = ShardClient(served.url, backoff_seed=42)
    b = ShardClient(served.url, backoff_seed=42)
    c = ShardClient(served.url, backoff_seed=7)
    seq_a = [a._backoff_delay(n, None, None) for n in range(6)]
    seq_b = [b._backoff_delay(n, None, None) for n in range(6)]
    seq_c = [c._backoff_delay(n, None, None) for n in range(6)]
    assert seq_a == seq_b
    assert seq_a != seq_c
    for attempt, delay in enumerate(seq_a):
        assert 0.0 <= delay <= BACKOFF_SECONDS * (2 ** attempt)


def test_backoff_floors_at_retry_after_and_caps_at_budget(served):
    client = ShardClient(served.url, backoff_seed=1)
    assert client._backoff_delay(0, 0.5, None) >= 0.5
    deadline = deadline_from_timeout(0.01)
    assert client._backoff_delay(0, 0.5, deadline) <= 0.011


def test_router_cooldown_jitter_is_seed_deterministic(tmp_path):
    from repro.shard.router import ShardRouter
    catalog = str(tmp_path / "det")
    _seed_catalog(catalog)

    def cooldowns(seed):
        with ShardRouter.open([catalog], names=["only"],
                              cooldown_seed=seed) as router:
            values = []
            for _ in range(4):
                router._mark_failure("only", ShardUnavailableError("x"))
                values.append(router._health["only"].down_until
                              - time.monotonic())
            return values

    first, second, other = cooldowns(5), cooldowns(5), cooldowns(9)
    assert [round(v, 2) for v in first] == [round(v, 2) for v in second]
    assert [round(v, 2) for v in first] != [round(v, 2) for v in other]


# -- router tier --------------------------------------------------------------


def test_router_budget_bounds_failover(tmp_path):
    """With the only shard dead and an expired budget, the router raises
    the deadline error instead of shopping the query to the shard."""
    from repro.shard.router import ShardRouter
    catalog = str(tmp_path / "rt")
    _seed_catalog(catalog)
    with ShardRouter.open([catalog], names=["only"]) as router:
        result = router.shortest_path(0, 33, graph="g", timeout_s=60.0)
        assert result.distance is not None
        with pytest.raises(DeadlineExceededError):
            router.shortest_path(0, 33, graph="g", timeout_s=TINY)


def test_router_scatter_reports_positional_deadline_errors(tmp_path):
    from repro.shard.router import ShardRouter
    catalog = str(tmp_path / "sc")
    _seed_catalog(catalog)
    with ShardRouter.open([catalog], names=["only"]) as router:
        scatter = router.shortest_path_many(
            [("g", 0, 33),
             QuerySpec(source=0, target=21, graph="g", timeout_s=TINY)])
        assert scatter.errors[0] is None
        assert isinstance(scatter.errors[1], DeadlineExceededError)
        assert scatter.results[0] is not None
        assert scatter.results[1] is None


def test_breaker_states_follow_failures(tmp_path):
    from repro.shard.router import (
        BREAKER_CLOSED,
        BREAKER_OPEN,
        ShardRouter,
    )
    catalog = str(tmp_path / "brk")
    _seed_catalog(catalog)
    with ShardRouter.open([catalog], names=["only"]) as router:
        health = router._health["only"]
        assert health.breaker_state() == BREAKER_CLOSED
        router._mark_failure("only", ShardUnavailableError("boom"))
        assert health.breaker_state() == BREAKER_OPEN
        assert router.shard_health()["only"]["breaker"] == BREAKER_OPEN
        # Cooldown elapsed with the streak unbroken: half-open probe.
        health.down_until = time.monotonic() - 0.01
        assert health.breaker_state() == "half_open"
        router._mark_success("only")
        assert health.breaker_state() == BREAKER_CLOSED
        rendered = router.registry.render_prometheus()
        assert 'repro_breaker_state{shard="only"} 0' in rendered
