"""Chaos SLO gate — Zipf traffic under seeded fault injection (PR 10).

Not a figure from the paper: this gate replays the PR-7 traffic shape
through a two-replica topology (one shard behind an admission-limited
:class:`~repro.serve.ShardServer`, one identical-fingerprint in-process
replica) while a seeded :class:`~repro.faults.FaultPlan` attacks the
remote client seam and an overload chaos hook slams the server with
request bursts.  The system under test must absorb all of it with its
production machinery — jittered client retries, router failover,
circuit breaker, typed load sheds — and the gates are:

1. **zero wrong answers** under faults: every answer is still checked
   against the in-memory differential reference, across a startup
   blackout (every remote attempt fails until the budgeted fault count
   is spent — the router must fail over to the replica), intermittent
   drops, and injected latency;
2. **zero unabsorbed errors**: retries + failover must swallow every
   injected fault — the stream's error count stays 0 even though the
   fault plan verifiably fired (``report.faults["fired"] > 0``);
3. **typed sheds under overload**: the burst hook drives the
   admission-limited server past ``max_inflight``/``max_queue`` and
   must observe at least one :class:`~repro.errors.ServerOverloadedError`
   carrying a ``retry_after`` hint;
4. **bounded latency**: p95 stays under a deliberately generous ceiling
   even with the chaos running (only pathological regressions trip it);
5. the wreckage is **visible in the metrics**: the server's ``/metrics``
   scrape shows ``repro_shed_total``, the router's registry shows
   ``repro_breaker_state``, the shard-health snapshot records the
   blackout's transport failures — and the whole story (fault firing
   record included) lands in ``benchmarks/results/chaos_slo.json``.

Everything is seeded — traffic stream, fault plan, client backoff,
failover cooldown jitter — so a failing run replays identically.
"""

import json
import os
import threading

from repro.bench.harness import (
    RESULTS_DIR,
    format_table,
    paper_reference,
    scaled,
    write_report,
)
from repro.errors import ReproError, ServerOverloadedError
from repro.faults import (
    KIND_ERROR,
    FaultPlan,
    FaultSpec,
    install_client_faults,
    install_store_faults,
    slow,
    uninstall_faults,
)
from repro.graph.generators import power_law_graph
from repro.obs import MetricsRegistry
from repro.serve import ShardClient, ShardServer
from repro.service import PathService
from repro.service.planner import QuerySpec
from repro.shard import ShardRouter, ShardSpec
from repro.workload import SLO, TrafficConfig, TrafficGenerator, run_traffic

NUM_QUERIES = 600
"""Never scaled down: the gate's statement is about sustained chaos."""

LTHD = 3.0
P95_SLO_MS = 1000.0
"""Twice the clean-traffic ceiling: chaos inflates tails (retries,
backoff, failover round trips) by design, but boundedly."""

FAULT_SEED = 97
BACKOFF_SEED = 11
COOLDOWN_SEED = 23
BLACKOUT_ATTEMPTS = 3
"""Remote attempts that fail unconditionally at run start — exactly the
first query's transport budget (1 try + 2 retries), so query 0
deterministically fails over to the replica and trips the breaker open;
the budget is spent before the breaker's first re-probe, which then
re-closes it."""

BURST_EVERY = 150
BURST_THREADS = 8
"""Overload chaos: every ``BURST_EVERY`` queries, this many concurrent
zero-retry requests hit the admission-limited server at once."""

BURST_STATEMENT_DELAY_S = 0.002
"""Injected delay per store statement on the server's graph during a
burst.  Burst requests bypass the result cache, so each admitted one runs
a ~70-statement BSEG query and holds its admission slot for ~0.15 s — far
longer than the other requests take to arrive, so the sheds follow from
``max_inflight``/``max_queue`` rather than from thread timing."""

TRAFFIC = TrafficConfig(
    seed=777,
    zipf_s=1.1,
    hot_pairs=12,
    cold_fraction=0.15,
    kind_mix={"path": 0.6, "reachability": 0.25, "bounded_hop": 0.15},
    graph_weights={"social": 1.0},
    max_hops_range=(2, 5),
)


def _graphs():
    return {"social": power_law_graph(scaled(240), edges_per_node=2, seed=37)}


def _seed_catalog(catalog_path, graphs):
    with PathService(catalog_path=catalog_path, cache_size=0) as service:
        for name, graph in graphs.items():
            service.add_graph(
                name, graph, backend="sqlite",
                db_path=os.path.join(catalog_path, f"{name}.db"))
            service.build_segtable(name, lthd=LTHD)


def _fault_plan():
    """The seeded attack on the remote client seam: a startup blackout
    (every attempt fails until spent), then intermittent drops the
    retries must absorb, plus probabilistic injected latency."""
    return FaultPlan([
        FaultSpec(kind=KIND_ERROR, probability=1.0, times=BLACKOUT_ATTEMPTS,
                  match="client./shortest_path"),
        FaultSpec(kind=KIND_ERROR, probability=0.02, times=None,
                  match="client./shortest_path"),
        slow(0.002, probability=0.15, match="client."),
    ], seed=FAULT_SEED)


def _burst(server_url, server_store, shed_counter):
    """Slam the server with concurrent zero-retry, uncached queries while
    every statement on its store is slowed (see
    :data:`BURST_STATEMENT_DELAY_S`); count the typed sheds (anything
    else the burst provokes is ignored — the routed stream, not the
    burst, is what the SLO grades)."""
    barrier = threading.Barrier(BURST_THREADS)

    def one_shot():
        client = ShardClient(server_url, retries=0)
        barrier.wait()
        try:
            client.shortest_path(QuerySpec(source=0, target=1,
                                           graph="social"),
                                 use_cache=False)
        except ServerOverloadedError as exc:
            with shed_counter["lock"]:
                shed_counter["sheds"] += 1
                if exc.retry_after is not None:
                    shed_counter["hints"] += 1
        except ReproError:
            pass

    install_store_faults(server_store,
                         FaultPlan([slow(BURST_STATEMENT_DELAY_S)]))
    try:
        threads = [threading.Thread(target=one_shot)
                   for _ in range(BURST_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        uninstall_faults(server_store)


def run_experiment(tmp_dir):
    graphs = _graphs()
    primary_catalog = os.path.join(tmp_dir, "primary")
    replica_catalog = os.path.join(tmp_dir, "replica")
    _seed_catalog(primary_catalog, graphs)
    _seed_catalog(replica_catalog, graphs)

    primary_service = PathService.open(primary_catalog, shard_id="primary")
    server = ShardServer(primary_service, port=0, own_service=True,
                         max_inflight=2, max_queue=1,
                         shed_retry_after=0.01).start()
    remote_name = f"{server.host}:{server.port}"
    registry = MetricsRegistry()
    plan = _fault_plan()
    shed_counter = {"sheds": 0, "hints": 0, "lock": threading.Lock()}
    try:
        specs = [
            ShardSpec(name=remote_name, catalog_path=server.url,
                      service_options={"retries": 2,
                                       "backoff_seed": BACKOFF_SEED}),
            ShardSpec(name="replica", catalog_path=replica_catalog),
        ]
        scrapes = {}
        with ShardRouter.open(specs=specs, registry=registry,
                              cooldown_seed=COOLDOWN_SEED) as router:
            install_client_faults(router.transport(remote_name).client, plan)

            def chaos(index):
                if index == 1:
                    # Query 0 just burned the whole blackout budget and
                    # failed over: the breaker is open *right now* —
                    # scrape the trip while it is visible.
                    scrapes["router_blackout"] = \
                        router.registry.render_prometheus()
                if index and index % BURST_EVERY == 0:
                    _burst(server.url, primary_service.store("social"),
                           shed_counter)

            generator = TrafficGenerator(
                TRAFFIC, {"social": graphs["social"].nodes()})
            report = run_traffic(router, generator, NUM_QUERIES,
                                 reference=graphs, chaos=chaos,
                                 fault_plan=plan, registry=registry)
            health = router.shard_health()
            scrapes[remote_name] = ShardClient(server.url).metrics_text()
            scrapes["router"] = router.registry.render_prometheus()
    finally:
        server.close()

    slo = SLO(p95_ms=P95_SLO_MS, max_error_rate=0.0, max_wrong_answers=0)
    met = slo.apply(report)
    rows = [{
        "outcome": "answered", "count": report.total - report.errors,
    }, {
        "outcome": "injected faults fired", "count": report.faults["fired"],
    }, {
        "outcome": "remote transport failures", "count":
            health[remote_name]["errors"],
    }, {
        "outcome": "overload sheds (burst)", "count": shed_counter["sheds"],
    }, {
        "outcome": "wrong answers", "count": report.wrong_answers,
    }]
    return rows, report, met, remote_name, health, scrapes, shed_counter


def _write_json(report, met, remote_name, health, scrapes, shed_counter):
    payload = {
        "benchmark": "chaos_slo",
        "backend": "sqlite (admission-limited HTTP shard + local replica)",
        "num_queries": NUM_QUERIES,
        "lthd": LTHD,
        "shards": [remote_name, "replica"],
        "slo_met": met,
        "fault_seed": FAULT_SEED,
        "blackout_attempts": BLACKOUT_ATTEMPTS,
        "burst_sheds": shed_counter["sheds"],
        "burst_shed_hints": shed_counter["hints"],
        "shard_health": health,
        "metrics_scrapes": scrapes,
        **report.as_dict(),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "chaos_slo.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path, payload


def test_chaos_meets_slo(benchmark, tmp_path):
    rows, report, met, remote_name, health, scrapes, shed_counter = \
        benchmark.pedantic(
            run_experiment, args=(str(tmp_path),), rounds=1, iterations=1)
    _, payload = _write_json(report, met, remote_name, health, scrapes,
                             shed_counter)
    write_report(
        "chaos_slo",
        paper_reference(
            "Not in the paper — PR-10 chaos gate: faults, overload, SLO",
            [
                f"{NUM_QUERIES} Zipf queries (seed {TRAFFIC.seed}) against "
                f"a replicated pair, remote seam under seeded fault plan",
                f"Startup blackout of {BLACKOUT_ATTEMPTS} remote attempts "
                f"forces failover; intermittent drops absorbed by retries",
                f"Overload bursts ({BURST_THREADS} concurrent, every "
                f"{BURST_EVERY} queries) against max_inflight=2 admission",
                "Gates: zero wrong answers, zero unabsorbed errors, typed "
                "retryable sheds observed, p95 bounded, all visible in "
                "/metrics",
            ],
        ),
        format_table(rows, title=f"Reproduced ({NUM_QUERIES}-query chaos "
                                 f"run, outcome ledger)"),
    )
    # Gate 1+2: correctness and absorption — hard, runner-independent.
    assert payload["total"] == NUM_QUERIES
    assert payload["wrong_answers"] == 0, payload["wrong_samples"]
    assert payload["errors"] == 0, payload["error_samples"]
    assert payload["slo_met"], payload["slo"]["violations"]
    # The chaos verifiably happened: the blackout budget was fully spent
    # (query 0's three attempts, exactly), and the router recorded the
    # resulting transport failure as a real failover.
    assert payload["faults"]["per_spec"][0] == BLACKOUT_ATTEMPTS
    assert payload["faults"]["fired"] >= BLACKOUT_ATTEMPTS
    assert payload["shard_health"][remote_name]["errors"] >= 1, \
        "the blackout must surface as transport failures at the router"
    # Gate 3: overload chaos produced typed, hinted sheds.
    assert payload["burst_sheds"] > 0, "bursts never overloaded the server"
    assert payload["burst_shed_hints"] == payload["burst_sheds"], \
        "every shed must carry a retry_after hint"
    # Gate 5: the wreckage is scrape-visible — the sheds on the server's
    # /metrics, the breaker trip caught open (gauge 2) mid-blackout.
    assert "repro_shed_total" in payload["metrics_scrapes"][remote_name]
    assert "repro_breaker_state" in payload["metrics_scrapes"]["router"]
    blackout_scrape = payload["metrics_scrapes"]["router_blackout"]
    assert f'repro_breaker_state{{shard="{remote_name}"}} 2' \
        in blackout_scrape, "the breaker trip must be scrape-visible"
    for text in payload["metrics_scrapes"].values():
        assert "# TYPE" in text
