"""The traced pass: per-layer metrics, each measured from outside.

A layer is a module of ``repro``; its metric is a span (or a loop) around
a call into that module's public functions, made from this file.  A
metric of a layer the workload bypasses stays 0 — which is itself the
check that the bypass claimed in the README is real.  Times are medians
over the traced ops; counts are exact per-query means (they repeat
exactly for a given seed).
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.path import PathResult
from repro.core.segtable import build_segtable
from repro.core.stats import QueryStats
from repro.core.store import create_store
from repro.errors import PathNotFoundError
from repro.index.btree import BPlusTree
from repro.obs import now
from repro.serve import protocol
from repro.service import PathService, QuerySpec
from repro.service.cache import ResultCache
from repro.service.planner import RELATIONAL_METHODS
from repro.service.pool import StorePool

from benchmarks.ledger.ops import Op
from benchmarks.ledger.spans import (
    STORE_GROUPS,
    Span,
    SpanRecorder,
    children_of,
    duration_ms,
    instrument_store,
    self_ms,
)
from benchmarks.ledger.spec import LTHD
from benchmarks.ledger.workloads import (
    GRAPH,
    ColdWorkload,
    SegtableBuildSqlite,
    Workload,
    ZipfServedHttp,
    answer,
)

Metrics = Dict[str, float]
WRITE_PATH_REPEATS = 3
PROBE_CALLS = 200
BATCH_CHUNK = 10
AGING_OPS = 5


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def timed_ms(call: Callable[[], object]) -> float:
    start = now()
    call()
    return (now() - start) * 1000.0


def median_ms(call: Callable[[], object], calls: int = PROBE_CALLS) -> float:
    """Median wall time of ``call``, each call timed on its own."""
    return median(timed_ms(call) for _ in range(calls))


def per_call_us(call: Callable[[], object], batches: int = 15,
                per_batch: int = 200) -> float:
    """Median per-call time of a call too short to time singly."""
    samples = []
    for _ in range(batches):
        start = now()
        for _ in range(per_batch):
            call()
        samples.append((now() - start) / per_batch * 1e6)
    return median(samples)


def overhead_pct(traced_ms: Sequence[float],
                 untraced_ms: Sequence[float]) -> float:
    base = median(untraced_ms)
    return (median(traced_ms) / base - 1.0) * 100.0 if base else 0.0


# ---------------------------------------------------------------------------
# probes that need no workload: direct loops on standalone instances
# ---------------------------------------------------------------------------

def representative_result() -> PathResult:
    stats = QueryStats(method="BSEG", expansions=6, expansions_forward=3,
                       expansions_backward=3, statements=42,
                       affected_rows=180, visited_nodes=95, found=True,
                       distance=12.0, path_edges=8, total_time=0.011)
    stats.time_by_phase.update(PE=0.008, SC=0.002, FPR=0.001)
    stats.time_by_operator.update(F=0.002, E=0.005, M=0.002)
    return PathResult(source=1, target=9, distance=12.0,
                      path=list(range(1, 10)), stats=stats)


def standalone_probes() -> Metrics:
    out: Metrics = {}

    keys = list(range(10_000))
    random.Random(0).shuffle(keys)
    tree = BPlusTree()
    start = now()
    for key in keys:
        tree.insert(key, key)
    out["index.btree.insert_us"] = (now() - start) / len(keys) * 1e6
    start = now()
    for key in keys:
        tree.search(key)
    out["index.btree.search_us"] = (now() - start) / len(keys) * 1e6

    result = representative_result()
    cache = ResultCache(1024)
    cache_keys = [(GRAPH, node, node + 1, "BSEG", "nsql", "path", None, None)
                  for node in range(1024)]
    rounds = iter(range(1 << 30))
    out["service.cache.put_us"] = per_call_us(
        lambda: cache.put(cache_keys[next(rounds) % 1024], result))
    out["service.cache.get_us"] = per_call_us(
        lambda: cache.get(cache_keys[next(rounds) % 1024]))

    spec = QuerySpec(source=1, target=9, graph=GRAPH)
    out["serve.protocol.encode_us"] = per_call_us(lambda: (
        json.dumps({"spec": protocol.spec_to_dict(spec), "use_cache": True}),
        json.dumps({"result": protocol.result_to_dict(result)})))
    wire = json.dumps({"result": protocol.result_to_dict(result)})
    out["serve.protocol.decode_us"] = per_call_us(
        lambda: protocol.result_from_dict(json.loads(wire)["result"]))

    store = create_store("sqlite")
    pool = StorePool(store, lambda primary: create_store("sqlite"), size=1)
    try:
        def checkout() -> None:
            with pool.lease():
                pass
        out["service.pool.checkout_us"] = per_call_us(checkout)
    finally:
        pool.close()
    return out


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def store_group_metrics(spans: List[Span], parent_name: str) -> Metrics:
    """Per-``parent_name``-span totals of each ``store.<group>`` child:
    median ms and exact mean statement count, over the parents that
    returned their counts (a query that raised "no path" returns none)."""
    by_parent = children_of(spans)
    parents = [index for index, span in enumerate(spans)
               if span["name"] == parent_name and "statements" in span]
    out: Metrics = {}
    for group in STORE_GROUPS:
        per_parent = [[child for child in by_parent.get(index, ())
                       if child["name"] == group] for index in parents]
        out[f"{group}_ms"] = median(
            sum(duration_ms(child) for child in children)
            for children in per_parent)
        out[f"{group}_statements"] = mean(
            sum(child["statements"] for child in children)
            for children in per_parent)
    return out


def driver_metrics(spans: List[Span]) -> Metrics:
    by_parent = children_of(spans)
    drivers = [index for index, span in enumerate(spans)
               if span["name"] == "core.driver"]
    out = store_group_metrics(spans, "core.driver")
    out["core.driver_ms"] = median(duration_ms(spans[i]) for i in drivers)
    out["core.driver_self_ms"] = median(
        self_ms(i, spans, by_parent) for i in drivers)
    answered = [spans[i] for i in drivers if "statements" in spans[i]]
    for metric, field in (("core.expansions", "expansions"),
                          ("core.visited_nodes", "visited_nodes"),
                          ("store.statements", "statements"),
                          ("store.affected_rows", "affected_rows")):
        out[metric] = mean(span[field] for span in answered)
    return out


def run_driver(recorder: SpanRecorder, driver: Callable[..., PathResult],
               store: object, op: Op) -> Optional[float]:
    """One ``core.driver`` span: the FEM driver called directly on the
    service's own store, with its exact ``QueryStats`` counts attached."""
    database = getattr(store, "database", None)  # minidb only
    if database is not None:
        buffer = database.buffer_stats
        before = (buffer.hits, buffer.misses,
                  database.io_reads, database.io_writes)
    with recorder.span("core.driver") as span:
        try:
            result = driver(store, op.source, op.target)
        except PathNotFoundError:
            return None
        finally:
            if database is not None:
                span["buffer_hits"] = buffer.hits - before[0]
                span["buffer_misses"] = buffer.misses - before[1]
                span["io_reads"] = database.io_reads - before[2]
                span["io_writes"] = database.io_writes - before[3]
    stats = result.stats
    span.update(expansions=stats.expansions, statements=stats.statements,
                visited_nodes=stats.visited_nodes,
                affected_rows=stats.affected_rows)
    return result.distance


def rows_per_edge(store, graph) -> float:
    return sum(store.segment_counts().values()) / graph.num_edges


def write_path_metrics(recorder: SpanRecorder, backend: str, graph,
                       path_of: Callable[[int], Optional[str]],
                       lthd: Optional[float]) -> Metrics:
    """``GraphStore.load_graph`` on a fresh store (and, where the
    workload has an index, ``core.segtable.build_segtable`` on it)."""
    loads, builds, ratio = [], [], 0.0
    for repeat in range(WRITE_PATH_REPEATS):
        store = create_store(backend, path=path_of(repeat))
        try:
            with recorder.span("store.load_graph") as load:
                store.load_graph(graph)
            loads.append(duration_ms(load))
            if lthd is not None:
                with recorder.span("core.segtable.build") as build:
                    build_segtable(store, lthd)
                builds.append(duration_ms(build))
                ratio = rows_per_edge(store, graph)
        finally:
            store.close()
    return {"store.load_graph_ms": median(loads),
            "core.segtable.build_ms": median(builds),
            "core.segtable.rows_per_edge": ratio}


def verify(result, op: Op, want: Optional[float],
           got: Optional[float], where: str) -> None:
    if got != want:
        result.fail(f"traced op {op.op_id} ({where}) {op.graph} "
                    f"{op.source}->{op.target}: expected {want}, got {got}")


# ---------------------------------------------------------------------------
# cold_* workloads
# ---------------------------------------------------------------------------

def trace_cold(workload: ColdWorkload, recorder: SpanRecorder,
               result) -> Metrics:
    service = workload.service
    store = service.store(GRAPH)
    driver = RELATIONAL_METHODS[workload.method]
    count = workload.sizes.traced_ops
    ops, expected = workload.ops[:count], workload.expected[:count]
    out: Metrics = {}

    if workload.backend == "dbapi":
        # One cheap statement over the wire = the per-statement floor.
        out["store.dbapi.roundtrip_us"] = 1000.0 * median_ms(
            store.visited_count)

    def replay_ms(sample: Sequence[Op]) -> float:
        return sum(timed_ms(lambda: workload.execute(op)) for op in sample)

    young_ms = replay_ms(ops[:AGING_OPS])

    def session_step(op: Op) -> Optional[float]:
        with recorder.span("service.session"):
            return answer(service.shortest_path, op.source, op.target,
                          graph=GRAPH, method=workload.method,
                          use_cache=False)

    def driver_step(op: Op) -> Optional[float]:
        return run_driver(recorder, driver, store, op)

    # Per op: the untraced call, then the two traced ones.  Interleaving
    # (instead of an untraced pass followed by a traced pass) keeps the
    # three series at the same store age, which matters on minidb, whose
    # latency grows with the number of queries a store has answered.
    untraced_ms: List[float] = []
    for position, (op, want) in enumerate(zip(ops, expected)):
        result.attempted += 1
        untraced_ms.append(timed_ms(lambda: workload.execute(op)))
        recorder.op = op.op_id
        # Alternate which traced call goes first, so neither always runs
        # on the pages the other just touched.
        steps = [driver_step, session_step]
        if position % 2:
            steps.reverse()
        uninstall = instrument_store(store, recorder)
        try:
            for step in steps:
                verify(result, op, want, step(op), step.__name__)
        finally:
            uninstall()
            recorder.op = None

    spans = recorder.spans
    out.update(driver_metrics(spans))
    sessions = [duration_ms(s) for s in spans if s["name"] == "service.session"]
    drivers = [s for s in spans if s["name"] == "core.driver"]
    out["service.session.overhead_ms"] = median(
        session - duration_ms(direct)
        for session, direct in zip(sessions, drivers))
    out["obs.trace_overhead_pct"] = overhead_pct(sessions, untraced_ms)
    if drivers and "buffer_hits" in drivers[0]:
        hits = sum(s["buffer_hits"] for s in drivers)
        misses = sum(s["buffer_misses"] for s in drivers)
        out["storage.buffer_hit_ratio"] = hits / max(hits + misses, 1)
        out["storage.io_reads"] = mean(s["io_reads"] for s in drivers)
        out["storage.io_writes"] = mean(s["io_writes"] for s in drivers)

    out.update(batch_metrics(workload, ops, expected, result))
    # The same few ops again, now that the store has answered a few
    # hundred queries: how much slower has it become?
    out["store.aging_slowdown"] = replay_ms(ops[:AGING_OPS]) / young_ms

    out.update(write_path_metrics(recorder, workload.backend, workload.graph,
                                  workload.probe_path, workload.lthd))
    return out


def batch_metrics(workload: ColdWorkload, ops: Sequence[Op],
                  expected: Sequence[Optional[float]], result) -> Metrics:
    """``shortest_path_many`` (concurrency 1) beside single calls for the
    same ops, in alternating chunks so both see the same store age."""
    batch_s = single_s = 0.0
    for chunk_index, first in enumerate(range(0, len(ops), BATCH_CHUNK)):
        chunk = ops[first:first + BATCH_CHUNK]
        want = expected[first:first + BATCH_CHUNK]

        def batched() -> float:
            start = now()
            batch = workload.service.shortest_path_many(
                [(op.source, op.target) for op in chunk], graph=GRAPH,
                method=workload.method)
            took = now() - start
            for op, wanted, got in zip(chunk, want, batch.distances()):
                verify(result, op, wanted, got, "batch")
            return took

        def singly() -> float:
            start = now()
            for op in chunk:
                workload.execute(op)
            return now() - start

        if chunk_index % 2:
            batch_s += batched()
            single_s += singly()
        else:
            single_s += singly()
            batch_s += batched()
    return {"service.batch.per_query_ms": batch_s * 1000.0 / len(ops),
            "service.batch.single_query_ms": single_s * 1000.0 / len(ops)}


# ---------------------------------------------------------------------------
# segtable_build_sqlite
# ---------------------------------------------------------------------------

def trace_build(workload: SegtableBuildSqlite, recorder: SpanRecorder,
                result) -> Metrics:
    ops = workload.ops[:workload.sizes.traced_ops]

    def direct_build(op: Op, spans: SpanRecorder, instrument: bool) -> Span:
        """The op's two layer calls made directly: ``load_graph`` on a
        fresh store, then ``build_segtable`` on it; returns the build
        span."""
        path = str(workload.db_path(op))
        with spans.span("op"):
            store = create_store("sqlite", path=path)
            try:
                with spans.span("store.load_graph"):
                    store.load_graph(workload.graph)
                if instrument:
                    instrument_store(store, spans)
                with spans.span("core.segtable.build") as build:
                    stats = build_segtable(store, LTHD)
                build["statements"] = stats.statements
                build["rows_per_edge"] = rows_per_edge(store, workload.graph)
            finally:
                store.close()
        os.unlink(path)
        return build

    untraced_ms, traced_ms = [], []
    for op in ops:
        result.attempted += 1
        workload.before(op)
        untraced_ms.append(duration_ms(
            direct_build(op, SpanRecorder(), instrument=False)))
        recorder.op = op.op_id
        build = direct_build(op, recorder, instrument=True)
        traced_ms.append(duration_ms(build))
        if build["rows_per_edge"] <= 0:
            result.fail(f"traced op {op.op_id}: no segments stored")
    recorder.op = None

    spans = recorder.spans
    builds = [s for s in spans if s["name"] == "core.segtable.build"]
    out = store_group_metrics(spans, "core.segtable.build")
    out["core.segtable.build_ms"] = median(duration_ms(s) for s in builds)
    out["core.segtable.rows_per_edge"] = mean(
        s["rows_per_edge"] for s in builds)
    out["store.statements"] = mean(s["statements"] for s in builds)
    out["store.load_graph_ms"] = median(
        duration_ms(s) for s in spans if s["name"] == "store.load_graph")
    out["obs.trace_overhead_pct"] = overhead_pct(traced_ms, untraced_ms)
    return out


# ---------------------------------------------------------------------------
# zipf_served_http
# ---------------------------------------------------------------------------

_PROM_SAMPLE = re.compile(r"^(\w+)(?:\{[^}]*\})? (\S+)$", re.MULTILINE)


def prometheus_total(text: str, metric: str) -> float:
    """Sum of every label set of ``metric`` in a ``/metrics`` scrape."""
    return sum(float(value) for name, value in _PROM_SAMPLE.findall(text)
               if name == metric)


def trace_served(workload: ZipfServedHttp, recorder: SpanRecorder,
                 result) -> Metrics:
    count = workload.sizes.traced_ops
    ops, expected = workload.ops[:count], workload.expected[:count]
    out: Metrics = {}

    # Untraced reference over the same ops, then a from-scratch set-up so
    # the traced replay meets the same cold caches the timed run did.
    untraced_ms = [timed_ms(lambda: workload.execute(op)) for op in ops]
    workload.tear_down()
    workload.set_up()

    router = workload.router
    local = router.service(workload.local_shard)
    local_store = local.store("roads")
    client = router.transport(workload.remote_shard).client

    with recorder.span("catalog.attach") as attach:
        second = PathService.open(str(workload.local_catalog))
    second.close()
    out["catalog.attach_ms"] = duration_ms(attach)

    # The client's single-attempt primitive is the seam
    # repro.faults.inject.install_client_faults uses; attempts beyond one
    # per routed query are retries.
    attempts = [0]
    request_once = client._request_once

    def traced_request(*args, **kwargs):
        attempts[0] += 1
        with recorder.span("serve.client"):
            return request_once(*args, **kwargs)

    client._request_once = traced_request
    uninstall = instrument_store(local_store, recorder)
    methods: Dict[str, int] = {}
    traced_ms: List[float] = []
    primed: Dict[str, Op] = {}
    try:
        for op, want in zip(ops, expected):
            result.attempted += 1
            recorder.op = op.op_id
            got = None
            with recorder.span("shard.router") as routed:
                try:
                    answered = router.shortest_path(
                        op.source, op.target, graph=op.graph, kind=op.kind,
                        max_hops=op.max_hops)
                except PathNotFoundError:
                    answered = None
            traced_ms.append(duration_ms(routed))
            if answered is not None:
                got = answered.distance
                method = answered.stats.method if answered.stats else "none"
                methods[method] = methods.get(method, 0) + 1
                if op.kind == "path":
                    primed.setdefault(op.graph, op)
            verify(result, op, want, got, "router")
    finally:
        uninstall()
        del client._request_once
        recorder.op = None

    remote_ops = sum(1 for op in ops
                     if router.owner(op.graph) == workload.remote_shard)
    out["serve.client.retries"] = float(max(0, attempts[0] - remote_ops))
    answered_total = max(sum(methods.values()), 1)
    for method, seen in methods.items():
        out[f"planner.method_share.{method}"] = seen / answered_total
    out["obs.trace_overhead_pct"] = overhead_pct(traced_ms, untraced_ms)

    caches = [local.cache_info().as_dict(), client.stats()["cache"]]
    served = sum(c["hits"] + c["negative_hits"] for c in caches)
    lookups = sum(c["hits"] + c["misses"] for c in caches)
    out["service.cache.hit_ratio"] = served / max(lookups, 1)
    scrape = client.metrics_text()
    out["serve.server.requests"] = prometheus_total(
        scrape, "repro_http_requests_total")
    out["serve.server.shed"] = prometheus_total(scrape, "repro_shed_total")

    # Direct driver calls on the in-process shard's own store, for the
    # cold (first-seen) weighted pairs of its graph.
    cold_local = list({(op.source, op.target): (op, want)
                       for op, want in zip(ops, expected)
                       if op.graph == "roads" and op.kind == "path"
                       }.values())[:40]
    uninstall = instrument_store(local_store, recorder)
    try:
        for op, want in cold_local:
            recorder.op = op.op_id
            verify(result, op, want,
                   run_driver(recorder, RELATIONAL_METHODS["BSEG"],
                              local_store, op), "driver")
    finally:
        uninstall()
        recorder.op = None
    out.update(driver_metrics(recorder.spans))

    # Hit-path costs, each on a key the replay primed.
    hot_local, hot_remote = primed.get("roads"), primed.get("social")
    if hot_local is not None:
        pair = (hot_local.source, hot_local.target)
        local_spec = QuerySpec(*pair, graph="roads")
        out["service.planner.plan_us"] = per_call_us(
            lambda: local.plan(local_spec), per_batch=50)
        session_hit = median_ms(
            lambda: local.shortest_path(*pair, graph="roads"))
        router_hit = median_ms(
            lambda: router.shortest_path(*pair, graph="roads"))
        out["service.session.hit_ms"] = session_hit
        out["shard.router.overhead_ms"] = router_hit - session_hit
    out["serve.client.roundtrip_ms"] = median_ms(client.health)
    if hot_remote is not None and hot_local is not None:
        remote_spec = QuerySpec(hot_remote.source, hot_remote.target,
                                graph="social")
        out["serve.client.hit_ms"] = median_ms(
            lambda: client.shortest_path(remote_spec))
        out["serve.wire_overhead_ms"] = (
            out["serve.client.hit_ms"] - out["service.session.hit_ms"])
    return out


def trace(workload: Workload, recorder: SpanRecorder, result) -> Metrics:
    """Replay the workload's first K ops under spans; returns the
    per-layer metrics it could measure (the rest stay 0)."""
    out = standalone_probes()
    if isinstance(workload, ColdWorkload):
        out.update(trace_cold(workload, recorder, result))
    elif isinstance(workload, SegtableBuildSqlite):
        out.update(trace_build(workload, recorder, result))
    elif isinstance(workload, ZipfServedHttp):
        out.update(trace_served(workload, recorder, result))
    return out
