"""Per-query and per-construction statistics.

The paper's evaluation reports, for every method: wall-clock time, the
number of expansions ("Exps" in Tables 2 and 3), the number of visited nodes
("Vst" in Table 3), time broken down by phase (path expansion, statistics
collection, full path recovery — Figure 6(b)), time broken down by operator
(F / E / M — Figure 6(c)), and index size / construction time for the
SegTable (Figure 9).  :class:`QueryStats` and :class:`SegTableBuildStats`
collect exactly those quantities.
"""

from __future__ import annotations

import threading

from repro.obs import now as _now
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

# Phase labels (Figure 6(b)).
PHASE_PATH_EXPANSION = "PE"
PHASE_STATISTICS = "SC"
PHASE_PATH_RECOVERY = "FPR"

# Operator labels (Figure 6(c)).
OPERATOR_F = "F"
OPERATOR_E = "E"
OPERATOR_M = "M"


@dataclass
class QueryStats:
    """Counters collected while answering one shortest-path query."""

    method: str = ""
    sql_style: str = "nsql"
    expansions: int = 0
    expansions_forward: int = 0
    expansions_backward: int = 0
    statements: int = 0
    affected_rows: int = 0
    visited_nodes: int = 0
    found: bool = False
    distance: Optional[float] = None
    path_edges: int = 0
    total_time: float = 0.0
    time_by_phase: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    time_by_operator: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    buffer_hits: int = 0
    buffer_misses: int = 0
    io_reads: int = 0
    io_writes: int = 0

    def record_statement(self) -> None:
        """Count one SQL statement issued against the store."""
        self.statements += 1

    def record_expansion(self, forward: bool) -> None:
        """Count one expansion (one execution of the combined F/E/M step)."""
        self.expansions += 1
        if forward:
            self.expansions_forward += 1
        else:
            self.expansions_backward += 1

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute the wall-clock time of the block to phase ``label``."""
        start = _now()
        try:
            yield
        finally:
            self.time_by_phase[label] += _now() - start

    @contextmanager
    def operator(self, label: str) -> Iterator[None]:
        """Attribute the wall-clock time of the block to operator ``label``."""
        start = _now()
        try:
            yield
        finally:
            self.time_by_operator[label] += _now() - start

    def as_dict(self) -> Dict[str, object]:
        """Return a plain-dict summary (used by the benchmark reports)."""
        return {
            "method": self.method,
            "sql_style": self.sql_style,
            "expansions": self.expansions,
            "expansions_forward": self.expansions_forward,
            "expansions_backward": self.expansions_backward,
            "statements": self.statements,
            "affected_rows": self.affected_rows,
            "visited_nodes": self.visited_nodes,
            "found": self.found,
            "distance": self.distance,
            "path_edges": self.path_edges,
            "total_time": self.total_time,
            "time_by_phase": dict(self.time_by_phase),
            "time_by_operator": dict(self.time_by_operator),
            "buffer_hits": self.buffer_hits,
            "buffer_misses": self.buffer_misses,
            "io_reads": self.io_reads,
            "io_writes": self.io_writes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QueryStats":
        """Rebuild from :meth:`as_dict` output (the serve wire protocol
        ships query statistics across processes, so remote results report
        the same per-phase/per-operator breakdowns as local ones)."""
        stats = cls(
            method=str(data.get("method", "")),
            sql_style=str(data.get("sql_style", "nsql")),
            expansions=int(data.get("expansions", 0)),
            expansions_forward=int(data.get("expansions_forward", 0)),
            expansions_backward=int(data.get("expansions_backward", 0)),
            statements=int(data.get("statements", 0)),
            affected_rows=int(data.get("affected_rows", 0)),
            visited_nodes=int(data.get("visited_nodes", 0)),
            found=bool(data.get("found", False)),
            path_edges=int(data.get("path_edges", 0)),
            total_time=float(data.get("total_time", 0.0)),
            buffer_hits=int(data.get("buffer_hits", 0)),
            buffer_misses=int(data.get("buffer_misses", 0)),
            io_reads=int(data.get("io_reads", 0)),
            io_writes=int(data.get("io_writes", 0)),
        )
        distance = data.get("distance")
        stats.distance = None if distance is None else float(distance)
        for label, seconds in dict(data.get("time_by_phase", {})).items():
            stats.time_by_phase[str(label)] = float(seconds)
        for label, seconds in dict(data.get("time_by_operator", {})).items():
            stats.time_by_operator[str(label)] = float(seconds)
        return stats


@dataclass
class BatchStats:
    """Aggregate counters for one :meth:`PathService.shortest_path_many` call.

    Attributes:
        total: number of queries in the batch.
        executed: queries actually run against a store or in memory —
            cache misses, uncacheable queries, and unreachable pairs
            (which still run a full search).
        cache_hits: queries answered from the shared result cache.
        cache_misses: queries that had to execute and were then cached.
        not_found: queries whose endpoints are not connected.
        negative_hits: unreachable verdicts answered from the negative
            result cache instead of re-running the full bidirectional
            fixpoint (each also counts toward ``not_found``).
        evictions: entries the shared result cache evicted during this
            batch, for any reason — LRU capacity, TTL expiry, or the
            memory-footprint bound.
        total_time: wall-clock seconds for the whole batch.
        per_graph: graph name -> number of queries routed to it.
        per_method: resolved method name -> number of queries.
        concurrency: worker threads the batch ran with (``1`` = serial).
        single_flight_hits: duplicate batch members answered by replaying
            their first occurrence's outcome instead of executing (with
            the result cache off; otherwise the cache answers them).
        queue_time: summed seconds queries spent waiting for a pooled
            store connection (can exceed ``total_time`` across workers).
        execute_time: summed seconds queries spent actually executing
            (can exceed ``total_time`` across workers).
        deadline_exceeded: queries whose ``timeout_s`` budget ran out
            mid-batch; each is reported positionally in
            ``BatchResult.errors`` without failing its siblings.
    """

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    not_found: int = 0
    negative_hits: int = 0
    evictions: int = 0
    total_time: float = 0.0
    per_graph: Dict[str, int] = field(default_factory=dict)
    per_method: Dict[str, int] = field(default_factory=dict)
    concurrency: int = 1
    single_flight_hits: int = 0
    queue_time: float = 0.0
    execute_time: float = 0.0
    deadline_exceeded: int = 0

    _lock = threading.Lock()  # unannotated: a class attribute, not a field

    @property
    def hit_rate(self) -> float:
        """Fraction of the batch served from the result cache."""
        return self.cache_hits / self.total if self.total else 0.0

    def add(self, **counts: float) -> None:
        """Bump the named counters atomically — parallel batch workers
        all count into one object."""
        with self._lock:
            for name, delta in counts.items():
                setattr(self, name, getattr(self, name) + delta)

    def merge(self, other: "BatchStats") -> "BatchStats":
        """Fold ``other``'s counters into this object (and return it).

        Used by the shard router to roll per-shard batch statistics into
        one aggregate: counts and per-graph/per-method maps add up;
        ``queue_time`` / ``execute_time`` sum (they are already summed
        across workers, so across shards they stay "total seconds of
        work"); ``total_time`` also sums and therefore reads as *serial*
        seconds — the router reports the scatter-gather wall clock
        separately; ``concurrency`` takes the maximum, the widest pool any
        shard ran with.
        """
        self.total += other.total
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.not_found += other.not_found
        self.negative_hits += other.negative_hits
        self.evictions += other.evictions
        self.total_time += other.total_time
        self.single_flight_hits += other.single_flight_hits
        self.queue_time += other.queue_time
        self.execute_time += other.execute_time
        self.deadline_exceeded += other.deadline_exceeded
        self.concurrency = max(self.concurrency, other.concurrency)
        for graph, count in other.per_graph.items():
            self.per_graph[graph] = self.per_graph.get(graph, 0) + count
        for method, count in other.per_method.items():
            self.per_method[method] = self.per_method.get(method, 0) + count
        return self

    def as_dict(self) -> Dict[str, object]:
        """Return a plain-dict summary (used by workload reports).

        Durations carry an explicit ``_s`` unit suffix (``total_time_s`` /
        ``queue_time_s`` / ``execute_time_s``).
        """
        return {
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "not_found": self.not_found,
            "negative_hits": self.negative_hits,
            "evictions": self.evictions,
            "total_time_s": self.total_time,
            "hit_rate": self.hit_rate,
            "per_graph": dict(self.per_graph),
            "per_method": dict(self.per_method),
            "concurrency": self.concurrency,
            "single_flight_hits": self.single_flight_hits,
            "queue_time_s": self.queue_time,
            "execute_time_s": self.execute_time,
            "deadline_exceeded": self.deadline_exceeded,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BatchStats":
        """Rebuild from :meth:`as_dict` output (a remote shard reports its
        slice's batch counters over the wire; the router folds them into
        :class:`~repro.shard.stats.RouterStats` exactly like a local
        shard's)."""
        return cls(
            total=int(data.get("total", 0)),
            executed=int(data.get("executed", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            not_found=int(data.get("not_found", 0)),
            negative_hits=int(data.get("negative_hits", 0)),
            evictions=int(data.get("evictions", 0)),
            total_time=float(data.get("total_time_s", 0.0)),
            per_graph={str(graph): int(count) for graph, count
                       in dict(data.get("per_graph", {})).items()},
            per_method={str(method): int(count) for method, count
                        in dict(data.get("per_method", {})).items()},
            concurrency=int(data.get("concurrency", 1)),
            single_flight_hits=int(data.get("single_flight_hits", 0)),
            queue_time=float(data.get("queue_time_s", 0.0)),
            execute_time=float(data.get("execute_time_s", 0.0)),
            deadline_exceeded=int(data.get("deadline_exceeded", 0)),
        )


@dataclass
class SegTableBuildStats:
    """Counters collected while constructing the SegTable index.

    One construction loop writes both tables: ``iterations`` counts its
    rounds, and ``out_segments`` equals ``in_segments`` (``TInSegs`` is
    ``TOutSegs`` transposed).
    """

    lthd: float = 0.0
    iterations: int = 0
    statements: int = 0
    out_segments: int = 0
    in_segments: int = 0
    total_time: float = 0.0
    sql_style: str = "nsql"

    @property
    def encoding_number(self) -> int:
        """Total number of stored segments — the "encoding number" (index
        size) axis of Figures 9(a) and 9(b)."""
        return self.out_segments + self.in_segments

    def as_dict(self) -> Dict[str, object]:
        """Return a plain-dict summary."""
        return {
            "lthd": self.lthd,
            "iterations": self.iterations,
            "statements": self.statements,
            "out_segments": self.out_segments,
            "in_segments": self.in_segments,
            "encoding_number": self.encoding_number,
            "total_time": self.total_time,
            "sql_style": self.sql_style,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SegTableBuildStats":
        """Rebuild from :meth:`as_dict` output (the session catalog persists
        build statistics so a warm-started session still reports the
        offline construction cost it is *saving*)."""
        return cls(
            lthd=float(data["lthd"]),
            iterations=int(data.get("iterations", 0)),
            statements=int(data.get("statements", 0)),
            out_segments=int(data.get("out_segments", 0)),
            in_segments=int(data.get("in_segments", 0)),
            total_time=float(data.get("total_time", 0.0)),
            sql_style=str(data.get("sql_style", "nsql")),
        )
