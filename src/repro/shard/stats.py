"""Aggregate statistics of one scatter-gather batch.

Each shard executes its slice of the batch as an ordinary
:meth:`PathService.shortest_path_many` call and reports
:class:`~repro.core.stats.BatchStats`; :class:`RouterStats` keeps every
per-shard record *and* the rollup, because the two answer different
questions — "which shard is slow?" needs the per-shard view, "what did the
batch cost?" needs the merged one.

With replicated graphs the router also retries a failed slice on an
identical-fingerprint replica; the per-replica error accounting
(``per_shard_errors``, ``failovers``) lives here so one batch's answer
carries its own failover story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.stats import BatchStats


@dataclass
class RouterStats:
    """Counters of one :meth:`ShardRouter.shortest_path_many` call.

    Attributes:
        total: number of queries in the batch.
        shards_touched: how many shards received a non-empty slice.
        total_time: wall-clock seconds of the whole scatter-gather —
            shards run concurrently, so this is normally well below the
            sum of per-shard ``total_time``.
        per_shard: shard name → that shard's :class:`BatchStats`.  A shard
            answering several slices (one per graph it serves in the
            batch, failovers included) reports one merged record.
        per_shard_errors: shard name → transport failures
            (:class:`~repro.errors.ShardUnavailableError`) that shard
            produced during this batch, whether or not a replica later
            rescued the affected queries.
        failovers: queries re-routed to a replica after their assigned
            shard failed (counted once per query per re-route).
        shared_cache_hits: queries answered from the router's opt-in
            cross-shard result cache without touching any shard.
        not_found: unreachable pairs across all shards.
    """

    total: int = 0
    shards_touched: int = 0
    total_time: float = 0.0
    per_shard: Dict[str, BatchStats] = field(default_factory=dict)
    per_shard_errors: Dict[str, int] = field(default_factory=dict)
    failovers: int = 0
    shared_cache_hits: int = 0

    def record(self, shard: str, stats: BatchStats) -> None:
        """Fold one shard's batch statistics in (merging with any earlier
        slice the same shard answered this batch)."""
        existing = self.per_shard.get(shard)
        if existing is None:
            self.per_shard[shard] = stats
        else:
            existing.merge(stats)
        self.shards_touched = len(self.per_shard)

    def record_error(self, shard: str) -> None:
        """Count one transport failure against ``shard``."""
        self.per_shard_errors[shard] = self.per_shard_errors.get(shard, 0) + 1

    def rollup(self) -> BatchStats:
        """Merge every per-shard record into one fresh
        :class:`BatchStats` (see :meth:`BatchStats.merge` for the
        summation semantics); its ``total_time`` is replaced by the
        router's scatter-gather wall clock."""
        merged = BatchStats()
        for stats in self.per_shard.values():
            merged.merge(stats)
        merged.total_time = self.total_time
        return merged

    @property
    def executed(self) -> int:
        """Queries that actually ran against a store, across shards."""
        return sum(stats.executed for stats in self.per_shard.values())

    @property
    def cache_hits(self) -> int:
        """Result-cache hits across shards (shard-local caches only; the
        router's shared cache reports :attr:`shared_cache_hits`)."""
        return sum(stats.cache_hits for stats in self.per_shard.values())

    @property
    def not_found(self) -> int:
        """Unreachable pairs across shards."""
        return sum(stats.not_found for stats in self.per_shard.values())

    @property
    def transport_errors(self) -> int:
        """Transport failures across shards during this batch."""
        return sum(self.per_shard_errors.values())

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict summary (used by the scatter benchmark's JSON).

        Durations carry an explicit ``_s`` unit suffix (``total_time_s``).
        """
        return {
            "total": self.total,
            "shards_touched": self.shards_touched,
            "total_time_s": self.total_time,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "shared_cache_hits": self.shared_cache_hits,
            "not_found": self.not_found,
            "failovers": self.failovers,
            "transport_errors": self.transport_errors,
            "per_shard_errors": dict(sorted(self.per_shard_errors.items())),
            "per_shard": {shard: stats.as_dict()
                          for shard, stats in sorted(self.per_shard.items())},
            "rollup": self.rollup().as_dict(),
        }


__all__ = ["RouterStats"]
