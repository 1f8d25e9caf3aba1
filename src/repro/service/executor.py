"""Batch execution: every member through the one per-query path.

The paper's operators are independent across source/target pairs, so a
batch of shortest-path queries is embarrassingly parallel — the only shared
mutable state is each graph's store, which :class:`~repro.service.pool.StorePool`
multiplies into per-worker reader connections.  :class:`Executor` answers
one planned batch by handing each member to the service's per-query path
(:meth:`PathService._answer <repro.service.session.PathService>` — the
same code a single ``shortest_path`` call runs):

* **one path, two fan-outs** — ``concurrency=1`` answers the members
  inline, in input order, with no thread pool; ``concurrency=N`` hands
  them to N worker threads.  Nothing else differs;
* **order preservation** — each member's answer lands in its own
  ``results[index]`` slot, so the output order is the input order no
  matter how execution interleaves;
* **per-query pool checkout** — a member borrows a store only for the
  duration of its run, so a 64-query batch over a 4-member pool keeps all
  4 members saturated;
* **single-flight dedup** — identical members share one batch-wide
  :class:`~repro.service.cache.InFlightMap`: the first executes, the rest
  receive its answer without touching a store — while it is in flight
  and, when the result cache is off, afterwards too.  Flight keys carry
  the hosting shard's identity (``shard_id``), so they can never collide
  across the shards of a :class:`repro.shard.ShardRouter`;
* **timings** — waiting-for-a-store seconds and executing seconds are
  summed into the batch's :class:`~repro.core.stats.BatchStats`
  (``queue_time`` / ``execute_time``), alongside wall-clock
  ``total_time``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import Dict, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.errors import DeadlineExceededError, PathNotFoundError
from repro.service.cache import InFlightMap
from repro.service.planner import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.multi import OneToManyResult
    from repro.service.batch import BatchResult
    from repro.service.session import PathService


class Executor:
    """Answers one planned batch, inline or across worker threads.

    Args:
        service: the hosting :class:`~repro.service.session.PathService`.
        concurrency: worker-thread count (``1`` = inline, no threads);
            each graph's pool is grown (up to its backend's capability)
            to match before execution starts.
        checkout_timeout: per-query bound, in seconds, on waiting for a
            pooled store (``None`` waits indefinitely); exceeding it raises
            :class:`~repro.errors.PoolTimeoutError` out of the batch.
    """

    def __init__(self, service: "PathService", concurrency: int,
                 checkout_timeout: Optional[float] = None) -> None:
        if concurrency < 1:
            raise ValueError("executor concurrency must be at least 1")
        self._service = service
        self._concurrency = concurrency
        self._checkout_timeout = checkout_timeout
        self._flights = InFlightMap()
        self._errors: Dict[int, BaseException] = {}

    def run(self, plans: Sequence[QueryPlan], batch: "BatchResult",
            raise_on_unreachable: bool = False,
            shared: Optional[Mapping[int, "OneToManyResult"]] = None) -> None:
        """Answer ``plans`` and fill ``batch`` in place (results,
        ``from_cache`` flags, errors and stats counters).

        The first failure *by input position* is re-raised once the batch
        is done.  Inline, the batch stops as soon as that failure is
        decided (every remaining position comes after it); worker threads
        all finish first.

        Args:
            shared: input position -> the batch's shared-frontier run
                that already answered it (see
                :func:`repro.service.batch.execute_batch`).  Those members
                are recorded first, inline; they execute nothing.
        """
        self._raise_on_unreachable = raise_on_unreachable
        shared = shared or {}
        for index in sorted(shared):
            self._run_one(index, plans[index], batch, shared[index])
        indices = [i for i in range(len(plans)) if i not in shared]
        workers = min(self._concurrency, len(indices))
        if workers > 1:
            service = self._service
            for name in {plans[i].spec.graph for i in indices}:
                service._host(name).pool.resize(self._concurrency)
            batch.stats.concurrency = workers
            with ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="repro-batch") as threads:
                futures = [threads.submit(self._run_one, index,
                                          plans[index], batch)
                           for index in indices]
                wait(futures)
            for future in futures:
                # Worker bodies catch everything into self._errors; a raise
                # here would be a bug in the executor itself — surface it.
                future.result()
        else:
            for index in indices:
                if self._errors and min(self._errors) < index:
                    break
                self._run_one(index, plans[index], batch)
        if self._errors:
            raise self._errors[min(self._errors)]

    def _run_one(self, index: int, plan: QueryPlan, batch: "BatchResult",
                 shared: Optional["OneToManyResult"] = None) -> None:
        """Answer one member into its slot; never raises (failures are
        counted, placed positionally, or kept for :meth:`run`)."""
        try:
            result, replayed = self._service._answer(
                plan, stats=batch.stats, flights=self._flights,
                shared=shared, checkout_timeout=self._checkout_timeout)
        except PathNotFoundError as exc:
            batch.stats.add(not_found=1)
            if self._raise_on_unreachable:
                self._errors[index] = exc
        except DeadlineExceededError as exc:
            # The expired query reports at its own position; its siblings
            # finish normally.
            batch.stats.add(deadline_exceeded=1)
            batch.errors[index] = exc
        except BaseException as exc:  # surfaced once the batch is done
            self._errors[index] = exc
        else:
            batch.results[index] = result
            batch.from_cache[index] = replayed


__all__ = ["Executor"]
