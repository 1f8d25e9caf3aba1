"""Batch execution: every member through the one per-query path.

The paper's operators are independent across source/target pairs, so a
batch of shortest-path queries is embarrassingly parallel — the only shared
mutable state is each graph's store, which :class:`~repro.service.pool.StorePool`
multiplies into per-worker reader connections.  :class:`Executor` answers
one planned batch by handing each member to the service's per-query path
(:meth:`PathService._answer <repro.service.session.PathService>` — the
same code a single ``shortest_path`` call runs):

* **one path, two fan-outs** — ``concurrency=1`` answers the groups
  inline, in order of their first position, with no thread pool;
  ``concurrency=N`` hands each group to one of N worker threads.  Nothing
  else differs;
* **order preservation** — each member's answer lands in its own
  ``results[index]`` slot, so the output order is the input order no
  matter how execution interleaves;
* **per-query pool checkout** — a member borrows a store only for the
  duration of its run, so a 64-query batch over a 4-member pool keeps all
  4 members saturated;
* **duplicates settled up front** — before anything runs, members are
  grouped by their query key (the result-cache key, which carries the
  hosting shard's identity); a member with no key (a capped or budgeted
  run) is a group of its own.  A group runs in one worker: its lowest
  input position leads and executes, and every duplicate then answers
  from the cache or replays the leader's outcome.  Which member leads
  never depends on timing, so a serial and a parallel batch give the same
  answers and the same counters;
* **timings** — waiting-for-a-store seconds and executing seconds are
  summed into the batch's :class:`~repro.core.stats.BatchStats`
  (``queue_time`` / ``execute_time``), alongside wall-clock
  ``total_time``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import Dict, Hashable, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import DeadlineExceededError, PathNotFoundError
from repro.service.answer import Outcome
from repro.service.planner import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.batch import BatchResult
    from repro.service.session import PathService


class Executor:
    """Answers one planned batch, inline or across worker threads.

    Args:
        service: the hosting :class:`~repro.service.session.PathService`.
        concurrency: worker-thread count (``1`` = inline, no threads);
            each graph's pool is grown (up to its backend's capability)
            to match before execution starts.
    """

    def __init__(self, service: "PathService", concurrency: int) -> None:
        if concurrency < 1:
            raise ValueError("executor concurrency must be at least 1")
        self._service = service
        self._concurrency = concurrency
        self._errors: Dict[int, BaseException] = {}

    def run(self, plans: Sequence[QueryPlan], batch: "BatchResult") -> None:
        """Answer ``plans`` and fill ``batch`` in place (results,
        ``from_cache`` flags, errors and stats counters).

        An unreachable member leaves ``None`` in its slot and counts in
        ``not_found``; an expired one records its error positionally.  Any
        other failure — the first *by input position* — is re-raised once
        the batch is done.  Inline, the batch stops before the first group
        that starts after that failure; worker threads all finish first.
        """
        groups = self._groups(plans)
        workers = min(self._concurrency, len(groups))
        if workers > 1:
            service = self._service
            for name in {plan.spec.graph for plan in plans}:
                service._host(name).pool.resize(self._concurrency)
            batch.stats.concurrency = workers
            with ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="repro-batch") as threads:
                futures = [threads.submit(self._run_group, group, plans,
                                          batch)
                           for group in groups]
                wait(futures)
            for future in futures:
                # Worker bodies catch everything into self._errors; a raise
                # here would be a bug in the executor itself — surface it.
                future.result()
        else:
            for group in groups:
                if self._errors and min(self._errors) < group[0]:
                    break
                self._run_group(group, plans, batch)
        if self._errors:
            raise self._errors[min(self._errors)]

    def _groups(self, plans: Sequence[QueryPlan]) -> List[List[int]]:
        """Input positions grouped by query key, each group ascending and
        the groups in order of their first position; a keyless member
        (its answer must never be reused) is a group of its own."""
        groups: Dict[Hashable, List[int]] = {}
        for index, plan in enumerate(plans):
            key = self._service._query_key(plan)
            groups.setdefault(index if key is None else key,
                              []).append(index)
        return list(groups.values())

    def _run_group(self, indices: List[int], plans: Sequence[QueryPlan],
                   batch: "BatchResult") -> None:
        """Answer one group: the first member leads, the rest replay its
        outcome (unless the cache answers them first)."""
        first, *duplicates = indices
        leader = self._run_one(first, plans[first], batch)
        if first in self._errors:
            return  # the batch raises at ``first`` or before it
        for index in duplicates:
            self._run_one(index, plans[index], batch, replay=leader)

    def _run_one(self, index: int, plan: QueryPlan, batch: "BatchResult",
                 replay: Optional[Outcome] = None) -> Outcome:
        """Answer one member into its slot and return its outcome; never
        raises (failures are counted, placed positionally, or kept for
        :meth:`run`)."""
        try:
            result, replayed = self._service._answer(
                plan, stats=batch.stats, replay=replay)
        except PathNotFoundError as exc:
            batch.stats.add(not_found=1)
            return exc
        except DeadlineExceededError as exc:
            # The expired query reports at its own position; its siblings
            # finish normally.
            batch.stats.add(deadline_exceeded=1)
            batch.errors[index] = exc
            return exc
        except BaseException as exc:  # surfaced once the batch is done
            self._errors[index] = exc
            return exc
        batch.results[index] = result
        batch.from_cache[index] = replayed
        return result


__all__ = ["Executor"]
