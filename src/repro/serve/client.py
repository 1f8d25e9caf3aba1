"""The shard client: typed calls against one shard server.

Stdlib :mod:`urllib.request` under the hood; every public method decodes
the response envelope back into the library's own objects (results carry
full :class:`~repro.core.stats.QueryStats`, errors re-raise as their
original :mod:`repro.errors` type).  Failure taxonomy:

* connection refused / reset, timeouts, and the server dying mid-request
  raise :class:`~repro.errors.ShardUnavailableError` — the one error the
  router may retry verbatim on an identical-fingerprint replica;
* a reachable server answering garbage (bad JSON, wrong envelope, wrong
  protocol version) raises :class:`~repro.errors.RemoteProtocolError` —
  retrying cannot help;
* a clean library error (unknown graph, unreachable pair, ...) re-raises
  as that library error, exactly like a local call.

Transient transport failures are retried ``retries`` times with a
*full-jitter* exponential backoff (attempt ``n`` sleeps a uniform draw
from ``[0, BACKOFF_SECONDS * 2**n]``) before
:class:`ShardUnavailableError` escapes — but only for *idempotent*
requests; ``stamp`` is attempted once.  An overloaded
server's ``retry_after`` hint floors the drawn delay, and a query budget
(``QuerySpec.timeout_s``) caps both the sleep and the per-attempt HTTP
timeout, so a budgeted query can never out-sleep its own deadline.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.catalog.manifest import CatalogEntry
from repro.core.deadline import (
    check_deadline,
    deadline_from_timeout,
    remaining_budget,
)
from repro.core.path import PathResult
from repro.core.stats import BatchStats
from repro.errors import RemoteProtocolError, ReproError, ShardUnavailableError
from repro.obs import current_request_id, new_request_id
from repro.serve import protocol
from repro.service.planner import QueryPlan, QuerySpec

DEFAULT_TIMEOUT = 30.0
DEFAULT_RETRIES = 2
BACKOFF_SECONDS = 0.05
"""Backoff scale: retry attempt ``n`` sleeps ``uniform(0, 0.05 * 2**n)``
seconds (full jitter — retried clients spread out instead of thundering
back in lockstep)."""

_Body = Union[None, Dict[str, object], Callable[[], Dict[str, object]]]
"""A request body, or a factory called once per attempt (so a budgeted
spec is re-serialized with its *remaining* budget on every retry)."""


class ShardClient:
    """A typed HTTP client for one shard server.

    Thread-safe: every request opens its own connection, so scatter
    threads may share one client.  ``timeout`` bounds each request
    end-to-end (connect + response); a slow shard that exceeds it raises
    :class:`ShardUnavailableError`, which is what lets the router fail
    over instead of hanging a batch.

    ``backoff_seed`` makes retry jitter deterministic — tests and the
    chaos bench replay the exact same backoff schedule run after run;
    leave it ``None`` in production so independent clients desynchronize.
    """

    def __init__(self, url: str, *, timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff_seed: Optional[int] = None) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self._rng = random.Random(backoff_seed)
        self._rng_lock = threading.Lock()

    # -- wire plumbing -----------------------------------------------------------

    def _backoff_delay(self, attempt: int,
                       retry_after: Optional[float],
                       deadline: Optional[float]) -> float:
        """The sleep before retry ``attempt``: a full-jitter draw, floored
        at the server's ``retry_after`` hint (an overloaded server knows
        its own queue better than our schedule does) and capped at the
        query's remaining budget (never out-sleep the deadline)."""
        with self._rng_lock:
            delay = self._rng.uniform(0.0, BACKOFF_SECONDS * (2 ** attempt))
        if retry_after is not None:
            delay = max(delay, retry_after)
        budget = remaining_budget(deadline)
        if budget is not None:
            delay = min(delay, max(0.0, budget))
        return delay

    def _request_once(self, path: str,
                      body: Optional[Dict[str, object]],
                      request_id: Optional[str] = None,
                      timeout: Optional[float] = None) -> Dict[str, object]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if request_id is None:
            request_id = current_request_id()
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers,
            method="GET" if data is None else "POST")
        try:
            with urllib.request.urlopen(
                    request,
                    timeout=self.timeout if timeout is None else timeout
            ) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            # The server answered with an error envelope: decode it below
            # like any other payload (400/500 carry the same shape).
            raw = exc.read()
        except (urllib.error.URLError, ConnectionError, socket.timeout,
                TimeoutError, OSError) as exc:
            raise ShardUnavailableError(
                f"shard at {self.url} is unreachable ({path}): {exc}"
            ) from exc
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RemoteProtocolError(
                f"shard at {self.url} answered non-JSON on {path}: {exc}"
            ) from exc
        if not isinstance(envelope, dict) or "ok" not in envelope:
            raise RemoteProtocolError(
                f"shard at {self.url} answered a malformed envelope on "
                f"{path}: {envelope!r}"
            )
        version = envelope.get("protocol")
        if version != protocol.PROTOCOL_VERSION:
            raise RemoteProtocolError(
                f"shard at {self.url} speaks protocol {version!r}; this "
                f"client speaks {protocol.PROTOCOL_VERSION}"
            )
        if not envelope["ok"]:
            raise protocol.error_from_dict(envelope.get("error", {}))
        data_out = envelope.get("data")
        if not isinstance(data_out, dict):
            raise RemoteProtocolError(
                f"shard at {self.url} answered ok without a data object "
                f"on {path}"
            )
        return data_out

    def _request(self, path: str, body: _Body = None,
                 *, idempotent: bool = True,
                 deadline: Optional[float] = None) -> Dict[str, object]:
        attempts = (1 + self.retries) if idempotent else 1
        last: Optional[ShardUnavailableError] = None
        # One logical request = one correlation id: every retry attempt
        # carries the SAME X-Request-Id, so server logs and traces show a
        # retried call as one query, not two.  An ambient id (bound by a
        # router/service trace) wins over a freshly minted one.
        request_id = current_request_id() or new_request_id()
        for attempt in range(attempts):
            # A budgeted query raises its typed deadline error locally
            # instead of sending a request the server would reject anyway.
            check_deadline(deadline, f"{path} attempt {attempt + 1}")
            timeout = self.timeout
            budget = remaining_budget(deadline)
            if budget is not None:
                timeout = min(timeout, budget)
            payload = body() if callable(body) else body
            try:
                return self._request_once(path, payload,
                                          request_id=request_id,
                                          timeout=timeout)
            except ShardUnavailableError as exc:
                last = exc
                if attempt + 1 < attempts:
                    retry_after = getattr(exc, "retry_after", None)
                    time.sleep(self._backoff_delay(
                        attempt,
                        float(retry_after) if isinstance(
                            retry_after, (int, float)) else None,
                        deadline))
        assert last is not None
        raise last

    # -- typed operations --------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Liveness probe; raises :class:`ShardUnavailableError` when the
        server is down (no retries — health checks must answer fast)."""
        return self._request_once("/health", None)

    def routing_entries(self) -> Dict[str, CatalogEntry]:
        """The server catalog's manifest entries."""
        data = self._request("/routing")
        try:
            return {str(name): CatalogEntry.from_dict(raw)
                    for name, raw in dict(data["entries"]).items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise RemoteProtocolError(
                f"shard at {self.url} answered malformed routing entries "
                f"({exc})"
            ) from exc

    def stats(self) -> Dict[str, object]:
        """The server's cache counters and hosted graph list."""
        return self._request("/stats")

    def metrics_text(self) -> str:
        """Scrape the server's ``/metrics`` endpoint.

        Returns the raw Prometheus text exposition (no JSON envelope —
        this is the same bytes a Prometheus scraper would see).
        """
        request = urllib.request.Request(
            self.url + "/metrics", method="GET")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except (urllib.error.URLError, ConnectionError, socket.timeout,
                TimeoutError, OSError) as exc:
            raise ShardUnavailableError(
                f"shard at {self.url} is unreachable (/metrics): {exc}"
            ) from exc

    def stamp_ownership(self, graph: str, shard: str) -> None:
        """Record ``shard`` as ``graph``'s owner in the server's manifest."""
        self._request("/stamp", {"graph": graph, "shard": shard},
                      idempotent=False)

    def shortest_path(self, spec: QuerySpec,
                      use_cache: bool = True) -> PathResult:
        """Answer one query on the remote shard.

        A budgeted spec (``timeout_s``) bounds the call end to end on
        *this* side of the wire: the HTTP timeout and any retry backoff
        are clamped to the remaining budget, and each attempt re-sends
        the spec with the budget still left — so the server's own
        deadline covers only the time actually remaining, not the
        original allowance.  Raises
        :class:`~repro.errors.DeadlineExceededError` once the budget is
        gone, whichever side of the wire noticed first.
        """
        deadline = deadline_from_timeout(spec.timeout_s)

        def body() -> Dict[str, object]:
            send = spec
            budget = remaining_budget(deadline)
            if budget is not None:
                if budget <= 0:
                    # Raced out between the loop's check and now; raise
                    # the typed error (a QuerySpec cannot even express a
                    # spent budget).
                    check_deadline(deadline, "query dispatch")
                send = replace(spec, timeout_s=budget)
            return {"spec": protocol.spec_to_dict(send),
                    "use_cache": use_cache}

        data = self._request("/shortest_path", body, deadline=deadline)
        return protocol.result_from_dict(self._field(data, "result"))

    def explain(self, spec: QuerySpec) -> QueryPlan:
        """The plan the remote shard would execute."""
        data = self._request("/explain",
                             {"spec": protocol.spec_to_dict(spec)})
        return protocol.plan_from_dict(self._field(data, "plan"))

    def plan_many(self, specs: Sequence[QuerySpec]) -> List[QueryPlan]:
        """Plan (= validate) a batch slice in one round trip."""
        data = self._request("/plan_many",
                             {"specs": protocol.specs_to_list(specs)})
        plans = data.get("plans")
        if not isinstance(plans, list) or len(plans) != len(specs):
            raise RemoteProtocolError(
                f"shard at {self.url} answered {0 if not isinstance(plans, list) else len(plans)} "
                f"plans for {len(specs)} specs"
            )
        return [protocol.plan_from_dict(plan) for plan in plans]

    def execute(self, specs: Sequence[QuerySpec], *,
                concurrency: int = 1,
                checkout_timeout: Optional[float] = None
                ) -> Tuple[List[Optional[PathResult]], List[bool],
                           BatchStats, List[Optional[ReproError]]]:
        """Execute a batch slice; returns (results, from_cache, stats,
        errors) — ``errors`` is positional, one slot per spec, ``None``
        where the query succeeded (a budgeted sibling expiring does not
        poison the rest of the slice).

        Safe to retry: execution is read-only and result caching makes a
        replay answer from cache.
        """
        data = self._request("/execute", {
            "specs": protocol.specs_to_list(specs),
            "concurrency": concurrency,
            "checkout_timeout": checkout_timeout,
        })
        raw_results = data.get("results")
        raw_cached = data.get("from_cache")
        if (not isinstance(raw_results, list)
                or not isinstance(raw_cached, list)
                or len(raw_results) != len(specs)
                or len(raw_cached) != len(specs)):
            raise RemoteProtocolError(
                f"shard at {self.url} answered a misaligned batch "
                f"(asked {len(specs)} specs)"
            )
        results = protocol.results_from_list(raw_results)
        # Absent on pre-deadline servers: nothing failed positionally.
        raw_errors = data.get("errors")
        if raw_errors is None:
            errors: List[Optional[ReproError]] = [None] * len(specs)
        elif isinstance(raw_errors, list) and len(raw_errors) == len(specs):
            errors = protocol.errors_from_list(raw_errors)
        else:
            raise RemoteProtocolError(
                f"shard at {self.url} answered a misaligned error column "
                f"(asked {len(specs)} specs)"
            )
        try:
            stats = BatchStats.from_dict(dict(self._field(data, "stats")))
        except (TypeError, ValueError) as exc:
            raise RemoteProtocolError(
                f"shard at {self.url} answered malformed batch stats "
                f"({exc})"
            ) from exc
        return results, [bool(flag) for flag in raw_cached], stats, errors

    # -- helpers -----------------------------------------------------------------

    def _field(self, data: Dict[str, object], name: str) -> Dict[str, object]:
        value = data.get(name)
        if not isinstance(value, dict):
            raise RemoteProtocolError(
                f"shard at {self.url} answered without the {name!r} field"
            )
        return value


__all__ = [
    "BACKOFF_SECONDS",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT",
    "ShardClient",
]
