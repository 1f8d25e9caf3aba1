"""The serve wire protocol: JSON codecs for every object that crosses it.

One shard server and its clients exchange plain JSON documents over
HTTP — no pickling, no framing beyond HTTP itself — so any process (or
language) can speak to a shard.  This module is the single source of
truth for how the library's value objects look on the wire:

* :class:`~repro.service.planner.QuerySpec` — a flat field dict;
* :class:`~repro.core.path.PathResult` — source/target/distance/path
  plus the full serialized :class:`~repro.core.stats.QueryStats`, so a
  remote result reports the same per-phase and per-operator breakdowns
  as a local one;
* :class:`~repro.service.planner.QueryPlan` — for remote ``explain()``;
* **errors** — a ``{"type", "message"}`` pair; the type is the exception
  class name inside :mod:`repro.errors`, so the client re-raises the
  *same* exception type the server saw (a remote unreachable pair is a
  :class:`~repro.errors.PathNotFoundError` on both ends).  Types that do
  not map back raise :class:`~repro.errors.RemoteProtocolError` instead
  of guessing.

The protocol is versioned (:data:`PROTOCOL_VERSION`); the server stamps
every response envelope and the client refuses a mismatched major
version rather than mis-decode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import repro.errors as _errors_module
from repro.core.path import PathResult
from repro.core.stats import QueryStats
from repro.errors import RemoteProtocolError, ReproError
from repro.obs import Trace
from repro.service.planner import QueryPlan, QuerySpec

PROTOCOL_VERSION = 1
"""Bumped on any incompatible change to the payload shapes below."""


# -- query specs -----------------------------------------------------------------

def spec_to_dict(spec: QuerySpec) -> Dict[str, object]:
    """Serialize one :class:`QuerySpec` (all fields, flat)."""
    return {
        "source": spec.source,
        "target": spec.target,
        "graph": spec.graph,
        "method": spec.method,
        "sql_style": spec.sql_style,
        "max_iterations": spec.max_iterations,
        "kind": spec.kind,
        "max_hops": spec.max_hops,
        "timeout_s": spec.timeout_s,
    }


def spec_from_dict(data: Dict[str, object]) -> QuerySpec:
    """Rebuild a :class:`QuerySpec`; missing required fields raise
    :class:`RemoteProtocolError` (the spec is the request — a server must
    not guess what was asked)."""
    try:
        max_iterations = data.get("max_iterations")
        max_hops = data.get("max_hops")
        timeout_s = data.get("timeout_s")
        return QuerySpec(
            source=int(data["source"]),
            target=int(data["target"]),
            graph=str(data.get("graph", "default")),
            method=str(data.get("method", "auto")),
            sql_style=str(data.get("sql_style", "nsql")),
            max_iterations=None if max_iterations is None
            else int(max_iterations),
            # Absent on documents from older clients: both default to the
            # plain shortest-path kind, so the wire stays compatible.
            kind=str(data.get("kind", "path")),
            max_hops=None if max_hops is None else int(max_hops),
            # Absent on documents from pre-deadline clients: no budget.
            timeout_s=None if timeout_s is None else float(timeout_s),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteProtocolError(
            f"malformed query spec on the wire: {data!r} ({exc})"
        ) from exc


def specs_to_list(specs: Sequence[QuerySpec]) -> List[Dict[str, object]]:
    return [spec_to_dict(spec) for spec in specs]


def specs_from_list(data: Sequence[Dict[str, object]]) -> List[QuerySpec]:
    return [spec_from_dict(item) for item in data]


# -- results ---------------------------------------------------------------------

def result_to_dict(result: PathResult) -> Dict[str, object]:
    """Serialize one :class:`PathResult`, statistics included.

    The span tree (``result.trace``) travels as a nested ``trace`` field
    when present, so a router in front of remote shards can stitch the
    remote execution into its own trace; the field is simply absent when
    tracing was off (older servers never emit it, older clients ignore
    it — the wire stays compatible both ways).
    """
    data: Dict[str, object] = {
        "source": result.source,
        "target": result.target,
        "distance": result.distance,
        "path": list(result.path),
        "stats": None if result.stats is None else result.stats.as_dict(),
    }
    if result.trace is not None:
        data["trace"] = result.trace.as_dict()
    return data


def result_from_dict(data: Dict[str, object]) -> PathResult:
    """Rebuild one :class:`PathResult` from the wire."""
    try:
        stats = data.get("stats")
        trace = data.get("trace")
        return PathResult(
            source=int(data["source"]),
            target=int(data["target"]),
            distance=float(data["distance"]),
            path=[int(node) for node in data.get("path", [])],
            stats=None if stats is None else QueryStats.from_dict(stats),
            trace=None if trace is None else Trace.from_dict(trace),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteProtocolError(
            f"malformed path result on the wire ({exc})"
        ) from exc


def results_to_list(results: Sequence[Optional[PathResult]]
                    ) -> List[Optional[Dict[str, object]]]:
    """Serialize a batch's result column (``None`` marks unreachable)."""
    return [None if result is None else result_to_dict(result)
            for result in results]


def results_from_list(data: Sequence[Optional[Dict[str, object]]]
                      ) -> List[Optional[PathResult]]:
    return [None if item is None else result_from_dict(item)
            for item in data]


def errors_to_list(errors: Sequence[Optional[BaseException]]
                   ) -> List[Optional[Dict[str, object]]]:
    """Serialize a batch's positional error column (``None`` marks a
    position that succeeded or was merely unreachable)."""
    return [None if exc is None else error_to_dict(exc) for exc in errors]


def errors_from_list(data: Sequence[Optional[Dict[str, object]]]
                     ) -> List[Optional[ReproError]]:
    return [None if item is None else error_from_dict(item)
            for item in data]


# -- plans -----------------------------------------------------------------------

def plan_to_dict(plan: QueryPlan) -> Dict[str, object]:
    """Serialize one :class:`QueryPlan` (remote ``explain()``)."""
    return {
        "spec": spec_to_dict(plan.spec),
        "method": plan.method,
        "reason": plan.reason,
        "uses_segtable": plan.uses_segtable,
        "bidirectional": plan.bidirectional,
        "frontier_mode": plan.frontier_mode,
        "phases": list(plan.phases),
        "operators_per_iteration": list(plan.operators_per_iteration),
        "estimated_iterations": plan.estimated_iterations,
    }


def plan_from_dict(data: Dict[str, object]) -> QueryPlan:
    """Rebuild one :class:`QueryPlan` from the wire."""
    try:
        estimated = data.get("estimated_iterations")
        return QueryPlan(
            spec=spec_from_dict(data["spec"]),
            method=str(data["method"]),
            reason=str(data["reason"]),
            uses_segtable=bool(data.get("uses_segtable", False)),
            bidirectional=bool(data.get("bidirectional", True)),
            frontier_mode=str(data.get("frontier_mode", "set-at-a-time")),
            phases=tuple(str(phase) for phase in data.get("phases", ())),
            operators_per_iteration=tuple(
                str(op) for op in data.get("operators_per_iteration", ())),
            estimated_iterations=None if estimated is None else int(estimated),
        )
    except RemoteProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteProtocolError(
            f"malformed query plan on the wire ({exc})"
        ) from exc


# -- errors ----------------------------------------------------------------------

def error_to_dict(exc: BaseException) -> Dict[str, object]:
    """Serialize an exception for the error envelope.

    Library errors travel as their class name so the client re-raises the
    identical type; anything else is flattened to its class name too but
    will come back as :class:`RemoteProtocolError` — the client must not
    fabricate arbitrary exception types from wire input.

    A ``retry_after`` attribute (the admission-control backoff hint of
    :class:`~repro.errors.ServerOverloadedError`) rides along as an
    optional field; documents without it decode exactly as before, so
    the wire stays compatible in both directions.
    """
    document: Dict[str, object] = {"type": type(exc).__name__,
                                   "message": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        document["retry_after"] = float(retry_after)
    return document


def error_from_dict(data: Dict[str, object]) -> ReproError:
    """Rebuild the exception a server reported.

    Only names that resolve to :class:`ReproError` subclasses inside
    :mod:`repro.errors` are honored; unknown or non-library types come
    back as :class:`RemoteProtocolError` carrying the original name and
    message, so nothing is silently swallowed.
    """
    name = str(data.get("type", ""))
    message = str(data.get("message", "(no message)"))
    candidate = getattr(_errors_module, name, None)
    if (isinstance(candidate, type) and issubclass(candidate, ReproError)
            and candidate is not ReproError):
        rebuilt = candidate(message)
        retry_after = data.get("retry_after")
        if isinstance(retry_after, (int, float)):
            rebuilt.retry_after = float(retry_after)
        return rebuilt
    return RemoteProtocolError(
        f"remote shard reported a {name or '(untyped)'} error: {message}"
    )


__all__ = [
    "PROTOCOL_VERSION",
    "error_from_dict",
    "error_to_dict",
    "errors_from_list",
    "errors_to_list",
    "plan_from_dict",
    "plan_to_dict",
    "result_from_dict",
    "result_to_dict",
    "results_from_list",
    "results_to_list",
    "spec_from_dict",
    "spec_to_dict",
    "specs_from_list",
    "specs_to_list",
]
