"""Deterministic fault plans.

A :class:`FaultPlan` is a seeded, thread-safe schedule of failures to
replay against a running system: *drop the connection at the Nth
statement*, *fail three times then recover*, *add 5ms to every wire
call with probability 0.2*.  The plan itself only decides **when** a
fault fires — the installers in :mod:`repro.faults.inject` decide
**what** firing means at each seam (a
:class:`~repro.errors.BackendConnectionError` from a store, a
:class:`~repro.errors.ShardUnavailableError` from a shard client, an
``InterfaceError`` from a fallback wire connection), so every injected
failure is indistinguishable from the real one and exercises the exact
recovery path production would take.

Determinism: all probabilistic draws come from one ``random.Random``
seeded at construction, and every decision happens under one lock in
operation order, so a single-threaded run with a fixed seed replays the
identical fault schedule every time.  Multi-threaded runs are
schedule-dependent (operation interleaving is), but the *number* of
fired faults for ``times``-bounded and ``at_op`` specs is still exact.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidQueryError

KIND_ERROR = "error"
"""The fault raises the seam's connection-failure error."""

KIND_LATENCY = "latency"
"""The fault sleeps ``latency_s`` before the operation proceeds."""

_KINDS = (KIND_ERROR, KIND_LATENCY)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule inside a :class:`FaultPlan`.

    Attributes:
        kind: :data:`KIND_ERROR` (raise) or :data:`KIND_LATENCY` (sleep).
        at_op: fire exactly on the Nth operation *eligible for this
            spec* (1-based; with a ``match`` filter, only matching
            operations count — ``drop_at(1, match="expand")`` kills the
            first E-step, whatever its global position).  When set, the
            probability draw is skipped.
        probability: chance of firing on each eligible operation when
            ``at_op`` is unset (drawn from the plan's seeded RNG).
        times: stop firing after this many hits (``None`` = forever).
            ``flaky(3)`` — fail three times then recover — is
            ``times=3`` with certainty.
        latency_s: sleep duration for :data:`KIND_LATENCY` faults.
        match: only consider operations whose context string contains
            this substring (e.g. ``"expand"`` to kill a store mid-FEM,
            ``"/execute"`` to target batch wire calls only).
    """

    kind: str = KIND_ERROR
    at_op: Optional[int] = None
    probability: float = 1.0
    times: Optional[int] = 1
    latency_s: float = 0.0
    match: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidQueryError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if self.at_op is not None and self.at_op < 1:
            raise InvalidQueryError(
                f"at_op must be >= 1 (operations are 1-based), got {self.at_op}")
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidQueryError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise InvalidQueryError(
                f"times must be >= 1 or None, got {self.times}")
        if self.latency_s < 0.0:
            raise InvalidQueryError(
                f"latency_s must be >= 0, got {self.latency_s}")


def drop_at(op: int, match: Optional[str] = None) -> FaultSpec:
    """Drop the connection at exactly the ``op``-th intercepted
    operation — on a store, the Nth store call, and one ``iterate`` call
    is one FEM iteration.  This is the *kill mid-FEM* primitive: pick an
    ``op`` that lands inside the iteration loop and the query dies
    mid-search."""
    return FaultSpec(kind=KIND_ERROR, at_op=op, match=match)


def flaky(times: int, probability: float = 1.0,
          match: Optional[str] = None) -> FaultSpec:
    """Fail the first ``times`` (eligible) operations, then recover —
    the retry/failover exercise."""
    return FaultSpec(kind=KIND_ERROR, times=times, probability=probability,
                     match=match)


def slow(latency_s: float, probability: float = 1.0,
         match: Optional[str] = None) -> FaultSpec:
    """Inject ``latency_s`` of delay (every time; bound with
    ``probability`` for a long-tail rather than a uniform slowdown)."""
    return FaultSpec(kind=KIND_LATENCY, latency_s=latency_s,
                     probability=probability, times=None, match=match)


class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` rules.

    Installers call :meth:`before` ahead of each intercepted operation;
    it applies latency faults (sleeps) itself and returns the first
    error-kind spec that fired — or ``None`` — leaving the seam-specific
    raise to the caller.  One plan may be installed on several seams at
    once; the operation counter is global to the plan.
    """

    def __init__(self, faults: Sequence[FaultSpec], seed: int = 0) -> None:
        self._specs: Tuple[FaultSpec, ...] = tuple(faults)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._ops = 0
        self._seen: List[int] = [0] * len(self._specs)
        self._fired: List[int] = [0] * len(self._specs)
        self._log: List[Tuple[int, str, str]] = []

    # -- introspection (for benches and tests) --------------------------------

    @property
    def ops(self) -> int:
        """Operations intercepted so far (fired or not)."""
        with self._lock:
            return self._ops

    @property
    def fired(self) -> int:
        """Total faults fired so far, across all specs."""
        with self._lock:
            return sum(self._fired)

    @property
    def log(self) -> List[Tuple[int, str, str]]:
        """``(op_index, context, kind)`` per fired fault, in fire order."""
        with self._lock:
            return list(self._log)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready summary (bench reports embed this)."""
        with self._lock:
            return {
                "ops": self._ops,
                "fired": sum(self._fired),
                "per_spec": list(self._fired),
            }

    # -- the decision point ---------------------------------------------------

    def before(self, context: str) -> Optional[FaultSpec]:
        """Decide the fate of the next operation.

        Counts the operation, fires every eligible spec (latency faults
        sleep here, *outside* the lock so concurrent operations are not
        serialized by an injected delay), and returns the first fired
        error-kind spec for the caller to translate into its seam's
        error — or ``None`` when the operation should proceed cleanly.
        """
        error: Optional[FaultSpec] = None
        delay = 0.0
        with self._lock:
            self._ops += 1
            op = self._ops
            for index, spec in enumerate(self._specs):
                if spec.match is not None and spec.match not in context:
                    continue
                self._seen[index] += 1
                if spec.times is not None and self._fired[index] >= spec.times:
                    continue
                if spec.at_op is not None:
                    hit = self._seen[index] == spec.at_op
                else:
                    hit = self._rng.random() < spec.probability
                if not hit:
                    continue
                self._fired[index] += 1
                self._log.append((op, context, spec.kind))
                if spec.kind == KIND_LATENCY:
                    delay += spec.latency_s
                elif error is None:
                    error = spec
        if delay > 0.0:
            time.sleep(delay)
        return error


__all__ = [
    "FaultPlan",
    "FaultSpec",
    "KIND_ERROR",
    "KIND_LATENCY",
    "drop_at",
    "flaky",
    "slow",
]
