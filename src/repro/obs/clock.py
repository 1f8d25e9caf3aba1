"""Timing primitives — THE one place timing semantics are defined.

Every duration measured anywhere in :mod:`repro` goes through this
module: :func:`now` is the monotonic high-resolution clock for elapsed
time, :func:`timer` is the exception-safe context manager around it, and
:func:`wall_time` is the epoch clock for *timestamps* (catalog records)
— the one thing a monotonic clock cannot provide.

Centralizing the choice means the rest of ``src/repro`` never touches
``time.perf_counter()`` / ``time.time()`` directly (a lint check,
``tools/check_timing.py``, enforces this), so properties like
"monotonic, immune to wall-clock steps, measured even when the block
raises" are guaranteed in exactly one place.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Timer", "now", "timer", "wall_time"]


def now() -> float:
    """Monotonic high-resolution seconds, for measuring durations.

    Never compare this against :func:`wall_time` — the two clocks share
    no epoch.
    """
    return time.perf_counter()


def wall_time() -> float:
    """Wall-clock seconds since the Unix epoch, for *timestamps* only
    (manifest records).  Subject to clock steps; never
    use it to measure a duration."""
    return time.time()


class Timer:
    """An exception-safe stopwatch.

    Use via :func:`timer`::

        with timer() as t:
            do_work()          # t.seconds is set even if this raises
        latency = t.seconds

    Attributes:
        seconds: elapsed seconds, finalized when the ``with`` block exits
            (exception or not).  While the block is still running it reads
            as the elapsed time so far.
    """

    __slots__ = ("_started", "_seconds")

    def __init__(self) -> None:
        self._started = now()
        self._seconds: Optional[float] = None

    @property
    def seconds(self) -> float:
        if self._seconds is None:
            return now() - self._started
        return self._seconds

    def __enter__(self) -> "Timer":
        self._started = now()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._seconds = now() - self._started


def timer() -> Timer:
    """A fresh :class:`Timer` context manager (monotonic, exception-safe)."""
    return Timer()
