"""The benchmark's own spans, recorded from outside the program.

A span is ``(name, start, end, parent, op)``; spans are kept in memory
and written out once, at exit.  A layer's *self time* is its span minus
the part its child spans cover.  Store statements are made visible by
instance-level wrappers on the ``GraphStore`` statement surface (the
seam ``repro.faults.inject.STORE_STATEMENT_METHODS`` enumerates, plus
the ``seg_*`` construction statements), grouped the way the paper's
Fig 6 groups them.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import now

STORE_GROUPS: Dict[str, Tuple[str, ...]] = {
    # termination probes / statistics collection
    "store.probe": ("min_unfinalized_distance", "count_unfinalized",
                    "min_total_cost", "meeting_node", "is_finalized",
                    "visited_count", "seg_min_unexpanded"),
    # F-operator
    "store.frontier": ("top1_min_unfinalized", "select_frontier_set",
                       "finalize_frontier", "finalize_node",
                       "seg_select_frontier", "seg_finalize_frontier"),
    # E- and M-operators (one statement with MERGE, two without)
    "store.expand": ("expand", "expand_hops", "seg_expand"),
    # full path recovery
    "store.recover": ("get_link", "get_distance", "visited_rows"),
    # working-table reset and seeding
    "store.reset": ("reset_visited", "insert_visited", "seg_init",
                    "seg_finish"),
}

Span = Dict[str, object]


class SpanRecorder:
    """In-memory span list with a stack for parent links (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record: Span = {"name": name, "start": now(), "end": None,
                        "parent": self._open[-1] if self._open else None,
                        "op": self.op}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = now()
            self._open.pop()


def duration_ms(span: Span) -> float:
    return (span["end"] - span["start"]) * 1000.0  # type: ignore[operator]


def children_of(spans: List[Span]) -> Dict[int, List[Span]]:
    by_parent: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            by_parent[span["parent"]].append(span)  # type: ignore[index]
    return by_parent


def self_ms(index: int, spans: List[Span],
            by_parent: Dict[int, List[Span]]) -> float:
    """Span ``index``'s duration minus what its children cover (children
    of one span never overlap: the recorder is single-threaded)."""
    return duration_ms(spans[index]) - sum(
        duration_ms(child) for child in by_parent.get(index, ()))


def instrument_store(store: object,
                     recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap ``store``'s statement methods so each call becomes a
    ``store.<group>`` span carrying the exact statement and row counts
    the driver's ``QueryStats`` attributes to it.  Methods a store does
    not have are skipped.  Returns the uninstaller."""
    current: Dict[str, object] = {}
    installed: List[str] = []

    original_begin = store.begin_query  # type: ignore[attr-defined]

    @functools.wraps(original_begin)
    def begin_query(stats, *args, **kwargs):
        current["stats"] = stats
        return original_begin(stats, *args, **kwargs)

    store.begin_query = begin_query  # type: ignore[attr-defined]
    installed.append("begin_query")

    for group, methods in STORE_GROUPS.items():
        for method in methods:
            original = getattr(store, method, None)
            if not callable(original):
                continue

            def wrapped(*args, __original=original, __group=group,
                        __method=method, **kwargs):
                stats = current.get("stats")
                statements = getattr(stats, "statements", 0)
                rows = getattr(stats, "affected_rows", 0)
                with recorder.span(__group) as span:
                    try:
                        return __original(*args, **kwargs)
                    finally:
                        span["method"] = __method
                        span["statements"] = (
                            getattr(stats, "statements", 0) - statements)
                        span["rows"] = (
                            getattr(stats, "affected_rows", 0) - rows)

            functools.update_wrapper(wrapped, original)
            setattr(store, method, wrapped)
            installed.append(method)

    def uninstall() -> None:
        for name in installed:
            delattr(store, name)

    return uninstall
