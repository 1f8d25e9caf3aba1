"""The catalog manifest: a versioned, self-describing on-disk record.

One JSON document (``manifest.json`` inside the catalog directory)
describes every graph the catalog knows: where its database file lives,
which backend opens it, a content fingerprint to detect drift, the
serialized planner statistics, and — when built — the SegTable metadata
(threshold, table names, construction cost).  This is the classic
system-catalog pattern: the storage is self-describing, so a fresh process
can reattach everything without re-deriving it.

Writes are atomic (temp file + ``os.replace``), so a crash mid-save leaves
the previous manifest intact.  Unknown format versions and unreadable
documents raise :class:`~repro.errors.ManifestError` rather than guessing.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

_TEMP_COUNTER = 0
_TEMP_COUNTER_LOCK = threading.Lock()

from repro.core.stats import SegTableBuildStats
from repro.errors import ManifestError
from repro.obs.clock import wall_time
from repro.graph.stats import GraphStatistics

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"

# SegTable relation names are fixed by the stores today, but the manifest
# records them anyway: a future backend (or a sidecar layout) can point the
# entry somewhere else without a format bump.
DEFAULT_OUT_TABLE = "TOutSegs"
DEFAULT_IN_TABLE = "TInSegs"


@dataclass(frozen=True)
class SegTableRecord:
    """Metadata of a materialized SegTable.

    Attributes:
        lthd: the build threshold (not recoverable from the tables).
        sql_style: SQL style the build ran with.
        index_mode: physical index mode of the segment tables.
        out_table: name of the forward segment relation.
        in_table: name of the backward segment relation.
        build: the construction statistics captured at build time — a
            warm-started session reports the offline cost it is reusing.
        built_at: UNIX timestamp of the build.
    """

    lthd: float
    sql_style: str = "nsql"
    index_mode: str = "clustered"
    out_table: str = DEFAULT_OUT_TABLE
    in_table: str = DEFAULT_IN_TABLE
    build: Optional[SegTableBuildStats] = None
    built_at: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "lthd": self.lthd,
            "sql_style": self.sql_style,
            "index_mode": self.index_mode,
            "out_table": self.out_table,
            "in_table": self.in_table,
            "build": None if self.build is None else self.build.as_dict(),
            "built_at": self.built_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SegTableRecord":
        build = data.get("build")
        return cls(
            lthd=float(data["lthd"]),
            sql_style=str(data.get("sql_style", "nsql")),
            index_mode=str(data.get("index_mode", "clustered")),
            out_table=str(data.get("out_table", DEFAULT_OUT_TABLE)),
            in_table=str(data.get("in_table", DEFAULT_IN_TABLE)),
            build=None if build is None else SegTableBuildStats.from_dict(build),
            built_at=float(data.get("built_at", 0.0)),
        )


@dataclass(frozen=True)
class CatalogEntry:
    """One registered graph.

    Attributes:
        name: the graph's session name (manifest key).
        backend: backend-registry name that opens ``db_path``.
        db_path: backing database file (absolute, or relative to the
            catalog directory).
        fingerprint: content digest recorded at registration; a reattach
            that computes a different digest marks the entry stale.
        directed: whether the original graph was directed (informational —
            the stored edge set is always directed).
        index_mode: index strategy the graph was loaded with.
        buffer_capacity: buffer-pool page budget to reopen with.
        num_nodes / num_edges: stored counts (shown by the CLI).
        statistics: serialized planner statistics, so ``method="auto"``
            and ``explain()`` work immediately after a warm attach.
        segtable: SegTable metadata, ``None`` while unbuilt.
        shard: ownership record — the name of the shard that owns this
            graph, stamped by :class:`repro.shard.ShardRouter` when it
            adopts the catalog as a routing table (``None`` for graphs no
            router has claimed).  A rebalance (``ShardRouter.move``)
            rewrites it along with the entry's new home manifest.
        stale: set when a fingerprint check failed; stale entries refuse
            to attach until rebuilt or re-registered.
        created_at / updated_at: UNIX timestamps.
    """

    name: str
    backend: str
    db_path: str
    fingerprint: str
    directed: bool = True
    index_mode: str = "clustered"
    buffer_capacity: int = 256
    num_nodes: int = 0
    num_edges: int = 0
    statistics: Optional[GraphStatistics] = None
    segtable: Optional[SegTableRecord] = None
    shard: Optional[str] = None
    stale: bool = False
    created_at: float = field(default_factory=wall_time)
    updated_at: float = field(default_factory=wall_time)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "backend": self.backend,
            "db_path": self.db_path,
            "fingerprint": self.fingerprint,
            "directed": self.directed,
            "index_mode": self.index_mode,
            "buffer_capacity": self.buffer_capacity,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "statistics": None if self.statistics is None
            else self.statistics.as_dict(),
            "segtable": None if self.segtable is None
            else self.segtable.to_dict(),
            "shard": self.shard,
            "stale": self.stale,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CatalogEntry":
        statistics = data.get("statistics")
        segtable = data.get("segtable")
        return cls(
            name=str(data["name"]),
            backend=str(data["backend"]),
            db_path=str(data["db_path"]),
            fingerprint=str(data["fingerprint"]),
            directed=bool(data.get("directed", True)),
            index_mode=str(data.get("index_mode", "clustered")),
            buffer_capacity=int(data.get("buffer_capacity", 256)),
            num_nodes=int(data.get("num_nodes", 0)),
            num_edges=int(data.get("num_edges", 0)),
            statistics=None if statistics is None
            else GraphStatistics.from_dict(statistics),
            segtable=None if segtable is None
            else SegTableRecord.from_dict(segtable),
            shard=None if data.get("shard") is None
            else str(data["shard"]),
            stale=bool(data.get("stale", False)),
            created_at=float(data.get("created_at", 0.0)),
            updated_at=float(data.get("updated_at", 0.0)),
        )

    def touched(self, **changes: object) -> "CatalogEntry":
        """A copy with ``changes`` applied and ``updated_at`` refreshed."""
        return replace(self, updated_at=wall_time(), **changes)  # type: ignore[arg-type]


@dataclass
class Manifest:
    """The whole catalog document: a format version and named entries."""

    version: int = MANIFEST_VERSION
    entries: Dict[str, CatalogEntry] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": self.version,
            "graphs": {name: entry.to_dict()
                       for name, entry in sorted(self.entries.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Manifest":
        version = data.get("format_version")
        if version != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported catalog manifest version {version!r}; "
                f"this build reads version {MANIFEST_VERSION}"
            )
        graphs = data.get("graphs", {})
        if not isinstance(graphs, dict):
            raise ManifestError("catalog manifest 'graphs' must be an object")
        entries = {}
        for name, raw in graphs.items():
            try:
                entries[name] = CatalogEntry.from_dict(raw)
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(
                    f"catalog entry {name!r} is malformed: {exc}"
                ) from exc
        return cls(version=MANIFEST_VERSION, entries=entries)


def load_manifest(path: str) -> Manifest:
    """Read and validate the manifest at ``path``.

    Raises:
        ManifestError: when the file is missing, unreadable, not valid
            JSON, or of an unsupported version.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ManifestError(f"no catalog manifest at {path!r}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(
            f"catalog manifest {path!r} is unreadable: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ManifestError(f"catalog manifest {path!r} is not a JSON object")
    return Manifest.from_dict(data)


def save_manifest(manifest: Manifest, path: str) -> None:
    """Atomically write ``manifest`` to ``path`` (temp file + rename), so a
    crash mid-save never corrupts the previous document.

    The temp name is unique per *writer* — pid, thread, and a counter —
    not just per process: two catalog handles flushing from different
    threads of one process must never scribble into the same temp file
    (the first ``os.replace`` would steal the second writer's bytes).
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    with _TEMP_COUNTER_LOCK:
        global _TEMP_COUNTER
        _TEMP_COUNTER += 1
        serial = _TEMP_COUNTER
    temp_path = (f"{path}.tmp.{os.getpid()}."
                 f"{threading.get_ident()}.{serial}")
    body = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    try:
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(body)
        os.replace(temp_path, path)
    finally:
        if os.path.exists(temp_path):  # pragma: no cover - error path
            os.remove(temp_path)


__all__ = [
    "CatalogEntry",
    "DEFAULT_IN_TABLE",
    "DEFAULT_OUT_TABLE",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "Manifest",
    "SegTableRecord",
    "load_manifest",
    "save_manifest",
]
