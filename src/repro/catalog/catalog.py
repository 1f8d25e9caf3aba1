"""The :class:`Catalog`: durable registry of graphs and their indexes.

A catalog is a directory holding one ``manifest.json`` (see
:mod:`repro.catalog.manifest`).  The service layer records every
``db_path``-backed graph it hosts — name, backend, content fingerprint,
planner statistics, SegTable metadata — and a later
``PathService.open(catalog_path=...)`` reattaches all of it: no bulk edge
reload, no statistics rescan, and crucially no re-run of the offline
SegTable expansion, whose construction cost is the dominant term the paper
measures in Figure 9.

Every mutator persists immediately, and — so that two services bound to
the same catalog cannot erase each other's registrations — every mutation
runs a **merge-on-write** cycle: re-read the manifest from disk, apply
this one change to the fresh copy, and atomically replace the file.  The
on-disk document is the source of truth; the in-memory copy is just the
latest parse of it.  The whole cycle holds an advisory file lock
(``.manifest.lock`` in the catalog directory, via ``flock``), so the
read-modify-write is exclusive across *every* writer sharing the
directory — other threads, other :class:`Catalog` handles, and other
processes — which is exactly the guarantee the shard router's rebalance
leans on when it rewrites two manifests.  (On platforms without
``fcntl`` the lock degrades to the in-process mutex only.)  The class
itself is additionally locked for concurrent threads of one service.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.catalog.manifest import (
    CatalogEntry,
    MANIFEST_NAME,
    Manifest,
    SegTableRecord,
    load_manifest,
    save_manifest,
)
from repro.core.segtable import build_segtable as _build_segtable
from repro.core.store.registry import create_store, is_dsn
from repro.errors import CatalogEntryNotFoundError, ManifestError
from repro.obs import wall_time
from repro.graph.stats import compute_statistics

LOCK_NAME = ".manifest.lock"
"""Advisory lock file guarding the manifest's merge-on-write cycle."""


class Catalog:
    """A persistent session catalog rooted at a directory.

    Args:
        path: the catalog directory; created (with parents) if missing.
            An existing ``manifest.json`` inside is loaded and validated;
            otherwise the catalog starts empty and the manifest is written
            on first registration.
        create: create the directory when it does not exist.  Pass
            ``False`` to refuse instead (the CLI does, so a mistyped
            ``--catalog`` path errors rather than silently materializing
            an empty catalog).
    """

    def __init__(self, path: str, create: bool = True) -> None:
        self.path = os.path.abspath(path)
        if os.path.isfile(self.path):
            raise ManifestError(
                f"catalog path {path!r} is a file; pass the catalog "
                f"*directory* (its manifest lives at "
                f"<dir>/{MANIFEST_NAME})"
            )
        if not os.path.isdir(self.path):
            if not create:
                raise ManifestError(
                    f"no catalog directory at {path!r}"
                )
            os.makedirs(self.path, exist_ok=True)
        self.manifest_path = os.path.join(self.path, MANIFEST_NAME)
        self.lock_path = os.path.join(self.path, LOCK_NAME)
        self._lock = threading.Lock()
        if os.path.exists(self.manifest_path):
            self._manifest = load_manifest(self.manifest_path)
        else:
            self._manifest = Manifest()

    @contextmanager
    def _mutate(self) -> Iterator[None]:
        """Exclusive merge-on-write window: the in-process mutex plus the
        advisory file lock, with the manifest re-read once both are held.
        Every mutator's read-modify-write runs inside this window, so no
        concurrent writer — thread, handle, or process — can have its
        registration erased by a stale document replay."""
        with self._lock:
            if fcntl is None:  # pragma: no cover - non-POSIX fallback
                self._refresh()
                yield
                return
            with open(self.lock_path, "a+b") as lock_handle:
                fcntl.flock(lock_handle, fcntl.LOCK_EX)
                try:
                    self._refresh()
                    yield
                finally:
                    fcntl.flock(lock_handle, fcntl.LOCK_UN)

    # -- reading -----------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """Registered graph names, sorted."""
        with self._lock:
            return tuple(sorted(self._manifest.entries))

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._manifest.entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._manifest.entries)

    def get(self, name: str) -> CatalogEntry:
        """The entry registered under ``name``.

        Raises:
            CatalogEntryNotFoundError: when ``name`` is not cataloged.
        """
        with self._lock:
            entry = self._manifest.entries.get(name)
        if entry is None:
            known = self.names() or "(empty catalog)"
            raise CatalogEntryNotFoundError(
                f"graph {name!r} is not in the catalog at {self.path!r}; "
                f"cataloged graphs: {known}"
            )
        return entry

    def entries(self) -> Dict[str, CatalogEntry]:
        """A snapshot of all entries, keyed by name."""
        with self._lock:
            return dict(self._manifest.entries)

    def resolve_db_path(self, entry: CatalogEntry) -> str:
        """The entry's database file as an absolute path (relative paths
        are anchored at the catalog directory, which makes a catalog that
        contains its database files relocatable).  A connection string
        (DSN-backed server entry) is no file at all and passes through
        unchanged."""
        if is_dsn(entry.db_path) or os.path.isabs(entry.db_path):
            return entry.db_path
        return os.path.join(self.path, entry.db_path)

    def normalize_db_path(self, db_path: str) -> str:
        """The manifest form of a caller-supplied ``db_path``: relative to
        the catalog directory when the file lives inside it (relocatable),
        absolute otherwise.  Callers resolve relative paths against their
        *cwd*, so the manifest must never store a cwd-relative path —
        :meth:`resolve_db_path` anchors at the catalog directory instead.
        Connection strings are stored verbatim — the server address is
        already location-independent."""
        if is_dsn(db_path):
            return db_path
        absolute = os.path.abspath(db_path)
        try:
            relative = os.path.relpath(absolute, self.path)
        except ValueError:  # pragma: no cover - Windows cross-drive paths
            return absolute
        if relative == os.curdir or relative.startswith(os.pardir):
            return absolute
        return relative

    # -- writing -----------------------------------------------------------------

    def put(self, entry: CatalogEntry) -> None:
        """Insert or replace ``entry`` and persist the manifest."""
        with self._mutate():
            self._manifest.entries[entry.name] = entry
            self._save()

    def remove(self, name: str) -> None:
        """Forget ``name`` and persist the manifest.

        Raises:
            CatalogEntryNotFoundError: when ``name`` is not cataloged.
        """
        with self._mutate():
            if name not in self._manifest.entries:
                raise CatalogEntryNotFoundError(
                    f"graph {name!r} is not in the catalog at {self.path!r}"
                )
            del self._manifest.entries[name]
            self._save()

    def mark_stale(self, name: str) -> None:
        """Flag ``name`` as stale (fingerprint mismatch) and persist, so
        every later attach fails fast until the entry is rebuilt."""
        with self._mutate():
            entry = self._manifest.entries.get(name)
            if entry is None:  # raced with a remove; nothing to mark
                return
            self._manifest.entries[name] = entry.touched(stale=True)
            self._save()

    def set_segtable(self, name: str,
                     record: Optional[SegTableRecord]) -> None:
        """Attach (or clear, with ``None``) SegTable metadata and persist.

        Raises:
            CatalogEntryNotFoundError: when ``name`` is not cataloged.
        """
        with self._mutate():
            entry = self._manifest.entries.get(name)
            if entry is None:
                raise CatalogEntryNotFoundError(
                    f"graph {name!r} is not in the catalog at {self.path!r}"
                )
            self._manifest.entries[name] = entry.touched(segtable=record)
            self._save()

    def set_shard(self, name: str, shard: Optional[str]) -> None:
        """Stamp (or clear, with ``None``) the shard-ownership record on
        ``name``'s entry and persist.  A no-op when the record already
        matches, so routers re-opening an unchanged topology never rewrite
        the manifest.

        Raises:
            CatalogEntryNotFoundError: when ``name`` is not cataloged.
        """
        with self._mutate():
            entry = self._manifest.entries.get(name)
            if entry is None:
                raise CatalogEntryNotFoundError(
                    f"graph {name!r} is not in the catalog at {self.path!r}"
                )
            if entry.shard == shard:
                return
            self._manifest.entries[name] = entry.touched(shard=shard)
            self._save()

    def _refresh(self) -> None:
        """Re-parse the on-disk manifest (call with the lock held): every
        mutation applies to the freshest document, so another process's
        registrations are merged rather than overwritten."""
        if os.path.exists(self.manifest_path):
            self._manifest = load_manifest(self.manifest_path)
        else:
            self._manifest = Manifest()

    def _save(self) -> None:
        save_manifest(self._manifest, self.manifest_path)

    # -- maintenance -------------------------------------------------------------

    def reload(self) -> None:
        """Re-read the manifest from disk (picks up writes by other
        processes)."""
        with self._lock:
            self._refresh()

    def gc(self, remove_stale: bool = False) -> Tuple[str, ...]:
        """Drop entries whose database file vanished (and, with
        ``remove_stale=True``, entries flagged stale by a failed
        fingerprint check).  Returns the removed names."""
        removed: List[str] = []
        with self._mutate():
            for name, entry in list(self._manifest.entries.items()):
                db_path = self.resolve_db_path(entry)
                # A DSN entry is never "missing": server unreachability is
                # transient and typed (BackendConnectionError at attach),
                # not grounds for dropping the catalog entry.
                missing = not is_dsn(db_path) and not os.path.exists(db_path)
                if missing or (remove_stale and entry.stale):
                    del self._manifest.entries[name]
                    removed.append(name)
            if removed:
                self._save()
        return tuple(removed)

    def rebuild(self, name: str, lthd: Optional[float] = None,
                sql_style: Optional[str] = None,
                index_mode: Optional[str] = None) -> CatalogEntry:
        """Re-derive ``name``'s entry from its database file.

        This is the recovery path for a stale entry: the database file is
        the source of truth, so the graph is exported from it, the
        fingerprint and statistics recomputed, and — when the entry had a
        SegTable (or ``lthd`` is given) — the index rebuilt in place.
        Returns the refreshed entry.

        Raises:
            CatalogEntryNotFoundError: when ``name`` is not cataloged.
            ManifestError: when the database file is missing.
        """
        entry = self.get(name)
        db_path = self.resolve_db_path(entry)
        if not is_dsn(db_path) and not os.path.exists(db_path):
            raise ManifestError(
                f"cannot rebuild {name!r}: database file {db_path!r} is "
                f"missing (run gc to drop the entry)"
            )
        store = create_store(entry.backend, path=db_path,
                             buffer_capacity=entry.buffer_capacity)
        try:
            graph = store.export_graph()
            fingerprint = store.content_fingerprint()
            statistics = compute_statistics(graph)
            previous = entry.segtable
            threshold = lthd if lthd is not None else (
                previous.lthd if previous is not None else None)
            segtable: Optional[SegTableRecord] = None
            if threshold is not None:
                style = sql_style or (previous.sql_style if previous
                                      else "nsql")
                mode = index_mode or entry.index_mode
                build = _build_segtable(store, threshold, sql_style=style,
                                        index_mode=mode)
                segtable = SegTableRecord(lthd=threshold, sql_style=style,
                                          index_mode=mode, build=build,
                                          built_at=wall_time())
            refreshed = entry.touched(
                fingerprint=fingerprint,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                statistics=statistics,
                segtable=segtable,
                stale=False,
            )
        finally:
            store.close()
        self.put(refreshed)
        return refreshed


__all__ = ["Catalog"]
