"""Persistent session catalog: durable graph manifests and warm starts.

The paper's SegTable is an *offline* index — Figure 9 shows its size and
construction time growing sharply with ``lthd`` — yet without this package
every process rebuilt graphs, statistics, and SegTables from scratch.  The
catalog makes that state durable:

* a :class:`~repro.catalog.manifest.Manifest` (versioned JSON, written
  atomically) records each registered graph's backend, ``db_path``,
  content fingerprint, planner statistics, and SegTable metadata;
* :class:`Catalog` is the directory-rooted registry the service layer
  writes through (every mutation persists immediately) and
  ``PathService.open(catalog_path=...)`` reads to reattach everything —
  no edge reload, no statistics rescan, no SegTable reconstruction;
* fingerprints (:mod:`repro.graph.fingerprint`) detect a database file
  that changed underneath the manifest: the entry is marked stale and
  attaches fail with :class:`~repro.errors.FingerprintMismatchError`
  until it is re-registered or rebuilt;
* ``python -m repro.catalog`` (:mod:`repro.catalog.cli`) lists, inspects,
  rebuilds, and garbage-collects entries from a shell.

Planner calibration is not cataloged: a probe prices the process that ran
it (``docs/planner.md``).  See ``docs/catalog.md`` for the manifest format
and invalidation rules.
"""

from repro.catalog.catalog import Catalog
from repro.catalog.manifest import (
    CatalogEntry,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    Manifest,
    SegTableRecord,
    load_manifest,
    save_manifest,
)

__all__ = [
    "Catalog",
    "CatalogEntry",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "Manifest",
    "SegTableRecord",
    "load_manifest",
    "save_manifest",
]
