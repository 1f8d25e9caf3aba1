"""``python -m repro.catalog`` — operate on a session catalog from a shell.

Subcommands::

    python -m repro.catalog list    --catalog PATH
    python -m repro.catalog inspect --catalog PATH NAME
    python -m repro.catalog rebuild --catalog PATH NAME [--lthd X]
    python -m repro.catalog gc      --catalog PATH [--stale]
    python -m repro.catalog shards  --catalog PATH [--catalog PATH ...]

``list`` prints one line per entry; ``inspect`` dumps an entry's manifest
JSON; ``rebuild`` re-derives an entry (fingerprint, statistics, SegTable)
from its database file — the recovery path for stale entries; ``gc``
drops entries whose database file vanished (and, with ``--stale``, entries
flagged by a failed fingerprint check); ``shards`` treats each given
catalog as one shard and prints the graph → shard routing table a
:class:`repro.shard.ShardRouter` would derive, without opening any
service — conflicting ownership (same graph name, different content
fingerprints) is reported and exits non-zero.

Exit status is 0 on success, 1 on a catalog error (missing entry,
unreadable manifest, missing database file) or a routing conflict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.errors import (
    PersistentCatalogError,
    ShardError,
    UnknownBackendError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.catalog",
        description="Inspect and maintain a persistent session catalog.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_catalog_arg(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--catalog", required=True,
                         help="catalog directory (holds manifest.json)")

    list_cmd = subparsers.add_parser(
        "list", help="one line per cataloged graph")
    add_catalog_arg(list_cmd)

    inspect_cmd = subparsers.add_parser(
        "inspect", help="dump one entry's manifest JSON")
    add_catalog_arg(inspect_cmd)
    inspect_cmd.add_argument("name", help="cataloged graph name")

    rebuild_cmd = subparsers.add_parser(
        "rebuild",
        help="re-derive an entry (fingerprint, statistics, SegTable) "
             "from its database file")
    add_catalog_arg(rebuild_cmd)
    rebuild_cmd.add_argument("name", help="cataloged graph name")
    rebuild_cmd.add_argument("--lthd", type=float, default=None,
                             help="SegTable threshold (defaults to the "
                                  "entry's previous threshold; omit on an "
                                  "index-less entry to skip the build)")
    rebuild_cmd.add_argument("--sql-style", default=None,
                             choices=("nsql", "tsql"),
                             help="SQL style for the rebuild")

    gc_cmd = subparsers.add_parser(
        "gc", help="drop entries whose database file is gone")
    add_catalog_arg(gc_cmd)
    gc_cmd.add_argument("--stale", action="store_true",
                        help="also drop entries flagged stale by a failed "
                             "fingerprint check")

    shards_cmd = subparsers.add_parser(
        "shards",
        help="print the graph -> shard routing table derived from one "
             "catalog per shard")
    shards_cmd.add_argument("--catalog", action="append", required=True,
                            dest="catalogs", metavar="PATH",
                            help="a shard's catalog directory (repeat once "
                                 "per shard; the shard is named after the "
                                 "directory, or use --name)")
    shards_cmd.add_argument("--name", action="append", dest="names",
                            metavar="NAME",
                            help="explicit shard names matching --catalog "
                                 "positionally (needed when two catalog "
                                 "directories share a basename)")

    return parser


def _shards_table(catalog_paths: Sequence[str],
                  names: Optional[Sequence[str]]) -> List[str]:
    """Build and render the routing table for the ``shards`` subcommand."""
    # Imported lazily: the shard package depends on this package, and the
    # routing reader works on manifests alone (no service is opened).
    from repro.shard.routing import (
        format_routing_table,
        routing_table_from_catalogs,
    )
    from repro.shard.spec import default_shard_name

    if names is None:
        names = [default_shard_name(path) for path in catalog_paths]
    elif len(names) != len(catalog_paths):
        raise ShardError(
            f"got {len(names)} --name values for {len(catalog_paths)} "
            f"--catalog paths"
        )
    if len(set(names)) != len(names):
        raise ShardError(
            f"duplicate shard names {tuple(names)}; pass --name once per "
            f"--catalog to disambiguate"
        )
    catalogs = [(name, Catalog(path, create=False))
                for name, path in zip(names, catalog_paths)]
    table = routing_table_from_catalogs(catalogs)
    lines = format_routing_table(
        table, title=f"{len(table)} graph(s) across {len(catalogs)} shard(s)")
    for shard, owned in table.by_shard().items():
        lines.append(f"  {shard}: {', '.join(owned)}")
    return lines


def _format_list(catalog: Catalog) -> List[str]:
    entries = catalog.entries()
    if not entries:
        return [f"(catalog at {catalog.path} is empty)"]
    header = (f"{'name':<20} {'backend':<8} {'nodes':>8} {'edges':>9} "
              f"{'lthd':>6} {'state':<6} db_path")
    lines = [header, "-" * len(header)]
    for name in sorted(entries):
        entry = entries[name]
        lthd = "-" if entry.segtable is None else f"{entry.segtable.lthd:g}"
        state = "stale" if entry.stale else "ok"
        lines.append(
            f"{entry.name:<20} {entry.backend:<8} {entry.num_nodes:>8} "
            f"{entry.num_edges:>9} {lthd:>6} {state:<6} {entry.db_path}"
        )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "shards":
            for line in _shards_table(args.catalogs, args.names):
                print(line)
            return 0
        # Never materialize a catalog from the CLI: a mistyped --catalog
        # path should error, not silently create an empty directory.
        catalog = Catalog(args.catalog, create=False)
        if args.command == "list":
            for line in _format_list(catalog):
                print(line)
        elif args.command == "inspect":
            entry = catalog.get(args.name)
            print(json.dumps(entry.to_dict(), indent=2, sort_keys=True))
        elif args.command == "rebuild":
            entry = catalog.rebuild(args.name, lthd=args.lthd,
                                    sql_style=args.sql_style)
            segments = (0 if entry.segtable is None or entry.segtable.build is None
                        else entry.segtable.build.encoding_number)
            print(f"rebuilt {entry.name!r}: {entry.num_nodes} nodes, "
                  f"{entry.num_edges} edges, fingerprint "
                  f"{entry.fingerprint[:18]}..., {segments} segments")
        elif args.command == "gc":
            removed = catalog.gc(remove_stale=args.stale)
            if removed:
                print(f"removed {len(removed)} entr"
                      f"{'y' if len(removed) == 1 else 'ies'}: "
                      f"{', '.join(removed)}")
            else:
                print("nothing to remove")
    except (PersistentCatalogError, ShardError, UnknownBackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `... inspect ... | head`
        return 0
    return 0


__all__ = ["main"]
