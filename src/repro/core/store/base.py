"""Abstract interface every graph store implements.

Each method corresponds to one SQL statement of the paper's Listings 2–4 (or
to a DDL/bulk-load step performed once per graph).  Implementations must
charge issued statements, per-operator timing and affected-row counts to the
:class:`~repro.core.stats.QueryStats` object supplied via
:meth:`GraphStore.begin_query`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.directions import Direction
from repro.core.stats import QueryStats
from repro.errors import PersistenceUnsupportedError, StoreCloneUnsupportedError
from repro.graph.model import Graph


class IndexMode:
    """Index strategies of Figure 8(c)."""

    CLUSTERED = "clustered"
    NONCLUSTERED = "nonclustered"
    NONE = "none"

    ALL = (CLUSTERED, NONCLUSTERED, NONE)

    @classmethod
    def validate(cls, mode: str) -> str:
        """Return ``mode`` lower-cased, raising ``ValueError`` when unknown."""
        normalized = mode.lower()
        if normalized not in cls.ALL:
            raise ValueError(f"unknown index mode {mode!r}; expected one of {cls.ALL}")
        return normalized


class GraphStore(ABC):
    """The relational backend the FEM algorithms issue statements against.

    Concrete stores set :attr:`backend_name` and register a factory in
    :mod:`repro.core.store.registry`; the service layer instantiates them
    exclusively through that registry.
    """

    backend_name: str = ""
    """Registry name of this store class (empty for unregistered stores)."""

    supports_concurrent_readers: bool = False
    """Whether independent reader handles of this backend (the primary store
    plus its :meth:`clone` / rehydrated replicas) may answer queries from
    different threads at the same time.

    The :class:`~repro.service.pool.StorePool` enforces this flag: a backend
    that leaves it ``False`` never gets more than one pooled connection, so
    its queries serialize even when the caller asks for a wider pool.  A
    backend may set it ``True`` when each pooled member owns (or safely
    shares read-only) its underlying data — e.g. one SQLite connection per
    member over the same database file.
    """

    def __init__(self) -> None:
        self.stats: QueryStats = QueryStats()
        self.sql_style: str = "nsql"
        self.has_segtable: bool = False
        self.segtable_lthd: Optional[float] = None

    def quiesce(self) -> None:
        """Release cross-query resources so the store can sit idle.

        The store pool calls this at every checkin.  Engines that
        accumulate state between statements override it — SQLite ends the
        implicit transaction its temp-table writes opened, dropping the
        shared lock the connection would otherwise keep on the database
        file (which would block a SegTable build's commit forever).  The
        default is a no-op.
        """

    def max_connections(self) -> Optional[int]:
        """Backend-imposed bound on simultaneously open reader handles of
        *this instance* (the primary plus every pooled clone/replica), or
        ``None`` when the backend imposes none.

        Embedded engines return ``None`` — a second SQLite connection is a
        file handle, effectively free — but a client-server store's
        :meth:`clone` opens a genuine server connection, and servers cap
        those (PostgreSQL's ``max_connections``, a pool's
        ``pool_size``/``max_overflow`` knobs).  The
        :class:`~repro.service.pool.StorePool` clamps its capacity to this
        bound so a wide parallel batch can never exhaust the server.
        """
        return None

    def supports_clone(self) -> bool:
        """Whether :meth:`clone` has a fast path for *this instance* (e.g.
        a ``db_path``-backed SQLite store, but not an in-memory one).  The
        service skips work that only rehydration-based pool growth needs —
        like capturing SegTable rows — when this returns ``True``."""
        return False

    def clone(self) -> "GraphStore":
        """Return a fresh reader handle over this store's already-loaded data.

        This is the cheap pool-growth path: a ``db_path``-backed SQLite store
        clones by opening another connection to the same file, skipping the
        bulk load entirely.  Stores without such a fast path raise
        :class:`~repro.errors.StoreCloneUnsupportedError`, and the pool falls
        back to rehydrating a replica (fresh store + ``load_graph`` +
        ``load_segtable``) instead.

        Clones are *readers*: the pool never calls :meth:`load_graph` or the
        SegTable-construction statements on them, only the per-query
        statements (Listings 2-4).
        """
        raise StoreCloneUnsupportedError(
            f"{type(self).__name__} has no cheap clone path; "
            f"the pool will rehydrate a replica from the hosted graph"
        )

    # -- persistence capability (session catalog) ---------------------------------

    def supports_persistence(self) -> bool:
        """Whether *this instance*'s graph data survives process restart in
        a reattachable form (e.g. a ``db_path``-backed SQLite store, whose
        tables live in the file; not an in-memory store, and not an engine
        whose schema catalog is process-local).

        Only persistent stores participate in the session catalog: the
        catalog records their ``db_path`` so a later
        ``PathService.open(catalog_path=...)`` reattaches without a bulk
        ``load_graph``.  The default is ``False``; every other method in
        this section may then raise :class:`PersistenceUnsupportedError`.
        """
        return False

    def has_persistent_tables(self) -> bool:
        """Whether ``TNodes`` / ``TEdges`` already exist in the backing
        database (a warm reattach opens the file and finds them; a fresh
        store over a new file does not have them yet)."""
        return False

    def has_persistent_segtable(self) -> bool:
        """Whether ``TOutSegs`` / ``TInSegs`` already exist in the backing
        database, i.e. a previously built SegTable survived in the file."""
        return False

    def adopt_segtable(self, lthd: float) -> None:
        """Mark the segment tables already present in the backing database
        as this store's live SegTable (sets :attr:`has_segtable` /
        :attr:`segtable_lthd` without running the offline construction).
        ``lthd`` comes from the catalog entry — the threshold is *not*
        recoverable from the tables themselves."""
        raise self._persistence_unsupported("adopt_segtable")

    def export_graph(self) -> Graph:
        """Read ``TNodes`` / ``TEdges`` back into an in-memory
        :class:`~repro.graph.model.Graph` (always directed — an undirected
        input was stored as two directed edges and round-trips as such).

        This is the warm-attach read path: a ``SELECT`` scan, not the
        write-side ``load_graph`` (no table creation, no bulk insert, no
        index build).
        """
        raise self._persistence_unsupported("export_graph")

    def content_fingerprint(self) -> str:
        """Digest of the stored graph content, comparable with
        :func:`repro.graph.fingerprint.fingerprint_graph` of the graph that
        was loaded.  The catalog uses it to detect a database file that
        changed underneath its manifest entry."""
        raise self._persistence_unsupported("content_fingerprint")

    def persistent_segtable_lthd(self) -> Optional[float]:
        """The ``lthd`` the persisted SegTable was built with, when the
        backend records it durably next to the tables (the SQL store
        keeps a small metadata relation for exactly this), else ``None``.
        A catalog warm start prefers the manifest's value; this exists so
        a populated database can be adopted even *without* a catalog
        entry (``PathService.open(backend=..., dsn=...)``)."""
        return None

    def supports_relocation(self) -> bool:
        """Whether *this instance*'s backing database can be copied to a
        new location wholesale via :meth:`export_database` — graph tables,
        indexes, and any materialized SegTable included.

        This is the capability the shard router's rebalance rides on: a
        relocatable store lets ``ShardRouter.move`` ship a graph (and its
        already-built SegTable) to another shard's catalog directory
        without re-running the offline construction.  The default is
        ``False``.
        """
        return False

    def export_database(self, dest_path: str) -> None:
        """Copy the backing database to ``dest_path`` as a consistent
        snapshot (for SQLite, via the online backup API, so concurrent
        readers of the source file are safe).  The copy is byte-equivalent
        in content: opening it yields the same tables, the same
        fingerprint, and the same SegTable relations, ready for
        :meth:`adopt_segtable`.

        Raises:
            PersistenceUnsupportedError: when the store is not relocatable
                (in-memory, or a backend without durable files).
        """
        raise self._persistence_unsupported("export_database")

    def _persistence_unsupported(self, operation: str) -> PersistenceUnsupportedError:
        return PersistenceUnsupportedError(
            f"{type(self).__name__} does not persist graph data "
            f"({operation} is unavailable); only db_path-backed stores of a "
            f"persistence-capable backend can join the session catalog"
        )

    # -- graph and index lifecycle ------------------------------------------------

    @abstractmethod
    def load_graph(self, graph: Graph, index_mode: str = IndexMode.CLUSTERED) -> None:
        """Create ``TNodes`` / ``TEdges`` and bulk-load ``graph`` into them."""

    @abstractmethod
    def load_segtable(self, out_segments: Sequence[Dict[str, object]],
                      in_segments: Sequence[Dict[str, object]],
                      lthd: float,
                      index_mode: str = IndexMode.CLUSTERED) -> None:
        """Create and populate ``TOutSegs`` / ``TInSegs`` from segment rows."""

    @abstractmethod
    def segment_counts(self) -> Dict[str, int]:
        """Return ``{"out": ..., "in": ...}`` segment counts (index size)."""

    @abstractmethod
    def close(self) -> None:
        """Release the underlying database resources."""

    def destroy(self) -> None:
        """Drop this store's durable data (where any exists) and close it.

        Calibration probes and test fixtures call this instead of
        :meth:`close` so a shared database is left clean — the SQL store
        drops its (prefix-namespaced) graph tables; a ``db_path``-backed
        SQLite file is emptied the same way but deliberately NOT deleted.
        The default — plain :meth:`close` — is right for engines whose
        data dies with the handle.
        """
        self.close()

    def calibration_path(self) -> Optional[str]:
        """The ``path`` argument a *calibration probe* store of this
        backend should be created with, or ``None`` for a fresh in-memory
        store (the default, right for embedded engines).

        Client-server backends have no "in-memory" mode: their probes must
        run against the same server — the measured constants are the
        server's — but in a private table namespace, so each call returns
        a DSN with a fresh probe prefix that can never clobber hosted
        graph tables (see :mod:`repro.service.calibrate`).
        """
        return None

    # -- per-query setup --------------------------------------------------------------

    def begin_query(self, stats: QueryStats, sql_style: str = "nsql") -> None:
        """Attach the statistics sink and SQL style for the next query."""
        self.stats = stats
        self.sql_style = sql_style

    @abstractmethod
    def reset_visited(self) -> None:
        """Create (or truncate) the ``TVisited`` table."""

    @abstractmethod
    def insert_visited(self, rows: Sequence[Dict[str, object]]) -> None:
        """Insert initial rows into ``TVisited`` (Listing 2(1))."""

    # -- statistics-collection statements (SC phase) -------------------------------------

    @abstractmethod
    def top1_min_unfinalized(self, direction: Direction) -> Optional[int]:
        """``SELECT TOP 1 nid`` with the minimal distance among non-finalized
        nodes (Listing 2(2)); ``None`` when no candidate remains."""

    @abstractmethod
    def min_unfinalized_distance(self, direction: Direction) -> Optional[float]:
        """``SELECT min(dist) FROM TVisited WHERE flag = 0`` (Listing 4(4))."""

    @abstractmethod
    def count_unfinalized(self, direction: Direction) -> int:
        """Number of candidate frontier nodes (flag = 0) for ``direction``."""

    @abstractmethod
    def min_total_cost(self) -> float:
        """``SELECT min(d2s + d2t) FROM TVisited`` (Listing 4(5)); +inf when
        the searches have not met."""

    @abstractmethod
    def meeting_node(self, min_cost: float) -> Optional[int]:
        """``SELECT nid FROM TVisited WHERE d2s + d2t = minCost`` (Listing 4(6))."""

    @abstractmethod
    def is_finalized(self, nid: int, direction: Direction) -> bool:
        """Termination detection (Listing 3(1))."""

    @abstractmethod
    def visited_count(self) -> int:
        """Number of rows in ``TVisited`` (the "Vst" column of Table 3)."""

    @abstractmethod
    def visited_rows(self) -> List[Dict[str, object]]:
        """Materialize ``TVisited`` (used by tests and debugging)."""

    # -- F-operator statements ---------------------------------------------------------------

    @abstractmethod
    def finalize_node(self, nid: int, direction: Direction) -> None:
        """``UPDATE TVisited SET flag = 1 WHERE nid = mid`` (Listing 3(2))."""

    @abstractmethod
    def select_frontier_set(self, direction: Direction,
                            max_distance: float) -> int:
        """Mark frontier candidates with flag = 2 (Listing 4(1)).

        A node is selected when its flag is 0 and its distance is at most
        ``max_distance`` **or** equal to the minimal distance among flag-0
        nodes.  Returns the number of selected nodes.
        """

    @abstractmethod
    def finalize_frontier(self, direction: Direction) -> int:
        """``UPDATE TVisited SET flag = 1 WHERE flag = 2`` (Listing 4(3))."""

    # -- E + M operators -------------------------------------------------------------------------

    @abstractmethod
    def expand(self, direction: Direction, mid: Optional[int] = None,
               use_segtable: bool = False,
               prune_lb: Optional[float] = None,
               prune_min_cost: Optional[float] = None) -> int:
        """Run the combined E- and M-operator for one expansion.

        Args:
            direction: search direction.
            mid: when given, expand only the node ``mid`` (node-at-a-time,
                Listing 2(3)); otherwise expand every node with flag = 2
                (set-at-a-time, Listing 4(2)).
            use_segtable: expand over ``TOutSegs`` / ``TInSegs`` instead of
                ``TEdges``.
            prune_lb: the opposite direction's latest finalized distance
                (``l_b`` in Theorem 1); ``None`` disables pruning.
            prune_min_cost: the best path length discovered so far
                (``minCost``); ``None`` disables pruning.

        Returns:
            The number of affected TVisited rows (the SQLCA count).
        """

    def expand_hops(self, direction: Direction) -> int:
        """Run one *hop-counting* E/M expansion of the flag-2 frontier.

        The unweighted sibling of the set-at-a-time :meth:`expand`: every
        frontier node's out-neighbors (in-neighbors backward) become
        candidates at distance ``frontier + 1`` — edge weights ignored —
        and, unlike the weighted merge, the insert never updates an
        existing ``TVisited`` row.  Because the hop drivers always select
        the *entire* unfinalized set as the frontier, every visited node
        already carries its minimal hop count, so insert-only is exact and
        keeps predecessor links stable (ties break to the smallest
        frontier ``nid``, which makes the recovered witness path
        deterministic across backends).

        Returns:
            The number of newly inserted TVisited rows.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement hop-counting "
            f"expansion; bounded-hop and reachability queries need it"
        )

    # -- path recovery (FPR phase) ------------------------------------------------------------------

    @abstractmethod
    def get_link(self, nid: int, direction: Direction) -> Optional[int]:
        """``SELECT p2s/p2t FROM TVisited WHERE nid = ?`` (Listing 3(3))."""

    @abstractmethod
    def get_distance(self, nid: int, direction: Direction) -> Optional[float]:
        """Distance of ``nid`` from the direction's origin, if visited."""

    # -- SegTable construction statements (Section 4.2) -------------------------------------------------
    #
    # One forward loop builds both tables.  Each working segment carries
    # ``pid`` (the node before ``tid``) and ``sid`` (the node after
    # ``fid``), so TInSegs is TOutSegs transposed, with ``sid`` as its link.

    @abstractmethod
    def seg_init(self) -> None:
        """Seed the working segments from ``TEdges`` (deduplicated parallel
        edges, no self loops): edge ``(u, v)`` is the unexpanded segment
        ``(u, v)`` with ``pid = u`` and ``sid = v``."""

    @abstractmethod
    def seg_min_unexpanded(self) -> Optional[float]:
        """Minimal cost among unexpanded working segments, read through an
        index rather than a scan of the working segments."""

    @abstractmethod
    def seg_select_frontier(self, max_cost: float) -> int:
        """Copy the unexpanded working segments with cost <= ``max_cost``
        into the frontier relation and mark them expanded; returns how
        many."""

    @abstractmethod
    def seg_expand(self, lthd: float) -> int:
        """One construction expansion: join the frontier with ``TEdges``,
        keep results within ``lthd``, and merge them into the working
        segments (an improved segment becomes unexpanded again).  Returns
        the number of affected working rows."""

    @abstractmethod
    def seg_finish(self, lthd: float,
                   index_mode: str = IndexMode.CLUSTERED) -> int:
        """Write TOutSegs ``(fid, tid, pid, cost)`` and TInSegs ``(tid,
        fid, sid, cost)`` from the working segments, index both on ``fid``,
        and record ``lthd``; returns the number of segments per table."""

    @abstractmethod
    def seg_rows(self) -> Tuple[List[Dict[str, object]],
                                List[Dict[str, object]]]:
        """The stored ``(TOutSegs, TInSegs)`` rows (tests / persistence)."""
