"""Graph store over the built-in mini relational engine.

This store plays the role of the paper's DBMS-x: tables live in the
page-based storage engine behind a buffer pool, the E-operator join probes
the (optionally clustered) index on ``TEdges(fid)`` / ``TOutSegs(fid)``, the
window function removes duplicate expansions, and the M-operator runs as a
MERGE (or as UPDATE + INSERT in the traditional-SQL mode).

:meth:`MiniDBGraphStore.iterate` runs the statements of one FEM
iteration in the paper's Listings 2–4 and charges each to the current
:class:`~repro.core.stats.QueryStats`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.directions import BACKWARD_DIRECTION, Direction, FORWARD_DIRECTION, INFINITY
from repro.core.path import linked_path
from repro.core.sqlstyle import NSQL, validate_sql_style
from repro.core.stats import (
    OPERATOR_E,
    OPERATOR_F,
    OPERATOR_M,
    PHASE_PATH_EXPANSION,
    PHASE_PATH_RECOVERY,
    PHASE_STATISTICS,
)
from repro.core.store.base import (
    MODE_HOPS,
    MODE_NODE,
    PROBE_FINALIZED,
    PROBE_MEET,
    GraphStore,
    IndexMode,
    IterationRule,
    Step,
)
from repro.core.store.registry import register_backend
from repro.errors import InvalidQueryError, PathNotFoundError
from repro.graph.model import Graph
from repro.rdb.engine import Database
from repro.rdb.merge import merge_into, merge_with_update_insert
from repro.rdb.schema import Column
from repro.rdb.table import Table
from repro.rdb.types import FLOAT, INTEGER
from repro.rdb.window import window_row_number

# Encoding of the composite (fid, tid) key used by the construction working
# tables; node ids must stay below this base, which is ample for the graph
# sizes a pure-Python reproduction runs.
_PAIR_BASE = 1 << 32


def _pair_key(fid: int, tid: int) -> int:
    return fid * _PAIR_BASE + tid


# The SegTable construction's working table: ``pid`` is the node before
# ``tid`` and ``sid`` the node after ``fid`` on the segment.
_SEG_WORK_COLUMNS = ("pairkey", "fid", "tid", "pid", "sid", "cost", "f")


class MiniDBGraphStore(GraphStore):
    """Graph store backed by :class:`repro.rdb.engine.Database`.

    There is no cheap :meth:`~repro.core.store.base.GraphStore.clone` path —
    the engine is a single in-process :class:`Database` — so the store pool
    grows by rehydrating full replicas (fresh store + ``load_graph``).  Each
    replica owns its pages, buffer pool, and indexes outright, which is what
    makes concurrent readers safe to declare.
    """

    backend_name = "minidb"
    supports_concurrent_readers = True

    def __init__(self, database: Optional[Database] = None,
                 buffer_capacity: int = 256,
                 path: Optional[str] = None) -> None:
        super().__init__()
        self.database = database or Database(path=path, buffer_capacity=buffer_capacity)
        self._owns_database = database is None
        self.index_mode = IndexMode.CLUSTERED
        self._graph_loaded = False

    # ------------------------------------------------------------------ helpers

    def _count_statement(self) -> None:
        self.stats.record_statement()

    def _table(self, name: str) -> Table:
        return self.database.table(name)

    @property
    def visited(self) -> Table:
        """The ``TVisited`` table."""
        return self._table("TVisited")

    @property
    def edges(self) -> Table:
        """The ``TEdges`` table."""
        return self._table("TEdges")

    # ------------------------------------------------------------- graph loading

    def load_graph(self, graph: Graph, index_mode: str = IndexMode.CLUSTERED) -> None:
        """Create and populate ``TNodes`` and ``TEdges``."""
        self.index_mode = IndexMode.validate(index_mode)
        nodes = self.database.create_table("TNodes", [Column("nid", INTEGER)])
        edges = self.database.create_table(
            "TEdges",
            [Column("fid", INTEGER), Column("tid", INTEGER), Column("cost", FLOAT)],
        )
        nodes.insert_many({"nid": nid} for nid in sorted(graph.nodes()))
        edge_rows = [
            {"fid": edge.fid, "tid": edge.tid, "cost": edge.cost}
            for edge in graph.edges()
        ]
        if self.index_mode == IndexMode.CLUSTERED:
            edges.bulk_load(edge_rows, order_by="fid")
            edges.create_index("fid", clustered=True)
            edges.create_index("tid")
        elif self.index_mode == IndexMode.NONCLUSTERED:
            edges.bulk_load(edge_rows)
            edges.create_index("fid")
            edges.create_index("tid")
        else:
            edges.bulk_load(edge_rows)
        self._create_visited_table()
        self._graph_loaded = True

    def _create_visited_table(self) -> None:
        if self.database.has_table("TVisited"):
            return
        visited = self.database.create_table(
            "TVisited",
            [
                Column("nid", INTEGER),
                Column("d2s", FLOAT),
                Column("p2s", INTEGER),
                Column("f", INTEGER),
                Column("d2t", FLOAT),
                Column("p2t", INTEGER),
                Column("b", INTEGER),
            ],
        )
        if self.index_mode != IndexMode.NONE:
            visited.create_index("nid", unique=True)

    def load_segtable(self, out_segments: Sequence[Dict[str, object]],
                      in_segments: Sequence[Dict[str, object]],
                      lthd: float,
                      index_mode: str = IndexMode.CLUSTERED) -> None:
        """Create ``TOutSegs`` / ``TInSegs`` from precomputed segment rows."""
        index_mode = IndexMode.validate(index_mode)
        for name, rows in (("TOutSegs", out_segments), ("TInSegs", in_segments)):
            if self.database.has_table(name):
                self.database.drop_table(name)
            table = self.database.create_table(
                name,
                [
                    Column("fid", INTEGER),
                    Column("tid", INTEGER),
                    Column("pid", INTEGER),
                    Column("cost", FLOAT),
                ],
            )
            if index_mode == IndexMode.CLUSTERED:
                table.bulk_load(rows, order_by="fid")
                table.create_index("fid", clustered=True)
            elif index_mode == IndexMode.NONCLUSTERED:
                table.bulk_load(rows)
                table.create_index("fid")
            else:
                table.bulk_load(rows)
        self.has_segtable = True
        self.segtable_lthd = lthd

    def segment_counts(self) -> Dict[str, int]:
        """Segment counts of the loaded SegTable."""
        counts = {"out": 0, "in": 0}
        if self.database.has_table("TOutSegs"):
            counts["out"] = self._table("TOutSegs").row_count
        if self.database.has_table("TInSegs"):
            counts["in"] = self._table("TInSegs").row_count
        return counts

    def close(self) -> None:
        """Close the underlying database if this store created it."""
        if self._owns_database:
            self.database.close()

    # ---------------------------------------------------------------- TVisited setup

    def reset_visited(self) -> None:
        """Truncate ``TVisited`` so a new query starts from scratch."""
        self._create_visited_table()
        self.visited.truncate()

    def insert_visited(self, rows: Sequence[Dict[str, object]]) -> None:
        """Insert the initial visited rows (Listing 2(1))."""
        self._count_statement()
        for row in rows:
            complete = {
                "nid": row["nid"],
                "d2s": row.get("d2s", INFINITY),
                "p2s": row.get("p2s"),
                "f": row.get("f", 0),
                "d2t": row.get("d2t", INFINITY),
                "p2t": row.get("p2t"),
                "b": row.get("b", 0),
            }
            self.visited.insert(complete)

    def visited_count(self) -> int:
        """Number of visited nodes (Table 3's "Vst")."""
        return self.visited.row_count

    # ------------------------------------------------------------ one FEM iteration

    def iterate(self, direction: Direction, rule: IterationRule) -> Step:
        """One F/E/M iteration plus its probe (Listings 2-4)."""
        stats = self.stats
        flag, dist = direction.flag_col, direction.dist_col
        if rule.mode == MODE_NODE:
            # Listing 2(2): the candidate with the least distance.
            with stats.phase(PHASE_STATISTICS):
                self._count_statement()
                _, mid = self._least_unfinalized(direction)
            if mid is None:
                return Step(selected=0)
            with stats.phase(PHASE_PATH_EXPANSION):
                affected = self._expand(direction, rule, mid)
                # Listing 3(2): finalize it.
                self._count_statement()
                with stats.operator(OPERATOR_F):
                    self.visited.update_where(
                        lambda row: row["nid"] == mid,
                        lambda row: {flag: 1},
                    )
            selected = 1
        else:
            with stats.phase(PHASE_PATH_EXPANSION):
                # Listing 4(1): mark the frontier with flag = 2.
                self._count_statement()
                with stats.operator(OPERATOR_F):
                    least, _ = self._least_unfinalized(direction)
                    threshold = max(rule.threshold, least)
                    selected = 0 if least == INFINITY else self.visited.update_where(
                        lambda row: row[flag] == 0 and row[dist] <= threshold,
                        lambda row: {flag: 2},
                    )
                if not selected:
                    return Step(selected=0)
                if rule.mode == MODE_HOPS:
                    affected = self._expand_hops(direction)
                else:
                    affected = self._expand(direction, rule)
                # Listing 4(3): mark the frontier as expanded.
                self._count_statement()
                with stats.operator(OPERATOR_F):
                    self.visited.update_where(
                        lambda row: row[flag] == 2,
                        lambda row: {flag: 1},
                    )
        with stats.phase(PHASE_STATISTICS):
            if rule.probe == PROBE_MEET:
                # Listing 4(4) and 4(5).
                self._count_statement()
                latest, _ = self._least_unfinalized(direction)
                return Step(selected, affected,
                            latest=None if latest == INFINITY else latest,
                            min_cost=self._min_cost())
            if rule.probe == PROBE_FINALIZED:
                # Listing 3(1).
                self._count_statement()
                row = self._visited_row(rule.target)
                done = row is not None and row[flag] == 1
            else:
                done = self._distance(rule.target, direction) is not None
        return Step(selected, affected, done=done)

    def _least_unfinalized(self, direction: Direction
                           ) -> Tuple[float, Optional[int]]:
        """The least flag-0 distance in ``direction`` and its node."""
        flag, dist = direction.flag_col, direction.dist_col
        least, nid = INFINITY, None
        for row in self.visited.scan():
            if row[flag] == 0 and row[dist] < least:
                least, nid = row[dist], int(row["nid"])
        return least, nid

    def _visited_row(self, nid: int) -> Optional[Dict[str, object]]:
        for row in self.visited.lookup("nid", nid):
            return row
        return None

    def _distance(self, nid: int, direction: Direction) -> Optional[float]:
        """Distance of ``nid`` in ``direction``, ``None`` when unreached."""
        self._count_statement()
        row = self._visited_row(nid)
        if row is None or row[direction.dist_col] >= INFINITY:
            return None
        return float(row[direction.dist_col])

    def _min_cost(self) -> float:
        """Listing 4(5): minimal ``d2s + d2t`` over all visited nodes."""
        self._count_statement()
        best = INFINITY
        for row in self.visited.scan():
            total = row["d2s"] + row["d2t"]
            if total < best:
                best = total
        return best

    def recover(self, source: int, target: int,
                probe: str) -> Optional[Tuple[float, List[int]]]:
        """Listing 4(5)-(6), then one Listing 3(3) lookup per link."""
        distance: Optional[float] = None
        meeting: Optional[int] = target
        with self.stats.phase(PHASE_STATISTICS):
            if probe == PROBE_MEET:
                distance = self._min_cost()
                if distance >= INFINITY:
                    return None
                self._count_statement()
                meeting = next((int(row["nid"]) for row in self.visited.scan()
                                if abs(row["d2s"] + row["d2t"] - distance) < 1e-9),
                               None)
                if meeting is None:
                    raise PathNotFoundError(
                        f"internal error: no meeting node for "
                        f"minCost={distance}")
            elif probe == PROBE_FINALIZED:
                distance = self._distance(target, FORWARD_DIRECTION)

        def link(nid: int, direction: Direction) -> Optional[int]:
            self._count_statement()
            row = self._visited_row(nid)
            if row is None or row[direction.pred_col] is None:
                return None
            return int(row[direction.pred_col])

        with self.stats.phase(PHASE_PATH_RECOVERY):
            path = linked_path(link, source, target, meeting,
                               probe == PROBE_MEET,
                               max(self.visited_count(), 1) + 1)
        return (float(len(path) - 1) if distance is None else distance,
                path)

    def _expand(self, direction: Direction, rule: IterationRule,
                mid: Optional[int] = None) -> int:
        """The combined E- and M-operator (Listing 2(3)+(4) / Listing 4(2))
        for the node ``mid`` or, without one, the flag-2 frontier."""
        if rule.use_segtable and not self.has_segtable:
            raise InvalidQueryError("SegTable expansion requested but no SegTable loaded")
        self._count_statement()
        with self.stats.operator(OPERATOR_E):
            candidates = self._expand_candidates(
                direction, mid, rule.use_segtable, rule.prune_lb,
                rule.prune_min_cost
            )
            deduplicated = self._deduplicate(candidates)
        with self.stats.operator(OPERATOR_M):
            affected = self._merge(direction, deduplicated)
        self.stats.affected_rows += affected
        return affected

    def _expand_candidates(self, direction: Direction, mid: Optional[int],
                           use_segtable: bool, prune_lb: Optional[float],
                           prune_min_cost: Optional[float]) -> List[Dict[str, object]]:
        """E-operator: join the frontier with the edge/segment relation."""
        dist_col, flag_col = direction.dist_col, direction.flag_col
        if mid is not None:
            frontier = [row for row in self.visited.lookup("nid", mid)]
        else:
            frontier = [row for row in self.visited.scan() if row[flag_col] == 2]
        if use_segtable:
            relation = self._table(direction.seg_table)
            key_column, other_column = "fid", "tid"
        else:
            relation = self.edges
            key_column, other_column = direction.edge_key, direction.edge_other
        pruning = prune_lb is not None and prune_min_cost is not None
        candidates: List[Dict[str, object]] = []
        for frontier_row in frontier:
            base_distance = frontier_row[dist_col]
            if base_distance >= INFINITY:
                continue
            for edge_row in relation.lookup(key_column, frontier_row["nid"]):
                candidate_cost = base_distance + edge_row["cost"]
                if pruning and candidate_cost + prune_lb > prune_min_cost:
                    continue
                if use_segtable:
                    predecessor = edge_row["pid"]
                else:
                    predecessor = frontier_row["nid"]
                candidates.append(
                    {
                        "nid": edge_row[other_column],
                        "cost": candidate_cost,
                        "pred": predecessor,
                    }
                )
        return candidates

    def _deduplicate(self, candidates: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Keep the cheapest occurrence per expanded node.

        NSQL uses the window function; TSQL uses a GROUP BY aggregate plus a
        second pass over the candidates to recover the predecessor.
        """
        if not candidates:
            return []
        if validate_sql_style(self.sql_style) == NSQL:
            ranked = window_row_number(
                candidates,
                partition_by=["nid"],
                order_by=[(lambda row: row["cost"], True)],
            )
            return [row for row in ranked if row["rownum"] == 1]
        # Traditional SQL: aggregate, then join back to locate the predecessor
        # (the extra join counts as an extra statement, mirroring Figure 6(d)).
        self._count_statement()
        minima: Dict[object, float] = {}
        for row in candidates:
            nid = row["nid"]
            if nid not in minima or row["cost"] < minima[nid]:
                minima[nid] = row["cost"]
        results: List[Dict[str, object]] = []
        seen: set = set()
        for row in candidates:
            nid = row["nid"]
            if nid in seen:
                continue
            if row["cost"] == minima[nid]:
                results.append(row)
                seen.add(nid)
        return results

    def _merge(self, direction: Direction, rows: List[Dict[str, object]]) -> int:
        """M-operator: merge deduplicated candidates into ``TVisited``."""
        if not rows:
            return 0
        dist_col, pred_col, flag_col = (
            direction.dist_col, direction.pred_col, direction.flag_col,
        )

        def matched_condition(target: Dict[str, object], source: Dict[str, object]) -> bool:
            return target[dist_col] > source["cost"]

        def matched_update(target: Dict[str, object],
                           source: Dict[str, object]) -> Dict[str, object]:
            return {dist_col: source["cost"], pred_col: source["pred"], flag_col: 0}

        def not_matched_insert(source: Dict[str, object]) -> Dict[str, object]:
            row = {
                "nid": source["nid"],
                "d2s": INFINITY,
                "p2s": None,
                "f": 0,
                "d2t": INFINITY,
                "p2t": None,
                "b": 0,
            }
            row[dist_col] = source["cost"]
            row[pred_col] = source["pred"]
            row[flag_col] = 0
            return row

        if validate_sql_style(self.sql_style) == NSQL:
            merge_function = merge_into
        else:
            # UPDATE followed by INSERT ... NOT EXISTS: one extra statement.
            merge_function = merge_with_update_insert
            self._count_statement()
        result = merge_function(
            self.visited, rows, key_column="nid", source_key="nid",
            matched_condition=matched_condition,
            matched_update=matched_update,
            not_matched_insert=not_matched_insert,
        )
        return result.affected

    def _expand_hops(self, direction: Direction) -> int:
        """Hop-counting E/M: insert-only frontier expansion (weights ignored).

        Candidates are the frontier's neighbors at ``frontier + 1`` hops;
        ties break to the smallest frontier ``nid`` so the witness path is
        deterministic across backends.  Nodes already in ``TVisited`` are
        skipped entirely — the hop drivers select whole layers, so every
        visited node already holds its minimal hop count.
        """
        self._count_statement()
        dist_col, pred_col, flag_col = (
            direction.dist_col, direction.pred_col, direction.flag_col,
        )
        with self.stats.operator(OPERATOR_E):
            frontier = [row for row in self.visited.scan()
                        if row[flag_col] == 2]
            best: Dict[int, Dict[str, object]] = {}
            for frontier_row in frontier:
                base_distance = frontier_row[dist_col]
                if base_distance >= INFINITY:
                    continue
                origin = int(frontier_row["nid"])
                for edge_row in self.edges.lookup(direction.edge_key,
                                                  origin):
                    nid = int(edge_row[direction.edge_other])
                    candidate = {"nid": nid, "cost": base_distance + 1.0,
                                 "pred": origin}
                    held = best.get(nid)
                    if (held is None or candidate["cost"] < held["cost"]
                            or (candidate["cost"] == held["cost"]
                                and origin < held["pred"])):
                        best[nid] = candidate
        inserted = 0
        with self.stats.operator(OPERATOR_M):
            for nid in sorted(best):
                if any(True for _ in self.visited.lookup("nid", nid)):
                    continue
                source = best[nid]
                row = {
                    "nid": nid,
                    "d2s": INFINITY,
                    "p2s": None,
                    "f": 0,
                    "d2t": INFINITY,
                    "p2t": None,
                    "b": 0,
                }
                row[dist_col] = source["cost"]
                row[pred_col] = source["pred"]
                row[flag_col] = 0
                self.visited.insert(row)
                inserted += 1
        self.stats.affected_rows += inserted
        return inserted

    # -------------------------------------------------------------- SegTable construction
    #
    # ``TSegsWork`` holds every segment found so far, its unexpanded rows
    # (``f = 0``) reached through the index on ``f``.

    def seg_init(self) -> Optional[float]:
        """Seed ``TSegsWork`` with the (deduplicated) edges of ``TEdges``."""
        self._count_statement()
        if self.database.has_table("TSegsWork"):
            self.database.drop_table("TSegsWork")
        work = self.database.create_table(
            "TSegsWork",
            [Column(name, FLOAT if name == "cost" else INTEGER)
             for name in _SEG_WORK_COLUMNS],
        )
        cheapest: Dict[int, Dict[str, object]] = {}
        for edge in self.edges.scan():
            fid, tid = int(edge["fid"]), int(edge["tid"])
            key = _pair_key(fid, tid)
            if fid != tid and (key not in cheapest
                               or edge["cost"] < cheapest[key]["cost"]):
                cheapest[key] = {"pairkey": key, "fid": fid, "tid": tid,
                                 "pid": fid, "sid": tid,
                                 "cost": edge["cost"], "f": 0}
        work.insert_many(cheapest.values())
        work.create_index("pairkey", unique=True)
        work.create_index("f")
        return self._seg_min()

    def _seg_min(self) -> Optional[float]:
        """Minimal cost among unexpanded working segments."""
        self._count_statement()
        costs = [row["cost"] for row in self._table("TSegsWork").lookup("f", 0)]
        return min(costs) if costs else None

    def seg_round(self, max_cost: float, lthd: float) -> Optional[float]:
        """Move unexpanded segments with cost <= ``max_cost`` to the
        frontier, extend each by one edge and merge the extensions."""
        self._count_statement()
        work = self._table("TSegsWork")
        frontier = []
        for rid, row in work.lookup_with_rids("f", 0):
            if row["cost"] <= max_cost:
                frontier.append(row)
                work.update_by_rid(rid, dict(row, f=1), old_row=row)
        self._count_statement()
        candidates: List[Dict[str, object]] = []
        for segment in frontier:
            # Extend the segment by one original edge leaving its end node.
            end_node = int(segment["tid"])
            for edge_row in self.edges.lookup("fid", end_node):
                new_tid = int(edge_row["tid"])
                new_cost = segment["cost"] + edge_row["cost"]
                if new_tid != segment["fid"] and new_cost <= lthd:
                    candidates.append({
                        "pairkey": _pair_key(int(segment["fid"]), new_tid),
                        "fid": int(segment["fid"]), "tid": new_tid,
                        "pid": end_node, "sid": segment["sid"],
                        "cost": new_cost, "f": 0})
        if not candidates:
            return self._seg_min()
        if validate_sql_style(self.sql_style) == NSQL:
            ranked = window_row_number(
                candidates, partition_by=["pairkey"],
                order_by=[(lambda row: row["cost"], True)],
            )
            deduplicated = [row for row in ranked if row["rownum"] == 1]
            merge_function = merge_into
        else:
            minima: Dict[int, Dict[str, object]] = {}
            for row in candidates:
                key = row["pairkey"]
                if key not in minima or row["cost"] < minima[key]["cost"]:
                    minima[key] = row
            deduplicated = list(minima.values())
            merge_function = merge_with_update_insert
        merge_function(
            work, deduplicated,
            key_column="pairkey", source_key="pairkey",
            matched_condition=lambda target, source: (
                target["cost"] > source["cost"]),
            matched_update=lambda target, source: {
                "cost": source["cost"], "pid": source["pid"],
                "sid": source["sid"], "f": 0},
            not_matched_insert=lambda source: {
                name: source[name] for name in _SEG_WORK_COLUMNS},
        )
        return self._seg_min()

    def seg_finish(self, lthd: float,
                   index_mode: str = IndexMode.CLUSTERED) -> int:
        """Materialize ``TOutSegs`` and, transposed, ``TInSegs``."""
        self._count_statement()
        rows = list(self._table("TSegsWork").scan())
        self.load_segtable(
            [{"fid": row["fid"], "tid": row["tid"], "pid": row["pid"],
              "cost": row["cost"]} for row in rows],
            [{"fid": row["tid"], "tid": row["fid"], "pid": row["sid"],
              "cost": row["cost"]} for row in rows],
            lthd, index_mode)
        self.database.drop_table("TSegsWork")
        return len(rows)

    def seg_rows(self) -> Tuple[List[Dict[str, object]],
                                List[Dict[str, object]]]:
        """The stored ``(TOutSegs, TInSegs)`` rows."""
        def rows(name: str) -> List[Dict[str, object]]:
            if not self.database.has_table(name):
                return []
            return list(self._table(name).scan())

        return rows("TOutSegs"), rows("TInSegs")


def _create_minidb_store(path: Optional[str] = None,
                         buffer_capacity: int = 256) -> MiniDBGraphStore:
    """Backend-registry factory (see :mod:`repro.core.store.registry`)."""
    return MiniDBGraphStore(buffer_capacity=buffer_capacity, path=path)


# replace=True keeps re-imports (importlib.reload, notebook autoreload)
# from tripping the duplicate-name guard.
register_backend(MiniDBGraphStore.backend_name, _create_minidb_store,
                 replace=True)

__all__ = ["MiniDBGraphStore", "FORWARD_DIRECTION", "BACKWARD_DIRECTION"]
