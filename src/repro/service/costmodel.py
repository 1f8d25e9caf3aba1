"""Calibrated cost model behind ``method="auto"`` (and ``lthd="auto"``).

The paper's central observation (Tables 2–3, Figure 7) is that the winning
method — DJ vs. BDJ vs. BSDJ vs. BSEG — and the best SegTable threshold
depend on the graph *and* the engine underneath.  Instead of hard-coded
node-count thresholds, the planner prices every eligible method with a
small analytic model over **measured unit costs**:

* ``statement_cost`` — fixed overhead of issuing one SQL statement;
* ``scan_row_cost`` — per-``TVisited``-row cost of the statistics
  statements (``min(...)``, ``TOP 1``) that every driver loop issues;
* ``row_cost`` — per-candidate-row cost of the combined E/M expansion
  over ``TEdges``;
* ``seg_row_cost`` — the same over the SegTable relations;
* ``seg_build_row_cost`` — per-stored-segment cost of the offline
  SegTable construction (prices ``lthd="auto"``).

:mod:`repro.service.calibrate` measures these on synthetic probe graphs;
uncalibrated sessions fall back to :func:`default_profile`, whose values
reproduce the paper's qualitative ordering.  The model also closes the
loop at runtime: :meth:`CostModel.observe` folds observed per-query wall
times into an exponentially-weighted per-method bias, so a mis-priced
method self-corrects under real traffic (see
:meth:`PathService.shortest_path`, which feeds every relational execution
back in).

Cost shapes (per method, fitted against the drivers in :mod:`repro.core`
on instrumented runs — expansions, statements, visited counts):

======  ===============================  ======================================
method  iterations                       dominant work
======  ===============================  ======================================
DJ      settled ball ``~ n/2``           4 cheap statements per settled node
BDJ     two balls, ``~ 4 sqrt(n)``       5 cheap statements per settled node
BSDJ    settled / tie-collapse           5 heavy (frontier-wide) statements
BSEG    BSDJ rounds ``/ hop gain``       segment fan-out per node, pruned
HOPS    radius, capped by ``max_hops``   3 frontier-wide statements per layer
REACH   radius                           same layered sweep, unbounded
======  ===============================  ======================================

Set-at-a-time rounds settle every minimal-distance candidate at once, so
their count is the settled-ball size divided by the expected tie-set width
(hub-heavy graphs collide distances constantly; near-chains never do) —
that, not a ``log n`` idealization, is what the instrumented drivers show.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.stats import SegTableBuildStats
from repro.graph.stats import GraphStatistics

AUTO_CANDIDATES: Tuple[str, ...] = ("DJ", "BDJ", "BSDJ")
"""Methods ``auto`` prices on every graph; BSEG joins when a SegTable exists."""

# Uncalibrated defaults (roughly: an in-process Python engine on a laptop).
# Their absolute scale is irrelevant — only the ratios steer the planner —
# and calibration replaces them wholesale.
DEFAULT_STATEMENT_COST = 50e-6
DEFAULT_SCAN_ROW_COST = 0.10e-6
DEFAULT_ROW_COST = 2.0e-6
DEFAULT_SEG_ROW_COST = 2.2e-6
DEFAULT_SEG_BUILD_ROW_COST = 12e-6

# Theorem 1 pruning discount: BSEG's bidirectional pruning rule drops
# candidate segments whose lower bound already exceeds minCost (Table 3
# shows the visited-set shrink).  Applied to BSEG's expanded-row estimate.
SEG_PRUNE_FACTOR = 0.5

# Feedback smoothing: the global (scale) bias follows observations fast;
# per-method biases follow slowly, so the transient while the global factor
# catches up leaks only marginally into method ordering.  The clamp keeps a
# burst of outliers from pinning a method.
FEEDBACK_ALPHA = 0.25
METHOD_ALPHA = 0.05
BIAS_MIN, BIAS_MAX = 0.05, 20.0

# Plan hysteresis: once a method has been chosen for a graph, a challenger
# must price below this fraction of the incumbent to displace it.  Runtime
# feedback only ever observes the methods that actually run, so near-tie
# margins would otherwise oscillate on transient bias shifts — the classic
# adaptive-optimizer plan-stability problem.  The margin sits just under
# the planner benchmark's 15% regret gate: a held second-best plan stays
# within the regret budget.
HYSTERESIS_MARGIN = 0.88


@dataclass
class CostProfile:
    """Measured (or default) unit costs of one backend in this process."""

    backend: str = ""
    statement_cost: float = DEFAULT_STATEMENT_COST
    scan_row_cost: float = DEFAULT_SCAN_ROW_COST
    row_cost: float = DEFAULT_ROW_COST
    seg_row_cost: float = DEFAULT_SEG_ROW_COST
    seg_build_row_cost: float = DEFAULT_SEG_BUILD_ROW_COST
    method_bias: Dict[str, float] = field(default_factory=dict)
    global_bias: float = 1.0
    calibrated: bool = False
    probe_seconds: float = 0.0

    def bias(self, method: str) -> float:
        return self.method_bias.get(method, 1.0)


def default_profile(backend: str = "") -> CostProfile:
    """An uncalibrated profile with the built-in unit costs."""
    return CostProfile(backend=backend)


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of running one method on one graph.

    Attributes:
        method: the method priced.
        seconds: predicted wall-clock seconds (bias applied).
        iterations: predicted driver-loop iterations.
        statements: predicted statements issued.
        rows: predicted candidate rows through the E/M operators.
        eligible: ``False`` marks a method priced for the breakdown but
            not runnable right now (BSEG without a SegTable).
    """

    method: str
    seconds: float
    iterations: int
    statements: int
    rows: int
    eligible: bool = True

    def as_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "seconds": self.seconds,
            "iterations": self.iterations,
            "statements": self.statements,
            "rows": self.rows,
            "eligible": self.eligible,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CostEstimate":
        """Rebuild from :meth:`as_dict` output (remote ``explain()`` ships
        the per-method breakdown over the serve wire protocol)."""
        return cls(
            method=str(data["method"]),
            seconds=float(data["seconds"]),
            iterations=int(data["iterations"]),
            statements=int(data["statements"]),
            rows=int(data["rows"]),
            eligible=bool(data.get("eligible", True)),
        )


@dataclass(frozen=True)
class CostSample:
    """One feedback observation folded into the model."""

    method: str
    predicted: float
    observed: float


@dataclass(frozen=True)
class _Shape:
    """Structural estimate of one method's run on one graph."""

    iterations: int
    fixed_statements: int   # expand / finalize — cost is per statement
    scan_statements: int    # statistics statements — cost also scans TVisited
    rows: float             # candidate rows through E/M
    visited: float          # TVisited rows (drives scan-statement cost)
    seg_rows: bool = False  # rows go through the SegTable relation
    statement_weight: float = 1.0  # set-at-a-time statements touch whole
    #                                frontiers and carry subqueries; they
    #                                cost a multiple of a point statement

# Per-statement weight of the set-at-a-time statements (Listing 4): the
# frontier UPDATE and the frontier-wide join are measurably heavier than
# Listing 2's point statements.  BSEG's Theorem-1 pruning trims the
# frontier-wide work those statements do (instrumented runs show ~35%
# smaller visited sets and commensurately lighter scans), hence the
# discount.
SET_STATEMENT_WEIGHT = 2.0
BSEG_STATEMENT_WEIGHT = 1.4


def _branching(stats: GraphStatistics) -> float:
    """Effective branching factor: the mean out-degree, lifted by a
    heavy tail (a hub widens frontiers far beyond the mean — the paper's
    Power graphs are the motivating case)."""
    base = max(1.05, stats.avg_out_degree)
    if stats.max_out_degree > 0:
        base = max(base, min(64.0, math.sqrt(stats.max_out_degree)))
    return base


def _radius(stats: GraphStatistics) -> int:
    """Half-diameter estimate ``log_b n``, honest about near-chain graphs
    (branching ~1 makes the radius linear, which is what sinks
    set-at-a-time there)."""
    nodes = max(2, stats.num_nodes)
    branching = _branching(stats)
    return max(1, min(nodes, math.ceil(math.log(nodes) / math.log(branching))))


def _hop_weight(stats: GraphStatistics) -> float:
    """Expected edge weight along shortest paths.  Dijkstra favours light
    edges, so this sits well below the uniform mean; the blend keeps it
    exact for uniform weights (``w_min == w_max``)."""
    if stats.max_edge_weight <= 0:
        return 1.0
    return max(stats.min_edge_weight,
               stats.min_edge_weight * 0.7 + stats.max_edge_weight * 0.15,
               1e-9)


def _segment_fanout(stats: GraphStatistics, lthd: float) -> float:
    """Predicted stored segments per node for threshold ``lthd`` (the
    Figure 9 index-size curve): every path of total weight <= lthd
    collapses into one segment, so fan-out compounds by the branching
    factor per expected hop."""
    branching = _branching(stats)
    hops = _hop_gain(stats, lthd)
    fanout = branching ** min(hops, 8.0)
    return min(float(max(1, stats.num_nodes - 1)),
               max(stats.avg_out_degree, fanout))


def _hop_gain(stats: GraphStatistics, lthd: float) -> float:
    """How many original hops one segment covers on average."""
    return max(1.0, lthd / _hop_weight(stats))


def _tie_width(stats: GraphStatistics) -> float:
    """Expected size of the minimal-distance candidate set (how many nodes
    one set-at-a-time round settles at once).

    Instrumented runs show the collapse tracks degree *skew*, not raw
    branching: hubs put many nodes at colliding distances (power graph:
    ~5 nodes per round), while uniform-degree grids and chains settle
    barely more than one (~1.3).  Fitted as ``1.2 * skew^0.7``.
    """
    if stats.avg_out_degree <= 0:
        return 1.0
    skew = stats.max_out_degree / stats.avg_out_degree
    return max(1.0, 1.2 * skew ** 0.7)


def _settled_bidirectional(stats: GraphStatistics) -> float:
    """Nodes the two meeting balls settle together (fitted ``4 sqrt(n)``,
    capped at the graph)."""
    nodes = max(2, stats.num_nodes)
    return min(float(nodes), 4.0 * math.sqrt(nodes))


def _bsdj_iterations(stats: GraphStatistics) -> int:
    settled = _settled_bidirectional(stats)
    return max(2, math.ceil(max(settled / _tie_width(stats),
                                2.0 * _radius(stats))))


def _shape(method: str, stats: GraphStatistics,
           segtable_lthd: Optional[float],
           segtable: Optional[SegTableBuildStats],
           max_hops: Optional[int] = None) -> _Shape:
    nodes = max(2, stats.num_nodes)
    degree = max(1.0, stats.avg_out_degree)

    if method in ("HOPS", "REACH"):
        # Layered hop BFS (repro.core.multi): one whole-layer F/E/M round
        # per hop of the witness path, so iterations track the radius —
        # capped by the hop budget when one applies.  Each round issues
        # the frontier UPDATE, the insert-only hop expansion, the
        # finalize UPDATE, and one point probe for the target.
        iterations = _radius(stats)
        if max_hops is not None:
            iterations = max(1, min(iterations, max_hops))
        visited = min(float(nodes),
                      max(degree + 1.0,
                          _branching(stats) ** min(float(iterations), 8.0)))
        return _Shape(iterations=iterations,
                      fixed_statements=3 * iterations,
                      scan_statements=iterations,
                      rows=visited * degree,
                      visited=visited,
                      statement_weight=SET_STATEMENT_WEIGHT)

    if method == "DJ":
        # Settles one node per iteration until the target's ball is done.
        iterations = max(1, nodes // 2)
        visited = min(float(nodes), iterations * degree + 1)
        return _Shape(iterations=iterations,
                      fixed_statements=2 * iterations,
                      scan_statements=2 * iterations,
                      rows=iterations * degree,
                      visited=visited)
    if method == "BDJ":
        # Two balls meeting in the middle, still one node at a time.
        iterations = max(1, math.ceil(_settled_bidirectional(stats)))
        visited = min(float(nodes), iterations * degree + 2)
        return _Shape(iterations=iterations,
                      fixed_statements=2 * iterations,
                      scan_statements=3 * iterations,
                      rows=iterations * degree,
                      visited=visited)
    if method == "BSDJ":
        # Settles every minimal-distance candidate per round.
        iterations = _bsdj_iterations(stats)
        settled = _settled_bidirectional(stats)
        visited = min(float(nodes), settled * degree + 2)
        return _Shape(iterations=iterations,
                      fixed_statements=2 * iterations,
                      scan_statements=3 * iterations,
                      rows=settled * degree,
                      visited=visited,
                      statement_weight=SET_STATEMENT_WEIGHT)
    if method == "BSEG":
        lthd = segtable_lthd if segtable_lthd is not None else (
            segtable.lthd if segtable is not None else _hop_weight(stats))
        # One segment hop covers `gain` original hops, but the driver's
        # alternating rounds and termination test put a floor under the
        # round count — instrumented runs show sqrt(gain), not gain.
        gain = math.sqrt(_hop_gain(stats, lthd))
        if segtable is not None and segtable.encoding_number > 0:
            fanout = max(1.0, segtable.encoding_number / (2.0 * nodes))
        else:
            fanout = _segment_fanout(stats, lthd)
        iterations = max(3, math.ceil(_bsdj_iterations(stats) / gain))
        settled = max(2.0, _settled_bidirectional(stats) / gain)
        visited = min(float(nodes), settled * fanout + 2)
        return _Shape(iterations=iterations,
                      fixed_statements=2 * iterations,
                      scan_statements=3 * iterations,
                      rows=settled * fanout * SEG_PRUNE_FACTOR,
                      visited=visited,
                      seg_rows=True,
                      statement_weight=BSEG_STATEMENT_WEIGHT)
    raise ValueError(f"cost model cannot shape method {method!r}")


class CostModel:
    """Prices methods from a :class:`CostProfile` and learns from feedback.

    Thread-safe: observations may arrive from the parallel executor's
    worker threads while other threads plan.
    """

    def __init__(self, profile: Optional[CostProfile] = None) -> None:
        self.profile = profile if profile is not None else default_profile()
        self._lock = threading.Lock()
        self._samples: Dict[str, int] = {}
        self._recent: List[CostSample] = []
        self._incumbents: Dict[Tuple, str] = {}

    # -- pricing -----------------------------------------------------------------

    def estimate(self, method: str, stats: GraphStatistics,
                 segtable_lthd: Optional[float] = None,
                 segtable: Optional[SegTableBuildStats] = None,
                 eligible: bool = True,
                 max_hops: Optional[int] = None) -> CostEstimate:
        """Price one method on one graph."""
        shape = _shape(method, stats, segtable_lthd, segtable,
                       max_hops=max_hops)
        profile = self.profile
        row_cost = profile.seg_row_cost if shape.seg_rows else profile.row_cost
        statements = shape.fixed_statements + shape.scan_statements
        seconds = (
            statements * shape.statement_weight * profile.statement_cost
            + shape.scan_statements * (shape.visited / 2.0)
            * profile.scan_row_cost
            + shape.rows * row_cost
        ) * profile.global_bias * profile.bias(method)
        return CostEstimate(method=method, seconds=seconds,
                            iterations=shape.iterations,
                            statements=statements,
                            rows=int(shape.rows), eligible=eligible)

    def breakdown(self, stats: GraphStatistics, has_segtable: bool,
                  segtable_lthd: Optional[float] = None,
                  segtable: Optional[SegTableBuildStats] = None
                  ) -> Dict[str, CostEstimate]:
        """Per-method estimates, cheapest decision basis for ``auto``.

        BSEG is always priced (the breakdown shows what the index *would*
        buy) but flagged ineligible without a SegTable.
        """
        estimates: Dict[str, CostEstimate] = {}
        for method in AUTO_CANDIDATES:
            estimates[method] = self.estimate(method, stats)
        estimates["BSEG"] = self.estimate(
            "BSEG", stats, segtable_lthd=segtable_lthd, segtable=segtable,
            eligible=has_segtable)
        return estimates

    @staticmethod
    def _incumbent_key(stats: GraphStatistics, has_segtable: bool,
                       segtable_lthd: Optional[float]) -> Tuple:
        return (stats.num_nodes, stats.num_edges, stats.max_out_degree,
                round(stats.avg_out_degree, 4), has_segtable, segtable_lthd)

    def choose(self, stats: GraphStatistics, has_segtable: bool,
               segtable_lthd: Optional[float] = None,
               segtable: Optional[SegTableBuildStats] = None
               ) -> Tuple[str, str, Dict[str, CostEstimate]]:
        """Pick the cheapest eligible method, with plan hysteresis.

        Returns ``(method, reason, breakdown)``; the reason names the
        predicted cost and the runner-up so ``explain()`` reads like a
        plan, not a verdict.  Once a method is chosen for a graph shape it
        stays the plan until a challenger prices below
        :data:`HYSTERESIS_MARGIN` of it, so runtime feedback — which only
        ever observes the running method — cannot oscillate a near-tie.
        """
        estimates = self.breakdown(stats, has_segtable,
                                   segtable_lthd=segtable_lthd,
                                   segtable=segtable)
        eligible = [e for e in estimates.values() if e.eligible]
        ranked = sorted(eligible, key=lambda e: e.seconds)
        best = ranked[0]
        origin = "calibrated" if self.profile.calibrated else "default"
        key = self._incumbent_key(stats, has_segtable, segtable_lthd)
        with self._lock:
            incumbent = self._incumbents.get(key)
            held = estimates.get(incumbent) if incumbent is not None else None
            if (held is not None and held.eligible
                    and held.method != best.method
                    and best.seconds > HYSTERESIS_MARGIN * held.seconds):
                reason = (f"{origin} cost model: holding {held.method} "
                          f"(~{held.seconds * 1e3:.3g} ms); {best.method} "
                          f"at {best.seconds * 1e3:.3g} ms is within the "
                          f"hysteresis margin")
                return held.method, reason, estimates
            if len(self._incumbents) > 256:
                self._incumbents.clear()
            self._incumbents[key] = best.method
        if len(ranked) > 1:
            runner = ranked[1]
            reason = (f"{origin} cost model: {best.method} predicted "
                      f"{best.seconds * 1e3:.3g} ms vs {runner.method} "
                      f"{runner.seconds * 1e3:.3g} ms")
        else:
            reason = (f"{origin} cost model: {best.method} predicted "
                      f"{best.seconds * 1e3:.3g} ms")
        return best.method, reason, estimates

    # -- runtime feedback --------------------------------------------------------

    def observe(self, method: str, stats: GraphStatistics,
                observed_seconds: float,
                segtable_lthd: Optional[float] = None,
                segtable: Optional[SegTableBuildStats] = None) -> None:
        """Fold one observed ``(method, stats, wall time)`` sample in.

        Mispricing splits into two exponentially-weighted factors:

        * the **global bias** — shared by every method — absorbs scale
          errors (slower hardware, load, a generally mis-measured
          profile), so traffic that happens to run one method cannot
          silently flip the ordering against methods that never ran;
        * the **per-method bias** absorbs what is specific to this method
          relative to that shared scale, so a genuinely mis-priced method
          self-corrects once its own observations say so.
        """
        if observed_seconds <= 0:
            return
        try:
            base = self.estimate(method, stats, segtable_lthd=segtable_lthd,
                                 segtable=segtable)
        except ValueError:
            return  # memory methods and friends are not priced
        with self._lock:
            profile = self.profile
            bias = profile.bias(method)
            carried = profile.global_bias * bias
            # base.seconds carries both factors; strip them to compare
            # against the raw structural prediction.
            structural = base.seconds / carried if carried > 0 else base.seconds
            if structural <= 0:
                return
            ratio = observed_seconds / structural
            profile.global_bias = min(BIAS_MAX, max(
                BIAS_MIN,
                (1 - FEEDBACK_ALPHA) * profile.global_bias
                + FEEDBACK_ALPHA * ratio))
            relative = ratio / profile.global_bias
            profile.method_bias[method] = min(BIAS_MAX, max(
                BIAS_MIN,
                (1 - METHOD_ALPHA) * bias + METHOD_ALPHA * relative))
            self._samples[method] = self._samples.get(method, 0) + 1
            self._recent.append(CostSample(method=method,
                                           predicted=base.seconds,
                                           observed=observed_seconds))
            del self._recent[:-64]

    def feedback_samples(self, method: Optional[str] = None) -> int:
        """How many observations have been folded in (optionally per
        method)."""
        with self._lock:
            if method is not None:
                return self._samples.get(method, 0)
            return sum(self._samples.values())

    def recent_samples(self) -> List[CostSample]:
        """The last few feedback observations (newest last)."""
        with self._lock:
            return list(self._recent)

    # -- lthd selection (Figure 7's trade-off, automated) ------------------------

    def predict_segtable(self, stats: GraphStatistics, lthd: float
                         ) -> Dict[str, float]:
        """Predict one threshold's trade-off: online BSEG seconds per
        query, stored segments, and offline construction seconds."""
        online = self.estimate("BSEG", stats, segtable_lthd=lthd).seconds
        fanout = _segment_fanout(stats, lthd)
        segments = 2.0 * max(1, stats.num_nodes) * fanout  # out + in tables
        gain = _hop_gain(stats, lthd)
        # Construction re-merges the working table once per expansion round
        # (~hop gain rounds, Section 4.2), so build work scales with
        # segments x rounds.
        build = segments * max(1.0, gain) * self.profile.seg_build_row_cost
        return {"lthd": lthd, "online_seconds": online,
                "segments": segments, "build_seconds": build}

    def choose_lthd(self, stats: GraphStatistics,
                    candidates: Optional[Sequence[float]] = None,
                    amortize_queries: int = 500
                    ) -> Tuple[float, List[Dict[str, float]]]:
        """Pick the threshold minimizing amortized cost per query.

        ``objective = online(lthd) + build(lthd) / amortize_queries`` —
        exactly Figure 7's trade-off: a larger ``lthd`` buys fewer, fatter
        expansions online but pays exponentially in construction and index
        size.  ``amortize_queries`` says how many queries the offline
        build is expected to serve.

        Returns ``(lthd, predictions)`` with one prediction row per
        candidate (the chosen row carries ``"chosen": 1.0``).
        """
        if amortize_queries < 1:
            raise ValueError("amortize_queries must be >= 1")
        if candidates is None:
            base = max(stats.min_edge_weight, _hop_weight(stats) / 2, 1e-9)
            candidates = sorted({round(base * factor, 6)
                                 for factor in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0)})
        if not candidates:
            raise ValueError("choose_lthd needs at least one candidate")
        rows: List[Dict[str, float]] = []
        best_index = 0
        best_objective = math.inf
        for index, lthd in enumerate(candidates):
            prediction = self.predict_segtable(stats, lthd)
            prediction["objective"] = (
                prediction["online_seconds"]
                + prediction["build_seconds"] / amortize_queries)
            rows.append(prediction)
            if prediction["objective"] < best_objective:
                best_objective = prediction["objective"]
                best_index = index
        rows[best_index]["chosen"] = 1.0
        return float(candidates[best_index]), rows


__all__ = [
    "AUTO_CANDIDATES",
    "CostEstimate",
    "CostModel",
    "CostProfile",
    "CostSample",
    "default_profile",
]
