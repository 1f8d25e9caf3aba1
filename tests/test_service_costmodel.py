"""Tests for the calibrated cost model behind ``method="auto"``.

Covers: the structural model's choices on fixture graphs, calibration
probes producing choices that match the measured-fastest method, the
runtime feedback loop correcting a deliberately mis-seeded profile, plan
hysteresis, cost-driven ``lthd="auto"`` landing in Figure 7's good band,
and a calibration living only in the process that measured it.
"""

import json
import os
import time

import pytest

from repro.catalog import MANIFEST_NAME
from repro.errors import InvalidQueryError
from repro.graph.generators import (
    grid_graph,
    path_graph,
    power_law_graph,
)
from repro.graph.stats import compute_statistics
from repro.memory.dijkstra import dijkstra_shortest_path
from repro.service import PathService
from repro.service.calibrate import calibrate_profile
from repro.service.costmodel import (
    AUTO_CANDIDATES,
    CostModel,
    default_profile,
)

QUICK_PROBE = dict(probe_nodes=80, queries_per_method=2, repeats=2)
"""Fast probe options for tests that need a real calibration run."""


@pytest.fixture(scope="module")
def sqlite_profile():
    """One real calibration of the sqlite backend, shared by the module."""
    return calibrate_profile("sqlite")


class TestDefaultModelChoices:
    """The uncalibrated model must reproduce the paper's qualitative
    ordering on the canonical fixtures (these anchor the planner tests)."""

    def _choose(self, graph, has_segtable=False, lthd=None):
        model = CostModel()
        method, reason, breakdown = model.choose(
            compute_statistics(graph), has_segtable, segtable_lthd=lthd)
        return method, breakdown

    def test_small_graphs_pick_dj(self):
        for graph in (grid_graph(5, 5, seed=2),
                      path_graph(10, weight_range=(1, 1), seed=1)):
            method, _ = self._choose(graph)
            assert method == "DJ"

    def test_hub_heavy_graphs_pick_bsdj(self):
        method, breakdown = self._choose(
            power_law_graph(120, edges_per_node=2, seed=3))
        assert method == "BSDJ"
        # The win comes from tie-collapse: far fewer predicted iterations.
        assert (breakdown["BSDJ"].iterations
                < breakdown["BDJ"].iterations / 2)

    def test_segtable_prefers_bseg_on_indexed_graph(self):
        method, _ = self._choose(
            power_law_graph(120, edges_per_node=2, seed=3),
            has_segtable=True, lthd=5.0)
        assert method == "BSEG"

    def test_bseg_priced_but_ineligible_without_index(self):
        model = CostModel()
        breakdown = model.breakdown(
            compute_statistics(power_law_graph(120, edges_per_node=2,
                                               seed=3)), False)
        assert not breakdown["BSEG"].eligible
        method, _, _ = model.choose(
            compute_statistics(power_law_graph(120, edges_per_node=2,
                                               seed=3)), False)
        assert method != "BSEG"

    def test_estimates_scale_with_graph_size(self):
        model = CostModel()
        small = model.estimate("DJ", compute_statistics(
            grid_graph(4, 4, seed=1)))
        large = model.estimate("DJ", compute_statistics(
            grid_graph(12, 12, seed=1)))
        assert large.seconds > small.seconds
        assert large.iterations > small.iterations


class TestCalibration:
    def test_profile_is_measured_and_complete(self, sqlite_profile):
        profile = sqlite_profile
        assert profile.calibrated
        assert profile.backend == "sqlite"
        assert profile.statement_cost > 0
        assert profile.row_cost > 0
        assert profile.seg_row_cost > 0
        assert profile.seg_build_row_cost > 0
        assert profile.probe_seconds > 0
        for method in ("DJ", "BDJ", "BSDJ", "BSEG"):
            assert method in profile.method_bias

    def test_calibrated_choice_matches_measured_fastest(self, sqlite_profile):
        """On decisive fixtures the calibrated pick must be the method that
        actually measures fastest (a statistical tie is tolerated)."""
        fixtures = [
            ("small grid", grid_graph(5, 5, seed=2), None,
             [(0, 24), (3, 21), (12, 24)]),
            ("power law", power_law_graph(120, edges_per_node=2, seed=3),
             None, [(0, 50), (3, 99), (10, 77)]),
            ("indexed power law",
             power_law_graph(120, edges_per_node=2, seed=3), 5.0,
             [(0, 50), (3, 99), (10, 77)]),
        ]
        model = CostModel(sqlite_profile)
        for label, graph, lthd, queries in fixtures:
            with PathService(default_backend="sqlite",
                             cache_size=0) as service:
                service.add_graph("g", graph)
                methods = list(AUTO_CANDIDATES)
                segtable = None
                if lthd is not None:
                    segtable = service.build_segtable("g", lthd=lthd)
                    methods.append("BSEG")
                measured = {}
                for method in methods:
                    best = float("inf")
                    for _ in range(3):
                        start = time.perf_counter()
                        for source, target in queries:
                            service.shortest_path(source, target, graph="g",
                                                  method=method,
                                                  use_cache=False)
                        best = min(best, time.perf_counter() - start)
                    measured[method] = best
            chosen, _, _ = model.choose(compute_statistics(graph),
                                        lthd is not None,
                                        segtable_lthd=lthd,
                                        segtable=segtable)
            fastest = min(measured, key=measured.get)
            assert (chosen == fastest
                    or measured[chosen] <= 1.3 * measured[fastest]), (
                f"{label}: calibrated model chose {chosen} "
                f"({measured[chosen]:.4f}s) but {fastest} measured "
                f"{measured[fastest]:.4f}s"
            )


class TestFeedback:
    def _structural_seconds(self, method, stats):
        """The unbiased structural prediction (the 'truth' the feedback
        samples report back)."""
        return CostModel(default_profile()).estimate(method, stats).seconds

    def test_mis_seeded_profile_corrects_toward_truth(self):
        stats = compute_statistics(power_law_graph(120, edges_per_node=2,
                                                   seed=3))
        profile = default_profile("sqlite")
        profile.method_bias = {"BSDJ": 20.0}  # 20x overpriced
        model = CostModel(profile)
        wrong, _, _ = model.choose(stats, False)
        assert wrong != "BSDJ"
        truth = self._structural_seconds("BSDJ", stats)
        for _ in range(60):
            model.observe("BSDJ", stats, truth)
        assert profile.method_bias["BSDJ"] < 2.0
        corrected, _, _ = model.choose(stats, False)
        assert corrected == "BSDJ"
        assert model.feedback_samples("BSDJ") == 60
        assert model.recent_samples()[-1].method == "BSDJ"

    def test_single_method_traffic_moves_global_not_relative(self):
        """Scale errors land in the global bias: hammering one method with
        uniformly slow observations must not flip the ordering against
        methods that never ran."""
        stats = compute_statistics(power_law_graph(120, edges_per_node=2,
                                                   seed=3))
        model = CostModel(default_profile("sqlite"))
        first, _, _ = model.choose(stats, False)
        truth = 10.0 * self._structural_seconds(first, stats)
        for _ in range(40):
            model.observe(first, stats, truth)
        assert model.profile.global_bias > 3.0
        assert model.profile.method_bias[first] < 2.0
        still, _, _ = model.choose(stats, False)
        assert still == first

    def test_hysteresis_holds_near_ties_and_releases_on_big_shifts(self):
        stats = compute_statistics(power_law_graph(120, edges_per_node=2,
                                                   seed=3))
        model = CostModel(default_profile("sqlite"))
        incumbent, _, _ = model.choose(stats, True, segtable_lthd=5.0)
        assert incumbent == "BSEG"
        # A small penalty makes BSDJ nominally cheapest but leaves it
        # within the hysteresis margin of the incumbent.
        model.profile.method_bias["BSEG"] = 1.5
        held, reason, _ = model.choose(stats, True, segtable_lthd=5.0)
        assert held == "BSEG"
        assert "holding" in reason
        # A decisive penalty releases the incumbent.
        model.profile.method_bias["BSEG"] = 10.0
        released, _, _ = model.choose(stats, True, segtable_lthd=5.0)
        assert released != "BSEG"

    def test_service_feeds_executions_back(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            model = service.cost_model()
            assert model.feedback_samples() == 0
            result = service.shortest_path(0, 50)
            assert model.feedback_samples() == 1
            assert result.stats.predicted_seconds is not None
            # Cache hits replay without executing — no new sample.
            service.shortest_path(0, 50)
            assert model.feedback_samples() == 1

    def test_memory_and_capped_queries_never_train(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            service.shortest_path(0, 50, method="MDJ")
            service.shortest_path(0, 50, method="BDJ", max_iterations=500)
            assert service.cost_model().feedback_samples() == 0


class TestLthdAuto:
    UNIT_GRAPH = power_law_graph(100, edges_per_node=2,
                                 weight_range=(1, 1), seed=5)
    CANDIDATES = [2.0, 4.0, 8.0, 16.0]
    QUERIES = [(0, 60), (3, 90), (10, 45)]

    def test_choose_lthd_returns_candidate_with_predictions(self):
        model = CostModel()
        stats = compute_statistics(self.UNIT_GRAPH)
        lthd, rows = model.choose_lthd(stats, candidates=self.CANDIDATES)
        assert lthd in self.CANDIDATES
        assert len(rows) == len(self.CANDIDATES)
        chosen_rows = [row for row in rows if row.get("chosen")]
        assert len(chosen_rows) == 1
        assert chosen_rows[0]["lthd"] == lthd
        assert chosen_rows[0]["objective"] == min(row["objective"]
                                                  for row in rows)

    def test_larger_lthd_predicts_bigger_index_and_build(self):
        model = CostModel()
        stats = compute_statistics(self.UNIT_GRAPH)
        small = model.predict_segtable(stats, 2.0)
        large = model.predict_segtable(stats, 8.0)
        assert large["segments"] >= small["segments"]
        assert large["build_seconds"] > small["build_seconds"]

    def test_auto_lthd_lands_in_figure7_good_band(self, sqlite_profile):
        """Measure the Figure 7 curve (BSEG query time per lthd) on a
        unit-weight graph and assert the model's pick sits in the band of
        thresholds within 1.5x of the measured best."""
        measured = {}
        for lthd in self.CANDIDATES:
            with PathService(default_backend="sqlite",
                             cache_size=0) as service:
                service.add_graph("g", self.UNIT_GRAPH)
                service.build_segtable("g", lthd=lthd)
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    for source, target in self.QUERIES:
                        service.shortest_path(source, target, graph="g",
                                              method="BSEG", use_cache=False)
                    best = min(best, time.perf_counter() - start)
                measured[lthd] = best
        band = [lthd for lthd, seconds in measured.items()
                if seconds <= 1.5 * min(measured.values())]
        for model in (CostModel(), CostModel(sqlite_profile)):
            chosen, _ = model.choose_lthd(compute_statistics(self.UNIT_GRAPH),
                                          candidates=self.CANDIDATES)
            assert chosen in band, (
                f"lthd={chosen} outside the measured good band {band} "
                f"(times: { {k: round(v, 5) for k, v in measured.items()} })"
            )

    def test_build_segtable_auto(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            recommended, rows = service.recommend_lthd()
            stats = service.build_segtable(lthd="auto")
            assert stats.lthd == recommended
            assert service.store().segtable_lthd == recommended
            assert service.explain(0, 50).method == "BSEG"
            assert rows  # predictions table is populated

    def test_build_segtable_rejects_unknown_string(self, small_power_graph):
        with PathService() as service:
            service.add_graph("default", small_power_graph)
            with pytest.raises(InvalidQueryError):
                service.build_segtable(lthd="automatic")

    def test_amortize_queries_validated(self):
        with pytest.raises(ValueError):
            CostModel().choose_lthd(
                compute_statistics(self.UNIT_GRAPH), amortize_queries=0)


class TestManifestPersistence:
    """A catalog keeps no calibration: a probe prices only the process
    that ran it, and manifests written with a ``calibrations`` section
    still open."""

    def test_parent_format_calibrations_are_ignored_and_dropped(
            self, tmp_path):
        catalog_dir = str(tmp_path / "cat")
        graph = power_law_graph(80, edges_per_node=2, seed=9)
        with PathService(catalog_path=catalog_dir) as cold:
            cold.add_graph("g", graph, backend="sqlite",
                           db_path=os.path.join(catalog_dir, "g.db"))
        manifest_path = os.path.join(catalog_dir, MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            document = json.load(handle)
        # The section as earlier releases wrote it.
        profile = {"version": 2, "backend": "sqlite", "host": "h",
                   "statement_cost": 1e-5, "scan_row_cost": 1e-8,
                   "row_cost": 1e-6, "seg_row_cost": 1e-6,
                   "seg_build_row_cost": 1e-5,
                   "method_bias": {"DJ": 3.0}, "global_bias": 1.0,
                   "calibrated": True, "calibrated_at": 1234.5,
                   "probe_seconds": 0.5}
        document["calibrations"] = {"sqlite": {
            "backend": "sqlite", "profile": profile,
            "calibrated_at": 1234.5}}
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        with PathService.open(catalog_dir) as warm:
            assert not warm.cost_model("sqlite").profile.calibrated
            assert warm.explain(0, 40, graph="g").cost_breakdown is not None
            answer = warm.shortest_path(0, 40, graph="g")
            assert answer.distance == dijkstra_shortest_path(
                graph, 0, 40).distance
            warm.build_segtable("g", lthd=5.0)  # the next manifest save
        with open(manifest_path, encoding="utf-8") as handle:
            saved = json.load(handle)
        assert "calibrations" not in saved
        assert saved["graphs"]["g"]["segtable"]["lthd"] == 5.0

    def test_service_calibrate_defaults_to_hosted_backends(self, tmp_path):
        with PathService() as service:
            service.add_graph("g", grid_graph(4, 4, seed=1),
                              backend="sqlite")
            profiles = service.calibrate(**QUICK_PROBE)
            assert set(profiles) == {"sqlite"}
            assert service.cost_model("sqlite").profile is profiles["sqlite"]
