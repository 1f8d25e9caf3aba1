"""Tests for the serve wire protocol codecs: specs, results, plans, and
the error mapping both ways."""

import pytest

from repro.core.path import PathResult
from repro.core.stats import QueryStats
from repro.errors import (
    PathNotFoundError,
    RemoteProtocolError,
    ReproError,
    ShardUnavailableError,
    UnknownGraphError,
)
from repro.graph.generators import grid_graph
from repro.serve import protocol
from repro.service import PathService
from repro.service.planner import QuerySpec


class TestSpecCodec:
    def test_round_trip_all_fields(self):
        spec = QuerySpec(source=3, target=9, graph="roads", method="bseg",
                         sql_style="wsql", max_iterations=7)
        assert protocol.spec_from_dict(protocol.spec_to_dict(spec)) == spec

    def test_round_trip_defaults(self):
        spec = QuerySpec(source=0, target=1, graph="default")
        again = protocol.spec_from_dict(protocol.spec_to_dict(spec))
        assert again == spec
        assert again.max_iterations is None

    def test_missing_required_field_raises_protocol_error(self):
        with pytest.raises(RemoteProtocolError, match="malformed query spec"):
            protocol.spec_from_dict({"source": 1})  # no target

    def test_garbage_types_raise_protocol_error(self):
        with pytest.raises(RemoteProtocolError):
            protocol.spec_from_dict({"source": "abc", "target": 2})

    def test_list_codec_preserves_order(self):
        specs = [QuerySpec(source=i, target=i + 1, graph="g")
                 for i in range(5)]
        assert protocol.specs_from_list(protocol.specs_to_list(specs)) == specs


class TestResultCodec:
    def test_round_trip_with_stats(self):
        with PathService() as service:
            service.add_graph("g", grid_graph(4, 4, seed=1))
            result = service.shortest_path(0, 15, graph="g")
        again = protocol.result_from_dict(protocol.result_to_dict(result))
        assert (again.source, again.target) == (result.source, result.target)
        assert again.distance == result.distance
        assert list(again.path) == list(result.path)
        assert isinstance(again.stats, QueryStats)
        assert again.stats.as_dict() == result.stats.as_dict()

    def test_round_trip_without_stats(self):
        result = PathResult(source=1, target=2, distance=3.5, path=[1, 5, 2],
                            stats=None)
        again = protocol.result_from_dict(protocol.result_to_dict(result))
        assert again.stats is None
        assert again.distance == 3.5

    def test_results_list_keeps_none_slots(self):
        result = PathResult(source=1, target=2, distance=1.0, path=[1, 2],
                            stats=None)
        wire = protocol.results_to_list([None, result, None])
        back = protocol.results_from_list(wire)
        assert back[0] is None and back[2] is None
        assert back[1].distance == 1.0

    def test_malformed_result_raises_protocol_error(self):
        with pytest.raises(RemoteProtocolError, match="malformed path result"):
            protocol.result_from_dict({"source": 1, "target": 2})


class TestPlanCodec:
    def test_round_trip_auto_plan(self):
        with PathService() as service:
            service.add_graph("g", grid_graph(5, 5, seed=2), backend="sqlite")
            plan = service.plan(QuerySpec(source=0, target=24, graph="g",
                                          method="auto"), estimate=True)
        again = protocol.plan_from_dict(protocol.plan_to_dict(plan))
        assert again.spec == plan.spec
        assert again.method == plan.method
        assert again.reason == plan.reason
        assert again.uses_segtable == plan.uses_segtable
        assert again.bidirectional == plan.bidirectional
        assert again.phases == tuple(plan.phases)
        assert again.operators_per_iteration == tuple(
            plan.operators_per_iteration)
        assert again.estimated_iterations == plan.estimated_iterations
        assert again.estimated_iterations is not None

    def test_malformed_plan_raises_protocol_error(self):
        with pytest.raises(RemoteProtocolError, match="malformed query"):
            protocol.plan_from_dict({"method": "fem"})


class TestErrorCodec:
    def test_library_error_round_trips_as_same_type(self):
        wire = protocol.error_to_dict(PathNotFoundError("no path 1 -> 2"))
        exc = protocol.error_from_dict(wire)
        assert type(exc) is PathNotFoundError
        assert "no path 1 -> 2" in str(exc)

    def test_every_concrete_error_type_maps_back(self):
        for exc_type in (UnknownGraphError, ShardUnavailableError):
            back = protocol.error_from_dict(
                protocol.error_to_dict(exc_type("boom")))
            assert type(back) is exc_type

    def test_unknown_type_becomes_protocol_error(self):
        exc = protocol.error_from_dict({"type": "NoSuchError",
                                        "message": "m"})
        assert type(exc) is RemoteProtocolError
        assert "NoSuchError" in str(exc)

    def test_non_library_exception_becomes_protocol_error(self):
        # A server-side ValueError must not come back as a fabricated
        # exception type — the name and message survive inside the
        # protocol error instead.
        wire = protocol.error_to_dict(ValueError("bad input"))
        exc = protocol.error_from_dict(wire)
        assert type(exc) is RemoteProtocolError
        assert "ValueError" in str(exc) and "bad input" in str(exc)

    def test_base_repro_error_is_not_honored(self):
        # Only strict subclasses map back; the base class name is treated
        # as unknown (a server never raises the bare base deliberately).
        exc = protocol.error_from_dict(
            protocol.error_to_dict(ReproError("generic")))
        assert type(exc) is RemoteProtocolError

    def test_empty_envelope_is_untyped_protocol_error(self):
        exc = protocol.error_from_dict({})
        assert type(exc) is RemoteProtocolError
        assert "(untyped)" in str(exc)
