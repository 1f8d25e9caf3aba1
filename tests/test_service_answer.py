"""The answer path on its own: cache lookup, replay, run, fill.

``PathService`` and ``ShardRouter`` both answer through
:class:`repro.service.answer.AnswerPath`; these tests pin its contract
without a store underneath — ``run`` is a plain callable.
"""

import pytest

from repro.core.path import PathResult
from repro.core.stats import BatchStats, QueryStats
from repro.errors import PathNotFoundError
from repro.obs import MetricsRegistry
from repro.obs.schema import METRIC_SINGLE_FLIGHT
from repro.service.answer import AnswerPath, copy_result
from repro.service.cache import ResultCache


def _result(distance=3.0, path=(0, 1, 2)):
    return PathResult(path[0], path[-1], distance, list(path),
                      QueryStats(method="DJ"))


class _Runs:
    """A ``run`` callable that counts its calls."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return _result(*self.outcome)


def _path(cache_size=8, negative=8):
    registry = MetricsRegistry()
    cache = ResultCache(cache_size, negative_capacity=negative,
                        registry=registry)
    return AnswerPath(cache, registry), registry


class TestCacheFill:
    def test_run_once_then_replay_a_pristine_copy(self):
        answers, _ = _path()
        run = _Runs((3.0, (0, 1, 2)))
        stats = BatchStats()
        first, replayed = answers.answer("k", run, stats=stats)
        assert not replayed and run.calls == 1
        first.path.append(99)  # the caller's object is its own
        second, replayed = answers.answer("k", run, stats=stats)
        assert replayed and run.calls == 1
        assert second.path == [0, 1, 2]
        second.stats.time_by_phase["x"] = 1.0
        third, _ = answers.answer("k", run)
        assert "x" not in third.stats.time_by_phase
        assert (stats.cache_misses, stats.cache_hits) == (1, 1)

    def test_unreachable_verdict_is_remembered(self):
        answers, _ = _path()
        run = _Runs(PathNotFoundError("no path from 0 to 9"))
        stats = BatchStats()
        for _ in range(3):
            with pytest.raises(PathNotFoundError, match="0 to 9"):
                answers.answer("k", run, stats=stats)
        assert run.calls == 1
        assert stats.negative_hits == 2 and stats.cache_misses == 0

    def test_no_key_never_touches_the_cache(self):
        answers = AnswerPath(None, MetricsRegistry())
        run = _Runs((1.0, (4, 5)))
        result, replayed = answers.answer(None, run)
        assert not replayed and result.path == [4, 5]
        answers.answer(None, run)
        assert run.calls == 2
        assert answers.lookup(None) is None

    def test_lookup_and_remember_share_the_cache(self):
        answers, _ = _path()
        original = _result()
        kept = answers.remember("k", original)
        assert kept is not original and kept.path == original.path
        answers.remember_unreachable("u", "no path from 7 to 8")
        hit = answers.lookup("k")
        assert hit is not kept and hit.path == [0, 1, 2]
        with pytest.raises(PathNotFoundError, match="7 to 8"):
            answers.lookup("u")
        assert answers.lookup("other") is None

    def test_hit_metric_counts_positive_and_negative_hits(self):
        registry = MetricsRegistry()
        cache = ResultCache(8, negative_capacity=8, registry=registry)
        answers = AnswerPath(cache, registry, hit_metric="hits_total")
        answers.remember("k", _result())
        answers.remember_unreachable("u", "no path")
        answers.lookup("k")
        with pytest.raises(PathNotFoundError):
            answers.lookup("u")
        assert registry.total("hits_total") == 2


class TestSingleFlight:
    """A batch's duplicate member replays its leader's outcome: the cache
    answers first, and only on a miss does ``replay`` stand in for
    ``run``."""

    def test_follower_replays_the_leader(self):
        answers, registry = _path()
        lead, lead_replayed = answers.answer(None, _Runs((3.0, (0, 1, 2))))
        follower_run = _Runs((9.0, (0, 9)))
        follow, follow_replayed = answers.answer(None, follower_run,
                                                 replay=lead)
        assert not lead_replayed and follow_replayed
        assert follow.path == lead.path and follow is not lead
        assert follower_run.calls == 0
        assert registry.total(METRIC_SINGLE_FLIGHT) == 1

    def test_without_a_cache_the_finished_flight_stays(self):
        answers, _ = _path()
        run = _Runs((2.0, (0, 2)))
        stats = BatchStats()
        lead, _ = answers.answer(None, run, stats=stats)
        for _ in range(2):
            answers.answer(None, run, replay=lead, stats=stats)
        assert run.calls == 1 and stats.single_flight_hits == 2

    def test_a_failed_leader_fails_its_followers(self):
        answers, _ = _path()
        run = _Runs(PathNotFoundError("no path"))
        with pytest.raises(PathNotFoundError) as leader:
            answers.answer(None, run)
        with pytest.raises(PathNotFoundError) as follower:
            answers.answer(None, run, replay=leader.value)
        assert follower.value is leader.value
        assert run.calls == 1

    def test_the_cache_answers_before_the_replay(self):
        answers, registry = _path()
        stats = BatchStats()
        lead, _ = answers.answer("k", _Runs((3.0, (0, 1, 2))), stats=stats)
        _, replayed = answers.answer("k", _Runs((9.0, (0, 9))),
                                     replay=lead, stats=stats)
        assert replayed
        assert (stats.cache_hits, stats.single_flight_hits) == (1, 0)
        assert registry.total(METRIC_SINGLE_FLIGHT) == 0


def test_copy_result_drops_the_trace():
    result = _result()
    result.trace = object()
    copied = copy_result(result)
    assert copied.trace is None and result.trace is not None
    assert copied.path == result.path and copied.path is not result.path
