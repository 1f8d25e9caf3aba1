"""A batch settles its duplicates before it runs.

Members are grouped by query key up front and the lowest input position
of each group leads, so which member executes and which replays never
depends on thread timing: a parallel batch reports the same per-member
``from_cache`` flags and the same counters as the serial one, on every
run.
"""

import pytest

from repro.graph.generators import path_graph
from repro.service import PathService

RUNS = 50

# Repeated, distinct and unreachable members, interleaved: node 99 is
# isolated, so (0, 99) and (99, 4) have no path.
QUERIES = [(0, 11), (2, 9), (0, 11), (0, 99), (5, 1), (2, 9), (0, 99),
           (99, 4), (0, 11), (4, 10), (99, 4), (5, 1)]

# Positions 2, 5, 6, 8, 10 and 11 repeat an earlier member.
REPLAYED = (False, False, True, False, False, True, False,
            False, True, False, False, True)


def _counters(batch):
    stats = batch.stats
    return (tuple(batch.from_cache), stats.executed, stats.cache_hits,
            stats.negative_hits, stats.single_flight_hits)


@pytest.mark.parametrize("concurrency", [1, 2, 8])
@pytest.mark.parametrize("cache_size", [128, 0],
                         ids=["cache_on", "cache_off"])
def test_counters_equal_the_serial_batch_on_every_run(cache_size,
                                                      concurrency):
    graph = path_graph(12, weight_range=(1, 1))
    graph.add_node(99)
    with PathService(cache_size=cache_size) as service:
        service.add_graph("default", graph)
        serial = _counters(service.shortest_path_many(QUERIES))
        # Six distinct members execute; four duplicates of a found pair
        # replay (flagged), and two of an unreachable pair replay the
        # verdict (unflagged: they have no result).
        if cache_size:
            assert serial == (REPLAYED, 6, 4, 2, 0)
        else:
            assert serial == (REPLAYED, 6, 0, 0, 6)
        for run in range(RUNS):
            service.clear_cache()
            batch = service.shortest_path_many(QUERIES,
                                               concurrency=concurrency)
            assert _counters(batch) == serial, f"run {run}"
            assert batch.stats.not_found == 4
