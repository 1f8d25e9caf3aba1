"""E's work follows the frontier, not |E| (the premise of Sec 3-4).

SQLite's virtual-machine step count, read through
``Connection.set_progress_handler``, is a deterministic measure of engine
work: unlike wall time it does not move with the host's load.  If the
expansion statements probe the edge relation by the frontier's node ids,
the steps spent per visited node stay flat as the graph grows; a plan
that scans the edge relation instead grows them with |E|.
"""

import random

from repro.core.bidirectional import bidirectional_set_dijkstra
from repro.core.store.registry import create_store
from repro.graph.generators import power_law_graph


def _bsdj_work(nodes: int, interval: int, queries: int = 3):
    """VM steps (counted every ``interval`` instructions) and visited
    nodes over a few seeded BSDJ queries on a power-law graph."""
    store = create_store("sqlite")
    try:
        store.load_graph(power_law_graph(nodes, edges_per_node=2, seed=7))
        rng = random.Random(11)
        pairs = [tuple(rng.sample(range(nodes), 2)) for _ in range(queries)]
        ticks = 0

        def tick() -> int:
            nonlocal ticks
            ticks += 1
            return 0  # keep running

        store.connection.set_progress_handler(tick, interval)
        visited = sum(bidirectional_set_dijkstra(store, source, target)
                      .stats.visited_nodes for source, target in pairs)
        store.connection.set_progress_handler(None, interval)
        return ticks * interval, visited
    finally:
        store.close()


def test_bsdj_steps_per_visited_node_stay_flat_as_the_graph_grows():
    small_steps, small_visited = _bsdj_work(3_000, 100)
    large_steps, large_visited = _bsdj_work(30_000, 100)
    small = small_steps / small_visited
    large = large_steps / large_visited
    assert large <= 2 * small, (
        f"VM steps per visited node grew {large / small:.1f}x for a 10x "
        f"graph ({small:.0f} -> {large:.0f}): E is scanning, not probing")


def test_vm_step_count_is_deterministic():
    assert _bsdj_work(3_000, 1) == _bsdj_work(3_000, 1)
