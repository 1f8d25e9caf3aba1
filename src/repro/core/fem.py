"""The generic FEM framework (Section 3.1 of the paper).

The paper observes that many greedy graph-search algorithms share an
iterative structure over a *visited* relation ``A^k``:

1. the **F-operator** selects frontier rows ``F^k ⊆ A^k``;
2. the **E-operator** expands the frontier into new rows ``E^k`` (usually by
   joining with the edge relation);
3. the **M-operator** merges ``E^k`` back into the visited relation to form
   ``A^{k+1}``;

and the iterations stop when a task-specific termination test holds.

:class:`FEMSearch` captures that skeleton over a relational
:class:`~repro.rdb.table.Table`: the three operators are supplied as
callables composed from the engine's physical operators, so the same driver
runs Prim's minimal spanning tree (:mod:`repro.core.prim`) and
reachability (:mod:`repro.core.reachability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.deadline import check_deadline
from repro.errors import InvalidQueryError
from repro.obs import span as _span
from repro.rdb.merge import MergeResult
from repro.rdb.table import Table

Row = Dict[str, object]

SelectOperator = Callable[[Table, int], List[Row]]
ExpandOperator = Callable[[List[Row], int], List[Row]]
MergeOperator = Callable[[Table, List[Row], int], MergeResult]
TerminationTest = Callable[[Table, int], bool]


@dataclass
class FEMSpec:
    """Specification of one FEM-style search.

    Attributes:
        name: label used in statistics and error messages.
        initialize: returns the initial visited rows ``A^1``.
        select_frontier: the F-operator — picks frontier rows from the
            visited table (it may also update flags on the table).
        expand: the E-operator — produces expanded rows from the frontier.
        merge: the M-operator — merges expanded rows into the visited table
            and reports how many rows were affected.
        should_terminate: extra termination test evaluated after every
            iteration (besides "the merge affected no rows").
        max_iterations: hard safety cap.
        deadline: optional absolute monotonic deadline (see
            :mod:`repro.core.deadline`), checked *between* iterations so
            an expired budget overruns by at most one iteration.
    """

    name: str
    initialize: Callable[[], Sequence[Row]]
    select_frontier: SelectOperator
    expand: ExpandOperator
    merge: MergeOperator
    should_terminate: Optional[TerminationTest] = None
    max_iterations: int = 1_000_000
    deadline: Optional[float] = None


@dataclass
class FEMRunStats:
    """Counters collected by :class:`FEMSearch.run`."""

    iterations: int = 0
    frontier_rows: int = 0
    expanded_rows: int = 0
    merged_rows: int = 0


class FEMSearch:
    """Driver that repeatedly applies F, E and M until termination.

    Args:
        visited: the table holding ``A^k``.
        spec: the three operators plus termination rules.
    """

    def __init__(self, visited: Table, spec: FEMSpec) -> None:
        self.visited = visited
        self.spec = spec
        self.stats = FEMRunStats()

    def run(self) -> FEMRunStats:
        """Execute the search and return its run statistics."""
        self.visited.truncate()
        initial_rows = list(self.spec.initialize())
        if not initial_rows:
            raise InvalidQueryError(
                f"FEM search {self.spec.name!r} produced no initial visited rows"
            )
        self.visited.insert_many(initial_rows)
        for iteration in range(1, self.spec.max_iterations + 1):
            check_deadline(self.spec.deadline,
                           f"{self.spec.name} iteration {iteration}")
            with _span("fem.iteration", index=iteration,
                       operator=self.spec.name) as it_span:
                frontier = list(
                    self.spec.select_frontier(self.visited, iteration))
                it_span.tag(frontier=len(frontier))
                if not frontier:
                    break
                self.stats.frontier_rows += len(frontier)
                expanded = list(self.spec.expand(frontier, iteration))
                self.stats.expanded_rows += len(expanded)
                merge_result = self.spec.merge(self.visited, expanded,
                                               iteration)
                self.stats.merged_rows += merge_result.affected
                self.stats.iterations = iteration
                it_span.tag(expanded=len(expanded),
                            merged=merge_result.affected)
                if (self.spec.should_terminate is not None
                        and self.spec.should_terminate(self.visited,
                                                       iteration)):
                    break
        return self.stats

    def visited_rows(self) -> List[Row]:
        """Materialize the visited relation after :meth:`run`."""
        return list(self.visited.scan())
