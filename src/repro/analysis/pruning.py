"""Query-cost measurement: distance computations relative to a linear scan.

Figures 8-11 of the paper plot, for each index and each query range, the
percentage of distance computations performed compared to the naive solution
(one distance per database window).  :func:`measure_pruning` reproduces that
measurement for one index; :func:`compare_indexes` sweeps a set of indexes
over a set of ranges, which is exactly what the figure benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence as TypingSequence

from repro.exceptions import ConfigurationError
from repro.indexing.base import MetricIndex


@dataclass
class PruningResult:
    """Query cost of one index at one range radius, averaged over queries."""

    index_name: str
    radius: float
    #: Average distance computations per query.
    distance_computations: float
    #: Average number of reported matches per query.
    matches: float
    #: Distance computations a linear scan would need (= number of items).
    naive_computations: int
    #: Average distance requests answered by an attached cache per query.
    cache_hits: float = 0.0
    #: Average lower-bound prefilter evaluations per query (probe stage).
    prefilter_evaluations: float = 0.0
    #: Average prefilter evaluations that skipped a kernel per query.
    prefilter_pruned: float = 0.0

    @property
    def fraction_of_naive(self) -> float:
        """Distance computations as a fraction of the naive linear scan."""
        if self.naive_computations == 0:
            return 0.0
        return self.distance_computations / self.naive_computations

    @property
    def pruning_ratio(self) -> float:
        """The paper's ``alpha``: fraction of computations avoided."""
        return 1.0 - self.fraction_of_naive


def measure_pruning(
    index: MetricIndex,
    queries: TypingSequence[object],
    radius: float,
    executor=None,
) -> PruningResult:
    """Average query cost of ``index`` over ``queries`` at one radius.

    Queries go through :meth:`~repro.indexing.base.MetricIndex.probe_batch`,
    the query pipeline's entry (one batched search on the calling thread,
    or the index's work units under a parallel executor); the per-stage
    accounting -- cache hits and lower-bound prefilter work -- is read off
    the index counter alongside the fresh computation count the paper's
    figures report.  The measured counters are identical under every
    executor (that is the executor contract), only the wall-clock changes.
    """
    if not queries:
        raise ConfigurationError("need at least one query to measure pruning")
    mark = index.counter.mark()
    per_query, _worker_cpu = index.probe_batch(list(queries), radius, executor=executor)
    work = index.counter.since(mark)
    count = len(queries)
    return PruningResult(
        index_name=index.index_name,
        radius=radius,
        distance_computations=work.total / count,
        matches=sum(len(matches) for matches in per_query) / count,
        naive_computations=len(index),
        cache_hits=work.cache_hits / count,
        prefilter_evaluations=work.prefilter_evaluations / count,
        prefilter_pruned=work.prefilter_pruned / count,
    )


def compare_indexes(
    indexes: Dict[str, MetricIndex],
    queries: TypingSequence[object],
    radii: TypingSequence[float],
    executor=None,
) -> List[PruningResult]:
    """Sweep every index over every radius; returns one result per cell.

    The label keys of ``indexes`` override the indexes' own ``index_name``
    so that configurations such as ``"MV-5"`` versus ``"MV-50"`` stay
    distinguishable in the output.  ``executor`` is forwarded to
    :func:`measure_pruning`.
    """
    results: List[PruningResult] = []
    for radius in radii:
        for label, index in indexes.items():
            result = measure_pruning(index, queries, radius, executor=executor)
            results.append(replace(result, index_name=label))
    return results
