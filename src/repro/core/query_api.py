"""The shared declarative query surface of every matcher backend.

:class:`QueryInterfaceMixin` holds everything the plain
:class:`~repro.core.matcher.SubsequenceMatcher` and the
:class:`~repro.core.sharded.ShardedMatcher` expose identically on top of
their per-class ``execute(spec)`` dispatch: the heterogeneous
:meth:`~QueryInterfaceMixin.execute_many` batch entry point and
:meth:`~QueryInterfaceMixin.close`.  Keeping them here -- written once --
is what guarantees the two backends' public query APIs cannot drift.

The Type III / top-k radius sweep (:meth:`QueryInterfaceMixin._radius_sweep`)
lives here for the same reason: one loop, parameterised by how a backend
fans a pass out, is what makes sharded and unsharded sweeps visit the same
radii by construction.

The host class provides ``execute(spec) -> QueryResult``, ``database``, the
``last_query_stats`` / ``last_batch_stats`` attributes, and the four sweep
hooks documented on :meth:`QueryInterfaceMixin._radius_sweep`.  Every
``execute`` takes its query from :meth:`QueryInterfaceMixin._query_of`.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import List, Tuple, Union

from repro.core.queries import (
    BaseQuery,
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    QueryResult,
    QueryStats,
    RangeQuery,
    SubsequenceMatch,
    TopKCandidates,
    TopKQuery,
)
from repro.exceptions import QueryError
from repro.sequences.sequence import Sequence

#: A query specification (a bare float is a Type I radius; see
#: :func:`~repro.core.queries.as_query_spec`).
QuerySpec = Union[
    RangeQuery, LongestSubsequenceQuery, NearestSubsequenceQuery, TopKQuery, float
]


class QueryInterfaceMixin:
    """``execute_many``, the radius sweep and ``close``, shared by every backend."""

    def _query_of(self, spec: BaseQuery) -> Sequence:
        """The spec's bound query, refused before any work -- with a
        :class:`~repro.exceptions.QueryError` naming both -- if its kind or
        element width differs from the stored sequences'."""
        query = spec.bound_query()
        kind, widths = self.database.kind, {stored.dim for stored in self.database}
        if query.kind is not kind or widths - {query.dim}:
            raise QueryError(
                f"a {query.kind.value} query of element width {query.dim} cannot be paired "
                f"with {kind.value} sequences of width {', '.join(map(str, sorted(widths)))}"
            )
        return query

    def execute_many(self, specs: List) -> List[QueryResult]:
        """Answer many bound specs -- of any mix of query types -- in order.

        Each spec carries its own query sequence and parameters, so one
        batch can mix range, longest, nearest, and top-k queries.  A query that
        raises :class:`~repro.exceptions.QueryError` (a Type III/top-k
        query with no segment match at ``max_radius``, or an unbound spec)
        contributes an envelope with
        :attr:`~repro.core.queries.QueryResult.error` set instead of
        aborting the batch; an entry that is not a query spec at all is a
        programming error and propagates.  The error envelope carries the
        failed query's own statistics (the sweep that found no segment
        matches) or empty statistics when the query failed before doing any
        work -- never another query's accounting.  Per-query statistics
        land in :attr:`last_batch_stats` (:attr:`last_query_stats` keeps
        the final query's stats).
        """
        results: List[QueryResult] = []
        batch_stats: List[QueryStats] = []
        for spec in specs:
            previous_stats = self.last_query_stats
            try:
                result = self.execute(spec)
            except QueryError as error:
                if not isinstance(spec, BaseQuery):
                    raise
                stats = self.last_query_stats
                if stats is previous_stats:
                    # The query failed before installing its own stats
                    # (e.g. an unbound spec): report zero work, not the
                    # previous query's accounting.
                    stats = QueryStats()
                result = QueryResult.build(spec, [], stats, error=str(error))
            results.append(result)
            batch_stats.append(result.stats)
        self.last_batch_stats = batch_stats
        return results

    # ------------------------------------------------------------------ #
    # The Type III / top-k radius sweep
    # ------------------------------------------------------------------ #
    def _radius_sweep(
        self, spec: Union[NearestSubsequenceQuery, TopKQuery], k: int
    ) -> Tuple[List[SubsequenceMatch], QueryStats]:
        """The Type III / top-k radius sweep over a k-bounded candidate heap.

        As the paper describes for Type III: binary-search the smallest
        radius at which step 4 produces at least one segment match, then
        verify at that radius and enlarge it by ``radius_increment`` until
        enough pairs verify.  Every verified (locally-maximal) match of
        every pass feeds a :class:`~repro.core.queries.TopKCandidates` heap
        bounded to ``k``; the sweep stops as soon as the heap is full, so
        ``k=1`` performs *exactly* the passes the classic nearest query
        performs -- same radii, same distance work, same statistics.

        The backend supplies how one pass reaches its pipelines:
        ``_sweep_pipelines()`` (every :class:`~repro.core.pipeline.QueryPipeline`
        a pass touches), ``_probe_all(query, radius) -> (has_matches, stats)``,
        ``_scored_pass_all(query, radius) -> (matches, stats)`` and
        ``_finish_sweep(stats) -> stats`` (install the merged statistics).
        A sharded backend treats its shard set as one database: a probe
        succeeds when *any* shard has a segment match and each verification
        pass runs on *every* shard at the same radius; candidate chains never
        span shards and the heap's order is total, so it stops at the same
        radius with the same ranked result, ties included, as an unsharded
        one.

        The whole sweep runs inside every pipeline's
        :meth:`~repro.core.pipeline.QueryPipeline.sweep` scope.  The first
        probe is the widest (``max_radius``), so every later pass can only
        return a subset of what it returned, with distances it measured: the
        scope's probe table answers those passes without asking the index
        again wherever the first probe measured every hit.  The merged
        statistics aggregate the whole sweep (work counters summed, shape
        counters from the final pass) and keep the per-pass history in
        :attr:`~repro.core.queries.QueryStats.passes`.
        """
        query = self._query_of(spec)
        pipelines = self._sweep_pipelines()
        if not any(pipeline.window_count for pipeline in pipelines):
            self.last_query_stats = QueryStats()
            return [], self.last_query_stats

        passes: List[QueryStats] = []

        def probe(radius: float) -> bool:
            # The binary search's step-3/4 work is part of answering the
            # query, so every probe is recorded as a pass.
            has_matches, stats = self._probe_all(query, radius)
            passes.append(stats)
            return has_matches

        with ExitStack() as scope:
            for pipeline in pipelines:
                scope.enter_context(pipeline.sweep(query))

            low, high = 0.0, spec.max_radius
            if not probe(high):
                self._finish_sweep(QueryStats.merged(passes))
                raise QueryError(
                    f"no segment matches even at max_radius={spec.max_radius}; "
                    "increase max_radius"
                )
            # Not ``min`` of the first probe's distances: ``high`` is the end
            # point of this particular bisection and seeds every later radius.
            while high - low > spec.tolerance:
                mid = (low + high) / 2.0
                if probe(mid):
                    high = mid
                else:
                    low = mid

            increment = spec.radius_increment
            if increment is None:
                increment = max(spec.tolerance, 0.05 * spec.max_radius)

            candidates = TopKCandidates(k)
            radius = high
            while radius <= spec.max_radius + 1e-12:
                matches, stats = self._scored_pass_all(query, radius)
                passes.append(stats)
                for match in matches:
                    candidates.add(match)
                if candidates.full:
                    break
                radius += increment
        return candidates.ranked(), self._finish_sweep(QueryStats.merged(passes))

    def close(self) -> None:
        """Retire the backend; idempotent.

        A matcher holds no OS-level resources -- worker pools are shared
        process-wide and shut down at interpreter exit -- so there is nothing
        to release.  Services and servers call this on every backend they
        retire, and the backend stays usable afterwards.
        """
