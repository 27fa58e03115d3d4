"""A sharded matcher: one logical matcher over N independent partitions.

Scaling the framework past one index means partitioning the window set.
Candidate chains never span database sequences (a chain is a run of
consecutive windows of *one* sequence), so partitioning **by sequence** is
lossless: every chain the single-matcher pipeline would build lives wholly
inside one shard, and the union of the shards' verified matches is exactly
the single matcher's match set.  :class:`ShardedMatcher` exploits that:

* sequences are assigned to ``N`` shards round-robin in database order
  (deterministic, and kept deterministic by :meth:`add_sequence`, which
  continues the round-robin);
* each shard is a full :class:`~repro.core.matcher.SubsequenceMatcher`
  with its own index, its own distance cache, and a serial pipeline --
  shards share *nothing*, which is what makes the fan-out's statistics
  order-independent;
* queries fan out through the configured executor (thread pool for
  ``thread``/``process`` configs -- matcher shards are in-process objects,
  so process fan-out would only add pickling for nothing -- serial
  otherwise) and merge deterministically.

Per query type:

* **Type I** returns the union of the shard results, sorted canonically
  (by source id and span); the *set* of matches is identical to the
  single matcher's, whose own order follows its global chain order.
* **Type II** takes the best shard result by ``(length desc, distance
  asc)``, shard order breaking exact ties.
* **Type III and top-k** run the single matcher's radius sweep -- the same
  function, :meth:`~repro.core.query_api.QueryInterfaceMixin._radius_sweep`
  -- *globally*: the binary search asks every shard for segment matches per
  probe, and each verification pass runs on every shard at the same
  radius, feeding one global k-bounded candidate heap ordered by the
  deterministic :func:`~repro.core.queries.match_ranking_key` -- so the
  sweep visits the same radii as a single matcher and the ranked result,
  ties included, is *identical* to the unsharded one (a per-shard sweep
  would not be: a shard whose segment matches appear only at larger radii
  could return a closer match the global sweep never reaches).

Statistics merge with
:meth:`~repro.core.queries.QueryStats.across_shards`: work counters and
timings sum, ``segments_extracted`` stays per-query, and the naive
denominator sums to exactly the single matcher's ``segments x windows``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import singledispatchmethod
from typing import Dict, List, Optional, Tuple

from repro.core.config import MatcherConfig
from repro.core.executor import Executor, WorkTask, make_executor
from repro.core.matcher import SubsequenceMatcher
from repro.core.pipeline import QueryPipeline
from repro.core.queries import (
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    QueryResult,
    QueryStats,
    RangeQuery,
    SubsequenceMatch,
    TopKQuery,
)
from repro.core.query_api import QueryInterfaceMixin
from repro.distances.base import Distance
from repro.exceptions import ConfigurationError, QueryError
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence
from repro.sequences.windows import Window


def _match_sort_key(match: SubsequenceMatch) -> tuple:
    return (
        match.source_id,
        match.db_start,
        match.query_start,
        match.db_stop,
        match.query_stop,
        match.distance,
    )


def _better_longest(
    candidate: Optional[SubsequenceMatch], best: Optional[SubsequenceMatch]
) -> bool:
    """Type II comparison: longer wins, ties go to the smaller distance."""
    if candidate is None:
        return False
    if best is None:
        return True
    return candidate.length > best.length or (
        candidate.length == best.length and candidate.distance < best.distance
    )


class ShardedMatcher(QueryInterfaceMixin):
    """Partition a sequence database across N independent matcher shards.

    Parameters
    ----------
    database:
        The sequences to search; snapshotted at construction exactly like
        the single matcher (use :meth:`add_sequence` /
        :meth:`remove_sequence` afterwards).
    distance / config:
        As for :class:`~repro.core.matcher.SubsequenceMatcher`.
        ``config.shards`` fixes the shard count (a ``shards`` argument
        overrides it); ``config.executor`` / ``config.workers`` choose the
        fan-out engine.  Shard-internal pipelines always run serially --
        the parallelism budget is spent across shards, not nested inside
        them.

    Attributes
    ----------
    shards:
        The per-partition :class:`SubsequenceMatcher` instances, in shard
        order.
    last_query_stats / last_batch_stats:
        Merged accounting, as for the single matcher; the per-shard records
        ride along in ``last_query_stats.passes``.
    """

    def __init__(
        self,
        database: SequenceDatabase,
        distance: Distance,
        config: MatcherConfig,
        shards: Optional[int] = None,
    ) -> None:
        count = config.shards if shards is None else shards
        if count < 1:
            raise ConfigurationError(f"shards must be >= 1, got {count}")
        self.database = database
        self.distance = distance
        self.config = config
        self._shard_config = replace(config, executor="serial", shards=1)
        self._assignment: Dict[str, int] = {}
        shard_databases = [
            SequenceDatabase(database.kind, name=f"{database.name}/shard{i}")
            for i in range(count)
        ]
        for position, sequence in enumerate(database):
            shard = position % count
            shard_databases[shard].add(sequence)
            self._assignment[sequence.seq_id] = shard
        self._assigned = len(self._assignment)
        self.shards: List[SubsequenceMatcher] = [
            SubsequenceMatcher(shard_db, distance, self._shard_config)
            for shard_db in shard_databases
        ]
        self.executor = self._make_fan_out_executor(config)
        self.last_query_stats = QueryStats()
        self.last_batch_stats: List[QueryStats] = []

    @staticmethod
    def _make_fan_out_executor(config: MatcherConfig) -> Executor:
        # Shards are in-process matcher objects: a process pool could not
        # ship them without pickling whole indexes, so "process" degrades
        # gracefully to thread fan-out (the shard pipelines themselves are
        # serial either way).
        if config.executor == "serial":
            return make_executor("serial")
        return make_executor("thread", config.workers)

    # ------------------------------------------------------------------ #
    # Shard plumbing
    # ------------------------------------------------------------------ #
    @property
    def shard_count(self) -> int:
        """Number of partitions."""
        return len(self.shards)

    def set_executor(self, name: str, workers: Optional[int] = None) -> None:
        """Switch the fan-out engine (see the single matcher's method)."""
        if workers is None:
            workers = self.config.workers
        self.config = replace(self.config, executor=name, workers=workers)
        self.executor = self._make_fan_out_executor(self.config)

    @property
    def windows(self) -> List[Window]:
        """All database windows, shard by shard."""
        collected: List[Window] = []
        for shard in self.shards:
            collected.extend(shard.windows)
        return collected

    def shard_of(self, seq_id: str) -> int:
        """The shard a sequence is assigned to."""
        try:
            return self._assignment[seq_id]
        except KeyError:
            raise QueryError(f"no sequence with id {seq_id!r} in this matcher") from None

    def _fan_out(self, fn) -> List[object]:
        """Run ``fn(shard)`` for every shard; results in shard order."""
        tasks = [WorkTask(lambda shard=shard: fn(shard)) for shard in self.shards]
        return [result.value for result in self.executor.run(tasks)]

    def _merge_stats(self) -> QueryStats:
        return self._finalize_stats(
            QueryStats.across_shards([shard.last_query_stats for shard in self.shards])
        )

    def _finalize_stats(self, stats: QueryStats) -> QueryStats:
        """Stamp the fan-out engine onto merged statistics and install them."""
        stats.executor = self.executor.name
        stats.workers = self.executor.workers
        stats.shards = self.shard_count
        self.last_query_stats = stats
        return stats

    _finish_sweep = _finalize_stats

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def add_sequence(self, sequence: Sequence, seq_id: Optional[str] = None) -> str:
        """Add ``sequence``, continuing the round-robin shard assignment.

        The outer database is the id authority: it admits (and, when
        ``seq_id`` is omitted, names) the sequence *first*, so a duplicate
        id is rejected atomically -- exactly like the single matcher --
        before any shard state is touched.
        """
        shard = self._assigned % self.shard_count
        key = self.database.add(sequence, seq_id)
        try:
            self.shards[shard].add_sequence(self.database[key], seq_id=key)
        except Exception:
            self.database.remove(key)
            raise
        self._assignment[key] = shard
        self._assigned += 1
        return key

    def remove_sequence(self, seq_id: str) -> Sequence:
        """Remove a sequence from its shard (and the outer database)."""
        shard = self.shard_of(seq_id)
        removed = self.shards[shard].remove_sequence(seq_id)
        self.database.remove(seq_id)
        del self._assignment[seq_id]
        return removed

    # ------------------------------------------------------------------ #
    # The declarative execute() entry point
    # ------------------------------------------------------------------ #
    @singledispatchmethod
    def execute(self, spec) -> QueryResult:
        """Answer a bound declarative query spec across every shard.

        The sharded twin of
        :meth:`~repro.core.matcher.SubsequenceMatcher.execute`: the same
        spec objects in, the same
        :class:`~repro.core.queries.QueryResult` envelope out.  Result
        paging (``limit``/``offset``) is applied *after* the shard merge,
        never inside a shard, so a paged sharded query pages over exactly
        the globally merged match list.
        """
        raise QueryError(f"unsupported query spec: {spec!r}")

    @execute.register
    def _execute_range(self, spec: RangeQuery) -> QueryResult:
        """Type I over every shard; the union of the shard result sets.

        The merged list is sorted canonically (source id, then span) -- the
        single matcher emits the same *set* in its chain-processing order
        instead.  ``max_results`` is enforced after the merge, so a capped
        sharded query may verify more than a capped single matcher (each
        shard caps independently) but never returns more matches.
        """
        query = self._query_of(spec)
        inner = replace(spec, limit=None, offset=0)
        per_shard = self._fan_out(lambda shard: shard.execute(inner.bind(query)).matches)
        merged: List[SubsequenceMatch] = []
        for matches in per_shard:
            merged.extend(matches)
        merged.sort(key=_match_sort_key)
        if spec.max_results is not None:
            merged = merged[: spec.max_results]
        return QueryResult.build(spec, merged, self._merge_stats())

    @execute.register
    def _execute_longest(self, spec: LongestSubsequenceQuery) -> QueryResult:
        """Type II over every shard; the longest match across shards.

        Exact ``(length, distance)`` ties between shards resolve in shard
        order (a single matcher resolves them in its global chain order,
        so a tie may name a different -- equally long, equally distant --
        subsequence pair).
        """
        query = self._query_of(spec)
        inner = replace(spec, limit=None, offset=0)
        per_shard = self._fan_out(lambda shard: shard.execute(inner.bind(query)).best)
        best: Optional[SubsequenceMatch] = None
        for candidate in per_shard:
            if _better_longest(candidate, best):
                best = candidate
        return QueryResult.build(
            spec, [best] if best is not None else [], self._merge_stats()
        )

    @execute.register
    def _execute_nearest(self, spec: NearestSubsequenceQuery) -> QueryResult:
        matches, stats = self._radius_sweep(spec, k=1)
        return QueryResult.build(spec, matches, stats)

    @execute.register
    def _execute_topk(self, spec: TopKQuery) -> QueryResult:
        matches, stats = self._radius_sweep(spec, k=spec.k)
        return QueryResult.build(spec, matches, stats)

    # The sweep itself is :meth:`QueryInterfaceMixin._radius_sweep`; a
    # sharded pass fans out over every shard's pipeline at the same radius.
    def _sweep_pipelines(self) -> List[QueryPipeline]:
        return [shard.pipeline for shard in self.shards]

    def _probe_all(self, query: Sequence, radius: float) -> Tuple[bool, QueryStats]:
        probes = self._fan_out(lambda shard: shard.pipeline.probe(query, radius))
        return (
            any(probe.matches for probe in probes),
            QueryStats.across_shards([probe.stats for probe in probes]),
        )

    def _scored_pass_all(
        self, query: Sequence, radius: float
    ) -> Tuple[List[SubsequenceMatch], QueryStats]:
        outcomes = self._fan_out(lambda shard: shard.pipeline.run_scored_pass(query, radius))
        return (
            [match for matches, _stats in outcomes for match in matches],
            QueryStats.across_shards([stats for _matches, stats in outcomes]),
        )

    # ``_radius_sweep``, ``execute_many`` and ``close`` come from
    # :class:`~repro.core.query_api.QueryInterfaceMixin`, shared with the
    # plain matcher.

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    @classmethod
    def _restore(
        cls,
        database: SequenceDatabase,
        distance: Distance,
        config: MatcherConfig,
        shards: List[SubsequenceMatcher],
        assignment: Dict[str, int],
        assigned: int,
    ) -> "ShardedMatcher":
        """Assemble a sharded matcher around already-restored shards."""
        matcher = cls.__new__(cls)
        matcher.database = database
        matcher.distance = distance
        matcher.config = config
        matcher._shard_config = replace(config, executor="serial", shards=1)
        matcher.shards = list(shards)
        matcher._assignment = dict(assignment)
        matcher._assigned = int(assigned)
        matcher.executor = cls._make_fan_out_executor(config)
        matcher.last_query_stats = QueryStats()
        matcher.last_batch_stats = []
        return matcher

    def __repr__(self) -> str:
        return (
            f"ShardedMatcher(shards={self.shard_count}, "
            f"windows={sum(len(s.windows) for s in self.shards)}, "
            f"distance={self.distance.name!r}, index={self.config.index!r}, "
            f"executor={self.executor.name!r})"
        )
