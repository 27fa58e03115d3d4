"""The :class:`SubsequenceMatcher`: the paper's five-step pipeline, assembled.

Typical use::

    from repro import (
        SequenceDatabase, Sequence, SequenceKind, DiscreteFrechet,
        SubsequenceMatcher, MatcherConfig,
    )

    db = SequenceDatabase(SequenceKind.TIME_SERIES)
    db.add(Sequence.from_values([...], seq_id="series-1"))
    matcher = SubsequenceMatcher(db, DiscreteFrechet(), MatcherConfig(min_length=40, max_shift=2))

    # Declarative style: build a spec, bind the query sequence, execute.
    result = matcher.execute(RangeQuery(radius=1.5).bind(query))       # Type I
    result = matcher.execute(LongestSubsequenceQuery(1.5).bind(query))  # Type II
    result = matcher.execute(TopKQuery(k=5, max_radius=10).bind(query))  # top-k
    result.matches, result.stats, result.query  # the uniform envelope

    # Many bound specs, of any mix of query types, in one call:
    results = matcher.execute_many([RangeQuery(radius=1.5).bind(q) for q in queries])

The online steps (3-5) are executed by the staged
:class:`~repro.core.pipeline.QueryPipeline`; the matcher owns the offline
steps (1-2); the Type III / top-k radius sweep and the multi-query
:meth:`execute_many` entry point come from
:class:`~repro.core.query_api.QueryInterfaceMixin`, shared with the sharded
matcher.
"""

from __future__ import annotations

import dataclasses
from functools import singledispatchmethod
from typing import Dict, List, Optional, Tuple

from repro.core.candidates import chain_segment_matches
from repro.core.config import MatcherConfig
from repro.core.executor import make_executor
from repro.core.pipeline import QueryPipeline
from repro.core.queries import (
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    QueryResult,
    QueryStats,
    RangeQuery,
    SegmentMatch,
    SubsequenceMatch,
    TopKQuery,
    as_query_spec,
)
from repro.core.query_api import QueryInterfaceMixin, QuerySpec
from repro.core.segmentation import partition_database
from repro.distances.base import Distance
from repro.distances.cache import DistanceCache
from repro.exceptions import ConfigurationError, QueryError
from repro.indexing.base import MetricIndex
from repro.indexing.linear_scan import LinearScanIndex
from repro.indexing.reference_net import ReferenceNet
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence
from repro.sequences.windows import Window, tumbling_windows

def build_index(config: MatcherConfig, distance: Distance, cache: DistanceCache) -> MetricIndex:
    """Instantiate the (empty) metric index ``config.index`` selects.

    Shared by :meth:`SubsequenceMatcher.refresh` and the snapshot loader
    (:func:`repro.storage.persistence.load_matcher`), which restores the
    built structure into the empty index instead of re-adding windows.
    """
    name = config.index
    if name == "reference-net":
        return ReferenceNet(
            distance,
            eps_prime=config.eps_prime,
            nummax=config.nummax,
            cache=cache,
            prefilter=config.prefilter,
        )
    if name == "linear-scan":
        return LinearScanIndex(distance, cache=cache, prefilter=config.prefilter)
    raise ConfigurationError(f"unknown index {name!r}")  # pragma: no cover


class SubsequenceMatcher(QueryInterfaceMixin):
    """Index a sequence database for subsequence similarity queries.

    Parameters
    ----------
    database:
        The sequences to search.  The database is *snapshotted* at
        construction: steps 1-2 (windowing and index construction) run once
        here; sequences added directly to the database afterwards are not
        visible until :meth:`refresh` is called.  Prefer the incremental
        :meth:`add_sequence` / :meth:`remove_sequence`, which keep the
        database and the built index in lockstep without a rebuild.
    distance:
        The distance measure.  It must be consistent (the framework's
        filtering relies on Lemma 1-3); it must additionally be a metric
        unless the configured index is the linear scan.
    config:
        The framework parameters (lambda, lambda0, index choice, ...).
    cache:
        Optional externally-owned :class:`~repro.distances.cache.DistanceCache`
        -- typically :func:`repro.distances.cache.shared_cache` -- letting
        several matchers over the *same distance* share measured pairs.  A
        shared cache is never cleared by :meth:`refresh` (other matchers may
        still rely on its entries); when omitted, the matcher owns a private
        cache sized by ``config.cache_max_entries``.

    Attributes
    ----------
    last_query_stats:
        :class:`~repro.core.queries.QueryStats` for the most recent query,
        including index and verification distance counts -- the quantities
        the paper's evaluation reports -- plus the pipeline's per-stage
        timings and prefilter accounting.
    last_batch_stats:
        One :class:`~repro.core.queries.QueryStats` per query of the most
        recent :meth:`execute_many` call.
    distance_cache:
        The :class:`~repro.distances.cache.DistanceCache` shared between
        the index and the verification step.  Every (segment, window) and
        (query subsequence, database subsequence) distance is computed at
        most once per matcher lifetime: repeated chain verifications and
        the *next* query over the same content are answered from the cache
        (within one Type III radius sweep the later passes do not even ask
        -- see :meth:`~repro.core.pipeline.QueryPipeline.sweep`), which is
        what keeps the index's *fresh* computation count below the naive
        scan's even across the whole radius sweep.
    pipeline:
        The :class:`~repro.core.pipeline.QueryPipeline` executing steps 3-5.
    """

    def __init__(
        self,
        database: SequenceDatabase,
        distance: Distance,
        config: MatcherConfig,
        cache: Optional[DistanceCache] = None,
    ) -> None:
        self._init_core(database, distance, config, cache)
        self.refresh()

    def _init_core(
        self,
        database: SequenceDatabase,
        distance: Distance,
        config: MatcherConfig,
        cache: Optional[DistanceCache],
    ) -> None:
        """Validate inputs and set up every field except windows/index/pipeline.

        Split out of ``__init__`` so :meth:`_restore` (the snapshot loader's
        entry point) can construct a matcher whose offline steps come from
        disk instead of :meth:`refresh`.
        """
        if not distance.is_consistent:
            raise ConfigurationError(
                f"distance {distance.name!r} is not consistent; the framework's "
                "window-based filtering (Lemmas 1-3) requires consistency"
            )
        if config.index != "linear-scan" and not distance.is_metric:
            raise ConfigurationError(
                f"distance {distance.name!r} is not a metric; configure "
                "index='linear-scan' to use it with the framework"
            )
        config.require_shift_support(distance)
        self.database = database
        self.distance = distance
        self.config = config
        self.last_query_stats = QueryStats()
        self.last_batch_stats: List[QueryStats] = []
        self._owns_cache = cache is None
        self.distance_cache = (
            cache
            if cache is not None
            else DistanceCache(max_entries=config.cache_max_entries)
        )
        self._windows: List[Window] = []
        self._windows_by_key: Dict[tuple, Window] = {}
        self._index: Optional[MetricIndex] = None
        self._pipeline: Optional[QueryPipeline] = None

    @classmethod
    def _restore(
        cls,
        database: SequenceDatabase,
        distance: Distance,
        config: MatcherConfig,
        cache: Optional[DistanceCache],
        windows: List[Window],
        index: MetricIndex,
    ) -> "SubsequenceMatcher":
        """Assemble a matcher around an already-built index (snapshot load).

        Performs the same validation as the public constructor but skips
        :meth:`refresh` entirely: ``windows`` and ``index`` come from a
        snapshot, so the restored matcher answers queries immediately with
        zero rebuild work.
        """
        matcher = cls.__new__(cls)
        matcher._init_core(database, distance, config, cache)
        matcher._adopt(windows, index)
        return matcher

    def _adopt(self, windows: List[Window], index: MetricIndex) -> None:
        """Install windows and a built index, then rebuild the pipeline."""
        self._windows = list(windows)
        self._windows_by_key = {window.key: window for window in self._windows}
        self._index = index
        self._pipeline = QueryPipeline(
            database=self.database,
            distance=self.distance,
            config=self.config,
            index=self._index,
            windows_by_key=self._windows_by_key,
            cache=self.distance_cache,
        )

    # ------------------------------------------------------------------ #
    # Steps 1-2: offline preprocessing
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """(Re)run the offline steps: window partitioning and index build.

        This is the batch path; :meth:`add_sequence` / :meth:`remove_sequence`
        apply the same steps incrementally without discarding the built
        index (or, when the matcher owns it, the distance cache).
        """
        if self._owns_cache:
            self.distance_cache.clear()
        windows = partition_database(self.database, self.config)
        index = self._build_index()
        for window in windows:
            index.add(window.sequence, key=window.key)
        self._adopt(windows, index)

    def _build_index(self) -> MetricIndex:
        return build_index(self.config, self.distance, self.distance_cache)

    # ------------------------------------------------------------------ #
    # Incremental updates (no full refresh)
    # ------------------------------------------------------------------ #
    def add_sequence(self, sequence: Sequence, seq_id: Optional[str] = None) -> str:
        """Add ``sequence`` to the database *and* the live matcher state.

        The incremental counterpart of adding to the database and calling
        :meth:`refresh`: the new sequence is windowed (step 1) and its
        windows are inserted into the built index through the index's
        incremental :meth:`~repro.indexing.base.MetricIndex.insert` path,
        so the cost is proportional to the new windows, not the database.
        Queries issued afterwards return exactly what a freshly rebuilt
        matcher would return (the pipeline's canonical probe order makes
        this hold for both index classes).

        Returns the id the database assigned to the sequence.
        """
        key = self.database.add(sequence, seq_id)
        added = list(
            tumbling_windows(
                self.database[key], self.config.window_length, source_id=key
            )
        )
        for window in added:
            self._windows.append(window)
            self._windows_by_key[window.key] = window
            self.pipeline.note_window_added(window.key)
            self.index.insert(window.sequence, key=window.key)
        return key

    def remove_sequence(self, seq_id: str) -> Sequence:
        """Remove a sequence from the database and the live matcher state.

        Every window cut from the sequence is deleted from the built index
        through its incremental :meth:`~repro.indexing.base.MetricIndex.delete`
        path.  Cache entries involving the removed windows are left in
        place: the cache is content-keyed, so they stay correct (and useful
        if equal content is ever re-added) and are evicted by capacity like
        any other entry.

        Returns the removed sequence.
        """
        sequence = self.database.remove(seq_id)
        removed = [window for window in self._windows if window.source_id == seq_id]
        self._windows = [window for window in self._windows if window.source_id != seq_id]
        for window in removed:
            del self._windows_by_key[window.key]
            self.pipeline.note_window_removed(window.key)
            self.index.delete(window.key)
        return sequence

    def check_incremental_invariants(
        self, queries: List[Sequence], spec: QuerySpec
    ) -> None:
        """Assert this matcher answers ``queries`` like a fresh rebuild would.

        Builds a throwaway matcher over the same database with the same
        configuration (and a private cache), runs every query through both,
        and raises :class:`~repro.exceptions.QueryError` on the first
        divergence.  This is the executable form of the incremental-update
        contract; the test-suite's property tests drive it across index
        classes and update interleavings.
        """
        def identity(result):
            return result.error, [
                (m.distance, m.source_id, m.query_start, m.query_stop, m.db_start, m.db_stop)
                for m in result.matches
            ]

        spec = as_query_spec(spec)
        specs = [spec.bind(query) for query in queries]
        rebuilt = SubsequenceMatcher(self.database, self.distance, self.config)
        mine = [identity(result) for result in self.execute_many(specs)]
        theirs = [identity(result) for result in rebuilt.execute_many(specs)]
        if mine != theirs:
            raise QueryError(
                "incremental matcher diverged from a fresh rebuild: "
                f"{mine!r} != {theirs!r}"
            )

    def set_executor(self, name: str, workers: Optional[int] = None) -> None:
        """Switch the execution engine of the live pipeline.

        Updates the configuration (so a later :meth:`refresh` or snapshot
        keeps the choice) and swaps the pipeline's executor in place --
        results and work counters are executor-independent, so this is
        always safe, including on a matcher loaded from a snapshot that
        was built with a different engine.  ``workers=None`` keeps the
        currently configured worker count (changing only the engine must
        not silently drop an explicit count).
        """
        if workers is None:
            workers = self.config.workers
        self.config = dataclasses.replace(self.config, executor=name, workers=workers)
        self.pipeline.config = self.config
        self.pipeline.executor = make_executor(name, workers)

    @property
    def index(self) -> MetricIndex:
        """The metric index holding the database windows."""
        assert self._index is not None
        return self._index

    @property
    def pipeline(self) -> QueryPipeline:
        """The staged query-execution pipeline running steps 3-5."""
        assert self._pipeline is not None
        return self._pipeline

    @property
    def windows(self) -> List[Window]:
        """The database windows produced by step 1."""
        return list(self._windows)

    # ------------------------------------------------------------------ #
    # Steps 3-4: segment extraction and range search on the index
    # ------------------------------------------------------------------ #
    def segment_matches(self, query: Sequence, radius: float) -> List[SegmentMatch]:
        """Run steps 3-4 and return the (segment, window) pairs.

        Also resets and fills :attr:`last_query_stats` with the step-3/4
        accounting (including the pipeline's stage timings and prefilter
        counts).
        """
        probe = self.pipeline.probe(query, radius)
        self.last_query_stats = probe.stats
        return probe.matches

    # ------------------------------------------------------------------ #
    # Step 5: the declarative execute() entry point
    # ------------------------------------------------------------------ #
    @singledispatchmethod
    def execute(self, spec) -> QueryResult:
        """Answer a bound declarative query spec; the one query entry point.

        ``spec`` is one of the :mod:`repro.core.queries` dataclasses with a
        query sequence attached via
        :meth:`~repro.core.queries.BaseQuery.bind`; dispatch over the spec
        type selects the pipeline strategy.  Every query returns the uniform
        :class:`~repro.core.queries.QueryResult` envelope (paged matches,
        :class:`~repro.core.queries.QueryStats`, spec echo) and installs
        its statistics in :attr:`last_query_stats`.
        """
        raise QueryError(f"unsupported query spec: {spec!r}")

    @execute.register
    def _execute_range(self, spec: RangeQuery) -> QueryResult:
        results, stats = self.pipeline.run_range(self._query_of(spec), spec)
        self.last_query_stats = stats
        return QueryResult.build(spec, results, stats)

    @execute.register
    def _execute_longest(self, spec: LongestSubsequenceQuery) -> QueryResult:
        best, stats = self.pipeline.run_longest(self._query_of(spec), spec)
        self.last_query_stats = stats
        return QueryResult.build(spec, [best] if best is not None else [], stats)

    @execute.register
    def _execute_nearest(self, spec: NearestSubsequenceQuery) -> QueryResult:
        matches, stats = self._radius_sweep(spec, k=1)
        return QueryResult.build(spec, matches, stats)

    @execute.register
    def _execute_topk(self, spec: TopKQuery) -> QueryResult:
        matches, stats = self._radius_sweep(spec, k=spec.k)
        return QueryResult.build(spec, matches, stats)

    # The sweep itself is :meth:`QueryInterfaceMixin._radius_sweep`; a plain
    # matcher's pass is one pipeline call.
    def _sweep_pipelines(self) -> List[QueryPipeline]:
        return [self.pipeline]

    def _probe_all(self, query: Sequence, radius: float) -> Tuple[bool, QueryStats]:
        probe = self.pipeline.probe(query, radius)
        return bool(probe.matches), probe.stats

    def _scored_pass_all(
        self, query: Sequence, radius: float
    ) -> Tuple[List[SubsequenceMatch], QueryStats]:
        return self.pipeline.run_scored_pass(query, radius)

    def _finish_sweep(self, stats: QueryStats) -> QueryStats:
        self.last_query_stats = stats
        return stats

    # ``_radius_sweep``, ``execute_many`` and ``close`` come from
    # :class:`~repro.core.query_api.QueryInterfaceMixin`, shared with the
    # sharded matcher.

    # ------------------------------------------------------------------ #
    # Figure-12 style reporting
    # ------------------------------------------------------------------ #
    def matching_window_report(self, query: Sequence, radius: float) -> Dict[str, float]:
        """Unique and consecutive matching windows (the paper's Figure 12).

        Returns the number of distinct database windows matched by at least
        one query segment, the number of those that are part of a run of at
        least two consecutive matched windows, and both as fractions of the
        total window count.
        """
        matches = self.segment_matches(query, radius)
        unique_keys = {match.window.key for match in matches}
        chains = chain_segment_matches(matches, self.config)
        consecutive_keys = set()
        for chain in chains:
            if chain.window_count >= 2:
                for match in chain.matches:
                    consecutive_keys.add(match.window.key)
        total = len(self._windows)
        return {
            "total_windows": total,
            "unique_matching_windows": len(unique_keys),
            "consecutive_matching_windows": len(consecutive_keys),
            "unique_fraction": len(unique_keys) / total if total else 0.0,
            "consecutive_fraction": len(consecutive_keys) / total if total else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"SubsequenceMatcher(windows={len(self._windows)}, "
            f"distance={self.distance.name!r}, index={self.config.index!r}, "
            f"lambda={self.config.min_length}, lambda0={self.config.max_shift})"
        )
