"""The staged query-execution pipeline behind every matcher query.

The paper's framework is a pipeline by construction -- window partitioning,
segment extraction, index range search, chaining, verification -- but until
this module existed the online half (steps 3-5) was re-orchestrated inside
each of the matcher's query methods as a per-segment Python loop.
:class:`QueryPipeline` makes the pipeline explicit: every query type is
decomposed into the same named stages

``segment``
    extract the query segments (step 3), memoized per query object so a
    Type III radius sweep extracts them once;
``prefilter``
    cheap lower bounds in front of the DP kernels (see
    :mod:`repro.distances.lower_bounds`), accounted through the
    :class:`~repro.indexing.stats.DistanceCounter` prefilter tallies.  The
    linear scan evaluates them inside the batched probe's kernel dispatch,
    pair by pair after the cache; the reference net gets one table for all
    the segments of the query (:meth:`QueryPipeline.bound_table_for`, memoized
    like the segments, so a radius sweep builds it once) and classifies its
    nodes from it before cache and kernel;
``probe``
    the step-4 range search over every segment.  Under the serial executor
    this is one :meth:`~repro.indexing.base.MetricIndex.batch_range_query`
    call; under a parallel executor the index splits the batch into
    independent work units
    (:meth:`~repro.indexing.base.MetricIndex.query_work_units` -- per
    segment for the tree indexes, per segment x shape group for the linear
    scan) which fan out over the configured
    :class:`~repro.core.executor.Executor`;
``chain``
    concatenate consecutive window matches into candidate chains (step 5a);
``verify``
    turn chains into verified subsequence matches (step 5b), with one
    strategy per query type.  Chains are independent, so query types
    without early-exit dependencies (Type I without a result cap, each
    Type III pass) verify them as parallel work units too; Type II keeps
    its longest-first early break and verifies serially.

Whatever the executor, a query returns **byte-identical results and
identical work counters** to the serial path: parallel units run against
recorded overlays and their logs are replayed serially afterwards (see
:mod:`repro.distances.recording` for the argument why this is exact).

Each stage records wall-clock time into
:attr:`~repro.core.queries.QueryStats.stage_timings` and CPU time (the
orchestrating thread plus every worker) into
:attr:`~repro.core.queries.QueryStats.cpu_stage_timings`; the counter-based
accounting (fresh computations, cache hits, prefilter evaluations) lands in
the same :class:`~repro.core.queries.QueryStats`, which is what the CLI's
``repro search --stats`` table and the analysis helpers report.

New workloads plug in as verification strategies over the shared front half
(:meth:`QueryPipeline.probe`), instead of duplicating the step-3/4
orchestration again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.candidates import CandidateChain, chain_segment_matches
from repro.core.config import MatcherConfig
from repro.core.executor import Executor, WorkTask, make_executor
from repro.core.queries import (
    LongestSubsequenceQuery,
    QueryStats,
    RangeQuery,
    SegmentMatch,
    SubsequenceMatch,
)
from repro.core.segmentation import extract_query_segments
from repro.core.verification import _VerificationCounter, enumerate_matches, verify_chain
from repro.distances.backend import active_kernel_name, kernel_scope
from repro.distances.base import Distance
from repro.distances.cache import DistanceCache
from repro.distances.recording import RecordingVerifyCache
from repro.indexing.base import (
    BoundTable,
    MetricIndex,
    chunk_positions,
    run_query_work_units,
)
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence
from repro.sequences.windows import Window


@dataclass
class ProbeResult:
    """Output of the pipeline's front half (segment -> prefilter -> probe)."""

    #: The (segment, window) pairs produced by the batched index probe.
    matches: List[SegmentMatch]
    #: Step-3/4 accounting (segments, computations, prefilter, timings).
    stats: QueryStats


class QueryPipeline:
    """Executes the framework's online steps as explicit, accounted stages.

    The pipeline is stateless between queries apart from two one-slot memos:
    the most recent query object's extracted segments, and the index's bound
    table for them (dropped by any index write), are kept so that repeated
    passes over the same query (Type III's binary search and radius sweep)
    neither re-extract nor re-bound.  All distance-level sharing goes through the
    matcher's :class:`~repro.distances.cache.DistanceCache`, which the
    pipeline only observes through the index counter.

    The execution substrate is owned here: the pipeline builds (or is
    handed) an :class:`~repro.core.executor.Executor` from the matcher
    configuration and submits the probe and verify work units to it.
    """

    def __init__(
        self,
        database: SequenceDatabase,
        distance: Distance,
        config: MatcherConfig,
        index: MetricIndex,
        windows_by_key: dict,
        cache: Optional[DistanceCache] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.database = database
        self.distance = distance
        self.config = config
        self.index = index
        self._windows_by_key = windows_by_key
        self.cache = cache
        self.executor = (
            executor
            if executor is not None
            else make_executor(config.executor, config.workers)
        )
        self._segment_memo: Optional[Tuple[Sequence, List[Window]]] = None
        self._bound_memo: Optional[Tuple[Sequence, Optional[BoundTable]]] = None
        # Monotonic insertion stamps backing the canonical probe order.
        # Maintained incrementally through note_window_added/removed so the
        # hot path never pays an O(windows) rebuild; relative order is all
        # the sort needs, so deletions simply drop their stamp.
        self._window_order = {key: stamp for stamp, key in enumerate(windows_by_key)}
        self._next_window_stamp = len(self._window_order)

    def note_window_added(self, key) -> None:
        """Record a window appended by the matcher's incremental update path."""
        self._window_order[key] = self._next_window_stamp
        self._next_window_stamp += 1
        self._bound_memo = None

    def note_window_removed(self, key) -> None:
        """Forget a window deleted by the matcher's incremental update path."""
        del self._window_order[key]
        self._bound_memo = None

    @property
    def window_count(self) -> int:
        """Number of database windows currently indexed.

        Computed live from the shared window dictionary (the matcher mutates
        it in place on :meth:`~repro.core.matcher.SubsequenceMatcher.add_sequence`
        / ``remove_sequence``), so the naive-cost denominator in the stats
        always reflects the database the query actually ran against.
        """
        return len(self._windows_by_key)

    def _new_stats(self) -> QueryStats:
        return QueryStats(
            executor=self.executor.name,
            workers=self.executor.workers,
            kernel_backend=active_kernel_name(),
            transport=self.config.transport,
        )

    # ------------------------------------------------------------------ #
    # Stage: segment (step 3)
    # ------------------------------------------------------------------ #
    def segments_for(self, query: Sequence) -> List[Window]:
        """Extract (or recall) the query segments of every admissible length."""
        memo = self._segment_memo
        if memo is not None and memo[0] is query:
            return memo[1]
        segments = extract_query_segments(query, self.config)
        self._segment_memo = (query, segments)
        return segments

    def bound_table_for(self, query: Sequence) -> Optional[BoundTable]:
        """Build (or recall) the index's bound table for ``query``'s segments.

        ``None`` for an index that consults no table.  A table is a function
        of (query, stored windows) alone, so it serves every pass of a radius
        sweep; :meth:`note_window_added` / :meth:`note_window_removed` drop it.
        """
        memo = self._bound_memo
        if memo is not None and memo[0] is query:
            return memo[1]
        table = self.index.bound_table(
            query, [(segment.start, segment.length) for segment in self.segments_for(query)]
        )
        self._bound_memo = (query, table)
        return table

    # ------------------------------------------------------------------ #
    # Stages: segment -> prefilter -> probe (steps 3-4)
    # ------------------------------------------------------------------ #
    def probe(self, query: Sequence, radius: float) -> ProbeResult:
        """Run the pipeline's front half and return matches plus accounting.

        The whole stage runs under the configured kernel scope (see
        :attr:`~repro.core.config.MatcherConfig.kernel`), so every DP sweep
        it triggers -- directly or from worker threads -- is served by the
        selected backend; the resolved backend name is recorded on the
        returned stats.
        """
        with kernel_scope(self.config.kernel):
            return self._probe(query, radius)

    def _probe(self, query: Sequence, radius: float) -> ProbeResult:
        stats = self._new_stats()
        started = time.perf_counter()
        cpu_started = time.thread_time()
        segments = self.segments_for(query)
        stats.stage_timings["segment"] = time.perf_counter() - started
        stats.cpu_stage_timings["segment"] = time.thread_time() - cpu_started
        stats.segments_extracted = len(segments)
        stats.naive_distance_computations = len(segments) * self.window_count

        counter = self.index.counter
        counter.checkpoint()
        started = time.perf_counter()
        cpu_started = time.thread_time()
        sequences = [segment.sequence for segment in segments]
        bounds = self.bound_table_for(query)
        if self.executor.is_parallel:
            units = self.index.query_work_units(sequences, radius, bounds)
            per_segment, worker_cpu = run_query_work_units(
                self.index,
                units,
                len(sequences),
                self.executor,
                log_format=self.config.log_format,
                transport=self.config.transport,
            )
        else:
            per_segment = self.index.batch_range_query(sequences, radius, bounds=bounds)
            worker_cpu = 0.0
        # Canonical match order: hits within a segment are sorted by window
        # insertion order, so the (segment, window) pairs -- and everything
        # chaining and verification derive from them -- are identical no
        # matter which index class produced them, how its internal topology
        # evolved through incremental updates, or which executor ran the
        # probe.  This is the invariant the incremental-vs-rebuild,
        # snapshot, and parallel-equivalence guarantees rest on; for the
        # linear scan and the reference index it is a no-op (they already
        # enumerate items in insertion order).
        window_order = self._window_order
        matches: List[SegmentMatch] = []
        for segment, hits in zip(segments, per_segment):
            for hit in sorted(hits, key=lambda hit: window_order[hit.key]):
                window = self._windows_by_key[hit.key]
                matches.append(
                    SegmentMatch(
                        query_start=segment.start,
                        query_length=segment.length,
                        window=window,
                        distance=hit.distance,
                    )
                )
        stats.stage_timings["probe"] = time.perf_counter() - started
        stats.cpu_stage_timings["probe"] = (
            time.thread_time() - cpu_started
        ) + worker_cpu
        stats.index_distance_computations = counter.since_checkpoint()
        stats.index_cache_hits = counter.cache_hits_since_checkpoint()
        stats.prefilter_evaluations = counter.prefilter_since_checkpoint()
        stats.prefilter_pruned = counter.prefilter_pruned_since_checkpoint()
        stats.segment_matches = len(matches)
        return ProbeResult(matches, stats)

    # ------------------------------------------------------------------ #
    # Stage: chain (step 5a)
    # ------------------------------------------------------------------ #
    def chain(self, matches: List[SegmentMatch], stats: QueryStats) -> List[CandidateChain]:
        """Concatenate consecutive window matches into candidate chains."""
        started = time.perf_counter()
        cpu_started = time.thread_time()
        chains = chain_segment_matches(matches, self.config)
        stats.stage_timings["chain"] = time.perf_counter() - started
        stats.cpu_stage_timings["chain"] = time.thread_time() - cpu_started
        stats.candidate_chains = len(chains)
        return chains

    # ------------------------------------------------------------------ #
    # Stage: verify (step 5b) -- shared machinery
    # ------------------------------------------------------------------ #
    def verify_with_fallback(
        self,
        chain: CandidateChain,
        query: Sequence,
        radius: float,
        counter: _VerificationCounter,
        cache=None,
    ) -> Optional[SubsequenceMatch]:
        """Verify ``chain``; on failure, retry its halves recursively.

        Maximal chains can over-reach: a long, partly mis-stitched chain may
        span regions whose overall distance exceeds the radius even though a
        sub-chain supports a perfectly good match.  Splitting a failed chain
        in half and retrying costs at most a logarithmic factor in extra
        verifications and guarantees that every single-window match is still
        considered.

        ``cache`` defaults to the matcher's shared distance cache; parallel
        verification units pass their private recording overlay instead.
        """
        if cache is None:
            cache = self.cache
        db_sequence = self.database[chain.source_id]
        verified = verify_chain(
            chain,
            query,
            db_sequence,
            self.distance,
            radius,
            self.config,
            counter,
            cache=cache,
        )
        if verified is not None or chain.window_count == 1:
            return verified
        middle = chain.window_count // 2
        halves = (
            CandidateChain(chain.source_id, chain.matches[:middle]),
            CandidateChain(chain.source_id, chain.matches[middle:]),
        )
        best: Optional[SubsequenceMatch] = None
        for half in halves:
            candidate = self.verify_with_fallback(half, query, radius, counter, cache=cache)
            if candidate is None:
                continue
            if (
                best is None
                or candidate.length > best.length
                or (candidate.length == best.length and candidate.distance < best.distance)
            ):
                best = candidate
        return best

    def _verify_all_chains(
        self,
        chains: List[CandidateChain],
        counter: _VerificationCounter,
        runner: Callable[[CandidateChain, object, _VerificationCounter], object],
    ) -> Tuple[List[object], float]:
        """Run ``runner`` over every chain; results come back in chain order.

        Chains are mutually independent given a fixed radius, so under a
        parallel executor each becomes a work unit with a private
        :class:`~repro.distances.recording.RecordingVerifyCache`; the unit
        logs are replayed in chain order into the shared cache and
        ``counter`` afterwards, reproducing the serial accounting exactly.
        Returns the per-chain results plus the summed worker CPU seconds.
        """
        if (
            not self.executor.is_parallel
            or not self.executor.runs_local_tasks_concurrently
            or len(chains) <= 1
        ):
            # Verification units have no remote phase, so an executor that
            # cannot overlap local tasks (the process pool runs them one
            # by one in the parent) gains nothing from the recording
            # bookkeeping -- run the plain serial loop.
            return [runner(chain, self.cache, counter) for chain in chains], 0.0
        recordings: List[RecordingVerifyCache] = [
            RecordingVerifyCache(self.cache, log_format=self.config.log_format)
            for _chain in chains
        ]
        # Contiguous chunks of chains per task: candidate chains number in
        # the thousands and most verify in microseconds, so per-chain
        # futures would cost more than the verification itself.  Chunks are
        # cut by accumulated chain weight (window counts) so one monster
        # chain does not serialize a whole fixed-size chunk behind it.
        chunks = chunk_positions(
            len(chains),
            self.executor.workers,
            costs=[float(chain.window_count) for chain in chains],
        )
        tasks: List[WorkTask] = []
        for positions in chunks:

            def local(positions=positions):
                return [
                    runner(chains[p], recordings[p], _VerificationCounter())
                    for p in positions
                ]

            tasks.append(WorkTask(local))
        results = self.executor.run(tasks)
        for recording in recordings:
            recording.replay_into(self.cache, counter)
        per_chain: List[object] = []
        for result in results:
            per_chain.extend(result.value)
        return per_chain, sum(result.worker_cpu_seconds for result in results)

    @staticmethod
    def _finish_verify(
        stats: QueryStats,
        counter: _VerificationCounter,
        started: float,
        cpu_started: float,
        worker_cpu: float = 0.0,
    ) -> None:
        """Fold the verification counter and timings into ``stats``."""
        stats.stage_timings["verify"] = time.perf_counter() - started
        stats.cpu_stage_timings["verify"] = (
            time.thread_time() - cpu_started
        ) + worker_cpu
        stats.verification_distance_computations = counter.count
        stats.verification_cache_hits = counter.cache_hits

    # ------------------------------------------------------------------ #
    # Query strategies: one full pipeline run per query type
    # ------------------------------------------------------------------ #
    def run_range(
        self, query: Sequence, spec: RangeQuery
    ) -> Tuple[List[SubsequenceMatch], QueryStats]:
        """Type I: every (deduplicated) verified pair within the radius.

        Without a result cap every chain is verified, so the chains fan out
        as parallel verification units; with ``max_results`` the serial
        early-exit loop is kept (stopping after the n-th verified pair is a
        sequential dependency by definition).
        """
        with kernel_scope(self.config.kernel):
            return self._run_range(query, spec)

    def _run_range(
        self, query: Sequence, spec: RangeQuery
    ) -> Tuple[List[SubsequenceMatch], QueryStats]:
        probe = self.probe(query, spec.radius)
        stats = probe.stats
        chains = self.chain(probe.matches, stats)

        counter = _VerificationCounter()
        started = time.perf_counter()
        cpu_started = time.thread_time()

        def runner(chain, cache, chain_counter):
            if spec.exhaustive:
                return enumerate_matches(
                    chain,
                    query,
                    self.database[chain.source_id],
                    self.distance,
                    spec.radius,
                    self.config,
                    chain_counter,
                    max_results=spec.max_results,
                    cache=cache,
                )
            verified = self.verify_with_fallback(
                chain, query, spec.radius, chain_counter, cache=cache
            )
            return [verified] if verified is not None else []

        results: List[SubsequenceMatch] = []
        seen = set()

        def keep(match: SubsequenceMatch) -> None:
            identity = (
                match.source_id,
                match.query_start,
                match.query_stop,
                match.db_start,
                match.db_stop,
            )
            if identity not in seen:
                seen.add(identity)
                results.append(match)

        if spec.max_results is None:
            per_chain, worker_cpu = self._verify_all_chains(chains, counter, runner)
            for found in per_chain:
                for match in found:
                    keep(match)
            self._finish_verify(stats, counter, started, cpu_started, worker_cpu)
            return results, stats

        for chain in chains:
            for match in runner(chain, self.cache, counter):
                keep(match)
                if len(results) >= spec.max_results:
                    self._finish_verify(stats, counter, started, cpu_started)
                    return results, stats
        self._finish_verify(stats, counter, started, cpu_started)
        return results, stats

    def run_longest(
        self, query: Sequence, spec: LongestSubsequenceQuery
    ) -> Tuple[Optional[SubsequenceMatch], QueryStats]:
        """Type II: longest verified pair, chains examined longest first.

        A chain of ``k`` concatenated windows can support a match of length
        up to ``(k + 2) * lambda / 2``, so once a chain verifies, shorter
        chains that cannot possibly beat the verified length are skipped.
        That skip makes every verification depend on the previous ones, so
        Type II verification always runs serially (the probe still
        parallelizes); speculative parallel verification would change the
        work counters, which the executor contract forbids.
        """
        with kernel_scope(self.config.kernel):
            return self._run_longest(query, spec)

    def _run_longest(
        self, query: Sequence, spec: LongestSubsequenceQuery
    ) -> Tuple[Optional[SubsequenceMatch], QueryStats]:
        probe = self.probe(query, spec.radius)
        stats = probe.stats
        chains = self.chain(probe.matches, stats)

        counter = _VerificationCounter()
        started = time.perf_counter()
        cpu_started = time.thread_time()
        best: Optional[SubsequenceMatch] = None
        for chain in chains:
            potential = (chain.window_count + 2) * self.config.window_length
            if best is not None and potential <= best.length:
                break
            verified = self.verify_with_fallback(chain, query, spec.radius, counter)
            if verified is None:
                continue
            if (
                best is None
                or verified.length > best.length
                or (verified.length == best.length and verified.distance < best.distance)
            ):
                best = verified
        self._finish_verify(stats, counter, started, cpu_started)
        return best, stats

    def run_scored_pass(
        self, query: Sequence, radius: float
    ) -> Tuple[List[SubsequenceMatch], QueryStats]:
        """One fixed-radius verification pass: every chain's verified match.

        The shared engine behind Type III and top-k: every chain is
        verified (no early exit), so the chains fan out as parallel
        verification units, and the locally-maximal match of each verifying
        chain is returned in chain order.  The matchers' radius sweep ranks
        the matches through a k-bounded candidate heap ordered by the
        deterministic :func:`~repro.core.queries.match_ranking_key`
        (``k=1`` is the classic nearest query), so the distance work of a
        pass is identical whichever ``k`` consumes it.
        """
        with kernel_scope(self.config.kernel):
            return self._run_scored_pass(query, radius)

    def _run_scored_pass(
        self, query: Sequence, radius: float
    ) -> Tuple[List[SubsequenceMatch], QueryStats]:
        probe = self.probe(query, radius)
        stats = probe.stats
        chains = self.chain(probe.matches, stats)

        counter = _VerificationCounter()
        started = time.perf_counter()
        cpu_started = time.thread_time()

        def runner(chain, cache, chain_counter):
            return self.verify_with_fallback(chain, query, radius, chain_counter, cache=cache)

        per_chain, worker_cpu = self._verify_all_chains(chains, counter, runner)
        matches = [verified for verified in per_chain if verified is not None]
        self._finish_verify(stats, counter, started, cpu_started, worker_cpu)
        return matches, stats
