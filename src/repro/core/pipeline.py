"""The staged query-execution pipeline behind every matcher query.

The paper's framework is a pipeline by construction -- window partitioning,
segment extraction, index range search, chaining, verification -- but until
this module existed the online half (steps 3-5) was re-orchestrated inside
each of the matcher's query methods as a per-segment Python loop.
:class:`QueryPipeline` makes the pipeline explicit: every query type is
decomposed into the same named stages

``segment``
    extract the query segments (step 3), kept on the per-query
    :class:`QueryScratch` so a Type III radius sweep extracts them once;
``prefilter``
    cheap lower bounds in front of the DP kernels (see
    :mod:`repro.distances.lower_bounds`), accounted through the
    :class:`~repro.indexing.stats.DistanceCounter` prefilter tallies.  The
    linear scan evaluates them inside the batched probe's kernel dispatch,
    pair by pair after the cache; the reference net gets one table for all
    the segments of the query (:meth:`QueryScratch.bounds`, kept on the
    scratch like the segments, so a radius sweep builds it once) and
    classifies its nodes from it before cache and kernel;
``probe``
    the step-4 range search over every segment.  Inside a radius sweep
    (:meth:`QueryPipeline.sweep`) the widest probe run so far is kept as a
    :class:`ProbeTable`, and a later probe of the sweep at a radius it covers
    answers every fully measured segment with one ``distance <= radius``
    filter over it; only the remaining segments reach the index, through
    one call for every index and executor
    (:meth:`~repro.indexing.base.MetricIndex.probe_batch`).  Under the
    serial executor that is a
    :meth:`~repro.indexing.base.MetricIndex.batch_range_query`; under a
    parallel one the index's independent work units
    (:meth:`~repro.indexing.base.MetricIndex.query_work_units` -- per
    segment x shape group for the linear scan) fan out over the configured
    :class:`~repro.core.executor.Executor`; the reference net issues none
    and answers the whole batch in one traversal on the calling thread;
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
:mod:`repro.distances.recording` for the argument why this is exact); the
reference net's probe *is* the serial traversal under every executor.

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
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.candidates import CandidateChain, chain_segment_matches
from repro.core.config import MatcherConfig
from repro.core.executor import Executor, WorkTask, make_executor
from repro.core.queries import (
    LongestSubsequenceQuery,
    QueryStats,
    RangeQuery,
    SegmentMatch,
    SubsequenceMatch,
    match_identity,
)
from repro.core.segmentation import extract_query_segments
from repro.core.verification import (
    StartPairBlocks,
    chain_start_pairs,
    enumerate_matches,
    verify_chain,
)
from repro.distances.base import Distance
from repro.distances.cache import DistanceCache
from repro.distances.recording import RecordingVerifyCache
from repro.indexing.base import BoundTable, MetricIndex, chunk_positions
from repro.indexing.stats import DistanceCounter
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


class ProbeTable:
    """The widest probe of one radius sweep, as flat arrays.

    Row ``i`` says "``windows[i]`` is within ``distance[i]`` of the segment
    at position ``segment[i]``", rows in the canonical (segment, window
    insertion) order :meth:`QueryPipeline.probe` produces.  A hit the index
    proved by the triangle inequality without measuring it
    (``RangeMatch.distance is None``) says nothing about a smaller radius, so
    its whole segment is *incomplete* -- it keeps going to the index, exactly
    as without a table -- and its rows read NaN.  Every other segment is
    complete: a range search is monotone in the radius, so its hits at any
    ``r <= radius`` are exactly its rows with ``distance <= r`` and no index
    work could learn more.
    """

    __slots__ = ("radius", "segment", "windows", "distance", "incomplete")

    def __init__(self) -> None:
        #: Radius of the recorded probe; ``-inf`` (covers nothing, so no other
        #: field is read) until :meth:`record` fills the table.
        self.radius = float("-inf")

    def covers(self, radius: float) -> bool:
        """Whether a probe at ``radius`` is a sub-probe of the recorded one.

        False for NaN and for a negative radius, which must reach the index
        (and its error) untouched.
        """
        return 0 <= radius <= self.radius

    def record(self, radius: float, counts: List[int], matches: List[SegmentMatch]) -> None:
        """Replace the table by a probe that asked the index about every segment.

        ``counts[p]`` is the number of ``matches`` that belong to segment ``p``.
        """
        self.radius = radius
        self.segment = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        self.windows = [match.window for match in matches]
        # float64 conversion turns an unmeasured hit's ``None`` into NaN.
        self.distance = np.array([match.distance for match in matches], dtype=np.float64)
        self.incomplete = np.unique(self.segment[np.isnan(self.distance)])
        if len(self.incomplete):
            self.distance[np.isin(self.segment, self.incomplete)] = np.nan

    def rows_within(self, radius: float) -> np.ndarray:
        """Rows of complete segments within ``radius``, in canonical order."""
        return np.flatnonzero(self.distance <= radius)

    def matches(self, segments: List[Window], rows: np.ndarray) -> List[SegmentMatch]:
        """``rows`` as the segment matches the index would have returned."""
        windows = self.windows
        found = []
        for row, position, distance in zip(
            rows.tolist(), self.segment[rows].tolist(), self.distance[rows].tolist()
        ):
            segment = segments[position]
            found.append(SegmentMatch(segment.start, segment.length, windows[row], distance))
        return found


_UNBUILT = object()


@contextmanager
def _timed(stats: QueryStats, stage: str) -> Iterator[SimpleNamespace]:
    """Time one pipeline stage into ``stats``: wall seconds, and the CPU
    seconds of this thread plus the ``worker_cpu`` its work units report."""
    clock = SimpleNamespace(worker_cpu=0.0)
    started, cpu_started = time.perf_counter(), time.thread_time()
    yield clock
    stats.stage_timings[stage] = time.perf_counter() - started
    stats.cpu_stage_timings[stage] = time.thread_time() - cpu_started + clock.worker_cpu


class QueryScratch:
    """Everything the pipeline derives from one query object and the index.

    One home, one lifetime: the pipeline keeps the scratch of the most recent
    query *object* (:meth:`QueryPipeline.scratch_for`) and drops it on any
    index write, so nothing here can outlive the windows it was derived
    from.  It holds the extracted segments, the index's bound table for them
    (built on first use), the subsequences verification has cut so far, the
    block engine of every database sequence verification has reached
    (:attr:`blocks`), and -- only inside :meth:`QueryPipeline.sweep` -- the
    sweep's :class:`ProbeTable`.
    """

    __slots__ = ("query", "segments", "table", "blocks", "_index", "_bounds", "_spans")

    def __init__(self, query: Sequence, segments: List[Window], index: MetricIndex) -> None:
        self.query = query
        self.segments = segments
        #: The running radius sweep's probe table; ``None`` outside a sweep.
        self.table: Optional[ProbeTable] = None
        #: Verification's block engines (:class:`~repro.core.verification.
        #: StartPairBlocks`) under the pipeline's one distance, by source id;
        #: each keeps the prefix blocks of its start pairs.  Thread-executor
        #: verification units share the engines as they share the spans: a
        #: lost race sweeps one block twice, with equal cells.
        self.blocks: Dict[str, StartPairBlocks] = {}
        self._index = index
        self._bounds: object = _UNBUILT
        self._spans: Dict[tuple, Sequence] = {}

    def bounds(self) -> Optional[BoundTable]:
        """The index's bound table for the segments (``None``: it consults none).

        A table is a function of (query, stored windows) alone, so it serves
        every pass of a radius sweep.
        """
        if self._bounds is _UNBUILT:
            self._bounds = self._index.bound_table(
                self.query, [(segment.start, segment.length) for segment in self.segments]
            )
        return self._bounds

    def span(self, owner: Optional[str], sequence: Sequence, start: int, stop: int) -> Sequence:
        """``sequence[start:stop]``, cut once per ``(owner, start, stop)``.

        ``owner`` is the database id of ``sequence``, or ``None`` for the
        query.  Verification requests the same few spans over and over (every
        pass of a sweep re-verifies the same chains); each costs a dtype
        check and a content hash to build.  Thread-executor verification
        units share the memo as is -- a lost race only cuts a span twice.
        """
        key = (owner, start, stop)
        found = self._spans.get(key)
        if found is None:
            found = self._spans[key] = sequence.subsequence(start, stop)
        return found


class QueryPipeline:
    """Executes the framework's online steps as explicit, accounted stages.

    The pipeline is stateless between queries apart from one
    :class:`QueryScratch`: what it derived from the most recent query object
    is kept so that repeated passes over the same query (Type III's binary
    search and radius sweep) neither re-extract, re-bound nor re-cut, and --
    inside :meth:`sweep` -- do not ask the index what an earlier, wider pass
    already answered.  All distance-level sharing *between* queries goes
    through the matcher's :class:`~repro.distances.cache.DistanceCache`,
    which the pipeline only observes through the index counter.

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
        self._scratch: Optional[QueryScratch] = None
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
        self._scratch = None

    def note_window_removed(self, key) -> None:
        """Forget a window deleted by the matcher's incremental update path."""
        del self._window_order[key]
        self._scratch = None

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
        return QueryStats(executor=self.executor.name, workers=self.executor.workers)

    # ------------------------------------------------------------------ #
    # Stage: segment (step 3) -- and the rest of the per-query scratch
    # ------------------------------------------------------------------ #
    def scratch_for(self, query: Sequence) -> QueryScratch:
        """The scratch of ``query`` (keyed by object identity), made on demand.

        Making it extracts the query segments of every admissible length;
        :meth:`note_window_added` / :meth:`note_window_removed` drop it.
        """
        scratch = self._scratch
        if scratch is None or scratch.query is not query:
            scratch = self._scratch = QueryScratch(
                query, extract_query_segments(query, self.config), self.index
            )
        return scratch

    @contextmanager
    def sweep(self, query: Sequence) -> Iterator[None]:
        """Scope of one radius sweep: probes of ``query`` inside share a table.

        Within the block the widest probe so far is recorded as the scratch's
        :class:`ProbeTable` and later probes at a radius it covers are
        answered from it, segment by segment, where it is complete.  The
        table is gone when the block exits, however it exits: outside a
        sweep nothing is recorded or consulted, so two executions of the same
        query object do -- and count -- the same index work.
        """
        scratch = self.scratch_for(query)
        scratch.table = ProbeTable()
        try:
            yield
        finally:
            scratch.table = None

    # ------------------------------------------------------------------ #
    # Stages: segment -> prefilter -> probe (steps 3-4)
    # ------------------------------------------------------------------ #
    def probe(self, query: Sequence, radius: float) -> ProbeResult:
        """Run the pipeline's front half and return matches plus accounting."""
        stats = self._new_stats()
        with _timed(stats, "segment"):
            scratch = self.scratch_for(query)
        segments = scratch.segments
        stats.segments_extracted = len(segments)
        stats.naive_distance_computations = len(segments) * self.window_count

        mark = self.index.counter.mark()
        with _timed(stats, "probe") as clock:
            # Inside a sweep, a probe the table covers asks the index about the
            # table's incomplete segments only; any other probe asks about all.
            table = scratch.table
            answered = table is not None and table.covers(radius)
            positions = table.incomplete.tolist() if answered else range(len(segments))
            per_segment: List[list] = []
            if positions:
                sequences = [segments[position].sequence for position in positions]
                bounds = scratch.bounds()
                if answered and bounds is not None:
                    bounds = bounds.take(positions)
                per_segment, clock.worker_cpu = self.index.probe_batch(
                    sequences, radius, bounds, self.executor
                )
            # Canonical match order: hits within a segment are sorted by window
            # insertion order, so the (segment, window) pairs -- and everything
            # chaining and verification derive from them -- are identical no
            # matter which index class produced them, how its internal topology
            # evolved through incremental updates, which executor ran the probe,
            # or whether a sweep's table answered for the index.  This is the
            # invariant the incremental-vs-rebuild, snapshot, and
            # parallel-equivalence guarantees rest on; for the linear scan and
            # the reference index the sort is a no-op (they already enumerate
            # items in insertion order).
            matches: List[SegmentMatch] = []
            if not answered:
                for segment, hits in zip(segments, per_segment):
                    matches.extend(self._in_window_order(segment, hits))
                if table is not None and radius > table.radius:
                    table.record(radius, [len(hits) for hits in per_segment], matches)
            else:
                # Table rows and index-answered segments are both in segment
                # order; the cuts say where each of the latter slots in.
                rows = table.rows_within(radius)
                cuts = np.searchsorted(table.segment[rows], positions).tolist()
                stats.table_segments = len(segments) - len(positions)
                done = 0
                for position, hits, cut in zip(positions, per_segment, cuts):
                    matches.extend(table.matches(segments, rows[done:cut]))
                    matches.extend(self._in_window_order(segments[position], hits))
                    done = cut
                matches.extend(table.matches(segments, rows[done:]))
        stats.fill(QueryStats.INDEX_COUNTER, self.index.counter.since(mark))
        stats.segment_matches = len(matches)
        return ProbeResult(matches, stats)

    def _in_window_order(self, segment: Window, hits: list) -> List[SegmentMatch]:
        """One segment's index hits as segment matches, in window insertion order."""
        window_order = self._window_order
        windows = self._windows_by_key
        return [
            SegmentMatch(
                query_start=segment.start,
                query_length=segment.length,
                window=windows[hit.key],
                distance=hit.distance,
            )
            for hit in sorted(hits, key=lambda hit: window_order[hit.key])
        ]

    # ------------------------------------------------------------------ #
    # Stage: chain (step 5a)
    # ------------------------------------------------------------------ #
    def chain(self, matches: List[SegmentMatch], stats: QueryStats) -> List[CandidateChain]:
        """Concatenate consecutive window matches into candidate chains."""
        with _timed(stats, "chain"):
            chains = chain_segment_matches(matches, self.config)
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
        counter: DistanceCounter,
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
            scratch=self.scratch_for(query),
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
        counter: DistanceCounter,
        runner: Callable[[CandidateChain, object, DistanceCounter], object],
    ) -> Tuple[List[object], float]:
        """Run ``runner`` over every chain; results come back in chain order.

        Chains are mutually independent given a fixed radius, so under a
        parallel executor each becomes a work unit with a private
        :class:`~repro.distances.recording.RecordingVerifyCache`; the unit
        logs are replayed in chain order into the shared cache and
        ``counter`` afterwards, reproducing the serial accounting exactly
        (the units' kernel calls, a diagnostic, are summed as they ran).
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
        recordings = [RecordingVerifyCache(self.cache) for _chain in chains]
        unit_counters = [DistanceCounter() for _chain in chains]
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
                return [runner(chains[p], recordings[p], unit_counters[p]) for p in positions]

            tasks.append(WorkTask(local))
        results = self.executor.run(tasks)
        for recording in recordings:
            recording.replay_into(self.cache, counter)
        counter.kernel_calls += sum(unit.kernel_calls for unit in unit_counters)
        per_chain: List[object] = []
        for result in results:
            per_chain.extend(result.value)
        return per_chain, sum(result.worker_cpu_seconds for result in results)

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
        sequential dependency by definition).  Exhaustive Type I is one serial,
        cache-free :func:`enumerate_matches` over the chains' start pairs.
        """
        probe = self.probe(query, spec.radius)
        stats = probe.stats
        chains = self.chain(probe.matches, stats)

        def runner(chain, cache, chain_counter):
            return self.verify_with_fallback(chain, query, spec.radius, chain_counter, cache=cache)

        results: List[SubsequenceMatch] = []
        seen = set()

        def keep(match: Optional[SubsequenceMatch]) -> None:
            if match is not None and match_identity(match) not in seen:
                seen.add(match_identity(match))
                results.append(match)

        counter = DistanceCounter()
        with _timed(stats, "verify") as clock:
            if spec.exhaustive:
                results = enumerate_matches(
                    query,
                    self.database,
                    chain_start_pairs(chains, self.config),
                    self.distance,
                    spec.radius,
                    self.config,
                    counter,
                    spec.max_results,
                )
            elif spec.max_results is None:
                per_chain, clock.worker_cpu = self._verify_all_chains(chains, counter, runner)
                for verified in per_chain:
                    keep(verified)
            else:
                for chain in chains:
                    keep(runner(chain, self.cache, counter))
                    if len(results) >= spec.max_results:
                        break
        stats.fill(QueryStats.VERIFICATION_COUNTER, counter)
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
        probe = self.probe(query, spec.radius)
        stats = probe.stats
        chains = self.chain(probe.matches, stats)

        counter = DistanceCounter()
        best: Optional[SubsequenceMatch] = None
        with _timed(stats, "verify"):
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
        stats.fill(QueryStats.VERIFICATION_COUNTER, counter)
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
        probe = self.probe(query, radius)
        stats = probe.stats
        chains = self.chain(probe.matches, stats)

        def runner(chain, cache, chain_counter):
            return self.verify_with_fallback(chain, query, radius, chain_counter, cache=cache)

        counter = DistanceCounter()
        with _timed(stats, "verify") as clock:
            per_chain, clock.worker_cpu = self._verify_all_chains(chains, counter, runner)
        stats.fill(QueryStats.VERIFICATION_COUNTER, counter)
        return [verified for verified in per_chain if verified is not None], stats
