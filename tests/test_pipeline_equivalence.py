"""Equivalence tests for the staged query-execution pipeline.

Three guarantees the refactor must preserve:

* ``batch_range_query`` returns exactly what per-query ``range_query`` calls
  return, on every index and distance pairing;
* the pipeline-backed matcher returns exactly what the pre-refactor
  orchestration (a per-segment loop over ``index.range_query`` followed by
  chaining and fallback verification) returned;
* lower-bound prefiltering never changes a result set.
"""

import numpy as np
import pytest

from repro import (
    DTW,
    DiscreteFrechet,
    ERP,
    Levenshtein,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
    TopKQuery,
)
from repro.core.candidates import CandidateChain, chain_segment_matches
from repro.core.queries import SegmentMatch
from repro.core.segmentation import extract_query_segments
from repro.core.verification import verify_chain
from repro.distances import EditDistance, WarpingDistance, shared_cache
from repro.exceptions import IndexError_
from repro.indexing import LinearScanIndex, ReferenceNet
from repro.indexing.stats import DistanceCounter


@pytest.fixture(scope="module")
def planted():
    """A small planted database, its query, and window sequences."""
    generator = np.random.default_rng(42)
    pattern = np.cumsum(generator.normal(size=24))
    db = SequenceDatabase(SequenceKind.TIME_SERIES, name="planted")
    first = np.concatenate(
        [generator.uniform(30, 40, 8), pattern, generator.uniform(30, 40, 8)]
    )
    second = np.concatenate(
        [generator.uniform(-40, -30, 14), pattern + 0.05, generator.uniform(-40, -30, 2)]
    )
    third = generator.uniform(60, 70, size=40)
    db.add(Sequence.from_values(first, seq_id="p1"))
    db.add(Sequence.from_values(second, seq_id="p2"))
    db.add(Sequence.from_values(third, seq_id="bg"))
    query = Sequence(np.asarray(first[8:32]) + 0.01, SequenceKind.TIME_SERIES, "query")
    return db, query


def _match_key(match):
    return (match.source_id, match.query_start, match.query_stop, match.db_start, match.db_stop)


def _legacy_query(matcher, query, radius, mode):
    """The pre-refactor orchestration: per-segment probes, chain, verify."""
    segments = extract_query_segments(query, matcher.config)
    seg_matches = []
    windows_by_key = {window.key: window for window in matcher.windows}
    for segment in segments:
        for hit in matcher.index.range_query(segment.sequence, radius):
            window = windows_by_key[hit.key]
            seg_matches.append(
                SegmentMatch(
                    query_start=segment.start,
                    query_length=segment.length,
                    window=window,
                    distance=hit.distance,
                )
            )
    chains = chain_segment_matches(seg_matches, matcher.config)
    counter = DistanceCounter()

    def verify_fallback(chain):
        verified = verify_chain(
            chain,
            query,
            matcher.database[chain.source_id],
            matcher.distance,
            radius,
            matcher.config,
            counter,
            cache=matcher.distance_cache,
        )
        if verified is not None or chain.window_count == 1:
            return verified
        middle = chain.window_count // 2
        best = None
        for half in (
            CandidateChain(chain.source_id, chain.matches[:middle]),
            CandidateChain(chain.source_id, chain.matches[middle:]),
        ):
            candidate = verify_fallback(half)
            if candidate is None:
                continue
            if (
                best is None
                or candidate.length > best.length
                or (candidate.length == best.length and candidate.distance < best.distance)
            ):
                best = candidate
        return best

    if mode == "range":
        results, seen = [], set()
        for chain in chains:
            verified = verify_fallback(chain)
            if verified is None:
                continue
            key = _match_key(verified)
            if key not in seen:
                seen.add(key)
                results.append(verified)
        return results
    best = None
    for chain in chains:
        potential = (chain.window_count + 2) * matcher.config.window_length
        if best is not None and potential <= best.length:
            break
        verified = verify_fallback(chain)
        if verified is None:
            continue
        if (
            best is None
            or verified.length > best.length
            or (verified.length == best.length and verified.distance < best.distance)
        ):
            best = verified
    return best


class TestBatchRangeQueryEquivalence:
    @pytest.mark.parametrize(
        "make_index",
        [
            lambda d: LinearScanIndex(d),
            lambda d: LinearScanIndex(d, prefilter=True),
            lambda d: ReferenceNet(d),
            lambda d: ReferenceNet(d, prefilter=True),
            lambda d: ReferenceNet(d, nummax=2),
        ],
        ids=["linear-scan", "linear-scan+prefilter", "reference-net", "reference-net+prefilter",
             "reference-net-nummax2"],
    )
    @pytest.mark.parametrize("distance", [DiscreteFrechet(), ERP()], ids=lambda d: d.name)
    def test_batch_equals_per_query(self, make_index, distance):
        generator = np.random.default_rng(5)
        index = make_index(distance)
        items = [
            Sequence.from_values(generator.normal(size=8), seq_id=f"w{i}") for i in range(50)
        ]
        for position, item in enumerate(items):
            index.add(item, key=position)
        queries = [
            Sequence.from_values(generator.normal(size=8), seq_id=f"q{i}") for i in range(5)
        ]
        radius = 1.5 if distance.name == "frechet" else 6.0
        singles = [index.range_query(query, radius) for query in queries]
        batches = index.batch_range_query(queries, radius)
        for single, batch in zip(singles, batches):
            assert sorted(m.key for m in single) == sorted(m.key for m in batch)
            single_distances = {m.key: m.distance for m in single}
            for match in batch:
                reference = single_distances[match.key]
                if reference is not None and match.distance is not None:
                    assert match.distance == pytest.approx(reference, abs=1e-9)

    def test_non_metric_distances_on_linear_scan(self):
        generator = np.random.default_rng(6)
        for distance in (DTW(),):
            index = LinearScanIndex(distance, prefilter=True)
            for position in range(40):
                index.add(
                    Sequence.from_values(generator.normal(size=10), seq_id=f"w{position}"),
                    key=position,
                )
            query = Sequence.from_values(generator.normal(size=10), seq_id="q")
            single = index.range_query(query, 4.0)
            batch = index.batch_range_query([query], 4.0)[0]
            assert sorted(m.key for m in single) == sorted(m.key for m in batch)


class TestPipelineMatchesLegacyOrchestration:
    def test_range_search(self, planted, index_options):
        db, query = planted
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)
        expected = _legacy_query(matcher, query, 0.5, "range")
        actual = matcher.execute(RangeQuery(radius=0.5).bind(query)).matches
        assert sorted(map(_match_key, actual)) == sorted(map(_match_key, expected))

    def test_longest_similar(self, planted, index_options):
        db, query = planted
        config = MatcherConfig(min_length=12, max_shift=1, **index_options)
        matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)
        expected = _legacy_query(matcher, query, 0.5, "longest")
        actual = matcher.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best
        assert (actual is None) == (expected is None)
        if actual is not None:
            assert _match_key(actual) == _match_key(expected)

    def test_levenshtein_matcher(self, string_database):
        config = MatcherConfig(min_length=8, max_shift=1, index="linear-scan")
        matcher = SubsequenceMatcher(string_database, Levenshtein(), config)
        query = Sequence.from_string("ACDEFGHIKL", string_database["s1"].alphabet)
        expected = _legacy_query(matcher, query, 2.0, "longest")
        actual = matcher.execute(LongestSubsequenceQuery(radius=2.0).bind(query)).best
        assert _match_key(actual) == _match_key(expected)

    def test_prefilter_does_not_change_matcher_results(self, planted):
        db, query = planted
        base = MatcherConfig(min_length=12, max_shift=1, index="linear-scan")
        with_pf = SubsequenceMatcher(db, DiscreteFrechet(), base)
        without_pf = SubsequenceMatcher(
            db,
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, index="linear-scan", prefilter=False),
        )
        got = with_pf.execute(RangeQuery(radius=0.5).bind(query)).matches
        want = without_pf.execute(RangeQuery(radius=0.5).bind(query)).matches
        assert sorted(map(_match_key, got)) == sorted(map(_match_key, want))
        assert with_pf.last_query_stats.prefilter_evaluations > 0
        assert without_pf.last_query_stats.prefilter_evaluations == 0

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_prefilter_on_the_reference_net(self, planted, executor):
        # ``MatcherConfig.prefilter`` reaches the paper's index too: same
        # answers, a distance only where the scan's prefilter computes one.
        db, query = planted
        stats = {}
        answers = {}
        levels = {}
        for index, prefilter in (
            ("reference-net", True),
            ("reference-net", False),
            ("linear-scan", True),
        ):
            config = MatcherConfig(
                min_length=12, max_shift=1, index=index, prefilter=prefilter, executor=executor
            )
            matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)
            try:
                result = matcher.execute(RangeQuery(radius=0.5).bind(query))
                levels[index, prefilter] = getattr(matcher.index, "max_level", 0) + 1
            finally:
                matcher.close()
            answers[index, prefilter] = sorted(map(_full_match_key, result.matches))
            stats[index, prefilter] = result.stats
        assert len(set(map(tuple, answers.values()))) == 1 and answers["reference-net", True]
        bounded, plain = stats["reference-net", True], stats["reference-net", False]
        scan = stats["linear-scan", True]
        assert plain.prefilter_evaluations == 0
        assert bounded.prefilter_pruned > 0
        assert (
            bounded.index_distance_computations
            <= bounded.prefilter_evaluations - bounded.prefilter_pruned
            <= scan.index_distance_computations
            < plain.index_distance_computations
        )
        # The whole-query frontier: one kernel call per level and (segment
        # shape, window shape) pair -- three segment lengths, one window
        # length -- however many segments the query has, under every executor.
        assert bounded.segments_extracted > 3 * levels["reference-net", True]
        for key in (("reference-net", True), ("reference-net", False)):
            assert 0 < stats[key].index_kernel_calls <= 3 * levels[key]


class TestQueryStatsPipeline:
    def test_stage_timings_recorded(self, planted):
        db, query = planted
        matcher = SubsequenceMatcher(
            db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        matcher.execute(RangeQuery(radius=0.5).bind(query))
        stats = matcher.last_query_stats
        for stage in ("segment", "probe", "chain", "verify"):
            assert stage in stats.stage_timings
            assert stats.stage_timings[stage] >= 0.0

    def test_type_iii_pass_history(self, planted):
        db, query = planted
        matcher = SubsequenceMatcher(
            db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        best = matcher.execute(NearestSubsequenceQuery(max_radius=10.0).bind(query)).best
        assert best is not None
        stats = matcher.last_query_stats
        assert len(stats.passes) > 1
        # Work counters aggregate over passes; shape counters are final-pass.
        final = stats.passes[-1]
        assert stats.candidate_chains == final.candidate_chains
        assert stats.segment_matches == final.segment_matches
        assert stats.index_distance_computations == sum(
            p.index_distance_computations for p in stats.passes
        )
        # Aggregated work must cover at least the final pass's work.
        assert stats.index_distance_computations >= final.index_distance_computations

    def test_scratch_reused_across_passes(self, planted):
        db, query = planted
        matcher = SubsequenceMatcher(
            db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        pipeline = matcher.pipeline
        first = pipeline.scratch_for(query)
        assert pipeline.scratch_for(query) is first
        assert first.segments == extract_query_segments(query, matcher.config)
        # Keyed by object identity: equal content in a new object starts over.
        twin = Sequence(query.values, query.kind)
        assert pipeline.scratch_for(twin) is not first

    def test_bound_table_built_once_per_sweep_and_dropped_by_writes(self, planted, monkeypatch):
        db, query = planted
        database = SequenceDatabase(db.kind)
        for seq_id in db.ids():
            database.add(db[seq_id], seq_id=seq_id)
        matcher = SubsequenceMatcher(
            database, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        built = []
        build = matcher.index.bound_table
        monkeypatch.setattr(
            matcher.index, "bound_table", lambda *args: built.append(args) or build(*args)
        )
        spec = NearestSubsequenceQuery(max_radius=10.0).bind(query)
        swept = matcher.execute(spec)
        assert len(swept.stats.passes) > 1 and len(built) == 1
        assert matcher.pipeline.scratch_for(query).bounds() is not None
        assert len(built) == 1

        # A write drops the table with the rows it was aligned to; the next
        # query builds one over the new windows and answers like a rebuild.
        added = matcher.add_sequence(Sequence.from_values(query.values + 0.01), seq_id="near")
        after_add = matcher.execute(spec)
        assert len(built) == 2 and after_add.matches[0].source_id == added
        matcher.remove_sequence(added)
        after_remove = matcher.execute(spec)
        assert len(built) == 3
        assert list(map(_full_match_key, after_remove.matches)) == list(
            map(_full_match_key, swept.matches)
        )
        matcher.check_incremental_invariants([query], RangeQuery(radius=0.5))


class TestExecuteManyAndSharedCache:
    def test_execute_many_matches_individual_queries(self, planted):
        db, query = planted
        matcher = SubsequenceMatcher(
            db, DiscreteFrechet(), MatcherConfig(min_length=12, max_shift=1)
        )
        other = Sequence.from_values(np.asarray(db["p2"].values[14:38]) + 0.01, seq_id="q2")
        specs = [LongestSubsequenceQuery(radius=0.5).bind(q) for q in (query, other)]
        batch_results = matcher.execute_many(specs)
        assert len(batch_results) == 2
        assert len(matcher.last_batch_stats) == 2
        for got, spec in zip(batch_results, specs):
            want = matcher.execute(spec).best
            assert (got.best is None) == (want is None)
            if want is not None:
                assert _match_key(got.best) == _match_key(want)

    def test_shared_cache_across_matchers(self, planted):
        db, query = planted
        cache = shared_cache("test-frechet-equivalence")
        config = MatcherConfig(min_length=12, max_shift=1)
        first = SubsequenceMatcher(db, DiscreteFrechet(), config, cache=cache)
        first.execute(LongestSubsequenceQuery(radius=0.5).bind(query))
        entries_after_first = len(cache)
        assert entries_after_first > 0
        second = SubsequenceMatcher(db, DiscreteFrechet(), config, cache=cache)
        # The shared cache survives the second matcher's construction...
        assert len(cache) >= entries_after_first
        second.execute(LongestSubsequenceQuery(radius=0.5).bind(query))
        # ...and answers its probes: the second matcher computes fewer
        # fresh distances than the first did.
        assert (
            second.last_query_stats.total_cache_hits
            >= first.last_query_stats.total_cache_hits
        )
        result_first = first.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best
        result_second = second.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best
        assert _match_key(result_first) == _match_key(result_second)

    def test_refresh_preserves_shared_cache(self, planted):
        db, _ = planted
        cache = shared_cache("test-refresh-preserved")
        config = MatcherConfig(min_length=12, max_shift=1)
        matcher = SubsequenceMatcher(db, DiscreteFrechet(), config, cache=cache)
        cache_len = len(cache)
        matcher.refresh()
        assert len(cache) >= cache_len


# --------------------------------------------------------------------- #
# Executor equivalence: thread/process x index class x query type
# --------------------------------------------------------------------- #

#: Every counter that must be identical between executors.  Timings are
#: excluded (they measure the substrate, not the work), as are executor /
#: workers (they describe the substrate).
WORK_COUNTERS = (
    "segments_extracted",
    "segment_matches",
    "candidate_chains",
    "naive_distance_computations",
    "index_distance_computations",
    "index_cache_hits",
    "verification_distance_computations",
    "verification_cache_hits",
    "prefilter_evaluations",
    "prefilter_pruned",
)


def _stats_fingerprint(stats):
    return {name: getattr(stats, name) for name in WORK_COUNTERS}


def _full_match_key(match):
    if match is None:
        return None
    return (*_match_key(match), match.distance)


class TestExecutorEquivalence:
    """Parallel executors must be *undetectable* from results and counters.

    For every index class and every query type, the thread and process
    executors must return byte-identical matches and identical merged work
    counters to a serial matcher over the same database -- the acceptance
    contract of the parallel execution engine.
    """

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_all_query_types_match_serial(self, planted, index_options, executor):
        db, query = planted
        serial = SubsequenceMatcher(
            db,
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, **index_options, executor="serial"),
        )
        parallel = SubsequenceMatcher(
            db,
            DiscreteFrechet(),
            MatcherConfig(
                min_length=12,
                max_shift=1,
                **index_options,
                executor=executor,
                workers=4,
            ),
        )
        assert parallel.pipeline.executor.name == executor

        # Type I: identical match lists, in the same order.
        serial_range = serial.execute(RangeQuery(radius=0.5).bind(query)).matches
        parallel_range = parallel.execute(RangeQuery(radius=0.5).bind(query)).matches
        assert list(map(_full_match_key, parallel_range)) == list(
            map(_full_match_key, serial_range)
        )
        assert _stats_fingerprint(parallel.last_query_stats) == _stats_fingerprint(
            serial.last_query_stats
        )

        # Type II.
        serial_longest = serial.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best
        parallel_longest = parallel.execute(LongestSubsequenceQuery(radius=0.5).bind(query)).best
        assert _full_match_key(parallel_longest) == _full_match_key(serial_longest)
        assert _stats_fingerprint(parallel.last_query_stats) == _stats_fingerprint(
            serial.last_query_stats
        )

        # Type III: the whole radius sweep, pass history included.
        spec = NearestSubsequenceQuery(max_radius=10.0)
        serial_nearest = serial.execute(spec.bind(query)).best
        parallel_nearest = parallel.execute(spec.bind(query)).best
        assert _full_match_key(parallel_nearest) == _full_match_key(serial_nearest)
        assert _stats_fingerprint(parallel.last_query_stats) == _stats_fingerprint(
            serial.last_query_stats
        )
        assert len(parallel.last_query_stats.passes) == len(
            serial.last_query_stats.passes
        )
        for serial_pass, parallel_pass in zip(
            serial.last_query_stats.passes, parallel.last_query_stats.passes
        ):
            assert _stats_fingerprint(parallel_pass) == _stats_fingerprint(serial_pass)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_string_matcher_with_prefilter(self, string_database, executor):
        """Levenshtein + linear scan exercises the prefilter recording path."""
        config = dict(min_length=8, max_shift=1, index="linear-scan")
        serial = SubsequenceMatcher(
            string_database, Levenshtein(), MatcherConfig(executor="serial", **config)
        )
        parallel = SubsequenceMatcher(
            string_database,
            Levenshtein(),
            MatcherConfig(executor=executor, workers=4, **config),
        )
        query = Sequence.from_string("ACDEFGHIKL", string_database["s1"].alphabet)
        serial_result = serial.execute(LongestSubsequenceQuery(radius=2.0).bind(query)).best
        parallel_result = parallel.execute(LongestSubsequenceQuery(radius=2.0).bind(query)).best
        assert _full_match_key(parallel_result) == _full_match_key(serial_result)
        assert _stats_fingerprint(parallel.last_query_stats) == _stats_fingerprint(
            serial.last_query_stats
        )
        assert serial.last_query_stats.prefilter_evaluations > 0

    def test_parallel_probe_batch_on_bare_indexes(self, planted):
        """The index-level probe entry point honours the executor too."""
        from repro.core.executor import make_executor

        db, _ = planted
        generator = np.random.default_rng(11)
        items = [
            Sequence.from_values(generator.normal(size=8), seq_id=f"w{i}")
            for i in range(40)
        ]
        queries = [
            Sequence.from_values(generator.normal(size=8), seq_id=f"q{i}")
            for i in range(6)
        ]
        from repro.distances.cache import DistanceCache

        executor = make_executor("thread", 4)
        for make_index in (
            lambda d: LinearScanIndex(d, prefilter=True, cache=DistanceCache()),
            lambda d: ReferenceNet(d, cache=DistanceCache()),
        ):
            serial_index = make_index(DiscreteFrechet())
            parallel_index = make_index(DiscreteFrechet())
            for position, item in enumerate(items):
                serial_index.add(item, key=position)
                parallel_index.add(item, key=position)
            serial_results = serial_index.batch_range_query(queries, 1.5)
            parallel_results, _cpu = parallel_index.probe_batch(queries, 1.5, executor=executor)
            for serial_matches, parallel_matches in zip(serial_results, parallel_results):
                assert [(m.key, m.distance) for m in parallel_matches] == [
                    (m.key, m.distance) for m in serial_matches
                ]
            assert parallel_index.counter.total == serial_index.counter.total
            assert parallel_index.counter.cache_hits == serial_index.counter.cache_hits
            assert (
                parallel_index.counter.prefilter_evaluations
                == serial_index.counter.prefilter_evaluations
            )

    @pytest.mark.parametrize("executor_name", ["serial", "thread", "process"])
    @pytest.mark.parametrize("make_index", [LinearScanIndex, ReferenceNet], ids=["scan", "net"])
    def test_negative_radius_probe_raises_under_every_executor(self, make_index, executor_name):
        """A negative radius is refused before any executor is consulted,
        so a parallel probe cannot come back with an empty answer instead."""
        from repro.core.executor import make_executor

        index = make_index(DiscreteFrechet())
        for position in range(6):
            index.add(Sequence.from_values(np.arange(8.0) + position), key=position)
        query = Sequence.from_values(np.arange(8.0))
        executor = make_executor(executor_name, 2)
        with pytest.raises(IndexError_, match="non-negative"):
            index.probe_batch([query], -1.0, None, executor)
        with pytest.raises(IndexError_, match="non-negative"):
            index.batch_range_query([query], -1.0)

    def test_bounded_cache_insertion_order_matches_serial(self):
        """Eviction makes the cache's insertion order visible: it must not
        depend on the executor, pruned and surviving pairs interleaved."""
        from repro.core.executor import make_executor
        from repro.distances.cache import DistanceCache

        generator = np.random.default_rng(5)
        items = [
            Sequence.from_values(generator.normal(size=8), seq_id=f"w{i}")
            for i in range(40)
        ]
        queries = [
            Sequence.from_values(generator.normal(size=8), seq_id=f"q{i}")
            for i in range(6)
        ]
        caches = []
        for executor in (None, make_executor("thread", 4)):
            cache = DistanceCache(max_entries=100)
            index = LinearScanIndex(DiscreteFrechet(), prefilter=True, cache=cache)
            for position, item in enumerate(items):
                index.add(item, key=position)
            index.probe_batch(queries, 1.0, executor=executor)
            # The interesting case: some pairs pruned by a bound, some not.
            assert 0 < index.counter.prefilter_pruned < index.counter.prefilter_evaluations
            assert cache.evictions > 0
            caches.append(cache)
        serial_cache, parallel_cache = caches
        assert list(parallel_cache.iter_entries()) == list(serial_cache.iter_entries())

    def test_executor_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert MatcherConfig(min_length=12).executor == "thread"
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert MatcherConfig(min_length=12).executor == "serial"

    def test_cpu_and_wall_stage_timings_recorded(self, planted):
        db, query = planted
        matcher = SubsequenceMatcher(
            db,
            DiscreteFrechet(),
            MatcherConfig(min_length=12, max_shift=1, executor="thread", workers=2),
        )
        matcher.execute(RangeQuery(radius=0.5).bind(query))
        stats = matcher.last_query_stats
        assert stats.executor == "thread"
        assert stats.workers == 2
        for stage in ("segment", "probe", "chain", "verify"):
            assert stage in stats.stage_timings
            assert stage in stats.cpu_stage_timings
            assert stats.cpu_stage_timings[stage] >= 0.0


# --------------------------------------------------------------------- #
# Prefix blocks: verification answered from one DP table per start pair
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def planted_long():
    """Planted ERP data long enough (lambda = 34) that every verification
    table is above 1 024 cells (``planted`` at lambda = 12 is below it)."""
    generator = np.random.default_rng(11)
    pattern = np.cumsum(generator.normal(size=60))
    db = SequenceDatabase(SequenceKind.TIME_SERIES, name="planted-long")
    host = np.concatenate([generator.uniform(30, 40, 12), pattern, generator.uniform(30, 40, 9)])
    db.add(Sequence.from_values(host, seq_id="p1"))
    db.add(Sequence.from_values(pattern[::-1] + 0.3, seq_id="p2"))
    db.add(Sequence.from_values(generator.uniform(60, 70, size=70), seq_id="bg"))
    query = Sequence(np.asarray(host[10:66]) + 0.01, SequenceKind.TIME_SERIES, "query")
    return db, query


def _every_query_type(matcher, query, radius):
    """Matches (with distances) and work counters of Type I (default and
    exhaustive), II, III and top-k, in that order.  Each starts from an empty
    distance cache, so its requests reach verification's prefix blocks --
    those the earlier queries left on the query's scratch included."""
    specs = (
        RangeQuery(radius=radius),
        RangeQuery(radius=radius, exhaustive=True),
        LongestSubsequenceQuery(radius=radius),
        NearestSubsequenceQuery(max_radius=4 * radius),
        TopKQuery(k=3, max_radius=4 * radius),
    )
    runs = []
    for spec in specs:
        matcher.distance_cache.clear()
        result = matcher.execute(spec.bind(query))
        stats = matcher.last_query_stats
        runs.append(
            (
                [_full_match_key(match) for match in result.matches],
                _stats_fingerprint(stats),
                (stats.verification_kernel_calls, stats.verification_distance_computations),
            )
        )
    return runs


class TestPrefixBlocks:
    """Answering verification from prefix blocks changes no match, no distance
    and no work counter -- only the kernel calls behind the computations."""

    @pytest.mark.parametrize("case", ["frechet", "erp", "erp-small-tables"])
    def test_blocks_are_undetectable(self, planted, planted_long, index_options, case, monkeypatch):
        if case == "frechet":
            (db, query), distance, config, radius = planted, DiscreteFrechet(), 12, 0.5
        elif case == "erp":
            (db, query), distance, config, radius = planted_long, ERP(), 34, 2.0
        else:
            (db, query), distance, config, radius = planted, ERP(), 12, 0.5

        def run():
            matcher = SubsequenceMatcher(
                db, distance, MatcherConfig(min_length=config, max_shift=1, **index_options)
            )
            return _every_query_type(matcher, query, radius)

        with_blocks = run()
        monkeypatch.delattr(WarpingDistance, "prefix_block")
        monkeypatch.delattr(EditDistance, "prefix_block")
        single_calls = run()
        for blocked, single in zip(with_blocks, single_calls):
            assert blocked[:2] == single[:2]
            # One single call per computation; more under the thread executor,
            # whose units compute pairs that the serial replay counts as hits.
            calls, computations = single[2]
            assert calls >= computations
        assert any(matches for matches, _counters, _calls in with_blocks)
        assert sum(run[2][0] for run in with_blocks) < sum(run[2][0] for run in single_calls)
