"""Tests for candidate verification (step 5b)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DTW,
    EDR,
    ERP,
    LCSS,
    DiscreteFrechet,
    Euclidean,
    Hamming,
    Levenshtein,
    MatcherConfig,
    RangeQuery,
    SegmentMatch,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
    TopKQuery,
    WeightedLevenshtein,
    Window,
)
from repro.core.bruteforce import brute_force_matches
from repro.core.candidates import CandidateChain
from repro.core.pipeline import QueryScratch
from repro.core.queries import match_identity
from repro.core.verification import (
    StartPairBlocks,
    _grow_to_length,
    chain_start_pairs,
    enumerate_matches,
    verify_chain,
)
from repro.distances.cache import DistanceCache
from repro.indexing.stats import DistanceCounter


@pytest.fixture
def config():
    return MatcherConfig(min_length=10, max_shift=1)


@pytest.fixture
def lockstep_config():
    """A lock-step distance compares equal lengths only: no shift."""
    return MatcherConfig(min_length=10, max_shift=0)


def make_chain(db_sequence, query_start, db_start, length, query_length=None):
    """A single-window chain anchored at the given offsets."""
    window = Window(
        sequence=db_sequence.subsequence(db_start, db_start + length),
        source_id=db_sequence.seq_id,
        start=db_start,
        ordinal=db_start // length,
    )
    match = SegmentMatch(
        query_start=query_start,
        query_length=query_length or length,
        window=window,
        distance=None,
    )
    return CandidateChain(db_sequence.seq_id or "seq", (match,))


@pytest.fixture
def aligned_pair():
    """A query and a database sequence sharing an identical middle section."""
    shared = np.sin(np.linspace(0, 3, 30))
    query = Sequence.from_values(np.concatenate([np.full(5, 8.0), shared, np.full(5, 8.0)]), seq_id="q")
    target = Sequence.from_values(
        np.concatenate([np.full(10, -8.0), shared, np.full(10, -8.0)]), seq_id="db"
    )
    return query, target


class TestChainStartPairs:
    def test_pairs_are_clipped_to_sequences(self, aligned_pair, config):
        _query, target = aligned_pair
        chain = make_chain(target, query_start=1, db_start=2, length=5)
        pairs = chain_start_pairs([chain], config)["db"]
        assert min(pairs) == (0, 0) and pairs == sorted(set(pairs))

    def test_pairs_contain_the_anchor(self, aligned_pair, config):
        _query, target = aligned_pair
        chain = make_chain(target, query_start=5, db_start=10, length=5)
        assert (5, 10) in chain_start_pairs([chain], config)["db"]

    @pytest.mark.parametrize("max_shift", [0, 1, 2])
    @pytest.mark.parametrize("windows", [1, 2, 3])
    def test_pairs_reach_inside_the_chain(self, aligned_pair, windows, max_shift):
        """Starts run up to the last window's (segment's) start, so a
        subsequence starting at any window of the chain is offered; outward
        reach is ``lambda/2 + lambda0`` on the query side, ``lambda/2`` on
        the database side."""
        _query, target = aligned_pair
        config = MatcherConfig(min_length=10, max_shift=max_shift)
        length = config.window_length
        matches = []
        for position in range(windows):
            window = Window(
                sequence=target.subsequence(10 + position * length, 10 + (position + 1) * length),
                source_id=target.seq_id,
                start=10 + position * length,
                ordinal=2 + position,
            )
            matches.append(SegmentMatch(5 + position * length, length, window, None))
        chain = CandidateChain(target.seq_id, tuple(matches))
        last = matches[-1]
        q_starts = range(max(0, 5 - length - max_shift), last.query_start + 1)
        x_starts = range(10 - length, last.window.start + 1)
        expected = [(q, x) for q in q_starts for x in x_starts]
        assert chain_start_pairs([chain], config) == {"db": expected}

    def test_pairs_of_overlapping_chains_are_distinct(self, aligned_pair, config):
        _query, target = aligned_pair
        chains = [
            make_chain(target, query_start=5, db_start=10, length=5),
            make_chain(target, query_start=6, db_start=10, length=5),
        ]
        pairs = chain_start_pairs(chains, config)["db"]
        assert pairs == sorted(set(pairs))
        assert set(pairs) == set(chain_start_pairs(chains[:1], config)["db"]) | set(
            chain_start_pairs(chains[1:], config)["db"]
        )


class TestVerifyChain:
    def test_finds_planted_match(self, aligned_pair, lockstep_config):
        query, target = aligned_pair
        chain = make_chain(target, query_start=5, db_start=10, length=5)
        result = verify_chain(chain, query, target, Euclidean(), 0.5, lockstep_config)
        assert result is not None
        assert result.distance <= 0.5
        assert result.query_length >= lockstep_config.min_length
        assert result.db_length >= lockstep_config.min_length
        assert abs(result.query_length - result.db_length) <= lockstep_config.max_shift

    def test_anchored_growth_avoids_noise(self, aligned_pair, config):
        query, target = aligned_pair
        chain = make_chain(target, query_start=5, db_start=10, length=5)
        result = verify_chain(chain, query, target, DiscreteFrechet(), 0.05, config)
        assert result is not None
        # Growing symmetrically would pull in the noise filler on both sides;
        # the anchored growth keeps the match inside the shared section.
        assert result.distance <= 0.05
        assert result.length >= config.min_length
        assert result.query_start >= 5 and result.db_start >= 10

    def test_two_window_chain_verifies_longer_match(self, aligned_pair, config):
        query, target = aligned_pair
        first = make_chain(target, query_start=5, db_start=10, length=5).matches[0]
        second = make_chain(target, query_start=10, db_start=15, length=5).matches[0]
        chain = CandidateChain(target.seq_id, (first, second))
        result = verify_chain(chain, query, target, DiscreteFrechet(), 0.05, config)
        assert result is not None
        assert result.length > config.min_length

    def test_returns_none_when_no_match_possible(self, lockstep_config):
        query = Sequence.from_values(np.zeros(20), seq_id="q")
        target = Sequence.from_values(np.full(30, 50.0), seq_id="db")
        chain = make_chain(target, query_start=0, db_start=5, length=5)
        assert verify_chain(chain, query, target, Euclidean(), 1.0, lockstep_config) is None

    def test_counts_verification_distances(self, aligned_pair, lockstep_config):
        query, target = aligned_pair
        chain = make_chain(target, query_start=5, db_start=10, length=5)
        counter = DistanceCounter()
        verify_chain(chain, query, target, Euclidean(), 0.5, lockstep_config, counter)
        assert counter.total >= 1

    def test_respects_radius(self, aligned_pair, lockstep_config):
        query, target = aligned_pair
        chain = make_chain(target, query_start=5, db_start=10, length=5)
        result = verify_chain(chain, query, target, Euclidean(), 1e-9, lockstep_config)
        if result is not None:
            assert result.distance <= 1e-9

    def test_sequences_shorter_than_lambda_yield_none(self, lockstep_config):
        query = Sequence.from_values(np.zeros(6), seq_id="q")
        target = Sequence.from_values(np.zeros(6), seq_id="db")
        chain = make_chain(target, query_start=0, db_start=0, length=5)
        assert verify_chain(chain, query, target, Euclidean(), 10.0, lockstep_config) is None


def _database(*sequences):
    database = SequenceDatabase(SequenceKind.TIME_SERIES)
    for sequence in sequences:
        database.add(sequence)
    return database


def _exhaustive(chains, query, database, distance, radius, config, counter=None, **kwargs):
    """Exhaustive Type I over ``chains``, as the pipeline runs it."""
    starts = chain_start_pairs(chains, config)
    return enumerate_matches(query, database, starts, distance, radius, config, counter, **kwargs)


class TestEnumerateMatches:
    def test_all_results_are_admissible(self, aligned_pair, config):
        query, target = aligned_pair
        chain = make_chain(target, query_start=5, db_start=10, length=5)
        results = _exhaustive([chain], query, _database(target), DiscreteFrechet(), 0.2, config)
        assert results
        for match in results:
            assert match.distance <= 0.2
            assert match.query_length >= config.min_length
            assert match.db_length >= config.min_length
            assert abs(match.query_length - match.db_length) <= config.max_shift

    def test_exhaustive_contains_greedy_result(self, aligned_pair, config):
        query, target = aligned_pair
        chain = make_chain(target, query_start=5, db_start=10, length=5)
        greedy = verify_chain(chain, query, target, DiscreteFrechet(), 0.5, config)
        exhaustive = _exhaustive([chain], query, _database(target), DiscreteFrechet(), 0.5, config)
        assert greedy is not None
        assert (match_identity(greedy), greedy.distance) in {
            (match_identity(m), m.distance) for m in exhaustive
        }

    @pytest.mark.parametrize("max_shift", [0, 1])
    def test_brute_force_restricted_to_the_chain_start_pairs(self, aligned_pair, max_shift):
        """Every stop of every start pair the chains allow, in brute force's
        order with bit-equal distances; one computation per start pair
        swept, no cache."""
        query, target = aligned_pair
        config = MatcherConfig(min_length=10, max_shift=max_shift)
        chains = [
            make_chain(target, query_start=5, db_start=10, length=5),
            make_chain(target, query_start=15, db_start=20, length=5),
        ]
        starts = set(chain_start_pairs(chains, config)["db"])
        counter = DistanceCounter()
        database = _database(target)
        found = _exhaustive(chains, query, database, ERP(), 1.0, config, counter)
        brute = brute_force_matches(query, database, ERP(), 1.0, config)
        assert found and [(match_identity(m), m.distance) for m in found] == [
            (match_identity(m), m.distance)
            for m in brute
            if (m.query_start, m.db_start) in starts
        ]
        swept = sum(1 for q, x in starts if len(query) - q >= 10 and len(target) - x >= 10)
        assert counter.total == counter.kernel_calls == swept
        assert counter.cache_hits == 0

    def test_sources_in_database_order(self, aligned_pair, config):
        query, target = aligned_pair
        twin = Sequence.from_values(target.values, seq_id="twin")
        chains = [
            make_chain(twin, query_start=5, db_start=10, length=5),
            make_chain(target, query_start=5, db_start=10, length=5),
        ]
        found = _exhaustive(
            chains, query, _database(target, twin), DiscreteFrechet(), 0.2, config
        )
        sources = [match.source_id for match in found]
        assert sources == sorted(sources) and set(sources) == {"db", "twin"}

    def test_max_results_cap(self, aligned_pair, config):
        """The sweep stops after the start pair reaching the cap."""
        query, target = aligned_pair
        first = make_chain(target, query_start=5, db_start=10, length=5).matches[0]
        second = make_chain(target, query_start=10, db_start=15, length=5).matches[0]
        chain = CandidateChain(target.seq_id, (first, second))
        database = _database(target)
        capped_counter, uncapped_counter = DistanceCounter(), DistanceCounter()
        uncapped = _exhaustive(
            [chain], query, database, DiscreteFrechet(), 0.5, config, uncapped_counter
        )
        capped = _exhaustive(
            [chain], query, database, DiscreteFrechet(), 0.5, config, capped_counter,
            max_results=1,
        )  # fmt: skip
        assert len(uncapped) >= 2 and len(capped) == 1
        assert match_identity(capped[0]) in {match_identity(m) for m in uncapped}
        assert capped_counter.total < uncapped_counter.total

    def test_empty_when_radius_too_small(self, config):
        query = Sequence.from_values(np.zeros(20), seq_id="q")
        target = Sequence.from_values(np.full(30, 50.0), seq_id="db")
        chain = make_chain(target, query_start=0, db_start=5, length=5)
        database = _database(target)
        assert _exhaustive([chain], query, database, DiscreteFrechet(), 1.0, config) == []


class TestSpanMemo:
    """``scratch=`` shares the subsequences cut for :func:`verify_chain`'s
    requests and, for an elastic family, answers cache misses from prefix
    blocks; the requests themselves -- lookups, stores, both counters --
    stay per request."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        windows=st.integers(1, 3),
        lockstep=st.booleans(),
        cached=st.booleans(),
        radius=st.floats(0.05, 3.0),
    )
    def test_same_matches_counters_and_cache_order(self, seed, windows, lockstep, cached, radius):
        generator = np.random.default_rng(seed)
        config = MatcherConfig(min_length=10, max_shift=0 if lockstep else 1)
        target = Sequence.from_values(np.cumsum(generator.normal(size=40)), seq_id="db")
        db_start = 5 * int(generator.integers(0, 8 - windows))
        query_start = int(generator.integers(0, 6))
        planted = target.values[db_start : db_start + 5 * windows]
        query = Sequence.from_values(
            np.concatenate(
                [
                    generator.normal(size=query_start),
                    planted + generator.normal(scale=0.05, size=len(planted)),
                    generator.normal(size=int(generator.integers(6, 12))),
                ]
            )
        )
        chain = CandidateChain(
            "db",
            tuple(
                make_chain(target, query_start + 5 * w, db_start + 5 * w, 5).matches[0]
                for w in range(windows)
            ),
        )
        distance = Euclidean() if lockstep else DiscreteFrechet()

        def trace(scratch):
            cache = DistanceCache() if cached else None
            counter = DistanceCounter()
            found = []
            for _pass in range(2):  # the second pass repeats every request
                match = verify_chain(
                    chain, query, target, distance, radius, config, counter, cache=cache,
                    scratch=scratch,
                )  # fmt: skip
                found.append(match and (match_identity(match), match.distance))
                found.append((counter.total, counter.cache_hits))
            return found, list(cache.iter_entries()) if cached else None

        assert trace(QueryScratch(query, [], None)) == trace(None)

    def test_one_sequence_per_distinct_span_and_none_on_a_repeat_pass(
        self, series_database, monkeypatch
    ):
        # Serial: racing thread-executor units may each cut a span once.
        matcher = SubsequenceMatcher(
            series_database,
            DiscreteFrechet(),
            MatcherConfig(min_length=10, max_shift=1, executor="serial"),
        )
        query = Sequence.from_values(np.asarray(series_database["t1"].values[12:40]) + 0.01)
        pipeline = matcher.pipeline
        scratch = pipeline.scratch_for(query)  # cuts the segments, before the spy
        built = []
        construct = Sequence.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(Sequence, "__init__", spy)
        with pipeline.sweep(query):
            first, stats = pipeline.run_scored_pass(query, 1.0)
            requests = stats.verification_distance_computations + stats.verification_cache_hits
            assert 0 < len(built) == len(scratch._spans) < 2 * requests
            del built[:]
            again, stats = pipeline.run_scored_pass(query, 1.0)
            assert built == [] and stats.verification_cache_hits == requests
        assert again == first and first

    def test_reused_query_object_never_sees_a_replaced_sequence(self):
        """Remove + re-add under the same id with other content: the scratch (and
        with it every cut span) is dropped by the write."""
        generator = np.random.default_rng(5)
        pattern = np.cumsum(generator.normal(size=30))
        database = SequenceDatabase(SequenceKind.TIME_SERIES)
        database.add(Sequence.from_values(np.concatenate([pattern, pattern[::-1]]), seq_id="x"))
        database.add(Sequence.from_values(generator.uniform(50, 60, size=40), seq_id="far"))
        config = MatcherConfig(min_length=10, max_shift=1)
        matcher = SubsequenceMatcher(database, DiscreteFrechet(), config)
        query = Sequence.from_values(pattern[3:27] + 0.01)
        specs = [RangeQuery(radius=0.6).bind(query), TopKQuery(k=2, max_radius=5.0).bind(query)]
        before = [matcher.execute(spec).matches for spec in specs]

        matcher.remove_sequence("x")
        matcher.add_sequence(
            Sequence.from_values(np.concatenate([pattern + 0.25, pattern[::-1]])), seq_id="x"
        )
        fresh = SubsequenceMatcher(database, DiscreteFrechet(), config)
        for spec, old in zip(specs, before):
            got, want = matcher.execute(spec).matches, fresh.execute(spec).matches
            assert [(match_identity(m), m.distance) for m in got] == [
                (match_identity(m), m.distance) for m in want
            ]
            assert got and [m.distance for m in got] != [m.distance for m in old]


ENGINE_DISTANCES = {
    "dtw": DTW,
    "frechet": DiscreteFrechet,
    "erp": ERP,
    "edr": EDR,
    "levenshtein": Levenshtein,
    "weighted-levenshtein": lambda: WeightedLevenshtein({(0, 1): 0.5, (1, 2): 0.25}),
    "euclidean": Euclidean,
    "hamming": Hamming,
    "lcss": LCSS,
}


class TestEngineRequestEntry:
    """:meth:`StartPairBlocks.value` -- the engine's one-request entry --
    meets ``bounded``'s contract on the cut pair: bit-equal to
    ``distance.bounded`` wherever either is within the cutoff, beyond it
    otherwise.  Requests crowd onto few start pairs under a rising cutoff,
    so kept blocks answer later requests, abandoned rows are asked for
    again at a larger cutoff, and blocks are swept again.  Every kernel
    call lands on the counter handed in."""

    @pytest.mark.parametrize("name", sorted(ENGINE_DISTANCES))
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), integers=st.booleans())
    def test_value_is_the_bounded_single_call(self, name, seed, integers):
        distance = ENGINE_DISTANCES[name]()
        generator = np.random.default_rng(seed)
        min_length = int(generator.integers(2, 6))
        shift = int(generator.integers(0, 3)) if distance.supports_unequal_lengths else 0

        def values(size):
            if integers:
                return generator.integers(0, 3, size=size).astype(float)
            return generator.normal(size=size).cumsum()

        query = Sequence.from_values(values(int(generator.integers(min_length, 13))))
        target = Sequence.from_values(values(int(generator.integers(min_length, 15))))
        engine = StartPairBlocks(
            query, target, distance, MatcherConfig(min_length=min_length, max_shift=shift)
        )
        starts = [
            (
                int(generator.integers(0, len(query) - min_length + 1)),
                int(generator.integers(0, len(target) - min_length + 1)),
            )
            for _start in range(3)
        ]
        requests = [
            (q, x, length, other)
            for q, x in starts
            for length in range(min_length, len(query) - q + 1)
            for other in range(max(min_length, length - shift), length + shift + 1)
            if other <= len(target) - x
        ]
        if not requests:
            return
        picked = generator.choice(len(requests), size=min(30, 3 * len(requests)))
        exact = [
            distance.bounded(query.values[q : q + a], target.values[x : x + b], np.inf)
            for q, x, a, b in requests
        ]
        top = max((value for value in exact if np.isfinite(value)), default=1.0)
        cutoffs = np.sort(generator.uniform(0.0, 1.2 * top + 1e-9, size=len(picked)))
        counters = (DistanceCounter(), DistanceCounter())
        seen = set()
        for turn, (position, cutoff) in enumerate(zip(picked.tolist(), cutoffs.tolist())):
            q, x, a, b = requests[position]
            asking, other = counters[turn % 2], counters[1 - turn % 2]
            before = (asking.kernel_calls, other.kernel_calls)
            value = engine.value(q, x, a, b, cutoff, asking)
            swept = asking.kernel_calls - before[0]
            assert other.kernel_calls == before[1] and swept in (0, 1)
            if engine._block is None or (q, x) not in seen:
                assert swept == 1
            seen.add((q, x))
            single = distance.bounded(query.values[q : q + a], target.values[x : x + b], cutoff)
            if value <= cutoff or single <= cutoff:
                assert repr(value) == repr(single), (q, x, a, b, cutoff)
            else:
                assert value > cutoff and single > cutoff
        assert engine.counter.kernel_calls == 0 and engine.counter.total == 0


def _grow_one_at_a_time(start, stop, target, limit, direction):
    """The reference growth: one element per step, as the closed form claims."""
    while stop - start < target:
        extended = False
        if direction in ("right", "both") and stop < limit:
            stop += 1
            extended = True
        if stop - start < target and direction in ("left", "both") and start > 0:
            start -= 1
            extended = True
        if stop - start < target and not extended:
            if stop < limit:
                stop += 1
                extended = True
            elif start > 0:
                start -= 1
                extended = True
        if not extended:
            break
    return start, stop


@pytest.mark.parametrize("direction", ["right", "left", "both"])
def test_grow_to_length_equals_one_element_at_a_time(direction):
    for limit in range(12):
        for start in range(limit + 1):
            for stop in range(start, limit + 1):
                for target in range(15):
                    assert _grow_to_length(start, stop, target, limit, direction) == (
                        _grow_one_at_a_time(start, stop, target, limit, direction)
                    ), (start, stop, target, limit)
