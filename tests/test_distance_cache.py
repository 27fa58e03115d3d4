"""Tests for the :class:`~repro.distances.cache.DistanceCache`."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CountingDistance,
    DiscreteFrechet,
    DistanceCache,
    Euclidean,
    Levenshtein,
    LongestSubsequenceQuery,
    RangeQuery,
    Sequence,
)
from repro.distances.cache import content_keys
from repro.sequences.packed import PackedWindowStore, StoreGather


def _seq(values, seq_id=None):
    return Sequence.from_values(values, seq_id=seq_id)


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = DistanceCache()
        a, b = _seq([1.0, 2.0]), _seq([1.0, 3.0])
        assert cache.lookup(a, b) is None
        cache.store(a, b, 1.0)
        assert cache.lookup(a, b) == 1.0
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1

    def test_content_keys_unify_equal_sequences(self):
        cache = DistanceCache()
        cache.store(_seq([1.0, 2.0], "x"), _seq([3.0, 4.0], "y"), 2.5)
        # Same content cut from elsewhere hits the same entry.
        assert cache.lookup(_seq([1.0, 2.0], "z"), _seq([3.0, 4.0], "w")) == 2.5

    def test_ordered_keys(self):
        cache = DistanceCache()
        a, b = _seq([1.0]), _seq([2.0])
        cache.store(a, b, 1.0)
        # No symmetry is assumed (distances may be asymmetric).
        assert cache.lookup(b, a) is None

    def test_exact_entry_answers_any_cutoff(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([5.0])
        cache.store(a, b, 5.0)
        assert cache.lookup(a, b, cutoff=1.0) == 5.0
        assert cache.lookup(a, b, cutoff=100.0) == 5.0


class TestLowerBounds:
    def test_abandoned_result_recorded_as_bound(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        # Kernel abandoned at cutoff 2: only "distance > 2" is known.
        cache.store(a, b, float("inf"), cutoff=2.0)
        # Any query within the proven bound is answered with inf...
        assert cache.lookup(a, b, cutoff=1.5) == float("inf")
        assert cache.lookup(a, b, cutoff=2.0) == float("inf")
        # ...but a larger cutoff (or an exact request) must recompute.
        assert cache.lookup(a, b, cutoff=3.0) is None
        assert cache.lookup(a, b) is None

    def test_bound_upgraded_to_exact(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        cache.store(a, b, float("inf"), cutoff=2.0)
        cache.store(a, b, 9.0)
        assert cache.lookup(a, b) == 9.0

    def test_exact_never_downgraded(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        cache.store(a, b, 9.0)
        cache.store(a, b, float("inf"), cutoff=2.0)
        assert cache.lookup(a, b) == 9.0

    def test_bound_never_weakened(self):
        cache = DistanceCache()
        a, b = _seq([0.0]), _seq([9.0])
        cache.store(a, b, float("inf"), cutoff=4.0)
        cache.store(a, b, float("inf"), cutoff=2.0)
        assert cache.lookup(a, b, cutoff=4.0) == float("inf")


class TestCapacity:
    def test_eviction_drops_oldest(self):
        cache = DistanceCache(max_entries=2)
        pairs = [(_seq([float(i)]), _seq([float(i + 10)])) for i in range(3)]
        for first, second in pairs:
            cache.store(first, second, 1.0)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(*pairs[0]) is None
        assert cache.lookup(*pairs[2]) == 1.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DistanceCache(max_entries=0)

    def test_clear_resets_everything(self):
        cache = DistanceCache()
        a, b = _seq([1.0]), _seq([2.0])
        cache.store(a, b, 1.0)
        cache.lookup(a, b)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0


class TestContentKeys:
    """Probes compare fixed-size digests, never the operands themselves."""

    @pytest.fixture
    def eq_calls(self, monkeypatch):
        calls = []
        original = Sequence.__eq__

        def spy(self, other):
            calls.append((self, other))
            return original(self, other)

        monkeypatch.setattr(Sequence, "__eq__", spy)
        return calls

    def test_fresh_object_hits_without_sequence_eq(self, eq_calls):
        cache = DistanceCache()
        cache.store(_seq([1.0, 2.0], "x"), _seq([3.0, 4.0], "y"), 2.5)
        assert cache.lookup(_seq([1.0, 2.0]), _seq([3.0, 4.0])) == 2.5
        assert cache.peek(_seq([1.0, 2.0]), _seq([3.0, 4.0])) == 2.5
        assert cache.hits == 1
        assert eq_calls == []

    def test_warm_repeat_of_a_fresh_query_object(self, eq_calls):
        from repro import MatcherConfig, SequenceDatabase, SequenceKind, SubsequenceMatcher
        from repro import TopKQuery

        rng = np.random.default_rng(3)
        db = SequenceDatabase(SequenceKind.TIME_SERIES)
        for i in range(3):
            db.add(Sequence.from_values(np.cumsum(rng.normal(size=60)), seq_id=f"s{i}"))
        values = np.asarray(db["s1"].values[10:40]) + 0.01
        config = MatcherConfig(min_length=12, max_shift=1, index="linear-scan")
        matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)
        spec = TopKQuery(k=2, max_radius=6.0)
        cold = matcher.execute(spec.bind(Sequence.from_values(values)))
        warm = matcher.execute(spec.bind(Sequence.from_values(values)))
        assert warm.matches == cold.matches
        assert cold.stats.index_distance_computations > 0
        assert warm.stats.index_distance_computations == 0
        assert warm.stats.verification_distance_computations == 0
        assert eq_calls == []

    def test_key_separates_kind_and_shape(self):
        flat = Sequence.from_values([1.0, 2.0, 3.0, 4.0])
        points = Sequence.from_points([[1.0, 2.0], [3.0, 4.0]])
        column = Sequence.from_points([[1.0], [2.0], [3.0], [4.0]])
        keys = {flat.content_key, points.content_key, column.content_key}
        assert len(keys) == 3
        assert all(len(key) == 16 for key in keys)
        assert flat.subsequence(1, 3).content_key == _seq([2.0, 3.0]).content_key


class _ModelCache:
    """The cache's contract, spelled out on an ``OrderedDict`` of index pairs."""

    def __init__(self, capacity):
        self.entries, self.capacity = OrderedDict(), capacity
        self.hits = self.misses = self.evictions = 0

    def lookup(self, key, cutoff=None):
        value, exact = self.entries.get(key, (None, False))
        if exact or (value is not None and cutoff is not None and value >= cutoff):
            self.hits += 1
            return value if exact else float("inf")
        self.misses += 1
        return None

    def store(self, key, value, cutoff=None):
        if cutoff is None or value <= cutoff:
            self.seed(key, value, True)
            return
        old, exact = self.entries.get(key, (None, False))
        if not exact and (old is None or old < cutoff):
            self.seed(key, cutoff, False)

    def seed(self, key, value, exact):
        self.entries[key] = (float(value), exact)  # an overwrite keeps its place
        while self.capacity is not None and len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1


_POOL = [[float(i), float(i) + 0.5] for i in range(5)]
#: Nine pairs against capacities of 1-6: overwrites of live keys, re-stores
#: of evicted ones and evictions all happen within a few operations.
_pair = st.tuples(st.integers(0, 2), st.integers(0, 2))
_cutoff = st.one_of(st.none(), st.floats(0.5, 6.0))
_op = st.one_of(
    st.tuples(st.just("lookup"), _pair, _cutoff),
    st.tuples(st.just("store"), _pair, st.floats(0.0, 8.0), _cutoff),
    st.tuples(st.just("seed"), _pair, st.floats(0.0, 8.0), st.booleans()),
)


class TestAgainstReferenceModel:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_op, max_size=60), capacity=st.one_of(st.none(), st.integers(1, 6)))
    def test_values_tallies_and_eviction_order(self, ops, capacity):
        cache, model = DistanceCache(max_entries=capacity), _ModelCache(capacity)
        for name, (i, j), *arguments in ops:
            # Fresh operand objects every time: identity can never help.
            first, second = _seq(_POOL[i]), _seq(_POOL[j])
            if name == "lookup":
                assert cache.lookup(first, second, *arguments) == model.lookup((i, j), *arguments)
            else:
                getattr(cache, name)(first, second, *arguments)
                getattr(model, name)((i, j), *arguments)
        index_of = {_seq(values).content_key: i for i, values in enumerate(_POOL)}
        assert [
            ((index_of[first], index_of[second]), (value, exact))
            for first, second, value, exact in cache.iter_entries()
        ] == list(model.entries.items())
        tallies = (cache.hits, cache.misses, cache.evictions)
        assert tallies == (model.hits, model.misses, model.evictions)
        assert len(cache) == len(model.entries)


class TestRowProbe:
    """One bulk probe of a row classifies exactly like per-item lookups."""

    @settings(max_examples=150, deadline=None)
    @given(
        stored=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 8.0), _cutoff), max_size=8),
        row=st.lists(st.integers(-1, 4), min_size=1, max_size=8),
        cutoff=st.one_of(_cutoff, st.lists(st.floats(0.5, 6.0), min_size=8, max_size=8)),
    )
    def test_matches_per_item_lookup(self, stored, row, cutoff):
        query = _seq([9.0, 9.5])
        bulk, single = DistanceCache(), DistanceCache()
        for j, value, bound in stored:
            for cache in (bulk, single):
                cache.store(query, _seq(_POOL[j]), value, bound)
        # -1 picks a raw array: uncacheable, pending without a lookup.
        items = [np.array(_POOL[0]) if j < 0 else _seq(_POOL[j]) for j in row]
        if isinstance(cutoff, list):
            cutoff = np.array(cutoff[: len(items)])
        values = np.full(len(items), np.nan)
        pending = bulk.probe_row(query.content_key, content_keys(items), cutoff, values)
        expected_pending = []
        for index, item in enumerate(items):
            at = cutoff if cutoff is None or np.ndim(cutoff) == 0 else float(cutoff[index])
            answer = single.lookup(query, item, at) if isinstance(item, Sequence) else None
            if answer is None:
                expected_pending.append(index)
            else:
                assert values[index] == answer
        assert pending == expected_pending
        assert (bulk.hits, bulk.misses) == (single.hits, single.misses)

    def test_packed_batch_equals_per_pair_bounded_requests(self):
        rng = np.random.default_rng(5)
        windows = [Sequence.from_values(rng.normal(size=6)) for _ in range(12)]
        store = PackedWindowStore()
        for position, window in enumerate(windows):
            store.add(position, window)
        gather = StoreGather(store, list(range(12)))
        outcomes = []
        for batched in (True, False):
            counting = CountingDistance(DiscreteFrechet(), cache=DistanceCache(), prefilter=True)
            returned = []
            for values in (windows[0].values, windows[3].values + 0.1):
                # The last pass is answered by the row probe alone.
                for radius in (0.5, 1.5, 1.0):
                    query = _seq(values)
                    if batched:
                        row = counting.batch(query, windows, cutoff=radius, packed=gather)
                    else:
                        row = [counting.bounded(query, window, radius) for window in windows]
                    returned.append([float(value) for value in row])
            counter, cache = counting.counter, counting.cache
            tallies = (counter.total, counter.cache_hits, counter.prefilter_pruned)
            assert counter.cache_hits > 0
            outcomes.append(
                (returned, tallies, cache.hits, cache.misses, list(cache.iter_entries()))
            )
        assert outcomes[0] == outcomes[1]


class TestBulkPairs:
    """Ready-key bulk probes and stores equal the per-key calls they replace."""

    @staticmethod
    def _state(cache):
        return (list(cache.iter_entries()), cache.evictions, cache._order and list(cache._order))

    @settings(max_examples=200, deadline=None)
    @given(
        before=st.lists(_op, max_size=25),
        batch=st.lists(st.tuples(_pair, st.floats(0.0, 8.0)), max_size=14),
        capacity=st.one_of(st.none(), st.integers(1, 8)),
    )
    def test_store_many_equals_the_per_key_store_loop(self, before, batch, capacity):
        # Any earlier history (bounds, overwrites, a cache already evicting or
        # not yet), then one bulk of exact values in which keys repeat, hit
        # live keys -- exact ones and bounds -- and may cross the capacity.
        bulk, loop = DistanceCache(max_entries=capacity), DistanceCache(max_entries=capacity)
        for name, (i, j), *arguments in before:
            for cache in (bulk, loop):
                result = getattr(cache, name)(_seq(_POOL[i]), _seq(_POOL[j]), *arguments)
                assert name != "store" or result is None
        keys = [(_seq(_POOL[i]).content_key, _seq(_POOL[j]).content_key) for (i, j), _v in batch]
        values = [value for _pair, value in batch]
        bulk.store_many(keys, values)
        with loop._lock:
            for key, value in zip(keys, values):
                loop._store(key, value, None)
        assert self._state(bulk) == self._state(loop)
        # ... and they keep behaving alike afterwards.
        for cache in (bulk, loop):
            cache.store(_seq([7.0]), _seq([8.0]), 1.0)
        assert self._state(bulk) == self._state(loop)

    @settings(max_examples=100, deadline=None)
    @given(
        stored=st.lists(st.tuples(_pair, st.floats(0.0, 8.0), _cutoff), max_size=8),
        asked=st.lists(_pair, max_size=10),
        repeats=st.integers(0, 3),
    )
    def test_probe_pairs_equals_lookups_without_a_cutoff(self, stored, asked, repeats):
        bulk, single = DistanceCache(), DistanceCache()
        for (i, j), value, bound in stored:
            for cache in (bulk, single):
                cache.store(_seq(_POOL[i]), _seq(_POOL[j]), value, bound)
        keys = [(_seq(_POOL[i]).content_key, _seq(_POOL[j]).content_key) for i, j in asked]
        # A bound entry says nothing without a cutoff: only exact ones answer.
        assert bulk.probe_pairs(keys, repeats) == [
            single.lookup(_seq(_POOL[i]), _seq(_POOL[j])) for i, j in asked
        ]
        assert (bulk.hits, bulk.misses) == (single.hits + repeats, single.misses)

    @settings(max_examples=150, deadline=None)
    @given(
        warm=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
        asked=st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), max_size=12),
    )
    def test_counting_pairs_equals_one_request_at_a_time(self, warm, asked):
        # -1 is an operand without a key: computed, never looked up or stored.
        # A keyed pair seen earlier in the same bulk is a hit, as it is when
        # the pairs are requested one by one.
        distance = Euclidean()
        bulk = CountingDistance(distance, cache=DistanceCache())
        single = CountingDistance(distance, cache=DistanceCache())
        for i, j in warm:
            for counting in (bulk, single):
                counting(_seq(_POOL[i]), _seq(_POOL[j]))
        operands = [
            tuple(np.array(_POOL[0]) if side < 0 else _seq(_POOL[side]) for side in pair)
            for pair in asked
        ]
        keys = [
            (first.content_key, second.content_key)
            if isinstance(first, Sequence) and isinstance(second, Sequence)
            else None
            for first, second in operands
        ]
        calls = []

        def compute(positions):
            calls.append(positions.tolist())
            return np.array([distance(*operands[position]) for position in positions]), 1

        kernel_calls = bulk.counter.kernel_calls
        assert bulk.pairs(keys, compute).tolist() == [single(*pair) for pair in operands]
        assert len(calls) <= 1 and all(call == sorted(set(call)) for call in calls)
        assert bulk.counter.kernel_calls == kernel_calls + len(calls)

        def tallies(counting):
            counter, cache = counting.counter, counting.cache
            return (counter.total, counter.cache_hits, cache.hits, cache.misses)

        assert tallies(bulk) == tallies(single)
        assert list(bulk.cache.iter_entries()) == list(single.cache.iter_entries())


class TestMatcherIntegration:
    def test_matcher_cache_respects_configured_bound(self):
        import numpy as np

        from repro import (
            DiscreteFrechet,
            MatcherConfig,
            SequenceDatabase,
            SequenceKind,
            SubsequenceMatcher,
        )

        rng = np.random.default_rng(0)
        db = SequenceDatabase(SequenceKind.TIME_SERIES)
        for i in range(3):
            db.add(Sequence.from_values(rng.normal(size=40), seq_id=f"s{i}"))
        config = MatcherConfig(min_length=10, max_shift=1, cache_max_entries=50)
        matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)
        query = Sequence.from_values(rng.normal(size=20), seq_id="q")
        matcher.execute(RangeQuery(radius=5.0).bind(query))
        assert matcher.distance_cache.max_entries == 50
        assert len(matcher.distance_cache) <= 50


class TestCountingDistanceIntegration:
    def test_hits_counted_separately_from_fresh(self):
        counting = CountingDistance(Euclidean(), cache=DistanceCache())
        a, b = _seq([0.0, 0.0]), _seq([3.0, 4.0])
        assert counting(a, b) == 5.0
        assert counting(a, b) == 5.0
        assert counting.counter.total == 1
        assert counting.counter.cache_hits == 1

    def test_bounded_hits_and_bounds(self):
        counting = CountingDistance(Levenshtein(), cache=DistanceCache())
        a = Sequence.from_values([1.0, 2.0, 3.0, 4.0])
        b = Sequence.from_values([5.0, 6.0, 7.0, 8.0])
        value = counting.bounded(a, b, 1.0)
        assert value > 1.0
        # The bound answers a smaller-or-equal cutoff without recomputation.
        assert counting.bounded(a, b, 1.0) > 1.0
        assert counting.counter.total == 1
        assert counting.counter.cache_hits == 1
        # A wider cutoff recomputes and records the exact value.
        assert counting.bounded(a, b, 10.0) == 4.0
        assert counting.counter.total == 2
        assert counting(a, b) == 4.0
        assert counting.counter.total == 2
        assert counting.counter.cache_hits == 2

    def test_uncacheable_payloads_bypass_cache(self):
        counting = CountingDistance(Euclidean(), cache=DistanceCache())
        assert counting([0.0], [3.0]) == 3.0
        assert counting([0.0], [3.0]) == 3.0
        assert counting.counter.total == 2
        assert counting.counter.cache_hits == 0

    def test_since_a_mark_tracks_cache_hits(self):
        counting = CountingDistance(Euclidean(), cache=DistanceCache())
        a, b = _seq([0.0]), _seq([1.0])
        counting(a, b)
        mark = counting.counter.mark()
        counting(a, b)
        counting(a, b)
        assert counting.counter.since(mark).total == 0
        assert counting.counter.since(mark).cache_hits == 2


class TestThreadSafety:
    """The cache is shared between concurrently querying matchers and the
    thread executor's work units, so its table, eviction loop, and
    statistics must survive a genuine multi-threaded hammering."""

    def test_eight_thread_hammer_via_shared_cache(self):
        import threading

        from repro.distances import shared_cache

        cache = shared_cache("hammer-test", max_entries=64)
        sequences = [_seq([float(i), float(i + 1)], seq_id=f"h{i}") for i in range(40)]
        lookups_done = [0] * 8
        errors = []
        barrier = threading.Barrier(8, timeout=10)

        def hammer(worker):
            try:
                import numpy as np

                generator = np.random.default_rng(worker)
                barrier.wait()
                for step in range(600):
                    first = sequences[int(generator.integers(len(sequences)))]
                    second = sequences[int(generator.integers(len(sequences)))]
                    op = step % 5
                    if op == 0:
                        cache.store(first, second, 1.0)
                    elif op == 1:
                        cache.store(first, second, 5.0, cutoff=2.0)
                    elif op == 2:
                        cache.seed(first, second, 3.0, exact=True)
                    elif op == 3:
                        for entry in cache.iter_entries():
                            assert len(entry) == 4
                            break
                    else:
                        cache.lookup(first, second, cutoff=2.0)
                        lookups_done[worker] += 1
                    cache.peek(first, second)
                    assert len(cache) <= 64
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        hits_before, misses_before = cache.hits, cache.misses
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert all(not thread.is_alive() for thread in threads)
        # Capacity held under concurrent insertion and eviction.
        assert len(cache) <= 64
        # Statistics stayed consistent: every counted lookup is either a
        # hit or a miss, and peek never touched the tallies.
        total_lookups = sum(lookups_done)
        assert (cache.hits - hits_before) + (cache.misses - misses_before) == total_lookups
        # The surviving entries are well-formed (value, exact) pairs.
        for first, second, value, exact in cache.iter_entries():
            assert isinstance(value, float)
            assert isinstance(exact, bool)

    def test_concurrent_matchers_share_one_cache(self, tmp_path):
        """Two matchers over one shared cache, queried from two threads."""
        import threading

        import numpy as np

        from repro import DiscreteFrechet, MatcherConfig, SequenceDatabase, SequenceKind
        from repro import SubsequenceMatcher
        from repro.distances import shared_cache

        generator = np.random.default_rng(5)
        pattern = np.cumsum(generator.normal(size=24))
        database = SequenceDatabase(SequenceKind.TIME_SERIES)
        database.add(
            Sequence.from_values(
                np.concatenate([generator.uniform(30, 40, 8), pattern]), seq_id="a"
            )
        )
        database.add(
            Sequence.from_values(
                np.concatenate([pattern + 0.05, generator.uniform(30, 40, 8)]),
                seq_id="b",
            )
        )
        query = Sequence(
            np.asarray(database["a"].values[8:32]) + 0.01,
            SequenceKind.TIME_SERIES,
            "q",
        )
        cache = shared_cache("hammer-matchers")
        config = MatcherConfig(min_length=12, max_shift=1)
        matchers = [
            SubsequenceMatcher(database, DiscreteFrechet(), config, cache=cache)
            for _ in range(2)
        ]
        spec = LongestSubsequenceQuery(radius=0.5)
        results = [None, None]
        errors = []

        def run(position):
            try:
                results[position] = matchers[position].execute(spec.bind(query)).best
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert results[0] is not None and results[1] is not None
        assert results[0].length == results[1].length
        assert results[0].distance == pytest.approx(results[1].distance, abs=1e-12)
