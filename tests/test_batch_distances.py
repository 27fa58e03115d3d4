"""Equivalence tests for the batched distance API (``Distance.batch``).

The batched kernels must agree with the per-pair kernels: exact equality of
the returned value whenever it is within the cutoff (the contract range
queries rely on), and "provably outside" agreement beyond it.
"""

import numpy as np
import pytest

from repro import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Euclidean,
    Hamming,
    IncompatibleSequencesError,
    LCSS,
    Levenshtein,
    Sequence,
    WeightedLevenshtein,
)

RNG = np.random.default_rng(2024)

ELASTIC = [
    DTW(),
    DTW(band=4),
    ERP(),
    ERP(gap=1.0),
    DiscreteFrechet(),
    Levenshtein(),
    WeightedLevenshtein(insertion_cost=0.5, deletion_cost=2.0),
    EDR(epsilon=0.4),
    LCSS(epsilon=0.4),
]


def _series(length):
    return RNG.normal(size=length)


def _assert_batch_matches_single(distance, query, items, cutoff):
    values = distance.batch(query, items, cutoff=cutoff)
    assert values.shape == (len(items),)
    for index, item in enumerate(items):
        if cutoff is None:
            assert values[index] == pytest.approx(distance(query, item), abs=1e-9)
        else:
            reference = distance.bounded(query, item, cutoff)
            if reference <= cutoff:
                assert values[index] == pytest.approx(reference, abs=1e-9)
            else:
                assert values[index] > cutoff


class TestBatchAgainstSingle:
    @pytest.mark.parametrize("distance", ELASTIC, ids=lambda d: repr(d))
    def test_equal_length_series(self, distance):
        query = _series(20)
        items = [_series(20) for _ in range(12)]
        _assert_batch_matches_single(distance, query, items, None)
        _assert_batch_matches_single(distance, query, items, 3.0)

    @pytest.mark.parametrize(
        "distance",
        [DTW(), ERP(), DiscreteFrechet(), Levenshtein(), EDR()],
        ids=lambda d: d.name,
    )
    def test_mixed_length_series_group_by_shape(self, distance):
        query = _series(20)
        items = [_series(length) for length in (20, 20, 14, 27, 14, 20, 31)]
        _assert_batch_matches_single(distance, query, items, None)
        _assert_batch_matches_single(distance, query, items, 4.0)

    @pytest.mark.parametrize(
        "distance",
        [DTW(), ERP(gap=[0.0, 0.0]), DiscreteFrechet(), EDR()],
        ids=lambda d: d.name,
    )
    def test_trajectories(self, distance):
        query = RNG.normal(size=(15, 2))
        items = [RNG.normal(size=(15, 2)) for _ in range(6)]
        items += [RNG.normal(size=(11, 2)) for _ in range(4)]
        _assert_batch_matches_single(distance, query, items, None)
        _assert_batch_matches_single(distance, query, items, 4.0)

    def test_large_tables(self):
        query = _series(60)
        items = [_series(60) for _ in range(4)]
        for distance in (DTW(), ERP(), DiscreteFrechet(), Levenshtein()):
            _assert_batch_matches_single(distance, query, items, None)
            _assert_batch_matches_single(distance, query, items, 8.0)

    def test_lockstep_distances(self):
        query = _series(18)
        items = [_series(18) for _ in range(9)]
        _assert_batch_matches_single(Euclidean(), query, items, None)
        _assert_batch_matches_single(Euclidean(), query, items, 2.0)
        symbols = RNG.integers(0, 4, size=18)
        symbol_items = [RNG.integers(0, 4, size=18) for _ in range(9)]
        _assert_batch_matches_single(Hamming(), symbols, symbol_items, None)
        _assert_batch_matches_single(Hamming(normalised=True), symbols, symbol_items, None)

    def test_sequences_as_inputs(self):
        query = Sequence.from_values(_series(16), seq_id="q")
        items = [Sequence.from_values(_series(16), seq_id=f"i{i}") for i in range(5)]
        _assert_batch_matches_single(DiscreteFrechet(), query, items, 1.0)

    def test_lockstep_rejects_unequal_lengths(self):
        with pytest.raises(IncompatibleSequencesError):
            Euclidean().batch(_series(10), [_series(10), _series(12)])

    def test_empty_item_list(self):
        values = DTW().batch(_series(10), [])
        assert values.shape == (0,)


class TestCallForm:
    """The batch row and the single call give the same bits, for every distance.

    The reference net measures a whole level with one ``batch`` call where
    it used to make single calls, so whether the two forms agree *exactly*
    decides whether its probe distances moved.
    """

    def test_batch_rows_are_the_single_calls(self):
        def symbols():
            return RNG.integers(0, 4, size=20)

        for distance, draw in (
            (DiscreteFrechet(), lambda: _series(20)),
            (DiscreteFrechet(), lambda: RNG.normal(size=(20, 2))),
            (Levenshtein(), symbols),
            (Hamming(), symbols),
            (DTW(), lambda: _series(20)),
            (ERP(), lambda: _series(20)),
            (ERP(gap=1.0), lambda: RNG.normal(size=(20, 3))),
            (WeightedLevenshtein(insertion_cost=0.7, deletion_cost=1.3), symbols),
        ):
            query = draw()
            items = [draw() for _ in range(60)]
            row = distance.batch(query, items)
            singles = [distance(query, item) for item in items]
            assert row.tolist() == singles, distance

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_pair_form_is_the_batch_form_row_by_row(self, dim):
        # The reference net measures a whole level of *many* queries with one
        # ``compute_pairs`` call where it used to make one ``compute_batch``
        # call per query: bit-identical rows are what keep its probe
        # distances, and through them every counter, where they were.
        def stacks(distance, count, length):
            if isinstance(distance, Levenshtein):
                return RNG.integers(0, 3, size=(count, length, dim)).astype(np.float64)
            return RNG.normal(size=(count, length, dim))

        distances = [DTW(), DTW(band=4), ERP(), ERP(gap=1.0), DiscreteFrechet(), Levenshtein(),
                     EDR(epsilon=0.4), Euclidean()]  # fmt: skip
        query_rows = np.array([0, 0, 0, 2, 2, 3, 3, 3, 1, 0])
        item_rows = np.array([4, 1, 6, 6, 0, 5, 5, 2, 3, 4])
        for distance in distances:
            for n, m in ((9, 9), (7, 10)):
                if not distance.supports_unequal_lengths and n != m:
                    continue
                queries, items = stacks(distance, 4, n), stacks(distance, 7, m)
                vector = RNG.uniform(0.5, 6.0, size=len(query_rows))
                for cutoff in (None, 2.5, vector):
                    pairs = distance.compute_pairs(queries, query_rows, items, item_rows, cutoff)
                    for at, (q, x) in enumerate(zip(query_rows, item_rows)):
                        row_cutoff = cutoff if np.ndim(cutoff) == 0 else cutoff[at : at + 1]
                        row = distance.compute_batch(queries[q], items[x : x + 1], row_cutoff)
                        assert repr(pairs[at]) == repr(row[0]), (distance, n, m, cutoff)


class TestBatchCutoffSemantics:
    def test_all_items_beyond_cutoff(self):
        query = np.zeros(12)
        items = [np.full(12, 100.0 + i) for i in range(5)]
        values = DTW().batch(query, items, cutoff=1.0)
        assert np.all(values > 1.0)

    def test_within_cutoff_values_are_exact(self):
        query = _series(15)
        items = [query + RNG.normal(scale=0.01, size=15) for _ in range(6)]
        values = ERP().batch(query, items, cutoff=50.0)
        for index, item in enumerate(items):
            assert values[index] == pytest.approx(ERP()(query, item), abs=1e-9)
