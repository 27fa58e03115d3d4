"""The C kernels: one exactness matrix over every elastic family member.

``_kernels.c`` is the only engine of the DTW, discrete Fréchet, ERP, EDR,
Levenshtein and weighted Levenshtein recurrences, in every call form.  The
matrix covers each member at every point width it accepts (1, 2, 7, 8 and
10 coordinates -- 8 and up is where NumPy's pairwise summation would start)
on tables on both sides of 1 024 cells, with and without cutoffs:

* values equal the cell-by-cell references of ``kernel_reference.py`` bit
  for bit: the C sweeps run the same direct recurrences, in the same order;
* the five call forms -- ``compute``, ``compute_bounded``,
  ``compute_batch``, ``compute_pairs`` and ``prefix_block`` -- agree bit for
  bit (``repr`` equality) wherever the bounded contract asks for a value.

Also covered here: the provider's argument checks, the weighted Levenshtein
parameter array, the error without a compiler, and the packed window
tensors behind the linear scan.
"""

import threading
import zlib

import numpy as np
import pytest

from repro.distances import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Euclidean,
    Levenshtein,
    WeightedLevenshtein,
)
from repro.distances import compiled
from repro.distances.base import ElementMetric
from repro.distances.compiled import MODE_LEVENSHTEIN, NO_PARAMS, kernels, weighted_params
from repro.distances.elastic import WarpingDistance
from kernel_reference import reference_edit_table, reference_warping_table
from repro.exceptions import (
    ConfigurationError,
    DistanceError,
    IncompatibleSequencesError,
    IndexError_,
)
from repro.indexing.linear_scan import LinearScanIndex
from repro.sequences.packed import PackedWindowStore, StoreGather

MEMBERS = [
    DTW(),
    DTW(band=3),
    DTW(element_metric=ElementMetric("manhattan")),
    DiscreteFrechet(),
    ERP(gap=0.25),
    EDR(epsilon=0.4),
    Levenshtein(),
    # Costs that are not dyadic, and an entry for an equal pair: the table
    # must override the zero cost of a match.
    WeightedLevenshtein(
        {(0, 1): 0.3, (1, 0): 0.7, (2, 3): 0.45, (3, 3): 0.1},
        insertion_cost=1.3,
        deletion_cost=0.6,
        default_substitution=0.9,
    ),
]

DIMS = [1, 2, 7, 8, 10]

#: ``(n, m)`` tables: degenerate ones, tables at and below 1 024 cells
#: (where an older single call took another recurrence) and above it.
SHAPES = [(1, 1), (1, 9), (9, 11), (31, 33), (33, 32), (40, 37)]

#: The shapes every member can take in every call form: the band of
#: ``DTW(band=3)`` fits each of them.
FORM_SHAPES = SHAPES[2:]


def _accepts(distance, dim):
    return dim == 1 or not isinstance(distance, WeightedLevenshtein)


MATRIX = [
    pytest.param(distance, dim, id=f"{distance!r}-dim{dim}")
    for distance in MEMBERS
    for dim in DIMS
    if _accepts(distance, dim)
]


def _seed(*parts):
    """A per-case seed that is the same in every process (``hash`` of a
    ``str`` is salted per interpreter)."""
    return zlib.crc32(repr(parts).encode("utf-8"))


def _stack(distance, rng, count, length, dim):
    """Operands: small integer codes for the members that compare symbols
    (ties and matches are likely), real points otherwise."""
    if isinstance(distance, (Levenshtein, WeightedLevenshtein)):
        return rng.integers(0, 4, size=(count, length, dim)).astype(np.float64)
    return rng.normal(size=(count, length, dim))


def _reference(distance, first, second):
    """The cell-by-cell table's bottom-right value."""
    if isinstance(distance, WarpingDistance):
        cost = distance.element_metric.matrix(first, second)
        return reference_warping_table(cost, distance.aggregate, distance.band)[-1, -1]
    table = reference_edit_table(
        distance.substitution(first, second), distance.deletion(first), distance.insertion(second)
    )
    return table[-1, -1]


@pytest.mark.parametrize("n, m", SHAPES, ids=lambda length: str(length))
@pytest.mark.parametrize("distance, dim", MATRIX)
def test_values_match_the_cell_by_cell_reference(distance, dim, n, m):
    rng = np.random.default_rng(_seed(repr(distance), dim, n, m))
    for _ in range(3):
        first, second = (_stack(distance, rng, 1, length, dim)[0] for length in (n, m))
        expected = _reference(distance, first, second)
        value = distance.compute_bounded(first, second, None)
        assert repr(value) == repr(float(expected))


def _pair_values(distance, form, queries, items, query_rows, item_rows, cutoffs):
    """Every pair's value under one call form, in pair order."""
    if form == "compute_pairs":
        return distance.compute_pairs(queries, query_rows, items, item_rows, cutoffs)
    values = []
    for at, (q, x) in enumerate(zip(query_rows.tolist(), item_rows.tolist())):
        cutoff = None if cutoffs is None else float(cutoffs[at])
        if form == "compute":
            values.append(distance.compute(queries[q], items[x]))
        elif form == "compute_bounded":
            values.append(distance.compute_bounded(queries[q], items[x], cutoff))
        elif form == "compute_batch":
            row = distance.compute_batch(queries[q], items[x : x + 1], cutoff)
            values.append(float(row[0]))
        else:
            n, m = queries.shape[1], items.shape[1]
            block = distance.prefix_block(queries[q], items[x], n, abs(n - m), cutoff)
            values.append(block.value(n, m))
    return np.array(values)


FORMS = ("compute", "compute_bounded", "compute_batch", "compute_pairs", "prefix_block")


@pytest.mark.parametrize("n, m", FORM_SHAPES, ids=lambda length: str(length))
@pytest.mark.parametrize("distance, dim", MATRIX)
def test_the_five_call_forms_agree_bit_for_bit(distance, dim, n, m):
    """Unbounded, every form returns the single call's bits; under a cutoff
    a value is those bits whenever either is within the cutoff, and beyond
    the cutoff otherwise."""
    rng = np.random.default_rng(_seed(repr(distance), dim, n, m, "forms"))
    queries = _stack(distance, rng, 3, n, dim)
    items = _stack(distance, rng, 4, m, dim)
    query_rows = np.repeat(np.arange(3), 4)
    item_rows = np.tile(np.arange(4), 3)
    singles = _pair_values(distance, "compute", queries, items, query_rows, item_rows, None)
    spread = rng.uniform(0.5, 1.5, size=singles.shape)
    for cutoffs in (None, singles * spread):
        for form in FORMS:
            values = _pair_values(distance, form, queries, items, query_rows, item_rows, cutoffs)
            for at, (value, single) in enumerate(zip(values.tolist(), singles.tolist())):
                bound = np.inf if cutoffs is None else cutoffs[at]
                if single <= bound or value <= bound:
                    assert repr(value) == repr(single), (form, at, cutoffs is None)
                else:
                    assert value > bound, (form, at)


@pytest.mark.parametrize("distance, dim", MATRIX)
def test_block_cells_are_the_single_calls_at_every_shape(distance, dim):
    """Every admissible cell of one sweep is its prefix pair's single call,
    small tables included (no shape is left to another recurrence)."""
    rng = np.random.default_rng(_seed(repr(distance), dim, "block"))
    n, m, first, shift = 36, 35, 2, 2
    query = _stack(distance, rng, 1, n, dim)[0]
    item = _stack(distance, rng, 1, m, dim)[0]
    block = distance.prefix_block(query, item, first, shift, None)
    assert block.rows == n
    for rows in range(first, n + 1):
        for columns in range(max(1, rows - shift), min(m, rows + shift) + 1):
            single = distance.compute_bounded(query[:rows], item[:columns], None)
            assert repr(block.value(rows, columns)) == repr(single), (rows, columns)


# --------------------------------------------------------------------- #
# The provider
# --------------------------------------------------------------------- #


def test_pair_rows_are_validated_before_the_kernel_sees_them():
    provider = kernels()
    stack = np.zeros((3, 4, 1))
    rows = np.array([0, 1, 2])
    for bad in (np.array([0, 1, 3]), np.array([-1, 0, 1])):
        with pytest.raises(IndexError):
            provider.warp_pairs(stack, bad, stack, rows, 0, True, None, None)
        with pytest.raises(IndexError):
            provider.edit_pairs(stack, rows, stack, bad, MODE_LEVENSHTEIN, 0, NO_PARAMS, 0.0, None)
    with pytest.raises(ValueError):
        provider.warp_pairs(stack, rows, stack, rows[:2], 0, True, None, None)
    with pytest.raises(ValueError):
        provider.warp_pairs(stack, rows, np.zeros((3, 4, 2)), rows, 0, True, None, None)
    assert provider.warp_pairs(stack, rows[:0], stack, rows[:0], 0, True, None, None).shape == (0,)


def test_vector_cutoffs_match_per_row_bounded():
    """A per-row cutoff vector must behave as k independent bounded calls."""
    rng = np.random.default_rng(7)
    distance = DTW()
    query = rng.normal(size=(12, 2))
    items = [rng.normal(size=(int(rng.integers(4, 16)), 2)) for _ in range(9)]
    exact = [distance(query, item) for item in items]
    cutoffs = np.asarray([value * factor for value, factor in zip(exact, [0.5, 1.0, 2.0] * 3)])
    values = distance.batch(query, items, cutoffs)
    for value, cutoff, true in zip(values, cutoffs, exact):
        if true <= cutoff:
            assert value == true
        else:
            assert value > cutoff


def test_weighted_params_lay_out_the_cost_table():
    params = weighted_params(0.9, 1.3, 0.6, {(0, 1): 0.3, (2, 2): 0.1})
    assert params.tolist() == [0.9, 1.3, 0.6, 2.0, 0.0, 1.0, 0.3, 2.0, 2.0, 0.1]


def test_weighted_levenshtein_takes_scalar_codes_only():
    with pytest.raises(DistanceError):
        WeightedLevenshtein()(np.zeros((3, 2)), np.zeros((4, 2)))


def test_weighted_codes_compare_as_integers():
    # 1.7 and 1.2 are both code 1, as ``substitution`` reads them.
    distance = WeightedLevenshtein({(1, 1): 0.25})
    assert distance([1.7, 2.0], [1.2, 2.0]) == 0.25
    assert distance.alignment([1.7, 2.0], [1.2, 2.0]).cost == 0.25


@pytest.mark.parametrize("key", [(1.5, 2), (1, float("nan")), (float("inf"), 2), ("a", 2)])
def test_weighted_table_keys_must_be_integer_codes(key):
    with pytest.raises(DistanceError, match="integer symbol codes"):
        WeightedLevenshtein({key: 0.25})


def test_integral_float_keys_are_stored_as_codes():
    distance = WeightedLevenshtein({(1.0, np.int64(2)): 0.25})
    assert list(distance.substitution_costs) == [(1, 2)]
    assert distance([1.0, 5.0], [2.0, 5.0]) == 0.25
    assert distance.alignment([1.0, 5.0], [2.0, 5.0]).cost == 0.25


class TestUnavailableCompiler:
    """:func:`kernels` builds (or loads) the library once per process; the
    tests forget the published provider through ``monkeypatch``, which puts
    it back afterwards."""

    def test_first_kernel_use_raises_configuration_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "empty-cache"))
        monkeypatch.setattr(compiled, "_provider", None)
        with pytest.raises(ConfigurationError, match=r"\$CC.*\bcc\b"):
            DTW()(np.zeros((3, 1)), np.ones((4, 1)))
        with pytest.raises(ConfigurationError):
            kernels()  # a failure is not remembered: every use says so

    def test_a_cached_library_needs_no_compiler(self, monkeypatch, tmp_path):
        kernels()  # the library is built (or already cached)
        monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
        monkeypatch.setattr(compiled, "_provider", None)
        assert DTW()(np.zeros((3, 1)), np.ones((4, 1))) == 4.0

    def test_concurrent_first_uses_share_one_provider(self, monkeypatch):
        monkeypatch.setattr(compiled, "_provider", None)
        seen = []
        barrier = threading.Barrier(4)

        def first_use():
            barrier.wait()
            seen.append(kernels())

        threads = [threading.Thread(target=first_use) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 4 and all(provider is seen[0] for provider in seen)


# --------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------- #


class TestErrors:
    def test_empty_sequences_rejected(self):
        with pytest.raises(DistanceError):
            DTW()(np.zeros((0, 2)), np.ones((3, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(IncompatibleSequencesError):
            DTW()(np.zeros((3, 2)), np.ones((3, 3)))

    def test_equal_length_requirement_enforced_in_batch(self):
        query = np.zeros((4, 1))
        items = [np.ones((4, 1)), np.ones((5, 1))]
        with pytest.raises(IncompatibleSequencesError):
            Euclidean().batch(query, items)

    def test_infeasible_band_raises(self):
        a, b = np.zeros((3, 1)), np.ones((30, 1))
        with pytest.raises(DistanceError):
            DTW(band=1)(a, b)
        assert DTW(band=1).bounded(a, b, 1e9) == np.inf


# --------------------------------------------------------------------- #
# Packed window tensors
# --------------------------------------------------------------------- #


class TestPackedWindowStore:
    def test_groups_by_shape_and_stacks_identically(self):
        rng = np.random.default_rng(3)
        store = PackedWindowStore()
        arrays = {}
        for i in range(12):
            shape = [(4, 2), (6, 2), (4, 3)][i % 3]
            arrays[f"k{i}"] = rng.normal(size=shape)
            store.add(f"k{i}", arrays[f"k{i}"])
        assert set(store.group_shapes()) == {(4, 2), (6, 2), (4, 3)}
        for shape in store.group_shapes():
            keys = store.group_keys(shape)
            tensor = store.group_tensor(shape)
            expected = np.stack([arrays[key] for key in keys])
            assert tensor.flags["C_CONTIGUOUS"]
            assert np.array_equal(tensor, expected)

    def test_duplicate_key_rejected(self):
        store = PackedWindowStore()
        store.add("a", np.zeros((2, 1)))
        with pytest.raises(IndexError_):
            store.add("a", np.ones((2, 1)))

    def test_remove_invalidates_only_its_group(self):
        store = PackedWindowStore()
        store.add("a", np.zeros((2, 1)))
        store.add("b", np.ones((2, 1)))
        store.add("c", np.full((3, 1), 2.0))
        first = store.group_tensor((3, 1))
        store.remove("b")
        assert store.group_keys((2, 1)) == ["a"]
        assert np.array_equal(store.group_tensor((2, 1)), np.zeros((1, 2, 1)))
        assert store.group_tensor((3, 1)) is first  # untouched group stays cached

    def test_add_appends_to_a_stacked_group_in_place(self):
        rng = np.random.default_rng(8)
        store = PackedWindowStore()
        arrays = [rng.normal(size=(3, 2)) for _ in range(40)]
        handed_out = []
        for key, array in enumerate(arrays):
            store.add(key, array)
            tensor = store.group_tensor((3, 2))  # measure-while-inserting
            assert tensor.flags["C_CONTIGUOUS"]
            assert np.array_equal(tensor, np.stack(arrays[: key + 1]))
            handed_out.append((tensor, key + 1))
        # Tensors handed out earlier still show exactly what they showed.
        for tensor, count in handed_out:
            assert np.array_equal(tensor, np.stack(arrays[:count]))
        store.remove(7)
        store.add("late", arrays[7])
        expected = arrays[:7] + arrays[8:] + [arrays[7]]
        assert np.array_equal(store.group_tensor((3, 2)), np.stack(expected))

    def test_store_gather_preserves_positional_order(self):
        rng = np.random.default_rng(5)
        store = PackedWindowStore()
        arrays = [rng.normal(size=(3, 2)) for _ in range(6)]
        for i, arr in enumerate(arrays):
            store.add(i, arr)
        gather = StoreGather(store, [4, 1, 3])
        assert gather.shape_of(0) == (3, 2)
        tensor = gather.gather([0, 1, 2])
        assert np.array_equal(tensor, np.stack([arrays[4], arrays[1], arrays[3]]))


class TestLinearScanPacking:
    def _index(self, rng):
        index = LinearScanIndex(DTW())
        for i in range(40):
            length = 8 if i % 2 else 10
            index.add(rng.normal(size=(length, 2)), key=f"w{i}")
        return index

    def test_packed_sweep_equals_the_unpacked_batch(self):
        rng = np.random.default_rng(9)
        index = self._index(rng)
        items = [index.get(key) for key in index.keys()]
        query = np.random.default_rng(10).normal(size=(9, 2))
        found = index.batch_range_query([query], 12.0)[0]
        values = DTW().batch(query, items, 12.0)
        expected = [
            (key, float(value)) for key, value in zip(index.keys(), values) if value <= 12.0
        ]
        assert [(m.key, m.distance) for m in found] == expected
        assert 0 < len(found) < len(index)

    def test_one_kernel_call_per_shape_group(self):
        index = self._index(np.random.default_rng(13))
        query = np.random.default_rng(14).normal(size=(9, 2))
        mark = index.counter.mark()
        index.batch_range_query([query, query + 1.0], 3.0)
        # Two queries, two window shapes (lengths 8 and 10).
        assert index.counter.since(mark).kernel_calls == 4
        assert index.counter.since(mark).total == 2 * len(index)

    def test_unpackable_item_is_refused(self):
        index = LinearScanIndex(DTW())
        index.add(np.zeros((4, 2)), key="good")
        with pytest.raises(DistanceError):
            index.add("not a sequence", key="bad")
        assert index.keys() == ["good"]
        with pytest.raises(IndexError_):
            index.remove("bad")
        matches = index.range_query(np.zeros((4, 2)), 0.5)
        assert [m.key for m in matches] == ["good"]
