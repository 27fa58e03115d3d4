"""The compiled kernel tier must be value-exact against the NumPy oracle.

The C kernels (``cc``, wherever a C compiler exists) are compared against
the NumPy tier -- and, through it, against the retained cell-by-cell
references of ``kernel_reference.py`` -- for every elastic distance and every
call form (unbounded value, bounded value, batch with scalar and per-row
cutoff vectors).  Equality is exact (``==``), not approximate: identical
values are what keep results, work counters, caches, and replay logs
byte-identical across backends.

Also covered here: backend selection (env default, scopes, fallbacks,
configuration errors), the fused-dispatch dimensionality guard, the packed
window-tensor store behind the linear scan.
"""

import zlib

import numpy as np
import pytest

from repro.core.config import MatcherConfig
from repro.distances import DTW, EDR, ERP, DiscreteFrechet, Levenshtein
from repro.distances import backend as backend_module
from repro.distances.backend import (
    KNOWN_KERNELS,
    active_kernel_name,
    fused_provider,
    kernel_scope,
    resolve_kernel,
)
from repro.distances.compiled import (
    MAX_FUSED_DIM,
    METRIC_KIND_CODES,
    MODE_EDR,
    MODE_ERP,
    MODE_LEVENSHTEIN,
    NO_GAP,
    fusable_dim,
    make_provider,
)
from repro.distances.base import ElementMetric
from kernel_reference import reference_edit_table, reference_warping_table
from repro.exceptions import (
    ConfigurationError,
    DistanceError,
    IncompatibleSequencesError,
    IndexError_,
)
from repro.indexing.linear_scan import LinearScanIndex
from repro.sequences.packed import PackedWindowStore, StoreGather


def _provider_or_skip(name):
    try:
        return make_provider(name)
    except Exception as error:
        pytest.skip(f"provider {name!r} unavailable: {error!r}")


def _cc_available():
    try:
        make_provider("cc")
    except Exception:
        return False
    return True


PROVIDER_NAMES = ["cc"]

#: The tiers this machine runs: NumPy always, the C kernels given a compiler.
KERNELS = ["numpy", "cc"] if _cc_available() else ["numpy"]

requires_cc = pytest.mark.skipif(not _cc_available(), reason="no C compiler available")

# One representative configuration per distance family: additive warping,
# banded warping, bottleneck warping, and each edit-recurrence mode.
DISTANCES = [
    DTW(),
    DTW(band=3),
    DTW(element_metric=ElementMetric("manhattan")),
    DiscreteFrechet(),
    ERP(gap=0.25),
    EDR(epsilon=0.4),
    Levenshtein(),
]

# Point widths the fused element costs cover: a single coordinate, the
# planar case, an odd width, and the widest point the C kernels still take
# (``MAX_FUSED_DIM``: one more and NumPy's pairwise summation starts).
POINT_DIMS = [1, 2, 3, MAX_FUSED_DIM]


def _case_seed(*parts):
    """A per-case RNG seed that is the same in every process (``hash`` of a
    ``str`` is not: it is salted per interpreter, which made these tests draw
    different data -- and occasionally fail -- from run to run)."""
    return zlib.crc32(repr(parts).encode("utf-8"))


def _operands_for(distance, rng, shape):
    """Random operands of ``shape``: alphabet-style integers for the edit
    measure that compares elements for identity, real points otherwise."""
    if isinstance(distance, Levenshtein):
        return rng.integers(0, 4, size=shape).astype(np.float64)
    return rng.normal(size=shape)


def _pair_for(distance, rng, dim=2, max_len=30):
    n = int(rng.integers(1, max_len))
    m = int(rng.integers(1, max_len))
    return _operands_for(distance, rng, (n, dim)), _operands_for(distance, rng, (m, dim))


def _random_pair(rng, dim=2, max_len=30):
    """Two real-valued point sequences of random lengths."""
    return _pair_for(None, rng, dim, max_len)


# --------------------------------------------------------------------- #
# Distance-level equivalence: every provider == the NumPy tier, exactly
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("dim", POINT_DIMS)
@pytest.mark.parametrize("provider_name", PROVIDER_NAMES)
@pytest.mark.parametrize("distance", DISTANCES, ids=lambda d: repr(d))
def test_value_and_bounded_match_numpy_exactly(provider_name, distance, dim):
    _provider_or_skip(provider_name)
    rng = np.random.default_rng(_case_seed(provider_name, repr(distance), dim))
    for trial in range(20):
        a, b = _pair_for(distance, rng, dim)
        with kernel_scope("numpy"):
            try:
                expected = distance(a, b)
            except DistanceError:
                expected = None  # band infeasible
        with kernel_scope(provider_name):
            if expected is None:
                with pytest.raises(DistanceError):
                    distance(a, b)
                continue
            assert distance(a, b) == expected
            # Cutoff above, exactly at, and below the true value: the
            # bounded contract demands exactness at or below the cutoff
            # and any value strictly above it otherwise.
            for cutoff in (expected + 1.0, expected):
                with kernel_scope("numpy"):
                    reference = distance.bounded(a, b, cutoff)
                assert distance.bounded(a, b, cutoff) == reference
                assert reference == expected
            if expected > 0:
                below = distance.bounded(a, b, expected * 0.5)
                assert below > expected * 0.5


@pytest.mark.parametrize("dim", POINT_DIMS)
@pytest.mark.parametrize("provider_name", PROVIDER_NAMES)
@pytest.mark.parametrize("distance", DISTANCES, ids=lambda d: repr(d))
def test_batch_matches_numpy_exactly(provider_name, distance, dim):
    _provider_or_skip(provider_name)
    rng = np.random.default_rng(_case_seed(provider_name, repr(distance), 1, dim))
    for trial in range(10):
        query, _ = _pair_for(distance, rng, dim)
        k = int(rng.integers(1, 8))
        length = int(rng.integers(1, 25))
        if distance.supports_unequal_lengths:
            pass
        else:
            length = query.shape[0]
        items = _operands_for(distance, rng, (k, length, dim))
        for cutoff in (None, 1.0, rng.uniform(0.5, 4.0, size=k)):
            with kernel_scope("numpy"):
                try:
                    expected = distance.batch(query, list(items), cutoff)
                except DistanceError:
                    expected = None
            with kernel_scope(provider_name):
                if expected is None:
                    with pytest.raises(DistanceError):
                        distance.batch(query, list(items), cutoff)
                    continue
                got = distance.batch(query, list(items), cutoff)
            assert np.array_equal(got, expected), (trial, cutoff)


@pytest.mark.parametrize("dim", POINT_DIMS)
@pytest.mark.parametrize("provider_name", PROVIDER_NAMES)
@pytest.mark.parametrize("distance", DISTANCES, ids=lambda d: repr(d))
def test_pairs_match_numpy_batch_rows_exactly(provider_name, distance, dim):
    """The pair call form is the batch form per pair, on every provider.

    Small tables on purpose: below 1024 cells a *single* edit-distance value
    takes the direct recurrence, but a pair must run the reduced-coordinate
    sweep like a batch row -- and refill the deletion costs whenever the
    query row changes.
    """
    _provider_or_skip(provider_name)
    rng = np.random.default_rng(_case_seed(provider_name, repr(distance), 2, dim))
    for trial in range(8):
        n, m = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        queries = _operands_for(distance, rng, (5, n, dim))
        items = _operands_for(distance, rng, (6, m, dim))
        count = int(rng.integers(1, 20))
        query_rows = np.sort(rng.integers(0, 5, size=count))
        item_rows = rng.integers(0, 6, size=count)
        for cutoff in (None, 1.0, rng.uniform(0.5, 4.0, size=count)):
            expected = np.empty(count)
            failed = False
            with kernel_scope("numpy"):
                for position, (q, x) in enumerate(zip(query_rows, item_rows)):
                    row_cutoff = cutoff if np.ndim(cutoff) == 0 else cutoff[position : position + 1]
                    try:
                        expected[position] = distance.compute_batch(
                            queries[q], items[x : x + 1], row_cutoff
                        )[0]
                    except DistanceError:
                        failed = True  # band infeasible
            for name in (provider_name, "numpy"):
                with kernel_scope(name):
                    if failed:
                        with pytest.raises(DistanceError):
                            distance.compute_pairs(queries, query_rows, items, item_rows, cutoff)
                        continue
                    got = distance.compute_pairs(queries, query_rows, items, item_rows, cutoff)
                assert np.array_equal(got, expected), (name, trial, cutoff)


@pytest.mark.parametrize("provider_name", PROVIDER_NAMES)
def test_pair_rows_are_validated_before_the_kernel_sees_them(provider_name):
    provider = _provider_or_skip(provider_name)
    stack = np.zeros((3, 4, 1))
    rows = np.array([0, 1, 2])
    for bad in (np.array([0, 1, 3]), np.array([-1, 0, 1])):
        with pytest.raises(IndexError):
            provider.warp_pairs(stack, bad, stack, rows, 0, True, None, None)
        with pytest.raises(IndexError):
            provider.edit_pairs(stack, rows, stack, bad, MODE_LEVENSHTEIN, 0, NO_GAP, 0.0, None)
    with pytest.raises(ValueError):
        provider.warp_pairs(stack, rows, stack, rows[:2], 0, True, None, None)
    with pytest.raises(ValueError):
        provider.warp_pairs(stack, rows, np.zeros((3, 4, 2)), rows, 0, True, None, None)
    assert provider.warp_pairs(stack, rows[:0], stack, rows[:0], 0, True, None, None).shape == (0,)


@pytest.mark.parametrize("provider_name", PROVIDER_NAMES)
def test_vector_cutoffs_match_per_row_bounded(provider_name):
    """A per-row cutoff vector must behave as k independent bounded calls."""
    _provider_or_skip(provider_name)
    rng = np.random.default_rng(7)
    distance = DTW()
    query = rng.normal(size=(12, 2))
    items = [rng.normal(size=(int(rng.integers(4, 16)), 2)) for _ in range(9)]
    with kernel_scope(provider_name):
        exact = [distance(query, item) for item in items]
        cutoffs = np.asarray(
            [value * factor for value, factor in zip(exact, [0.5, 1.0, 2.0] * 3)]
        )
        # Batch computes per shape group internally; compare row by row
        # against the scalar bounded path with that row's threshold.
        values = distance.batch(query, items, cutoffs)
        for value, item, cutoff, true in zip(values, items, cutoffs, exact):
            if true <= cutoff:
                assert value == true
            else:
                assert value > cutoff


# --------------------------------------------------------------------- #
# Provider-level equivalence against the retained scalar references
# --------------------------------------------------------------------- #


#: The element metrics whose costs the C kernels compute themselves.
POINT_METRICS = ["euclidean", "manhattan"]


@pytest.mark.parametrize("kind", POINT_METRICS)
@pytest.mark.parametrize("provider_name", PROVIDER_NAMES)
@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("band", [None, 0, 2, 50])
def test_warp_value_matches_reference_table(provider_name, use_max, band, kind):
    provider = _provider_or_skip(provider_name)
    rng = np.random.default_rng(_case_seed(provider_name, use_max, band, kind))
    metric = ElementMetric(kind)
    for trial in range(10):
        q, x = _random_pair(rng, dim=2, max_len=20)
        cost = metric.matrix(q, x)
        aggregate = "max" if use_max else "sum"
        expected = reference_warping_table(cost, aggregate, band)[-1, -1]
        got = provider.warp_value(q, x, METRIC_KIND_CODES[kind], use_max, band, None)
        if np.isinf(expected):
            assert np.isinf(got)
        else:
            assert got == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("kind", POINT_METRICS)
@pytest.mark.parametrize("provider_name", PROVIDER_NAMES)
@pytest.mark.parametrize("mode", [MODE_LEVENSHTEIN, MODE_ERP, MODE_EDR])
def test_edit_value_matches_reference_table(provider_name, mode, kind):
    provider = _provider_or_skip(provider_name)
    rng = np.random.default_rng(_case_seed(provider_name, mode, kind))
    metric = ElementMetric(kind)
    eps = 0.4
    for trial in range(10):
        q, x = _random_pair(rng, dim=2, max_len=20)
        if mode == MODE_LEVENSHTEIN:
            sub = (metric.matrix(q, x) > 0).astype(np.float64)
            deletion = np.ones(len(q))
            insertion = np.ones(len(x))
            gap = NO_GAP
        elif mode == MODE_ERP:
            gap = np.asarray([0.25, 0.25])
            sub = metric.matrix(q, x)
            deletion = metric.to_origin(q, gap)
            insertion = metric.to_origin(x, gap)
        else:
            sub = (metric.matrix(q, x) > eps).astype(np.float64)
            deletion = np.ones(len(q))
            insertion = np.ones(len(x))
            gap = NO_GAP
        expected = reference_edit_table(sub, deletion, insertion)[-1, -1]
        got = provider.edit_value(q, x, mode, METRIC_KIND_CODES[kind], gap, eps, None)
        assert got == pytest.approx(expected, abs=1e-9)


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_numpy_scope_disables_fused_dispatch(self):
        with kernel_scope("numpy"):
            assert fused_provider(2) is None
            assert active_kernel_name() == "numpy"

    @requires_cc
    def test_cc_scope_reports_its_name(self):
        with kernel_scope("cc"):
            assert active_kernel_name() == "cc"
            assert fused_provider(2) is not None

    @requires_cc
    def test_scopes_nest_innermost_wins(self):
        with kernel_scope("cc"):
            with kernel_scope("numpy"):
                assert active_kernel_name() == "numpy"
            assert active_kernel_name() == "cc"

    @requires_cc
    def test_dimension_guard(self):
        assert fusable_dim(MAX_FUSED_DIM)
        assert not fusable_dim(MAX_FUSED_DIM + 1)
        with kernel_scope("cc"):
            assert fused_provider(MAX_FUSED_DIM + 1) is None

    @requires_cc
    def test_wide_points_fall_back_but_stay_exact(self):
        rng = np.random.default_rng(11)
        dim = MAX_FUSED_DIM + 3
        a, b = rng.normal(size=(9, dim)), rng.normal(size=(14, dim))
        distance = DTW()
        with kernel_scope("numpy"):
            expected = distance(a, b)
        with kernel_scope("cc"):
            assert distance(a, b) == expected

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel("fortran")

    def test_auto_never_raises(self):
        resolve_kernel("auto")  # any outcome but an exception is fine

    def test_unavailable_cc_raises(self, monkeypatch):
        monkeypatch.setitem(backend_module._provider_cache, "cc", None)
        with pytest.raises(ConfigurationError):
            resolve_kernel("cc")

    def test_auto_falls_back_silently(self, monkeypatch):
        monkeypatch.setitem(backend_module._provider_cache, "cc", None)
        assert resolve_kernel("auto") is None

    def test_config_validates_kernel_names(self):
        for name in KNOWN_KERNELS:
            assert MatcherConfig(min_length=4, kernel=name).kernel == name
        with pytest.raises(ConfigurationError):
            MatcherConfig(min_length=4, kernel="fortran")

    def test_config_reads_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert MatcherConfig(min_length=4).kernel == "numpy"
        monkeypatch.delenv("REPRO_KERNEL")
        assert MatcherConfig(min_length=4).kernel == "auto"


# --------------------------------------------------------------------- #
# Error behaviour must not depend on the backend
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kernel", KERNELS)
class TestErrorsAcrossBackends:
    def test_empty_sequences_rejected(self, kernel):
        with kernel_scope(kernel):
            with pytest.raises(DistanceError):
                DTW()(np.zeros((0, 2)), np.ones((3, 2)))

    def test_dimension_mismatch_rejected(self, kernel):
        with kernel_scope(kernel):
            with pytest.raises(IncompatibleSequencesError):
                DTW()(np.zeros((3, 2)), np.ones((3, 3)))

    def test_equal_length_requirement_enforced_in_batch(self, kernel):
        from repro.distances import Euclidean

        query = np.zeros((4, 1))
        items = [np.ones((4, 1)), np.ones((5, 1))]
        with kernel_scope(kernel):
            with pytest.raises(IncompatibleSequencesError):
                Euclidean().batch(query, items)

    def test_infeasible_band_raises(self, kernel):
        a, b = np.zeros((3, 1)), np.ones((30, 1))
        with kernel_scope(kernel):
            with pytest.raises(DistanceError):
                DTW(band=1)(a, b)


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
    def _index(self, rng, kernel="numpy"):
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
        for kernel in KERNELS:
            with kernel_scope(kernel):
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
        for kernel in KERNELS:
            with kernel_scope(kernel):
                index.counter.checkpoint()
                index.batch_range_query([query, query + 1.0], 3.0)
            # Two queries, two window shapes (lengths 8 and 10).
            assert index.counter.kernel_calls_since_checkpoint() == 4
            assert index.counter.since_checkpoint() == 2 * len(index)

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
