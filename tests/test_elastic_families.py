"""The call-form matrix over every member of the two elastic families.

:mod:`repro.distances.elastic` implements ``compute``, ``compute_bounded``,
``compute_batch`` and ``compute_pairs`` once per family and picks the kernel
tier there.  Every member, on every tier, in every call form, must return
the NumPy tier's single-call value for every pair: bit for bit for the
bottleneck and the integer-valued recurrences, to rounding for the summed
real costs (DTW, ERP: the batch sweeps associate their sums differently
from the small-table single call).  With a cutoff, a value is exact
whenever it is at most the pair's cutoff and beyond it otherwise.

``prefix_block`` sweeps one pair's table once; each admissible cell it keeps
must be that prefix pair's single call, bit for bit, wherever
``block_serves`` says so.

A structural test keeps the dispatch in the families: no member class
defines a call form, and no member module reaches for the kernel provider.
"""

import inspect

import numpy as np
import pytest

from repro.distances import (
    DTW,
    EDR,
    ERP,
    DiscreteFrechet,
    Levenshtein,
    WeightedLevenshtein,
)
from repro.distances.backend import kernel_scope
from repro.distances.compiled import make_provider
from repro.distances.elastic import EditDistance, WarpingDistance


def _tiers():
    try:
        make_provider("cc")
    except Exception:
        return ["numpy"]
    return ["numpy", "cc"]


MEMBERS = [
    DTW(),
    DTW(band=2),
    DiscreteFrechet(),
    ERP(gap=0.5),
    EDR(epsilon=0.4),
    Levenshtein(),
    # Dyadic costs: every sum is exact, so this member is bit-identical too.
    WeightedLevenshtein({(0, 1): 0.5, (2, 3): 0.25}, insertion_cost=2.0, deletion_cost=0.5),
]

#: Members whose every call form must agree bit for bit.
EXACT = (DiscreteFrechet, EDR, Levenshtein, WeightedLevenshtein)

FORMS = ("compute", "compute_bounded", "compute_batch", "compute_pairs")

#: ``(n, m)`` table shapes: below and above the 1 024-cell small-table switch.
SHAPES = ((9, 11), (33, 35))

QUERIES, ITEMS = 3, 5


def _stack(distance, rng, count, length):
    if isinstance(distance, (Levenshtein, WeightedLevenshtein)):
        return rng.integers(0, 4, size=(count, length, 1)).astype(np.float64)
    return rng.normal(size=(count, length, 2))


def _form_values(distance, form, queries, items, cutoffs):
    """Every ``(query, item)`` pair's value under one call form, query-major."""
    query_rows = np.repeat(np.arange(QUERIES), ITEMS)
    item_rows = np.tile(np.arange(ITEMS), QUERIES)
    if form == "compute_pairs":
        return distance.compute_pairs(queries, query_rows, items, item_rows, cutoffs)
    if form == "compute_batch":
        return np.concatenate([
            distance.compute_batch(
                queries[q], items, None if cutoffs is None else cutoffs[q * ITEMS : (q + 1) * ITEMS]
            )
            for q in range(QUERIES)
        ])  # fmt: skip
    values = []
    for at, (q, x) in enumerate(zip(query_rows, item_rows)):
        if form == "compute":
            values.append(distance.compute(queries[q], items[x]))
        else:
            cutoff = None if cutoffs is None else float(cutoffs[at])
            values.append(distance.compute_bounded(queries[q], items[x], cutoff))
    return np.array(values)


def _assert_matches(distance, values, expected, cutoffs):
    for at, (value, exact) in enumerate(zip(values.tolist(), expected.tolist())):
        if cutoffs is not None and exact > cutoffs[at]:
            assert value > cutoffs[at], (distance, at, value, cutoffs[at])
        elif isinstance(distance, EXACT):
            assert repr(value) == repr(exact), (distance, at)
        else:
            assert value == pytest.approx(exact, rel=0, abs=1e-9), (distance, at)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("tier", _tiers())
@pytest.mark.parametrize("distance", MEMBERS, ids=repr)
def test_every_call_form_returns_the_single_call_value(distance, tier, form):
    rng = np.random.default_rng(sum(map(ord, repr(distance) + form)))
    for n, m in SHAPES:
        queries = _stack(distance, rng, QUERIES, n)
        items = _stack(distance, rng, ITEMS, m)
        with kernel_scope("numpy"):
            expected = _form_values(distance, "compute", queries, items, None)
        with kernel_scope(tier):
            values = _form_values(distance, form, queries, items, None)
            _assert_matches(distance, values, expected, None)
            if form == "compute":
                continue
            cutoffs = expected * rng.uniform(0.5, 1.5, size=expected.shape)
            values = _form_values(distance, form, queries, items, cutoffs)
            _assert_matches(distance, values, expected, cutoffs)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("distance", MEMBERS, ids=repr)
def test_the_tiers_agree_bit_for_bit_per_call_form(distance, form):
    if "cc" not in _tiers():
        pytest.skip("no C compiler available")
    rng = np.random.default_rng(7)
    queries = _stack(distance, rng, QUERIES, 12)
    items = _stack(distance, rng, ITEMS, 13)
    cutoffs = rng.uniform(0.5, 20.0, size=QUERIES * ITEMS)
    for bound in (None, cutoffs):
        if form == "compute" and bound is not None:
            continue
        with kernel_scope("numpy"):
            slow = _form_values(distance, form, queries, items, bound)
        with kernel_scope("cc"):
            fast = _form_values(distance, form, queries, items, bound)
        assert repr(fast.tolist()) == repr(slow.tolist()), (distance, form)


def _block_shapes(rng):
    """``(n, m, first, shift)``: every admissible pair of the first block below
    the 1 024-cell switch, of the second above it, the third straddling it."""
    return (
        (int(rng.integers(8, 20)), int(rng.integers(8, 20)), int(rng.integers(2, 8)), 1),
        (int(rng.integers(36, 44)), int(rng.integers(36, 44)), 34, 2),
        (int(rng.integers(38, 44)), int(rng.integers(38, 44)), 26, 1),
    )


@pytest.mark.parametrize("tier", _tiers())
@pytest.mark.parametrize("distance", MEMBERS, ids=repr)
def test_prefix_block_cells_are_the_single_calls(distance, tier):
    """Every kept cell is ``compute_bounded`` on its prefix pair, bit for bit
    where ``block_serves`` (beyond the cutoff where either is); cells past
    the table and in abandoned rows are ``inf``, and every abandoned row is
    beyond the cutoff in every column."""
    rng = np.random.default_rng(sum(map(ord, repr(distance) + tier)))
    abandoned = 0
    with kernel_scope(tier):
        for n, m, first, shift in _block_shapes(rng):
            query = _stack(distance, rng, 1, n)[0]
            item = _stack(distance, rng, 1, m)[0]
            exact = distance.compute_bounded(query[:first], item[:first], None)
            for cutoff in (None, 0.8 * exact, 1.5 * exact):
                block = distance.prefix_block(query, item, first, shift, cutoff)
                bound = np.inf if cutoff is None else cutoff
                assert block.cells.shape == (n - first + 1, 2 * shift + 1)
                assert 0 <= block.rows <= n
                for rows in range(first, n + 1):
                    for columns in range(rows - shift, rows + shift + 1):
                        value = float(block.cells[rows - first, columns - rows + shift])
                        if not 1 <= columns <= m or rows > block.rows:
                            assert value == np.inf
                            continue
                        assert block.covers(rows, columns, bound)
                        if not distance.block_serves(rows, columns):
                            continue
                        single = distance.compute_bounded(query[:rows], item[:columns], cutoff)
                        assert value == block.value(rows, columns)
                        if single <= bound or value <= bound:
                            assert repr(value) == repr(single), (rows, columns, cutoff)
                for rows in range(block.rows + 1, n + 1):
                    abandoned += 1
                    row = [
                        distance.compute_bounded(query[:rows], item[:j], None)
                        for j in range(1, m + 1)
                    ]
                    assert min(row) > bound, (rows, cutoff)
    assert abandoned


def test_block_serves_only_above_the_edit_small_table_switch():
    assert DTW().block_serves(2, 3) and DiscreteFrechet().block_serves(32, 32)
    assert not ERP().block_serves(32, 32) and Levenshtein().block_serves(32, 33)


MEMBER_MODULES = sorted({type(distance).__module__ for distance in MEMBERS})


@pytest.mark.parametrize(
    "member", sorted({type(d) for d in MEMBERS}, key=repr), ids=lambda member: member.__name__
)
def test_members_define_no_call_form(member):
    assert issubclass(member, (WarpingDistance, EditDistance))
    assert not {*FORMS, "prefix_block", "block_serves"} & set(vars(member)), member


@pytest.mark.parametrize("module", MEMBER_MODULES)
def test_member_modules_do_not_dispatch(module):
    source = inspect.getsource(__import__(module, fromlist=["_"]))
    assert "fused_provider(" not in source
