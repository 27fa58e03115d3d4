"""The two elastic families: prefix blocks and where the dispatch lives.

:mod:`repro.distances.elastic` implements every call form once per family
on the C kernels (the call-form matrix is ``test_compiled_kernels.py``).
``prefix_block`` sweeps one pair's table once; each admissible cell it keeps
must be that prefix pair's single call, bit for bit, at every shape and
cutoff, and every row it abandons must be beyond the cutoff.

A structural test keeps the dispatch in the families: no member class
defines a call form, and no member module reaches for the kernels.
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
from repro.distances.elastic import EditDistance, WarpingDistance

MEMBERS = [
    DTW(),
    DTW(band=2),
    DiscreteFrechet(),
    ERP(gap=0.5),
    EDR(epsilon=0.4),
    Levenshtein(),
    WeightedLevenshtein({(0, 1): 0.5, (2, 3): 0.25}, insertion_cost=2.0, deletion_cost=0.5),
]


def _stack(distance, rng, count, length):
    if isinstance(distance, (Levenshtein, WeightedLevenshtein)):
        return rng.integers(0, 4, size=(count, length, 1)).astype(np.float64)
    return rng.normal(size=(count, length, 2))


def _block_shapes(rng):
    """``(n, m, first, shift)``: every admissible pair of the first block is
    a table below 1 024 cells, of the second above it, the third straddles it."""
    return (
        (int(rng.integers(8, 20)), int(rng.integers(8, 20)), int(rng.integers(2, 8)), 1),
        (int(rng.integers(36, 44)), int(rng.integers(36, 44)), 34, 2),
        (int(rng.integers(38, 44)), int(rng.integers(38, 44)), 26, 1),
    )


@pytest.mark.parametrize("distance", MEMBERS, ids=repr)
def test_prefix_block_cells_are_the_single_calls(distance):
    """Every kept cell is ``compute_bounded`` on its prefix pair, bit for bit
    (beyond the cutoff where either is); cells past the table and in
    abandoned rows are ``inf``, and every abandoned row is beyond the cutoff
    in every column."""
    rng = np.random.default_rng(sum(map(ord, repr(distance))))
    abandoned = 0
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
                    assert block.covers(rows, bound)
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


MEMBER_MODULES = sorted({type(distance).__module__ for distance in MEMBERS})


@pytest.mark.parametrize(
    "member", sorted({type(d) for d in MEMBERS}, key=repr), ids=lambda member: member.__name__
)
def test_members_define_no_call_form(member):
    assert issubclass(member, (WarpingDistance, EditDistance))
    forms = {"compute", "compute_bounded", "compute_batch", "compute_pairs", "prefix_block"}
    assert not forms & set(vars(member)), member


@pytest.mark.parametrize("module", MEMBER_MODULES)
def test_member_modules_do_not_dispatch(module):
    source = inspect.getsource(__import__(module, fromlist=["_"]))
    assert "kernels()" not in source
