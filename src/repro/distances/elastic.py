"""The two families of elastic distances: warping and edit recurrences.

Every elastic distance in the package fills one of two dynamic-programming
tables (:mod:`repro.distances.alignment`):

* the **warping** recurrence couples every element of one sequence with one
  or more elements of the other and aggregates the coupling costs by sum
  (DTW) or maximum (the discrete Fréchet distance), optionally inside a
  Sakoe-Chiba band;
* the **edit** recurrence matches two elements at a substitution cost or
  leaves one unmatched at a deletion / insertion cost (Levenshtein, weighted
  Levenshtein, ERP, EDR).

A family implements every call form once -- :meth:`~Distance.compute` and
:meth:`~Distance.compute_bounded` (one pair), :meth:`~Distance.compute_batch`
(one query against a same-shape stack), :meth:`~Distance.compute_pairs` (the
pair call form), ``prefix_block`` (every admissible prefix pair of one pair,
one sweep) and ``alignment`` -- and picks the kernel tier in one place:
the C kernels of :mod:`repro.distances.compiled` when
:func:`~repro.distances.backend.fused_provider` offers them for the operands'
point width, the NumPy sweeps otherwise.  Single calls stay single calls on
both tiers: the C single-value entry points and the NumPy small-table paths
are several times faster than a batch of one.

A member supplies only its cost model:

* a warping member sets ``element_metric``, ``aggregate`` and ``band``;
* an edit member builds its ``substitution`` / ``deletion`` / ``insertion``
  costs and names its C recurrence (``mode`` and :meth:`EditDistance.kernel_args`);
  ``mode = None`` keeps a member on the NumPy tier.

The cost builders broadcast over leading axes: an ``(n, dim)`` / ``(m, dim)``
pair gives ``(n, m)`` substitution costs, a query against a ``(k, m, dim)``
stack -- one shared ``(n, dim)`` query, or a ``(k, n, dim)`` stack with one
per item -- gives ``(k, n, m)``.  Every cell is the same element-wise
expression in every form, which is what keeps the batch and pair forms
bit-identical row for row.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.distances.alignment import (
    _SMALL_TABLE_CELLS,
    Alignment,
    PrefixBlock,
    batch_edit_distance_value,
    batch_warping_distance,
    edit_distance_value,
    edit_table,
    edit_traceback,
    warping_distance,
    warping_table,
    warping_traceback,
)
from repro.distances.backend import fused_provider
from repro.distances.base import Distance, ElementMetric, as_array, check_same_dim, group_cutoff
from repro.distances.compiled import METRIC_KIND_CODES, NO_GAP
from repro.exceptions import DistanceError

#: DP cells (``pairs x n x m x dim``) one stacked NumPy pair call may
#: materialise: 2 MB per float64 temporary, whatever the level's size.
PAIR_CHUNK_CELLS = 1 << 18


def stacked_pairs(kernel, queries, query_rows, items, item_rows, cutoff) -> np.ndarray:
    """The pair call form on the NumPy tier: ``kernel`` over stacked operands.

    ``kernel(firsts, seconds, cutoff)`` is a batched NumPy kernel that takes
    one first operand per second operand (``(k, n, dim)`` against
    ``(k, m, dim)``).  Pairs are independent rows of such a call, so they
    are gathered and swept in chunks of bounded size; chunking cannot change
    a value.
    """
    count = len(query_rows)
    values = np.empty(count, dtype=np.float64)
    cells = queries.shape[1] * items.shape[1] * queries.shape[2]
    step = max(1, PAIR_CHUNK_CELLS // cells)
    for start in range(0, count, step):
        stop = min(start + step, count)
        values[start:stop] = kernel(
            queries[query_rows[start:stop]],
            items[item_rows[start:stop]],
            group_cutoff(cutoff, slice(start, stop)),
        )
    return values


class WarpingDistance(Distance):
    """The warping family: every element coupled, costs summed or maxed.

    Members set ``element_metric`` (the coupling cost), ``aggregate`` and
    ``band``.  With a band, :meth:`compute` raises :class:`DistanceError`
    when no warping path fits inside it, while :meth:`compute_bounded`
    returns ``inf``: an abandoned computation cannot tell the two apart.
    """

    is_consistent = True
    supports_unequal_lengths = True
    element_metric: ElementMetric
    #: ``"sum"`` (DTW) or ``"max"`` (the bottleneck discrete Fréchet distance).
    aggregate = "sum"
    #: Sakoe-Chiba band half-width; ``None`` means unconstrained warping.
    band: Optional[int] = None

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self._feasible(self.compute_bounded(first, second, None), None)

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff) -> float:
        """Early-abandoning warping: every row's minimum lower-bounds the result."""
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.warp_value(
                first, second, kind, self.aggregate == "max", self.band, cutoff
            )
        cost = self.element_metric.matrix(first, second)
        return warping_distance(cost, self.aggregate, self.band, cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        kernels = fused_provider(query.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            values = kernels.warp_batch(
                query, items, kind, self.aggregate == "max", self.band, cutoff
            )
        else:
            values = self._stacked(query, items, cutoff)
        return self._feasible(values, cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        kernels = fused_provider(queries.shape[2])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            values = kernels.warp_pairs(
                queries, query_rows, items, item_rows, kind, self.aggregate == "max",
                self.band, cutoff,
            )
        else:
            values = stacked_pairs(self._stacked, queries, query_rows, items, item_rows, cutoff)
        return self._feasible(values, cutoff)

    def _stacked(self, queries: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """The NumPy sweep: one shared ``(n, dim)`` query or one per item."""
        cost = self.element_metric.matrix(queries, items)
        return batch_warping_distance(cost, self.aggregate, self.band, cutoff)

    def _feasible(self, values, cutoff):
        if cutoff is None and self.band is not None and np.isinf(values).any():
            raise DistanceError(
                "no warping path fits within the Sakoe-Chiba band; "
                "widen the band or use unconstrained DTW"
            )
        return values

    def prefix_block(
        self, first: np.ndarray, second: np.ndarray, min_rows: int, shift: int, cutoff
    ) -> PrefixBlock:
        """The admissible prefix distances of ``first x second``, one sweep.

        Cell ``(L, J)`` of the block is ``compute_bounded(first[:L],
        second[:J], cutoff)`` bit for bit for ``L >= min_rows`` and ``|L - J|
        <= shift``: both tiers run the single call's sweep with a band output
        (the Sakoe-Chiba band is absolute, ``|i - j| <= band``, so it is
        prefix-consistent too).  See :class:`PrefixBlock` for abandoned rows.
        """
        block = PrefixBlock(len(first), len(second), min_rows, shift, cutoff)
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            kernels.warp_block(
                first, second, kind, self.aggregate == "max", self.band, cutoff, block
            )
        else:
            cost = self.element_metric.matrix(first, second)
            warping_distance(cost, self.aggregate, self.band, cutoff, out=block)
        return block

    def block_serves(self, rows: int, columns: int) -> bool:
        """Whether a prefix block's cell equals the single call for this shape."""
        return True

    def alignment(self, first, second) -> Alignment:
        """The optimal warping alignment (the coupling sequence C)."""
        a = as_array(first)
        b = as_array(second)
        cost = self.element_metric.matrix(a, b)
        table = warping_table(cost, self.aggregate, self.band)
        return warping_traceback(table, cost, self.aggregate)


class EditDistance(Distance):
    """The edit family: substitutions, deletions and insertions.

    Members build the three cost arrays of the recurrence (see the module
    docstring for the shapes); :meth:`insertion` defaults to
    :meth:`deletion`, which defaults to unit costs.  All costs must be
    non-negative: that is what lets every call form abandon once a row's
    minimum exceeds the cutoff.
    """

    is_consistent = True
    supports_unequal_lengths = True
    #: The C recurrence code (``MODE_*`` of :mod:`repro.distances.compiled`);
    #: ``None`` keeps the member on the NumPy tier.
    mode: Optional[int] = None

    @abc.abstractmethod
    def substitution(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Cost of matching each element of ``first`` with each of ``second``."""

    def deletion(self, first: np.ndarray) -> np.ndarray:
        """Cost of leaving each element of ``first`` unmatched."""
        return np.ones(first.shape[:-1], dtype=np.float64)

    def insertion(self, second: np.ndarray) -> np.ndarray:
        """Cost of leaving each element of ``second`` unmatched."""
        return self.deletion(second)

    def kernel_args(self, dim: int) -> tuple:
        """``(kind, gap, eps)`` of the C recurrence for ``dim``-wide points."""
        return 0, NO_GAP, 0.0

    def _costs(self, first: np.ndarray, second: np.ndarray) -> tuple:
        return self.substitution(first, second), self.deletion(first), self.insertion(second)

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self.compute_bounded(first, second, None)

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff) -> float:
        """Early-abandoning edit distance: costs are non-negative."""
        dim = first.shape[1]
        kernels = fused_provider(dim) if self.mode is not None else None
        if kernels is not None:
            kind, gap, eps = self.kernel_args(dim)
            return kernels.edit_value(first, second, self.mode, kind, gap, eps, cutoff)
        return edit_distance_value(*self._costs(first, second), cutoff=cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        dim = query.shape[1]
        kernels = fused_provider(dim) if self.mode is not None else None
        if kernels is not None:
            kind, gap, eps = self.kernel_args(dim)
            return kernels.edit_batch(query, items, self.mode, kind, gap, eps, cutoff)
        return self._stacked(query, items, cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        dim = queries.shape[2]
        kernels = fused_provider(dim) if self.mode is not None else None
        if kernels is not None:
            kind, gap, eps = self.kernel_args(dim)
            return kernels.edit_pairs(
                queries, query_rows, items, item_rows, self.mode, kind, gap, eps, cutoff
            )
        return stacked_pairs(self._stacked, queries, query_rows, items, item_rows, cutoff)

    def _stacked(self, queries: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """The NumPy sweep: one shared ``(n, dim)`` query or one per item."""
        return batch_edit_distance_value(*self._costs(queries, items), cutoff=cutoff)

    def prefix_block(
        self, first: np.ndarray, second: np.ndarray, min_rows: int, shift: int, cutoff
    ) -> PrefixBlock:
        """The admissible prefix distances of ``first x second``, one sweep.

        Both tiers run the reduced-coordinate sweep of the single call with a
        band output, so cell ``(L, J)`` is ``compute_bounded(first[:L],
        second[:J], cutoff)`` bit for bit wherever :meth:`block_serves` holds
        (the single call takes the direct recurrence on small tables).  See
        :class:`PrefixBlock` for the layout and abandoned rows.
        """
        block = PrefixBlock(len(first), len(second), min_rows, shift, cutoff)
        dim = first.shape[1]
        kernels = fused_provider(dim) if self.mode is not None else None
        if kernels is not None:
            kind, gap, eps = self.kernel_args(dim)
            kernels.edit_block(first, second, self.mode, kind, gap, eps, cutoff, block)
        else:
            edit_distance_value(*self._costs(first, second), cutoff=cutoff, out=block)
        return block

    def block_serves(self, rows: int, columns: int) -> bool:
        """Whether a prefix block's cell equals the single call for this shape:
        only above the single call's small-table switch."""
        return rows * columns > _SMALL_TABLE_CELLS

    def alignment(self, first, second) -> Alignment:
        """One optimal alignment (couplings of matched positions; gaps excluded)."""
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        substitution, deletion, insertion = self._costs(a, b)
        table = edit_table(substitution, deletion, insertion)
        return edit_traceback(table, substitution, deletion, insertion)

    def empty_distance(self, other) -> float:
        """Distance to the empty sequence: every element of ``other`` inserted."""
        return float(np.sum(self.insertion(as_array(other))))
