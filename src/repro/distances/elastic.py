"""The two families of elastic distances: warping and edit recurrences.

Every elastic distance in the package fills one of two dynamic-programming
tables:

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
one sweep) and ``alignment`` (a traceback over the table of one full-band
``prefix_block`` sweep) -- on the C kernels of
:mod:`repro.distances.compiled`.  Each recurrence has one sweep there, so
the call forms agree bit for bit, and an alignment's cost is the distance.

A member supplies only its cost model:

* a warping member sets ``element_metric``, ``aggregate`` and ``band``;
* an edit member names its C recurrence (``mode`` and
  :meth:`EditDistance.kernel_args`) and builds the ``substitution`` /
  ``deletion`` / ``insertion`` cost arrays that the traceback of
  :meth:`~EditDistance.alignment` matches its steps against.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.distances.alignment import Alignment, PrefixBlock, edit_traceback, warping_traceback
from repro.distances.base import Distance, ElementMetric, as_array, check_same_dim
from repro.distances.compiled import METRIC_KIND_CODES, NO_PARAMS, kernels
from repro.exceptions import DistanceError


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

    def _warp_args(self) -> tuple:
        return METRIC_KIND_CODES[self.element_metric.kind], self.aggregate == "max", self.band

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self._feasible(self.compute_bounded(first, second, None), None)

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff) -> float:
        """Early-abandoning warping: every row's minimum lower-bounds the result."""
        return kernels().warp_value(first, second, *self._warp_args(), cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        values = kernels().warp_batch(query, items, *self._warp_args(), cutoff)
        return self._feasible(values, cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        args = (*self._warp_args(), cutoff)
        values = kernels().warp_pairs(queries, query_rows, items, item_rows, *args)
        return self._feasible(values, cutoff)

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
        second[:J], cutoff)`` for ``L >= min_rows`` and ``|L - J| <=
        shift``, bit for bit wherever it is at most ``cutoff``: the kernel
        runs the single call's sweep with a band output (the Sakoe-Chiba
        band is absolute, ``|i - j| <= band``, so it is prefix-consistent
        too).  See :class:`PrefixBlock` for abandoned rows.
        """
        block = PrefixBlock(len(first), min_rows, shift, cutoff)
        kernels().warp_block(first, second, *self._warp_args(), cutoff, block)
        return block

    def alignment(self, first, second) -> Alignment:
        """The optimal warping alignment (the coupling sequence C), traced back
        over one full-band :meth:`prefix_block` table; :class:`DistanceError`
        when no warping path fits inside the band."""
        a, b = as_array(first), as_array(second)
        check_same_dim(a, b)
        return warping_traceback(_full_table(self, a, b))


class EditDistance(Distance):
    """The edit family: substitutions, deletions and insertions.

    Members name their C recurrence in ``mode`` and build the three cost
    arrays of the recurrence for :meth:`alignment`: ``(n, dim)`` / ``(m,
    dim)`` operands give ``(n, m)`` substitution costs and ``(n,)`` /
    ``(m,)`` gap costs.  :meth:`insertion` defaults to :meth:`deletion`,
    which defaults to unit costs.  All costs must be non-negative: that is
    what lets every call form abandon once a row's minimum exceeds the
    cutoff.
    """

    is_consistent = True
    supports_unequal_lengths = True
    #: The C recurrence code (``MODE_*`` of :mod:`repro.distances.compiled`).
    mode: int

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
        """``(kind, params, eps)`` of the C recurrence for ``dim``-wide points."""
        return 0, NO_PARAMS, 0.0

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self.compute_bounded(first, second, None)

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff) -> float:
        """Early-abandoning edit distance: costs are non-negative."""
        kind, params, eps = self.kernel_args(first.shape[1])
        return kernels().edit_value(first, second, self.mode, kind, params, eps, cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        kind, params, eps = self.kernel_args(query.shape[1])
        return kernels().edit_batch(query, items, self.mode, kind, params, eps, cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        kind, params, eps = self.kernel_args(queries.shape[2])
        return kernels().edit_pairs(
            queries, query_rows, items, item_rows, self.mode, kind, params, eps, cutoff
        )

    def prefix_block(
        self, first: np.ndarray, second: np.ndarray, min_rows: int, shift: int, cutoff
    ) -> PrefixBlock:
        """The admissible prefix distances of ``first x second``, one sweep.

        The kernel runs the single call's sweep with a band output, so cell
        ``(L, J)`` is ``compute_bounded(first[:L], second[:J], cutoff)``, bit
        for bit wherever it is at most ``cutoff``.  See :class:`PrefixBlock`
        for the layout and abandoned rows.
        """
        block = PrefixBlock(len(first), min_rows, shift, cutoff)
        kind, params, eps = self.kernel_args(first.shape[1])
        kernels().edit_block(first, second, self.mode, kind, params, eps, cutoff, block)
        return block

    def alignment(self, first, second) -> Alignment:
        """One optimal alignment (couplings of matched positions; gaps excluded),
        traced back over one full-band :meth:`prefix_block` table."""
        a, b = as_array(first), as_array(second)
        check_same_dim(a, b)
        return edit_traceback(
            _full_table(self, a, b), self.substitution(a, b), self.deletion(a), self.insertion(b)
        )

    def empty_distance(self, other) -> float:
        """Distance to the empty sequence: every element of ``other`` inserted."""
        return float(np.sum(self.insertion(as_array(other))))


def _full_table(distance: Distance, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The whole DP table of ``first x second``: one uncut sweep over the full band."""
    shift = max(len(first), len(second)) - 1
    return distance.prefix_block(first, second, 1, shift, None).table(len(second))
