"""Dynamic Time Warping (DTW).

DTW aligns two sequences by warping the time axis so that each element of one
sequence is coupled with one or more elements of the other, minimising the
sum of coupling costs.  The paper shows DTW is *consistent* (Section 4) but
points out that it is **not a metric** -- it violates the triangle
inequality -- so the metric indexes of :mod:`repro.indexing` refuse it.  It
can still be used with the segmentation filter via a linear scan, and is
included here both for completeness and as a baseline distance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distances.alignment import (
    Alignment,
    batch_warping_distance,
    warping_distance,
    warping_table,
    warping_traceback,
)
from repro.distances.backend import fused_provider
from repro.distances.base import (
    Distance,
    ElementMetric,
    as_array,
    check_same_dim,
    stacked_pairs,
)
from repro.distances.compiled import METRIC_KIND_CODES
from repro.exceptions import DistanceError


class DTW(Distance):
    """Dynamic time warping with an optional Sakoe-Chiba band.

    Parameters
    ----------
    element_metric:
        Ground distance between individual elements (default Euclidean).
    band:
        Optional Sakoe-Chiba band half-width; ``None`` means unconstrained
        warping.  A band of 0 degenerates to the (rescaled) lockstep
        distance for equal-length inputs.
    """

    name = "dtw"
    is_metric = False
    is_consistent = True
    supports_unequal_lengths = True

    def __init__(
        self,
        element_metric: Optional[ElementMetric] = None,
        band: Optional[int] = None,
    ) -> None:
        if band is not None and band < 0:
            raise DistanceError(f"band must be non-negative, got {band}")
        self.element_metric = element_metric or ElementMetric("euclidean")
        self.band = band

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            value = kernels.warp_value(first, second, kind, False, self.band, None)
        else:
            cost = self.element_metric.matrix(first, second)
            value = warping_distance(cost, aggregate="sum", band=self.band)
        if np.isinf(value):
            raise DistanceError(
                "no warping path fits within the Sakoe-Chiba band; "
                "widen the band or use unconstrained DTW"
            )
        return value

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff: float) -> float:
        """Early-abandoning DTW: ``inf`` once a table row exceeds ``cutoff``.

        Note that with a band configured an infeasible alignment also yields
        ``inf`` here (instead of the error :meth:`compute` raises), because
        the abandoned computation cannot tell the two apart.
        """
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.warp_value(first, second, kind, False, self.band, cutoff)
        cost = self.element_metric.matrix(first, second)
        return warping_distance(cost, aggregate="sum", band=self.band, cutoff=cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """Batched DTW: one cost tensor, one row sweep for the whole group."""
        kernels = fused_provider(query.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            values = kernels.warp_batch(query, items, kind, False, self.band, cutoff)
        else:
            values = self._stacked(query, items, cutoff)
        return self._checked_feasible(values, cutoff)

    def _stacked(self, queries: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """The NumPy sweep: one shared ``(n, dim)`` query or one per item."""
        cost = self.element_metric.matrix_batch(queries, items)
        return batch_warping_distance(cost, aggregate="sum", band=self.band, cutoff=cutoff)

    def _checked_feasible(self, values: np.ndarray, cutoff) -> np.ndarray:
        if cutoff is None and self.band is not None and np.isinf(values).any():
            raise DistanceError(
                "no warping path fits within the Sakoe-Chiba band; "
                "widen the band or use unconstrained DTW"
            )
        return values

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        """Pair-form DTW: the batch kernel per pair, one call for all of them."""
        kernels = fused_provider(queries.shape[2])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            values = kernels.warp_pairs(
                queries, query_rows, items, item_rows, kind, False, self.band, cutoff
            )
        else:
            values = stacked_pairs(self._stacked, queries, query_rows, items, item_rows, cutoff)
        return self._checked_feasible(values, cutoff)

    def alignment(self, first, second) -> Alignment:
        """Return the optimal warping alignment (the coupling sequence C)."""
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        cost = self.element_metric.matrix(a, b)
        table = warping_table(cost, aggregate="sum", band=self.band)
        return warping_traceback(table, cost, aggregate="sum")

    def lower_bound(self, first, second) -> float:
        """LB_Kim-style bound: cost of coupling the two endpoints.

        The first elements of both sequences must be coupled, and so must
        the last elements, so the sum of those two ground distances can
        never exceed the DTW cost.
        """
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        start = self.element_metric.single(a[0], b[0])
        end = self.element_metric.single(a[-1], b[-1])
        return float(start + end)

    def __repr__(self) -> str:
        return f"DTW(element_metric={self.element_metric!r}, band={self.band})"
