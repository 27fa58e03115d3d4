"""ERP: Edit distance with Real Penalty (Chen & Ng, VLDB 2004).

ERP marries the L1 family with the edit distance: elements may be matched
(paying their ground distance) or left unmatched (paying the ground distance
to a fixed *gap element* ``g``).  Because the gap penalty is anchored to a
constant element, ERP satisfies the triangle inequality -- unlike DTW -- and
the paper uses it as one of the two time-series metrics driving the
experiments (SONGS/ERP, TRAJ/ERP).
"""

from __future__ import annotations

from typing import Optional, Sequence as TypingSequence, Union

import numpy as np

from repro.distances.alignment import (
    Alignment,
    batch_edit_distance_value,
    edit_distance_value,
    edit_table,
    edit_traceback,
)
from repro.distances.backend import fused_provider
from repro.distances.base import (
    Distance,
    ElementMetric,
    as_array,
    check_same_dim,
    stacked_pairs,
)
from repro.distances.compiled import METRIC_KIND_CODES, MODE_ERP
from repro.exceptions import DistanceError


class ERP(Distance):
    """Edit distance with Real Penalty.

    Parameters
    ----------
    gap:
        The gap element ``g``.  A scalar is broadcast to the element
        dimensionality at computation time; the conventional (and default)
        choice is the origin, which is what makes ERP a metric.
    element_metric:
        Ground distance between elements; the original definition uses the
        L1 norm, but any element metric keeps ERP a metric as long as the
        gap element is fixed.
    """

    name = "erp"
    is_metric = True
    is_consistent = True
    supports_unequal_lengths = True

    def __init__(
        self,
        gap: Union[float, TypingSequence[float]] = 0.0,
        element_metric: Optional[ElementMetric] = None,
    ) -> None:
        self.gap = np.atleast_1d(np.asarray(gap, dtype=np.float64))
        if self.gap.ndim != 1:
            raise DistanceError("the ERP gap element must be a scalar or a 1-D vector")
        self.element_metric = element_metric or ElementMetric("euclidean")

    def _gap_vector(self, dim: int) -> np.ndarray:
        if self.gap.shape[0] == dim:
            return self.gap
        if self.gap.shape[0] == 1:
            return np.full(dim, float(self.gap[0]), dtype=np.float64)
        raise DistanceError(
            f"gap element has dimension {self.gap.shape[0]} but elements have dimension {dim}"
        )

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self.compute_bounded(first, second, None)

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff) -> float:
        """Early-abandoning ERP: gap and match costs are all non-negative."""
        gap = self._gap_vector(first.shape[1])
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.edit_value(first, second, MODE_ERP, kind, gap, 0.0, cutoff)
        substitution = self.element_metric.matrix(first, second)
        deletion = self.element_metric.to_origin(first, gap)
        insertion = self.element_metric.to_origin(second, gap)
        return edit_distance_value(substitution, deletion, insertion, cutoff=cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """Batched ERP: shared query-side gap costs, per-item insertion costs."""
        kernels = fused_provider(query.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            gap = self._gap_vector(query.shape[1])
            return kernels.edit_batch(query, items, MODE_ERP, kind, gap, 0.0, cutoff)
        return self._stacked(query, items, cutoff)

    def _stacked(self, queries: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """The NumPy sweep: one shared ``(n, dim)`` query or one per item."""
        gap = self._gap_vector(items.shape[2])
        substitution = self.element_metric.matrix_batch(queries, items)
        if queries.ndim == 2:
            deletion = self.element_metric.to_origin(queries, gap)
        else:
            deletion = self.element_metric.to_origin_batch(queries, gap)
        insertion = self.element_metric.to_origin_batch(items, gap)
        return batch_edit_distance_value(substitution, deletion, insertion, cutoff=cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        """Pair-form ERP: the batch kernel per pair, one call for all of them."""
        kernels = fused_provider(queries.shape[2])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            gap = self._gap_vector(queries.shape[2])
            return kernels.edit_pairs(
                queries, query_rows, items, item_rows, MODE_ERP, kind, gap, 0.0, cutoff
            )
        return stacked_pairs(self._stacked, queries, query_rows, items, item_rows, cutoff)

    def alignment(self, first, second) -> Alignment:
        """Return one optimal ERP alignment (gap operations excluded)."""
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        gap = self._gap_vector(a.shape[1])
        substitution = self.element_metric.matrix(a, b)
        deletion = self.element_metric.to_origin(a, gap)
        insertion = self.element_metric.to_origin(b, gap)
        table = edit_table(substitution, deletion, insertion)
        return edit_traceback(table, substitution, deletion, insertion)

    def empty_distance(self, other) -> float:
        """ERP against the empty sequence: every element pays its gap cost."""
        values = as_array(other)
        gap = self._gap_vector(values.shape[1])
        return float(np.sum(self.element_metric.to_origin(values, gap)))

    def lower_bound(self, first, second) -> float:
        """| sum-to-gap(first) - sum-to-gap(second) | (Chen & Ng's bound).

        The total ERP cost of a sequence against the empty sequence is the
        sum of element distances to the gap element; the difference of the
        two totals lower-bounds the true ERP distance.
        """
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        gap = self._gap_vector(a.shape[1])
        total_a = float(np.sum(self.element_metric.to_origin(a, gap)))
        total_b = float(np.sum(self.element_metric.to_origin(b, gap)))
        return abs(total_a - total_b)

    def __repr__(self) -> str:
        return f"ERP(gap={self.gap.tolist()}, element_metric={self.element_metric!r})"
