"""EDR: Edit Distance on Real sequences (extension distance).

EDR treats two real-valued elements as "equal" when they fall within a
matching threshold ``epsilon`` of each other, and then counts edit
operations exactly like the Levenshtein distance.  It is robust to noise
and outliers but **not a metric** (the thresholding breaks the triangle
inequality), so it is provided as an extension usable with the linear-scan
path of the framework only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distances.alignment import batch_edit_distance_value, edit_distance_value
from repro.distances.backend import fused_provider
from repro.distances.base import Distance, ElementMetric, stacked_pairs
from repro.distances.compiled import METRIC_KIND_CODES, MODE_EDR, NO_GAP
from repro.exceptions import DistanceError


class EDR(Distance):
    """Edit Distance on Real sequences.

    Parameters
    ----------
    epsilon:
        Matching threshold: elements at ground distance <= ``epsilon`` match
        at cost 0, otherwise substitution costs 1.
    element_metric:
        Ground distance used for the threshold test.
    """

    name = "edr"
    is_metric = False
    is_consistent = True
    supports_unequal_lengths = True

    def __init__(self, epsilon: float = 0.5, element_metric: Optional[ElementMetric] = None) -> None:
        if epsilon < 0:
            raise DistanceError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = float(epsilon)
        self.element_metric = element_metric or ElementMetric("euclidean")

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self.compute_bounded(first, second, None)

    def compute_bounded(
        self, first: np.ndarray, second: np.ndarray, cutoff: Optional[float]
    ) -> float:
        """Early-abandoning EDR: all edit operations cost 0 or 1."""
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.edit_value(
                first, second, MODE_EDR, kind, NO_GAP, self.epsilon, cutoff
            )
        ground = self.element_metric.matrix(first, second)
        substitution = (ground > self.epsilon).astype(np.float64)
        deletion = np.ones(first.shape[0], dtype=np.float64)
        insertion = np.ones(second.shape[0], dtype=np.float64)
        return edit_distance_value(substitution, deletion, insertion, cutoff=cutoff)

    def empty_distance(self, other) -> float:
        """EDR against the empty sequence: one unit-cost insertion per element."""
        from repro.distances.base import as_array

        return float(as_array(other).shape[0])

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """Batched EDR: threshold the batched ground tensor, one row sweep."""
        kernels = fused_provider(query.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.edit_batch(
                query, items, MODE_EDR, kind, NO_GAP, self.epsilon, cutoff
            )
        return self._stacked(query, items, cutoff)

    def _stacked(self, queries: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """The NumPy sweep: one shared ``(n, dim)`` query or one per item."""
        ground = self.element_metric.matrix_batch(queries, items)
        substitution = (ground > self.epsilon).astype(np.float64)
        deletion = np.ones(queries.shape[-2], dtype=np.float64)
        insertion = np.ones((items.shape[0], items.shape[1]), dtype=np.float64)
        return batch_edit_distance_value(substitution, deletion, insertion, cutoff=cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        """Pair-form EDR: the batch kernel per pair, one call for all of them."""
        kernels = fused_provider(queries.shape[2])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.edit_pairs(
                queries, query_rows, items, item_rows, MODE_EDR, kind, NO_GAP, self.epsilon, cutoff
            )
        return stacked_pairs(self._stacked, queries, query_rows, items, item_rows, cutoff)

    def __repr__(self) -> str:
        return f"EDR(epsilon={self.epsilon}, element_metric={self.element_metric!r})"
