"""The discrete Fréchet distance (DFD).

The discrete Fréchet distance is the bottleneck analogue of DTW: it selects
the warping alignment whose *maximum* coupling cost is smallest ("the
shortest leash that lets a person and a dog walk their curves").  Eiter &
Mannila's dynamic program computes it in ``O(nm)``.  DFD is a metric and is
consistent (Section 4 of the paper); it is one of the two time-series
metrics used in the experiments (SONGS/DFD, TRAJ/DFD).
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


class DiscreteFrechet(Distance):
    """Discrete Fréchet distance with a pluggable element metric.

    Metric: yes (when the element metric is a metric).  Consistent: yes --
    restricting the optimal alignment to a subsequence can only lower its
    maximum coupling cost.
    """

    name = "frechet"
    is_metric = True
    is_consistent = True
    supports_unequal_lengths = True

    def __init__(self, element_metric: Optional[ElementMetric] = None) -> None:
        self.element_metric = element_metric or ElementMetric("euclidean")

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.warp_value(first, second, kind, True, None, None)
        cost = self.element_metric.matrix(first, second)
        return warping_distance(cost, aggregate="max")

    def compute_bounded(self, first: np.ndarray, second: np.ndarray, cutoff: float) -> float:
        """Early-abandoning DFD: every row's minimum lower-bounds the result."""
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.warp_value(first, second, kind, True, None, cutoff)
        cost = self.element_metric.matrix(first, second)
        return warping_distance(cost, aggregate="max", cutoff=cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """Batched DFD: the doubling-scan row sweep over the whole group."""
        kernels = fused_provider(query.shape[1])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.warp_batch(query, items, kind, True, None, cutoff)
        return self._stacked(query, items, cutoff)

    def _stacked(self, queries: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """The NumPy sweep: one shared ``(n, dim)`` query or one per item."""
        cost = self.element_metric.matrix_batch(queries, items)
        return batch_warping_distance(cost, aggregate="max", cutoff=cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        """Pair-form DFD: the batch kernel per pair, one call for all of them."""
        kernels = fused_provider(queries.shape[2])
        if kernels is not None:
            kind = METRIC_KIND_CODES[self.element_metric.kind]
            return kernels.warp_pairs(
                queries, query_rows, items, item_rows, kind, True, None, cutoff
            )
        return stacked_pairs(self._stacked, queries, query_rows, items, item_rows, cutoff)

    def alignment(self, first, second) -> Alignment:
        """Return the optimal bottleneck alignment."""
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        cost = self.element_metric.matrix(a, b)
        table = warping_table(cost, aggregate="max")
        return warping_traceback(table, cost, aggregate="max")

    def lower_bound(self, first, second) -> float:
        """max(d(first[0], second[0]), d(first[-1], second[-1])).

        Both endpoint couplings are mandatory, and DFD takes the maximum over
        couplings, so neither endpoint cost can exceed the distance.
        """
        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        start = self.element_metric.single(a[0], b[0])
        end = self.element_metric.single(a[-1], b[-1])
        return float(max(start, end))

    def __repr__(self) -> str:
        return f"DiscreteFrechet(element_metric={self.element_metric!r})"
