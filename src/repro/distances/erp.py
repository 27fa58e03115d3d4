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

from repro.distances.base import ElementMetric
from repro.distances.compiled import METRIC_KIND_CODES, MODE_ERP
from repro.distances.elastic import EditDistance
from repro.exceptions import DistanceError


class ERP(EditDistance):
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
    mode = MODE_ERP

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

    def substitution(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return self.element_metric.matrix(first, second)

    def deletion(self, first: np.ndarray) -> np.ndarray:
        """An unmatched element pays its ground distance to the gap element."""
        return self.element_metric.to_origin(first, self._gap_vector(first.shape[-1]))

    def kernel_args(self, dim: int) -> tuple:
        return METRIC_KIND_CODES[self.element_metric.kind], self._gap_vector(dim), 0.0

    def __repr__(self) -> str:
        return f"ERP(gap={self.gap.tolist()}, element_metric={self.element_metric!r})"
