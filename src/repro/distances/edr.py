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

from repro.distances.base import ElementMetric
from repro.distances.compiled import METRIC_KIND_CODES, MODE_EDR, NO_PARAMS
from repro.distances.elastic import EditDistance
from repro.exceptions import DistanceError


class EDR(EditDistance):
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
    integer_valued = True
    mode = MODE_EDR

    def __init__(self, epsilon: float = 0.5, element_metric: Optional[ElementMetric] = None) -> None:
        if epsilon < 0:
            raise DistanceError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = float(epsilon)
        self.element_metric = element_metric or ElementMetric("euclidean")

    def substitution(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """0 for elements within ``epsilon`` of each other, 1 otherwise."""
        ground = self.element_metric.matrix(first, second)
        return (ground > self.epsilon).astype(np.float64)

    def kernel_args(self, dim: int) -> tuple:
        return METRIC_KIND_CODES[self.element_metric.kind], NO_PARAMS, self.epsilon

    def __repr__(self) -> str:
        return f"EDR(epsilon={self.epsilon}, element_metric={self.element_metric!r})"
