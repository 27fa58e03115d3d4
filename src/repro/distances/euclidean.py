"""The Euclidean (L2) distance between equal-length sequences.

The paper uses the Euclidean distance both as the classic lockstep sequence
distance (Faloutsos et al.'s original subsequence-matching setting) and as
the simplest example of a consistent metric: dropping terms from the sum of
squares can only shrink it, so every subsequence pair at matched offsets is
at most as far apart as the whole sequences (Section 4).
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import Distance


class Euclidean(Distance):
    """L2 distance over equal-length sequences of same-dimensional elements.

    Metric: yes.  Consistent: yes.  Requires equal lengths: yes -- which is
    why the paper pairs it only with same-length window comparisons and
    prefers elastic measures for general subsequence matching.
    """

    name = "euclidean"
    is_metric = True
    is_consistent = True
    supports_unequal_lengths = False

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        diff = first - second
        return float(np.sqrt(np.sum(diff * diff)))

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """Batched L2: one subtraction and reduction for the whole group."""
        diff = items - query[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=(1, 2)))
