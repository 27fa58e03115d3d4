"""The Hamming distance: number of mismatching positions.

Like the Euclidean distance, the Hamming distance is a lockstep measure: it
requires equal-length operands and cannot absorb any temporal shift or gap.
It is metric and consistent, so it slots into the framework, but the paper
recommends the elastic measures (ERP, Fréchet, Levenshtein) for real
subsequence-matching workloads.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import Distance


class Hamming(Distance):
    """Number of positions at which two equal-length sequences differ.

    Metric: yes (it is the L0-style count metric on the product alphabet).
    Consistent: yes -- dropping positions can only reduce the count.
    """

    name = "hamming"
    is_metric = True
    is_consistent = True
    supports_unequal_lengths = False

    def __init__(self, normalised: bool = False) -> None:
        """``normalised=True`` divides by the length, yielding a value in [0, 1]."""
        self.normalised = normalised
        self.integer_valued = not normalised

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        mismatches = np.any(first != second, axis=1)
        count = float(np.count_nonzero(mismatches))
        if self.normalised:
            return count / first.shape[0]
        return count

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """Batched mismatch count over the whole group."""
        mismatches = np.any(items != query[None, :, :], axis=2)
        counts = np.count_nonzero(mismatches, axis=1).astype(np.float64)
        if self.normalised:
            return counts / query.shape[0]
        return counts

    def __repr__(self) -> str:
        return f"Hamming(normalised={self.normalised})"
