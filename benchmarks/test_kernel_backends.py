"""Compiled-vs-NumPy kernel tier on the batched DP sweeps.

One leg per (distance, backend): the same grouped batch sweep a linear-scan
probe performs -- one query against a packed window tensor -- timed under
``kernel_scope``.  The ``cc`` legs are skipped wherever no C compiler is
available, so the benchmark job never fails on environment; the regression
gate tracks whichever legs run.
"""

import numpy as np
import pytest

from _harness import scaled
from repro.distances import DTW, EDR, ERP, DiscreteFrechet, Levenshtein
from repro.distances.backend import kernel_scope
from repro.distances.compiled import make_provider

pytestmark = pytest.mark.benchmark


def _available_backends():
    try:
        make_provider("cc")
    except Exception:
        return ["numpy"]
    return ["numpy", "cc"]


DISTANCES = {
    "dtw": DTW(),
    "frechet": DiscreteFrechet(),
    "erp": ERP(gap=0.25),
    "edr": EDR(epsilon=0.4),
    "levenshtein": Levenshtein(),
}


def _workload(name, rng):
    if name == "levenshtein":
        query = rng.integers(0, 20, size=(scaled(60), 1)).astype(np.float64)
        items = rng.integers(0, 20, size=(scaled(150), scaled(40), 1)).astype(np.float64)
    else:
        query = rng.normal(size=(scaled(60), 2))
        items = rng.normal(size=(scaled(150), scaled(40), 2))
    return query, items


@pytest.mark.parametrize("backend", _available_backends())
@pytest.mark.parametrize("distance_name", sorted(DISTANCES))
def test_batch_sweep(benchmark, distance_name, backend):
    distance = DISTANCES[distance_name]
    rng = np.random.default_rng(17)
    query, items = _workload(distance_name, rng)
    item_list = list(items)
    cutoff = None

    def run():
        with kernel_scope(backend):
            return distance.batch(query, item_list, cutoff)

    baseline = run()  # warm (.so load) outside the timer
    values = benchmark(run)
    assert np.array_equal(values, baseline)
