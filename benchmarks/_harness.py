"""Shared machinery for the figure-reproduction benchmarks.

Every module in this directory regenerates one table or figure of the paper
(each module's docstring names which).  The benchmarks print the same
rows / series the paper reports -- run ``pytest benchmarks/ --benchmark-only -s``
to see them -- and assert only the *shape* of each result (who wins, whether
growth is linear, where distributions are skewed), because absolute numbers
depend on the synthetic datasets standing in for the paper's proprietary
ones.

Workload sizes default to laptop-friendly values and can be scaled with the
``REPRO_BENCH_SCALE`` environment variable (a float multiplier, e.g. ``10``
to approach the paper's original window counts).
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence as TypingSequence

from _baselines import CoverTree, ReferenceIndex
from repro.analysis.pruning import PruningResult, compare_indexes
from repro.analysis.reporting import format_table
from repro.datasets.loaders import dataset_distance, dataset_windows
from repro.distances.base import Distance
from repro.indexing.base import MetricIndex
from repro.indexing.reference_net import ReferenceNet
from repro.sequences.windows import Window


def bench_scale() -> float:
    """The global workload multiplier (``REPRO_BENCH_SCALE``, default 1)."""
    try:
        return max(0.1, float(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1.0


def scaled(count: int) -> int:
    """Scale a default workload size by :func:`bench_scale`."""
    return max(10, int(count * bench_scale()))


def load_windows(dataset: str, count: int, seed: int = 0) -> List[Window]:
    """Windows of the named dataset at the scaled count."""
    return dataset_windows(dataset, scaled(count), seed=seed)


def paper_distance(dataset: str, name: str) -> Distance:
    """The distance the paper pairs with the dataset."""
    return dataset_distance(dataset, name)


def build_index_suite(
    distance: Distance,
    windows: TypingSequence[Window],
    include_mv_large: bool = False,
    mv_small: int = 5,
    mv_large: int = 50,
) -> Dict[str, MetricIndex]:
    """The index configurations the paper's query figures compare.

    ``RN`` and ``CT`` use the same ``eps' = 1`` base; ``MV-k`` follows the
    paper's naming for reference-based indexing with ``k`` references.
    """
    suite: Dict[str, MetricIndex] = {
        "RN": ReferenceNet(distance),
        "CT": CoverTree(distance),
        f"MV-{mv_small}": ReferenceIndex(distance, num_references=mv_small),
    }
    if include_mv_large:
        suite[f"MV-{mv_large}"] = ReferenceIndex(distance, num_references=mv_large)
    for index in suite.values():
        for window in windows:
            index.add(window.sequence, key=window.key)
    return suite


def run_query_figure(
    title: str,
    suite: Dict[str, MetricIndex],
    queries: TypingSequence[object],
    radii: TypingSequence[float],
) -> Dict[str, List[PruningResult]]:
    """Sweep the suite over the radii, print the figure table, return series."""
    results = compare_indexes(suite, queries, radii)
    series: Dict[str, List[PruningResult]] = {}
    for result in results:
        series.setdefault(result.index_name, []).append(result)
    rows = []
    for name, points in series.items():
        for point in points:
            rows.append(
                [
                    name,
                    point.radius,
                    point.distance_computations,
                    100.0 * point.fraction_of_naive,
                    point.matches,
                ]
            )
    print()
    print(
        format_table(
            ["index", "range", "avg distance computations", "% of naive scan", "avg matches"],
            rows,
            title=title,
        )
    )
    return series


def average_fraction(series: Dict[str, List[PruningResult]], name: str) -> float:
    """Mean fraction-of-naive over the radius sweep for one index label."""
    points = series[name]
    return sum(point.fraction_of_naive for point in points) / len(points)
