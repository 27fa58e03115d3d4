"""``scripts/ledger_pairs.py``: the acceptance table from hand-made documents.

Only the pure half is tested -- ``run.py --out`` documents in, rows out -- so
tier-1 never launches a ledger run.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ledger_pairs.py"
_spec = importlib.util.spec_from_file_location("ledger_pairs", SCRIPT)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)

SPEC = {
    "workloads": [{"name": "warm-topk"}, {"name": "fresh-range"}, {"name": "not-run"}],
    "end_to_end": [
        {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "distance_computations_per_query", "unit": "count", "better": "lower", "bound": 0.25},
    ],
}  # fmt: skip


def document(failed=0, checks_ok=True, **workloads):
    """A ``run.py --out`` document: ``workload=(p50, qps, computations)``."""
    names = ("query_p50_ms", "throughput_qps", "distance_computations_per_query")
    return {
        "sets": [
            {
                "workloads": {
                    name.replace("_", "-"): {
                        "untraced": {
                            "metrics": dict(zip(names, values)),
                            "failed": failed,
                            "checks": {"sampled_answers_match_other_index": checks_ok},
                        }
                    }
                    for name, values in workloads.items()
                }
            }
        ]
    }


def test_rows_report_medians_quartiles_pairs_and_bounds():
    parent = [
        document(warm_topk=(160.0, 6.0, 3727.0), fresh_range=(90.0, 8.0, 6146.3)),
        document(warm_topk=(170.0, 5.8, 3724.0), fresh_range=(92.0, 8.0, 6300.0)),
        document(warm_topk=(180.0, 5.6, 3720.0), fresh_range=(94.0, 7.0, 6200.0)),
    ]
    change = [
        document(warm_topk=(55.0, 17.0, 3727.0), fresh_range=(91.0, 8.0, 6146.3)),
        document(warm_topk=(57.0, 17.5, 3724.0), fresh_range=(90.0, 8.5, 6300.0)),
        document(warm_topk=(59.0, 17.2, 3720.0), fresh_range=(140.0, 5.0, 6200.0)),
    ]
    rows = {(r.workload, r.metric): r for r in ledger_pairs.pair_rows(SPEC, parent, change)}
    # BENCHMARK.json's workload order, restricted to what was run.
    assert [key[0] for key in rows][::3] == ["warm-topk", "fresh-range"]

    p50 = rows["warm-topk", "query_p50_ms"]
    assert (p50.parent_median, p50.change_median) == (170.0, 57.0)
    assert (p50.parent_q1, p50.parent_q3) == (160.0, 180.0)
    assert (p50.won, p50.lost, p50.pairs, p50.within_bound) == (3, 0, 3, True)

    # "higher is better" flips who wins and which way the bound looks.
    qps = rows["warm-topk", "throughput_qps"]
    assert (qps.won, qps.lost, qps.within_bound) == (3, 0, True)
    slow = rows["fresh-range", "throughput_qps"]
    assert (slow.parent_median, slow.change_median) == (8.0, 8.0)
    assert (slow.won, slow.lost, slow.within_bound) == (1, 1, True)  # one tie

    # A count identical on every pair neither wins nor loses.
    count = rows["warm-topk", "distance_computations_per_query"]
    assert (count.won, count.lost, count.within_bound) == (0, 0, True)

    text = ledger_pairs.format_rows(list(rows.values()))
    assert "170 [160, 180]" in text and "3 / 0 / 3" in text and "EXCEEDED" not in text


def test_a_median_past_its_bound_is_flagged():
    parent = [document(warm_topk=(100.0, 10.0, 5.0)), document(warm_topk=(100.0, 10.0, 5.0))]
    change = [document(warm_topk=(126.0, 7.4, 5.0)), document(warm_topk=(126.0, 7.6, 5.0))]
    rows = {r.metric: r for r in ledger_pairs.pair_rows(SPEC, parent, change)}
    assert not rows["query_p50_ms"].within_bound  # +26 % > 25 %
    assert rows["throughput_qps"].within_bound  # -25 % is still inside
    assert rows["distance_computations_per_query"].within_bound
    assert "EXCEEDED" in ledger_pairs.format_rows(list(rows.values()))


def test_a_single_pair_is_its_own_quartiles_and_unequal_sides_are_refused():
    one = [document(warm_topk=(100.0, 10.0, 5.0))]
    row = ledger_pairs.pair_rows(SPEC, one, one)[0]
    assert (row.parent_q1, row.parent_q3, row.won, row.lost) == (100.0, 100.0, 0, 0)
    with pytest.raises(ValueError):
        ledger_pairs.pair_rows(SPEC, one, one + one)
    with pytest.raises(ValueError):
        ledger_pairs.pair_rows(SPEC, [], [])


def test_failed_ops_and_failed_checks_are_counted_per_workload():
    runs = [
        document(failed=2, warm_topk=(1.0, 1.0, 1.0)),
        document(checks_ok=False, warm_topk=(1.0, 1.0, 1.0), fresh_range=(1.0, 1.0, 1.0)),
    ]
    assert ledger_pairs.failed_ops(runs) == {"warm-topk": 3, "fresh-range": 1}
