"""Plain-text rendering of benchmark tables and histograms.

The benchmark harness prints the same rows and series the paper's figures
show; these helpers keep that printing readable without pulling in a
plotting dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence as TypingSequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.queries import QueryStats
    from repro.indexing.base import MetricIndex


def format_table(
    headers: TypingSequence[str],
    rows: TypingSequence[TypingSequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned plain-text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_query_stats(stats: "QueryStats", title: Optional[str] = None) -> str:
    """Render a :class:`~repro.core.queries.QueryStats` as a two-column table.

    This is what ``repro search --stats`` prints: the paper's step-4
    quantities (fresh computations vs naive, pruning ratio alpha), the
    cache and prefilter accounting, the execution engine (executor, worker
    count, shard fan-out), and the pipeline's per-stage wall-clock and CPU
    timings -- for parallel runs the CPU sum shows the work that several
    workers burned simultaneously, which wall-clock alone would hide.
    Queries that ran several step-3/4/5 passes (Type III) add per-pass
    summary lines: the segment matches of each pass and how many of its
    segments the sweep's probe table answered instead of the index.
    """
    rows: List[List[object]] = [
        ["executor", f"{stats.executor} ({stats.workers} workers)"],
        ["shards", stats.shards],
        ["segments extracted (step 3)", stats.segments_extracted],
        ["segment matches (step 4)", stats.segment_matches],
        ["candidate chains (step 5)", stats.candidate_chains],
        ["index distance computations", stats.index_distance_computations],
        ["index kernel calls", stats.index_kernel_calls],
        ["naive step-4 computations", stats.naive_distance_computations],
        ["pruning ratio alpha", f"{stats.pruning_ratio:.2%}"],
        ["verification computations", stats.verification_distance_computations],
        ["verification kernel calls", stats.verification_kernel_calls],
        ["cache hits (index + verify)", stats.total_cache_hits],
        ["prefilter evaluations", stats.prefilter_evaluations],
        [
            "prefilter pruned",
            f"{stats.prefilter_pruned} ({stats.prefilter_prune_ratio:.2%})",
        ],
    ]
    for stage in ("segment", "probe", "chain", "verify"):
        if stage in stats.stage_timings:
            rows.append([f"stage time: {stage}", f"{stats.stage_timings[stage] * 1000:.2f} ms"])
        if stage in stats.cpu_stage_timings:
            rows.append(
                [f"stage cpu: {stage}", f"{stats.cpu_stage_timings[stage] * 1000:.2f} ms"]
            )
    if stats.passes:
        rows.append(["passes (radius sweep)", len(stats.passes)])
        per_pass = ", ".join(str(p.segment_matches) for p in stats.passes)
        rows.append(["segment matches per pass", per_pass])
        rows.append(["segments answered from the sweep table", stats.table_segments])
        per_pass = ", ".join(str(p.table_segments) for p in stats.passes)
        rows.append(["table-answered segments per pass", per_pass])
    return format_table(["quantity", "value"], rows, title=title)


def format_index_stats(index: "MetricIndex", title: Optional[str] = None) -> str:
    """Render an index's incremental-update accounting as a table.

    This is what the CLI's ``repro add`` and ``repro snapshot`` commands
    print: the index's size, its documented update policy and the
    :class:`~repro.indexing.stats.IndexStats` counters.
    """
    stats = index.update_stats
    rows: List[List[object]] = [
        ["index", index.index_name],
        ["stored items", len(index)],
        ["incremental inserts", stats.inserts],
        ["incremental deletes", stats.deletes],
        ["bulk rebuilds", stats.rebuilds],
        ["last rebuild reason", stats.last_rebuild_reason or "-"],
        ["staleness policy", index.staleness_policy],
    ]
    return format_table(["quantity", "value"], rows, title=title)


def format_histogram(
    bin_edges: np.ndarray,
    counts: np.ndarray,
    width: int = 40,
    title: Optional[str] = None,
) -> str:
    """Render a histogram as horizontal ASCII bars."""
    lines: List[str] = []
    if title:
        lines.append(title)
    peak = float(np.max(counts)) if len(counts) else 0.0
    for index in range(len(counts)):
        low = bin_edges[index]
        high = bin_edges[index + 1]
        if peak > 0:
            bar = "#" * int(round(width * counts[index] / peak))
        else:
            bar = ""
        lines.append(f"[{low:8.2f}, {high:8.2f})  {int(counts[index]):6d}  {bar}")
    return "\n".join(lines)
