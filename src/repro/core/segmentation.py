"""Steps 1 and 3 of the framework: database and query segmentation.

Lemma 2 of the paper is the reason windows of length ``lambda/2`` suffice:
any subsequence of length at least ``lambda`` fully contains at least one
such window, so a match of the whole subsequence implies a match of that
window against *some* segment of the query (by consistency).  Lemma 3 turns
this into a pruning rule: windows with no matching query segment can be
ruled out entirely.
"""

from __future__ import annotations

from typing import List

from repro.core.config import MatcherConfig
from repro.exceptions import QueryError
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence
from repro.sequences.windows import Window, sliding_windows


def partition_database(database: SequenceDatabase, config: MatcherConfig) -> List[Window]:
    """Step 1: cut every database sequence into ``lambda/2``-length windows.

    Sequences shorter than one window contribute nothing (they can never
    contain a subsequence of length ``lambda``), matching the paper's
    analysis.
    """
    return database.windows(config.window_length)


def extract_query_segments(query: Sequence, config: MatcherConfig) -> List[Window]:
    """Step 3: extract query segments of every admissible length.

    Lengths range over ``lambda/2 - lambda0 .. lambda/2 + lambda0``
    (:attr:`MatcherConfig.segment_lengths`), at every start position: at
    most ``(2 * lambda0 + 1) * |Q|`` segments, the paper's bound.  A
    query shorter than the shortest segment raises
    :class:`~repro.exceptions.QueryError`: it cannot contain a match.
    """
    if len(query) < config.segment_lengths.start:
        raise QueryError(
            f"query of length {len(query)} is shorter than the smallest segment "
            f"length {config.segment_lengths.start}"
        )
    segments: List[Window] = []
    for length in config.segment_lengths:
        if length > len(query):
            continue
        segments.extend(
            sliding_windows(
                query,
                window_length=length,
                source_id=query.seq_id or "query",
            )
        )
    return segments


def count_segment_pairs(query: Sequence, database: SequenceDatabase, config: MatcherConfig) -> dict:
    """Work bound of Section 5: segment pairs vs brute-force subsequence pairs.

    Returns a dictionary with the number of database windows, query
    segments, their product (the framework's worst case, ``O(|Q||X|)``), and
    the brute-force count ``O(|Q|^2 |X|^2)`` of subsequence pairs, which the
    complexity benchmark tabulates.
    """
    windows = database.window_count(config.window_length)
    segments = 0
    for length in config.segment_lengths:
        if length <= len(query):
            segments += len(query) - length + 1
    total_db = database.total_length
    brute_force = (len(query) * (len(query) + 1) // 2) * (total_db * (total_db + 1) // 2)
    return {
        "windows": windows,
        "segments": segments,
        "segment_pairs": windows * segments,
        "brute_force_pairs": brute_force,
    }
