"""Brute-force subsequence matching: the correctness oracle.

The paper's complexity argument (Section 5) starts from the observation that
checking every pair of subsequences costs ``O(|Q|^2 |X|^2)`` distance
computations.  These functions examine every admissible pair, so tests can
compare the framework's answers against ground truth.  They sweep one DP
table per ``(q_start, x_start)`` start pair
(:class:`~repro.core.verification.StartPairBlocks`), bit-equal to one
distance call per pair: ``O(|Q| |X|)`` kernel calls, a few seconds for one
80-point query against a 300-window ledger corpus.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import numpy as np

from repro.core.config import MatcherConfig
from repro.core.queries import SubsequenceMatch
from repro.core.verification import StartPairBlocks, enumerate_matches
from repro.distances.base import Distance
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence


def brute_force_matches(
    query: Sequence,
    database: SequenceDatabase,
    distance: Distance,
    radius: float,
    config: MatcherConfig,
) -> List[SubsequenceMatch]:
    """Every pair of similar subsequences: sequences in database order, then ascending offsets."""
    config.require_shift_support(distance)
    starts = {
        source_id: itertools.product(range(len(query)), range(len(database[source_id])))
        for source_id in database.ids()
    }
    return enumerate_matches(query, database, starts, distance, radius, config)


def brute_force_longest(
    query: Sequence,
    database: SequenceDatabase,
    distance: Distance,
    radius: float,
    config: MatcherConfig,
) -> Optional[SubsequenceMatch]:
    """The longest pair of similar subsequences (ties broken by distance)."""
    best: Optional[SubsequenceMatch] = None
    for match in brute_force_matches(query, database, distance, radius, config):
        if (
            best is None
            or match.length > best.length
            or (match.length == best.length and match.distance < best.distance)
        ):
            best = match
    return best


def brute_force_nearest(
    query: Sequence,
    database: SequenceDatabase,
    distance: Distance,
    config: MatcherConfig,
) -> Optional[SubsequenceMatch]:
    """The closest admissible pair of subsequences regardless of radius.

    Ties go to the first pair in brute force's order.  Each block is cut
    off at the best distance so far (the UCR suite's best-so-far
    abandoning), which keeps every cell that could tie or win exact.
    """
    config.require_shift_support(distance)
    best: Optional[tuple] = None  # (distance, position, q_start, q_stop, x_start, x_stop)
    for position, source_id in enumerate(database.ids()):
        sequence = database[source_id]
        blocks = StartPairBlocks(query, sequence, distance, config)
        for q_start, x_start in itertools.product(range(len(query)), range(len(sequence))):
            cells = blocks.cells(q_start, x_start, np.inf if best is None else best[0])
            if cells is not None:
                q_lengths, x_lengths, values = cells
                k = int(np.argmin(values))
                q_stop, x_stop = q_start + int(q_lengths[k]), x_start + int(x_lengths[k])
                candidate = (float(values[k]), position, q_start, q_stop, x_start, x_stop)
                best = candidate if best is None else min(best, candidate)
    if best is None:
        return None
    value, position, *span = best
    return SubsequenceMatch(value, database.ids()[position], *span)
