"""The paper's guarantee against brute force: where the differential oracle will live.

ROADMAP item 1 (open): every Type I / II / III answer must equal
``core/bruteforce.py`` for any consistent metric distance.  It does not yet
-- ``chain_bounds`` only grows a candidate *outward* from the maximal merged
chain, so a subsequence that starts inside the chain's first window is never
offered.  Until that PR lands, this file pins the defect's ten-line
reproducer as a strict expected failure: the fix must delete the marker.
"""

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    MatcherConfig,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
)
from repro.core.bruteforce import brute_force_matches


def _identities(matches):
    return {
        (match.source_id, match.query_start, match.query_stop, match.db_start, match.db_stop)
        for match in matches
    }


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: chain_bounds misses inner start offsets")
def test_exhaustive_range_query_equals_brute_force_at_radius_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=24).cumsum() * 3
    database = SequenceDatabase(SequenceKind.TIME_SERIES)
    database.add(Sequence(x, SequenceKind.TIME_SERIES), seq_id="x")
    config = MatcherConfig(min_length=8, max_shift=0, index="linear-scan")
    query = Sequence(x[0:10].copy(), SequenceKind.TIME_SERIES)  # windows: x[0:4], x[4:8], ...
    matcher = SubsequenceMatcher(database, DiscreteFrechet(), config)
    ours = matcher.execute(RangeQuery(radius=0.0, exhaustive=True).bind(query)).matches
    brute = brute_force_matches(query, database, DiscreteFrechet(), 0.0, config)
    # Brute force finds 6; missing here: (q 1:9, x 1:9), (q 1:10, x 1:10), (q 2:10, x 2:10).
    assert len(brute) == 6
    assert _identities(ours) == _identities(brute)
