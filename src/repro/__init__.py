"""repro: a generic framework for efficient and effective subsequence retrieval.

This library reproduces Zhu, Kollios & Athitsos, *"A Generic Framework for
Efficient and Effective Subsequence Retrieval"* (PVLDB 5(11), 2012):

* a family of sequence distances with explicit *metricity* and *consistency*
  flags (:mod:`repro.distances`);
* the **reference net**, a linear-space, multi-parent metric index optimised
  for range queries, and the linear scan every figure normalises against
  (:mod:`repro.indexing`);
* the window-segmentation subsequence-matching framework with the paper's
  three query types (:mod:`repro.core`);
* synthetic stand-ins for the paper's PROTEINS / SONGS / TRAJ datasets
  (:mod:`repro.datasets`) and the analysis helpers behind every figure
  (:mod:`repro.analysis`).

Quickstart::

    from repro import (
        Sequence, SequenceDatabase, SequenceKind, DiscreteFrechet,
        SubsequenceMatcher, MatcherConfig, LongestSubsequenceQuery,
    )

    db = SequenceDatabase(SequenceKind.TIME_SERIES)
    db.add(Sequence.from_values(range(100), seq_id="ramp"))
    matcher = SubsequenceMatcher(db, DiscreteFrechet(),
                                 MatcherConfig(min_length=20, max_shift=2))
    query = Sequence.from_values(range(30, 70), seq_id="q")
    spec = LongestSubsequenceQuery(radius=0.5).bind(query)
    print(matcher.execute(spec).best)
"""

from repro.exceptions import (
    ReproError,
    SequenceError,
    AlphabetError,
    DistanceError,
    IncompatibleSequencesError,
    IndexError_,
    ItemNotFoundError,
    InvariantViolationError,
    ConfigurationError,
    QueryError,
    StorageError,
)
from repro.sequences import (
    Alphabet,
    DNA_ALPHABET,
    PROTEIN_ALPHABET,
    PITCH_ALPHABET,
    Sequence,
    SequenceKind,
    Window,
    sliding_windows,
    tumbling_windows,
    SequenceDatabase,
)
from repro.distances import (
    Distance,
    DistanceCache,
    shared_cache,
    ElementMetric,
    Euclidean,
    Hamming,
    Levenshtein,
    WeightedLevenshtein,
    DTW,
    ERP,
    DiscreteFrechet,
    EDR,
    LCSS,
    check_consistency,
    ConsistencyReport,
    get_distance,
    register_distance,
    available_distances,
)
from repro.indexing import (
    MetricIndex,
    RangeMatch,
    DistanceCounter,
    CountingDistance,
    IndexStats,
    LinearScanIndex,
    ReferenceNet,
)
from repro.storage import (
    save_database,
    load_database,
    save_windows,
    load_windows,
    save_matcher,
    load_matcher,
)
from repro.core import (
    WIRE_SCHEMA_VERSION,
    MatcherConfig,
    QueryResult,
    QueryStats,
    RangeQuery,
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    SearchService,
    SegmentMatch,
    SubsequenceMatch,
    SubsequenceMatcher,
    ShardedMatcher,
    TopKQuery,
    QueryPipeline,
    SearchRequest,
    canonical_json,
    config_fingerprint,
    error_envelope,
    make_executor,
    parse_search_request,
    parse_spec,
    result_envelope,
    sequence_from_wire,
    sequence_to_wire,
    partition_database,
    extract_query_segments,
    chain_segment_matches,
    brute_force_matches,
    brute_force_longest,
    brute_force_nearest,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "SequenceError",
    "AlphabetError",
    "DistanceError",
    "IncompatibleSequencesError",
    "IndexError_",
    "ItemNotFoundError",
    "InvariantViolationError",
    "ConfigurationError",
    "QueryError",
    "StorageError",
    # sequences
    "Alphabet",
    "DNA_ALPHABET",
    "PROTEIN_ALPHABET",
    "PITCH_ALPHABET",
    "Sequence",
    "SequenceKind",
    "Window",
    "sliding_windows",
    "tumbling_windows",
    "SequenceDatabase",
    # distances
    "Distance",
    "DistanceCache",
    "shared_cache",
    "ElementMetric",
    "Euclidean",
    "Hamming",
    "Levenshtein",
    "WeightedLevenshtein",
    "DTW",
    "ERP",
    "DiscreteFrechet",
    "EDR",
    "LCSS",
    "check_consistency",
    "ConsistencyReport",
    "get_distance",
    "register_distance",
    "available_distances",
    # indexing
    "MetricIndex",
    "RangeMatch",
    "DistanceCounter",
    "CountingDistance",
    "IndexStats",
    "LinearScanIndex",
    "ReferenceNet",
    # core framework
    "MatcherConfig",
    "QueryResult",
    "QueryStats",
    "RangeQuery",
    "LongestSubsequenceQuery",
    "NearestSubsequenceQuery",
    "SearchService",
    "SegmentMatch",
    "SubsequenceMatch",
    "SubsequenceMatcher",
    "ShardedMatcher",
    "TopKQuery",
    "config_fingerprint",
    "make_executor",
    "QueryPipeline",
    # wire format (CLI --json + HTTP service)
    "WIRE_SCHEMA_VERSION",
    "SearchRequest",
    "canonical_json",
    "error_envelope",
    "parse_search_request",
    "parse_spec",
    "result_envelope",
    "sequence_from_wire",
    "sequence_to_wire",
    "partition_database",
    "extract_query_segments",
    "chain_segment_matches",
    "brute_force_matches",
    "brute_force_longest",
    "brute_force_nearest",
    # storage
    "save_database",
    "load_database",
    "save_windows",
    "load_windows",
    "save_matcher",
    "load_matcher",
]
