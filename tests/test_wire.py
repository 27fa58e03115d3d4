"""Tests for the shared wire format (``repro.core.wire``).

The wire layer is the drift-proofing between the CLI's ``--json`` output
and the HTTP service: every spec type must survive JSON
serialise -> parse -> execute with results and work counters identical to
the in-process ``execute(spec)``, and every malformed input must surface as
a :class:`QueryError` (never a silent default).
"""

import json

import numpy as np
import pytest

from repro import (
    DNA_ALPHABET,
    DiscreteFrechet,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    QueryError,
    RangeQuery,
    SearchService,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
    TopKQuery,
    WIRE_SCHEMA_VERSION,
    canonical_json,
    error_envelope,
    parse_search_request,
    parse_spec,
    result_envelope,
    sequence_from_wire,
    sequence_to_wire,
)

from repro.core import wire
from repro.core.wire import MAX_SEQUENCE_VALUES, PayloadTooLarge

from test_query_api import match_identities, work_counters


@pytest.fixture
def planted_db():
    generator = np.random.default_rng(11)
    pattern = np.cumsum(generator.normal(size=24))
    db = SequenceDatabase(SequenceKind.TIME_SERIES, name="planted")
    first = np.concatenate([generator.uniform(30, 40, 8), pattern, generator.uniform(30, 40, 8)])
    second = np.concatenate([generator.uniform(-40, -30, 14), pattern, generator.uniform(-40, -30, 2)])
    third = generator.uniform(80, 90, size=40)
    db.add(Sequence.from_values(first, seq_id="with-pattern-1"))
    db.add(Sequence.from_values(second, seq_id="with-pattern-2"))
    db.add(Sequence.from_values(third, seq_id="background"))
    return db


@pytest.fixture
def pattern_query(planted_db):
    source = planted_db["with-pattern-1"]
    return Sequence(np.asarray(source.values[8:32]) + 0.01, SequenceKind.TIME_SERIES, "query")


@pytest.fixture
def config():
    return MatcherConfig(min_length=12, max_shift=1)


def build_service(planted_db, config):
    return SearchService(SubsequenceMatcher(planted_db, DiscreteFrechet(), config))


ALL_SPECS = [
    RangeQuery(radius=0.5),
    LongestSubsequenceQuery(radius=0.5),
    NearestSubsequenceQuery(max_radius=10.0),
    TopKQuery(k=3, max_radius=10.0),
]


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_describe_parse_identity(self, spec):
        assert parse_spec(spec.describe()) == spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_survives_json_text(self, spec):
        parsed = parse_spec(json.loads(json.dumps(spec.describe())))
        assert parsed == spec

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_round_trip_execution_parity(self, planted_db, pattern_query, config, spec):
        """serialise -> parse -> execute == in-process execute, incl. stats."""
        direct = build_service(planted_db, config)
        via_wire = build_service(planted_db, config)

        expected = direct.execute(spec.bind(pattern_query))

        body = json.loads(
            json.dumps(
                {
                    "query": spec.describe(),
                    "sequence": sequence_to_wire(pattern_query),
                }
            )
        )
        request = parse_search_request(body)
        result = via_wire.execute(request.spec)

        assert match_identities(result.matches) == match_identities(expected.matches)
        assert result.total_matches == expected.total_matches
        assert work_counters(result.stats) == work_counters(expected.stats)

    def test_paging_fields_round_trip(self):
        spec = RangeQuery(radius=1.0, limit=2, offset=1, max_results=9, exhaustive=True)
        assert parse_spec(json.loads(json.dumps(spec.describe()))) == spec


class TestSpecErrors:
    def test_unknown_type(self):
        with pytest.raises(QueryError, match="unknown query type"):
            parse_spec({"type": "fuzzy"})

    def test_missing_type(self):
        with pytest.raises(QueryError, match="missing the 'type'"):
            parse_spec({"radius": 1.0})

    def test_unknown_field(self):
        with pytest.raises(QueryError, match="unknown field"):
            parse_spec({"type": "range", "radius": 1.0, "radiuss": 2.0})

    def test_non_dict(self):
        with pytest.raises(QueryError, match="JSON object"):
            parse_spec([1, 2, 3])

    def test_invalid_value_surfaces_query_error(self):
        with pytest.raises(QueryError, match="k must be >= 1"):
            parse_spec({"type": "topk", "k": 0, "max_radius": 5.0})

    def test_bad_value_type(self):
        with pytest.raises(QueryError, match="must be a number"):
            parse_spec({"type": "range", "radius": "wide"})

    def test_non_integer_k(self):
        with pytest.raises(QueryError, match="must be an integer"):
            parse_spec({"type": "topk", "k": 2.5, "max_radius": 5.0})

    def test_null_required_field(self):
        with pytest.raises(QueryError, match="must not be null"):
            parse_spec({"type": "range", "radius": None})


class TestSequenceCodec:
    def test_time_series_round_trip(self):
        sequence = Sequence.from_values([1.0, 2.5, -3.0], seq_id="ts")
        restored = sequence_from_wire(json.loads(json.dumps(sequence_to_wire(sequence))))
        assert restored == sequence
        assert restored.seq_id == "ts"
        assert restored.kind is SequenceKind.TIME_SERIES

    def test_trajectory_round_trip(self):
        points = np.column_stack([np.linspace(0, 5, 10), np.linspace(1, 3, 10)])
        sequence = Sequence.from_points(points, seq_id="traj")
        restored = sequence_from_wire(json.loads(json.dumps(sequence_to_wire(sequence))))
        assert restored == sequence
        assert restored.kind is SequenceKind.TRAJECTORY
        assert restored.dim == 2

    def test_string_round_trip(self):
        sequence = Sequence.from_string("ACGTACGT", DNA_ALPHABET, seq_id="dna")
        restored = sequence_from_wire(json.loads(json.dumps(sequence_to_wire(sequence))))
        assert restored == sequence
        assert restored.alphabet == DNA_ALPHABET
        assert restored.to_string() == "ACGTACGT"

    def test_string_from_text(self):
        restored = sequence_from_wire(
            {"kind": "string", "text": "ACGT", "alphabet": "ACGT", "seq_id": "s"}
        )
        assert restored.to_string() == "ACGT"

    def test_unknown_kind(self):
        with pytest.raises(QueryError, match="unknown sequence kind"):
            sequence_from_wire({"kind": "video", "values": [1]})

    @pytest.mark.parametrize(
        "kind, element, per_element",
        [("time_series", 0.5, 1), ("trajectory", [0.5, 1.5], 2), ("string", 2, 1)],
    )
    def test_the_value_cap_holds_before_an_array_is_built(
        self, monkeypatch, kind, element, per_element
    ):
        elements = MAX_SEQUENCE_VALUES // per_element
        alphabet = {"alphabet": "ACGT"} if kind == "string" else {}
        at_cap = {"kind": kind, "values": [element] * elements, **alphabet}
        assert len(sequence_from_wire(at_cap)) == elements
        over_cap = dict(at_cap, values=[element] * (elements + 1))
        monkeypatch.setattr(wire, "np", None)  # any array built now would raise
        with pytest.raises(PayloadTooLarge, match=f"{MAX_SEQUENCE_VALUES}-value cap"):
            sequence_from_wire(over_cap)
        text = "A" * (MAX_SEQUENCE_VALUES + 1)
        with pytest.raises(PayloadTooLarge):
            sequence_from_wire({"kind": "string", "text": text, "alphabet": "ACGT"})

    def test_unknown_field(self):
        with pytest.raises(QueryError, match="unknown sequence field"):
            sequence_from_wire({"kind": "time_series", "values": [1.0], "speed": 3})

    def test_text_without_alphabet(self):
        with pytest.raises(QueryError, match="needs an 'alphabet'"):
            sequence_from_wire({"kind": "string", "text": "ACGT"})

    def test_text_and_values_conflict(self):
        with pytest.raises(QueryError, match="exactly one"):
            sequence_from_wire(
                {"kind": "string", "text": "AC", "values": [0, 1], "alphabet": "ACGT"}
            )

    def test_malformed_values(self):
        with pytest.raises(QueryError):
            sequence_from_wire({"kind": "time_series", "values": [[1.0], [2.0, 3.0]]})

    def test_trajectory_needs_2d(self):
        with pytest.raises(QueryError, match="malformed sequence"):
            sequence_from_wire({"kind": "trajectory", "values": [1.0, 2.0]})

    def test_empty_values(self):
        with pytest.raises(QueryError, match="malformed sequence"):
            sequence_from_wire({"kind": "time_series", "values": []})

    @pytest.mark.parametrize(
        "kind, values",
        [
            ("time_series", [True, False, True]),
            ("string", [True, 1, 2]),
            ("time_series", [0.5, False]),
            ("trajectory", [[1.0, 2.0], [3.0, True]]),
        ],
    )
    def test_boolean_values(self, kind, values):
        with pytest.raises(QueryError, match="not true / false"):
            sequence_from_wire({"kind": kind, "values": values})


class TestSearchRequests:
    def body(self, **overrides):
        body = {
            "query": {"type": "topk", "k": 2, "max_radius": 10.0},
            "sequence": {"kind": "time_series", "values": [1.0, 2.0, 3.0]},
        }
        body.update(overrides)
        return body

    def test_minimal_request(self):
        request = parse_search_request(self.body())
        assert request.spec.kind == "topk"
        assert request.spec.query is not None
        assert request.request_id is None
        assert request.include_timings is True

    def test_all_knobs(self):
        request = parse_search_request(
            self.body(
                request_id="r-1",
                query_origin={"source": "unit-test"},
                executor="thread",
                workers=2,
                timeout=1.5,
                include_timings=False,
            )
        )
        assert request.request_id == "r-1"
        assert request.query_origin == {"source": "unit-test"}
        assert request.executor == "thread"
        assert request.workers == 2
        assert request.timeout == 1.5
        assert request.include_timings is False

    def test_schema_version_1_accepted(self):
        request = parse_search_request(self.body(schema_version=1))
        assert request.spec.kind == "topk"

    def test_schema_version_2_accepted(self):
        parse_search_request(self.body(schema_version=WIRE_SCHEMA_VERSION))

    def test_unsupported_schema_version(self):
        with pytest.raises(QueryError, match="unsupported schema_version"):
            parse_search_request(self.body(schema_version=3))

    def test_unknown_request_field(self):
        with pytest.raises(QueryError, match="unknown request field"):
            parse_search_request(self.body(priority="high"))

    def test_missing_query(self):
        body = self.body()
        del body["query"]
        with pytest.raises(QueryError, match="missing its 'query'"):
            parse_search_request(body)

    def test_missing_sequence(self):
        body = self.body()
        del body["sequence"]
        with pytest.raises(QueryError, match="missing its 'sequence'"):
            parse_search_request(body)

    def test_unknown_executor(self):
        with pytest.raises(QueryError, match="unknown executor"):
            parse_search_request(self.body(executor="quantum"))

    def test_bad_workers(self):
        with pytest.raises(QueryError, match="workers"):
            parse_search_request(self.body(workers=0))

    def test_bad_timeout(self):
        with pytest.raises(QueryError, match="timeout"):
            parse_search_request(self.body(timeout=-1))


class TestEnvelopes:
    def test_result_envelope_schema(self, planted_db, pattern_query, config):
        service = build_service(planted_db, config)
        result = service.execute(TopKQuery(k=2, max_radius=10.0).bind(pattern_query))
        envelope = result_envelope(result, service, request_id="abc")
        assert envelope["schema_version"] == WIRE_SCHEMA_VERSION
        assert envelope["request_id"] == "abc"
        assert envelope["server"]["name"] == "repro-search"
        assert envelope["query_origin"] is None
        assert envelope["error"] is None
        assert len(envelope["matches"]) == 2
        assert envelope["config"]["fingerprint"] == service.fingerprint()
        # The envelope is JSON-serialisable as-is.
        json.dumps(envelope)

    def test_include_timings_false_empties_clocks(self, planted_db, pattern_query, config):
        service = build_service(planted_db, config)
        result = service.execute(TopKQuery(k=2, max_radius=10.0).bind(pattern_query))
        envelope = result_envelope(result, service, include_timings=False)
        assert envelope["stats"]["stage_seconds"] == {}
        assert envelope["stats"]["cpu_stage_seconds"] == {}

    def test_error_envelope_without_service(self):
        envelope = error_envelope("boom", request_id="x")
        assert envelope["schema_version"] == WIRE_SCHEMA_VERSION
        assert envelope["error"] == "boom"
        assert envelope["matches"] == []
        assert envelope["total_matches"] == 0
        assert envelope["config"] is None
        json.dumps(envelope)

    def test_execution_error_envelope_keeps_own_stats(
        self, planted_db, config
    ):
        """A failing sweep's envelope carries that sweep's work counters."""
        service = build_service(planted_db, config)
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        result = service.execute_many(
            [TopKQuery(k=1, max_radius=0.01).bind(alien)]
        )[0]
        assert result.error is not None
        envelope = result_envelope(result, service)
        assert envelope["error"] is not None
        assert envelope["matches"] == []
        assert envelope["stats"]["passes"] > 0  # the sweep that failed did work

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json(
            {"a": [1, 2], "b": 1}
        )
