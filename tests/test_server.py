"""Tests for the HTTP service (``repro.server``).

Two harnesses drive the same :class:`SearchApp`:

* :meth:`SearchApp.handle` called in-process (no socket) for endpoint
  semantics and error paths, and
* :class:`BackgroundServer` -- the real ``http.server`` transport on a real
  socket -- for the wire-parity, transport and concurrency guarantees.

The load-bearing claims: ``POST /search`` is byte-identical to the
in-process ``result_envelope(service.execute(spec), ...)`` for every query
type on plain, sharded, and snapshot backends (and ``repro search --json``
emits exactly that envelope -- see ``test_cli.py``), and the server admits
>= 8 concurrent queries whose answers match a serial run byte for byte.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    DiscreteFrechet,
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    RangeQuery,
    SearchService,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    ShardedMatcher,
    SubsequenceMatcher,
    TopKQuery,
    canonical_json,
    result_envelope,
    save_matcher,
    sequence_to_wire,
)
from repro.cli import main as cli_main
from repro.core.wire import MAX_SEQUENCE_VALUES
from repro.datasets import generate_song_query
from repro.server import BackgroundServer, SearchApp, ServerMetrics
from repro.server.runner import MAX_BODY_BYTES, _Handler
from repro.storage.persistence import load_database


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


ALL_SPECS = [
    RangeQuery(radius=0.5),
    LongestSubsequenceQuery(radius=0.5),
    NearestSubsequenceQuery(max_radius=10.0),
    TopKQuery(k=3, max_radius=10.0),
]

TOPK = TopKQuery(k=3, max_radius=10.0)


def make_service(planted_db, config, backend: str, tmp_path=None) -> SearchService:
    """A FRESH service per call -- parity tests must never share caches."""
    if backend == "plain":
        return SearchService(SubsequenceMatcher(planted_db, DiscreteFrechet(), config))
    if backend == "sharded":
        return SearchService(
            ShardedMatcher(planted_db, DiscreteFrechet(), config, shards=2)
        )
    if backend == "snapshot":
        path = tmp_path / "matcher.npz"
        if not path.exists():
            save_matcher(SubsequenceMatcher(planted_db, DiscreteFrechet(), config), path)
        return SearchService(path)
    raise AssertionError(backend)


def search_body(spec, query, **extra):
    body = {"query": spec.describe(), "sequence": sequence_to_wire(query)}
    body.update(extra)
    return body


# --------------------------------------------------------------------- #
# In-process harness: SearchApp.handle, no socket
# --------------------------------------------------------------------- #
def _reject_constant(name):
    raise AssertionError(f"response body holds {name}, which strict JSON forbids")


def app_request(app, method, path, payload=None, raw_body=None):
    """Call :meth:`SearchApp.handle` directly; returns ``(status, decoded_json)``.

    The body is decoded as strict JSON: a ``NaN`` or ``Infinity`` in any
    response fails the test that sent the request.
    """
    if raw_body is not None:
        body = raw_body
    elif payload is not None:
        body = json.dumps(payload).encode("utf-8")
    else:
        body = b""
    status, raw = app.handle(method, path, body)
    return status, json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)


# --------------------------------------------------------------------- #
# Wire parity: HTTP POST /search == in-process execute, all backends
# --------------------------------------------------------------------- #
class TestSearchParity:
    @pytest.mark.parametrize("backend", ["plain", "sharded", "snapshot"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_http_envelope_is_byte_identical(
        self, planted_db, pattern_query, config, tmp_path, backend, spec
    ):
        # Two independent, identically-built services: a shared one would
        # leak warm distance caches into the second run's work counters.
        served = make_service(planted_db, config, backend, tmp_path)
        reference = make_service(planted_db, config, backend, tmp_path)

        app = SearchApp(served)
        status, envelope = app_request(
            app,
            "POST",
            "/search",
            search_body(spec, pattern_query, include_timings=False),
        )
        assert status == 200

        result = reference.execute_many([spec.bind(pattern_query)])[0]
        expected = result_envelope(result, reference, include_timings=False)
        # ``repro search --json --no-timings`` prints exactly ``expected``
        # (the CLI delegates to the same result_envelope; see test_cli.py),
        # so this also proves CLI <-> HTTP byte parity.
        assert canonical_json(envelope) == canonical_json(expected)

    def test_request_id_and_origin_are_echoed(self, planted_db, pattern_query, config):
        app = SearchApp(make_service(planted_db, config, "plain"))
        status, envelope = app_request(
            app,
            "POST",
            "/search",
            search_body(
                TOPK,
                pattern_query,
                request_id="req-9",
                query_origin={"source_id": "with-pattern-1", "offset": 8},
            ),
        )
        assert status == 200
        assert envelope["request_id"] == "req-9"
        assert envelope["query_origin"] == {"source_id": "with-pattern-1", "offset": 8}

    def test_executor_override_over_the_wire(self, planted_db, pattern_query, config):
        app = SearchApp(make_service(planted_db, config, "plain"))
        status, envelope = app_request(
            app,
            "POST",
            "/search",
            search_body(TOPK, pattern_query, executor="thread", workers=2),
        )
        assert status == 200
        assert envelope["stats"]["executor"] == "thread"
        assert envelope["stats"]["workers"] == 2
        # The override never leaks into the served backend's configuration.
        assert app.service.backend.config.executor == config.executor

    def test_batch_matches_sequential_singles(self, planted_db, pattern_query, config):
        served = SearchApp(make_service(planted_db, config, "plain"))
        reference = make_service(planted_db, config, "plain")

        specs = [TOPK, RangeQuery(radius=0.5)]
        status, payload = app_request(
            served,
            "POST",
            "/search/batch",
            {
                "requests": [
                    search_body(spec, pattern_query, include_timings=False)
                    for spec in specs
                ]
            },
        )
        assert status == 200
        assert len(payload["results"]) == 2

        # The reference executes the same specs in the same order on one
        # service, so cache warm-up history matches the batch's.
        for spec, envelope in zip(specs, payload["results"]):
            result = reference.execute_many([spec.bind(pattern_query)])[0]
            expected = result_envelope(result, reference, include_timings=False)
            assert canonical_json(envelope) == canonical_json(expected)


# --------------------------------------------------------------------- #
# Operational endpoints
# --------------------------------------------------------------------- #
class TestHealthAndMetrics:
    def test_health_on_live_backend(self, planted_db, config):
        app = SearchApp(make_service(planted_db, config, "plain"), max_in_flight=9)
        status, payload = app_request(app, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema_version"] == 2
        assert 1 in payload["accepted_schema_versions"]
        assert payload["loaded"] is True
        assert payload["snapshot"] is None
        assert payload["in_flight"] == 0
        assert payload["max_in_flight"] == 9

    def test_health_never_forces_the_snapshot_load(
        self, planted_db, pattern_query, config, tmp_path
    ):
        service = make_service(planted_db, config, "snapshot", tmp_path)
        app = SearchApp(service)
        status, payload = app_request(app, "GET", "/health")
        assert status == 200
        assert payload["loaded"] is False
        assert payload["snapshot"].endswith("matcher.npz")
        # /metrics reports the cache state without forcing the load either.
        assert app_request(app, "GET", "/metrics")[1]["cache"]["entries"] is None
        assert service._backend is None  # still nothing read from disk
        app_request(app, "POST", "/search", search_body(TOPK, pattern_query))
        assert app_request(app, "GET", "/health")[1]["loaded"] is True

    def test_metrics_counters_and_latency(self, planted_db, pattern_query, config):
        app = SearchApp(make_service(planted_db, config, "plain"))
        for _ in range(2):
            status, _ = app_request(
                app, "POST", "/search", search_body(TOPK, pattern_query)
            )
            assert status == 200
        app_request(app, "POST", "/search", raw_body=b"not json")

        status, payload = app_request(app, "GET", "/metrics")
        assert status == 200
        assert payload["queries_served"] == 2
        assert payload["parse_errors"] == 1
        assert payload["query_errors"] == 0
        assert payload["in_flight"] == 0
        latency = payload["latency"]
        assert latency["window"] == 2
        assert latency["p50_seconds"] > 0
        assert latency["p99_seconds"] >= latency["p50_seconds"]
        cache = payload["cache"]
        # The second identical query hits the warm distance cache.
        assert cache["index_cache_hits"] > 0
        assert 0.0 < cache["index_hit_rate"] <= 1.0
        # The live cache's own state rides along: size and lifetime evictions.
        assert cache["entries"] == len(app.service.backend.distance_cache) > 0
        assert cache["evictions"] == 0

    def test_metrics_object_is_shareable(self, planted_db, config):
        metrics = ServerMetrics()
        app = SearchApp(make_service(planted_db, config, "plain"), metrics=metrics)
        assert app.metrics is metrics
        assert metrics.snapshot()["queries_served"] == 0


# --------------------------------------------------------------------- #
# Mutations over HTTP
# --------------------------------------------------------------------- #
class TestMutationEndpoints:
    def grown_sequence(self):
        generator = np.random.default_rng(99)
        return Sequence.from_values(generator.uniform(0, 1, 30), seq_id="grown")

    def test_add_then_remove_round_trips_fingerprint(
        self, planted_db, pattern_query, config
    ):
        app = SearchApp(make_service(planted_db, config, "plain"))
        before = app.service.fingerprint()

        status, payload = app_request(
            app,
            "POST",
            "/sequences",
            {"sequence": sequence_to_wire(self.grown_sequence())},
        )
        assert status == 200
        assert payload["seq_id"] == "grown"
        assert payload["sequences"] == 4
        assert payload["fingerprint"] != before

        # The grown corpus still answers queries over HTTP.
        status, envelope = app_request(
            app, "POST", "/search", search_body(TOPK, pattern_query)
        )
        assert status == 200 and len(envelope["matches"]) == 3

        status, payload = app_request(app, "DELETE", "/sequences/grown")
        assert status == 200
        assert payload["removed_length"] == 30
        assert payload["sequences"] == 3
        assert payload["fingerprint"] == before

    def test_duplicate_add_is_409(self, planted_db, config):
        app = SearchApp(make_service(planted_db, config, "plain"))
        body = {"sequence": sequence_to_wire(self.grown_sequence())}
        assert app_request(app, "POST", "/sequences", body)[0] == 200
        status, payload = app_request(app, "POST", "/sequences", body)
        assert status == 409
        assert "grown" in payload["error"]

    def test_unnamed_add_after_delete_gets_a_free_id(self, planted_db, config):
        app = SearchApp(make_service(planted_db, config, "plain"))
        body = {"sequence": {"kind": "time_series", "values": [0.5] * 30}}
        first = app_request(app, "POST", "/sequences", body)
        second = app_request(app, "POST", "/sequences", body)
        assert first[0] == second[0] == 200
        assert app_request(app, "DELETE", f"/sequences/{first[1]['seq_id']}")[0] == 200
        # The count-based id now names the live second insert; the server
        # used to answer 409 here.
        status, payload = app_request(app, "POST", "/sequences", body)
        assert status == 200
        assert payload["seq_id"] not in (first[1]["seq_id"], second[1]["seq_id"])
        assert payload["sequences"] == 5

    def test_remove_unknown_is_404(self, planted_db, config):
        app = SearchApp(make_service(planted_db, config, "plain"))
        status, payload = app_request(app, "DELETE", "/sequences/absent")
        assert status == 404
        assert "error" in payload

    def test_snapshot_endpoint_persists_mutations(
        self, planted_db, pattern_query, config, tmp_path
    ):
        service = make_service(planted_db, config, "snapshot", tmp_path)
        app = SearchApp(service)
        app_request(
            app,
            "POST",
            "/sequences",
            {"sequence": sequence_to_wire(self.grown_sequence())},
        )
        status, payload = app_request(app, "POST", "/snapshots", {})
        assert status == 200
        assert payload["path"].endswith("matcher.npz")

        reloaded = SearchService(tmp_path / "matcher.npz")
        assert reloaded.fingerprint() == service.fingerprint()
        assert len(reloaded.backend.database) == 4

    def test_snapshot_endpoint_explicit_path(self, planted_db, config, tmp_path):
        app = SearchApp(make_service(planted_db, config, "plain"))
        target = tmp_path / "explicit.npz"
        status, payload = app_request(
            app, "POST", "/snapshots", {"path": str(target)}
        )
        assert status == 200
        assert payload["path"] == str(target)
        assert target.exists()

    def test_snapshot_endpoint_without_path_is_400(self, planted_db, config):
        app = SearchApp(make_service(planted_db, config, "plain"))
        status, payload = app_request(app, "POST", "/snapshots", {})
        assert status == 400
        assert "error" in payload


# --------------------------------------------------------------------- #
# Error paths
# --------------------------------------------------------------------- #
class TestErrorPaths:
    @pytest.fixture
    def app(self, planted_db, config):
        return SearchApp(make_service(planted_db, config, "plain"))

    def test_malformed_json_is_400_envelope(self, app):
        status, envelope = app_request(app, "POST", "/search", raw_body=b"{nope")
        assert status == 400
        assert "not valid JSON" in envelope["error"]
        assert envelope["schema_version"] == 2
        assert envelope["matches"] == []

    def test_empty_body_is_400(self, app):
        status, envelope = app_request(app, "POST", "/search")
        assert status == 400
        assert "empty" in envelope["error"]

    def test_unknown_request_field_is_400_with_request_id(self, app, pattern_query):
        status, envelope = app_request(
            app,
            "POST",
            "/search",
            search_body(TOPK, pattern_query, request_id="bad-1", priority="high"),
        )
        assert status == 400
        assert "unknown request field" in envelope["error"]
        assert envelope["request_id"] == "bad-1"

    def test_invalid_spec_is_400(self, app, pattern_query):
        body = search_body(TopKQuery(k=1, max_radius=1.0), pattern_query)
        body["query"] = {"type": "topk", "k": 0, "max_radius": 1.0}
        status, envelope = app_request(app, "POST", "/search", body)
        assert status == 400
        assert "k must be >= 1" in envelope["error"]

    def test_failed_query_is_422_with_its_own_stats(self, app):
        alien = Sequence.from_values(np.full(20, 500.0), seq_id="alien")
        status, envelope = app_request(
            app,
            "POST",
            "/search",
            search_body(TopKQuery(k=1, max_radius=0.01), alien),
        )
        assert status == 422
        assert envelope["error"] is not None
        assert envelope["matches"] == []
        assert envelope["stats"]["passes"] > 0  # the failed sweep's own work
        assert app.metrics.snapshot()["query_errors"] == 1

    def test_unknown_route_is_404(self, app):
        status, payload = app_request(app, "GET", "/nope")
        assert status == 404
        assert "unknown route" in payload["error"]

    def test_wrong_method_is_405(self, app):
        status, payload = app_request(app, "GET", "/search")
        assert status == 405
        assert "use POST" in payload["error"]
        assert app_request(app, "POST", "/health")[0] == 405

    def test_capacity_rejection_is_503(self, app, pattern_query):
        app._in_flight = app.max_in_flight  # saturate admission
        try:
            status, envelope = app_request(
                app, "POST", "/search", search_body(TOPK, pattern_query)
            )
        finally:
            app._in_flight = 0
        assert status == 503
        assert "capacity" in envelope["error"]
        assert app.metrics.snapshot()["rejected"] == 1

    def test_timeout_is_504(self, app, pattern_query, monkeypatch):
        import time as time_module

        real_execute_many = app.service.execute_many

        def slow_execute_many(*args, **kwargs):
            time_module.sleep(0.4)
            return real_execute_many(*args, **kwargs)

        monkeypatch.setattr(app.service, "execute_many", slow_execute_many)
        status, envelope = app_request(
            app,
            "POST",
            "/search",
            search_body(TOPK, pattern_query, timeout=0.05, request_id="late"),
        )
        assert status == 504
        assert "deadline" in envelope["error"]
        assert envelope["request_id"] == "late"
        assert app.metrics.snapshot()["timeouts"] == 1

    @pytest.mark.parametrize("route", ["/search", "/search/batch"])
    def test_a_504_holds_the_slot_until_the_work_ends(
        self, app, pattern_query, monkeypatch, route
    ):
        real_execute_many = app.service.execute_many
        gate = threading.Event()

        def slow_execute_many(*args, **kwargs):
            gate.wait(timeout=30)
            return real_execute_many(*args, **kwargs)

        monkeypatch.setattr(app.service, "execute_many", slow_execute_many)
        if route == "/search":
            body = search_body(TOPK, pattern_query, timeout=0.05)
        else:
            body = {"requests": [search_body(TOPK, pattern_query)], "timeout": 0.05}
        status, payload = app_request(app, "POST", route, body)
        assert status == 504
        assert "deadline" in payload["error"]
        # The matcher still runs the request: its admission slot stays taken.
        assert app.in_flight == 1
        gate.set()
        deadline = time.monotonic() + 10.0
        while app.in_flight and time.monotonic() < deadline:
            time.sleep(0.01)
        assert app.in_flight == 0

    def test_batch_entry_errors_name_the_position(self, app, pattern_query):
        status, payload = app_request(
            app,
            "POST",
            "/search/batch",
            {
                "requests": [
                    search_body(TOPK, pattern_query),
                    {"query": {"type": "fuzzy"}},
                ]
            },
        )
        assert status == 400
        assert "batch entry 1" in payload["error"]

    def test_batch_empty_and_oversized_are_400(self, app, pattern_query):
        assert app_request(app, "POST", "/search/batch", {"requests": []})[0] == 400
        small = SearchApp(app.service, max_batch=1)
        entry = search_body(TOPK, pattern_query)
        status, payload = app_request(
            small, "POST", "/search/batch", {"requests": [entry, entry]}
        )
        assert status == 400
        assert "cap" in payload["error"]

    @pytest.mark.parametrize("path", ["/search", "/search/batch", "/sequences"])
    def test_a_sequence_over_the_value_cap_is_a_json_413(self, app, pattern_query, path):
        sequence = {"kind": "time_series", "values": [0.5] * (MAX_SEQUENCE_VALUES + 1)}
        body = {"query": TOPK.describe(), "sequence": sequence}
        payload = {
            "/search": body,
            "/search/batch": {"requests": [search_body(TOPK, pattern_query), body]},
            "/sequences": {"sequence": sequence},
        }[path]
        status, answer = app_request(app, "POST", path, payload)
        assert status == 413
        assert f"{MAX_SEQUENCE_VALUES}-value cap" in answer["error"]
        if path == "/search/batch":
            assert "batch entry 1" in answer["error"]
        assert app.in_flight == 0
        database = app.service.backend.database
        assert database.ids() == ["with-pattern-1", "with-pattern-2", "background"]

    def test_add_sequence_malformed_body_is_400(self, app):
        assert app_request(app, "POST", "/sequences", {"nope": 1})[0] == 400
        status, payload = app_request(
            app, "POST", "/sequences", {"sequence": {"kind": "video", "values": [1]}}
        )
        assert status == 400
        assert "unknown sequence kind" in payload["error"]


class TestNonFiniteAndShortInputs:
    """Inputs no query can answer are a 4xx with a strict-JSON body, never a
    500 or a silent 200.  ``NaN`` / ``Infinity`` arrive as the bare tokens
    Python's ``json`` (and JavaScript) emit for them."""

    @pytest.fixture
    def app(self, planted_db, config):
        return SearchApp(make_service(planted_db, config, "plain"))

    @staticmethod
    def raw_search(app, query_fields, values="[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]"):
        body = (
            '{"query": {%s}, "sequence": {"kind": "time_series", "values": %s}}'
            % (query_fields, values)
        )
        return app_request(app, "POST", "/search", raw_body=body.encode("utf-8"))

    @pytest.mark.parametrize(
        "query_fields, message",
        [
            ('"type": "range", "radius": NaN', "radius must be a finite number"),
            ('"type": "range", "radius": Infinity', "radius must be a finite number"),
            ('"type": "longest", "radius": -Infinity', "radius must be a finite number"),
            ('"type": "nearest", "max_radius": NaN', "max_radius must be a finite number"),
            (
                '"type": "topk", "k": 2, "max_radius": Infinity',
                "max_radius must be a finite number",
            ),
            (
                '"type": "nearest", "max_radius": 5, "tolerance": NaN',
                "tolerance must be a finite number",
            ),
            (
                '"type": "topk", "k": 2, "max_radius": 5, "radius_increment": Infinity',
                "radius_increment must be a finite number",
            ),
            ('"type": "topk", "k": NaN, "max_radius": 5', "field 'k' of a 'topk' query must be an integer"),
            (
                '"type": "range", "radius": 1, "limit": Infinity',
                "field 'limit' of a 'range' query must be an integer",
            ),
            (
                '"type": "range", "radius": 1%s' % ("0" * 400),
                "field 'radius' of a 'range' query is too large",
            ),
        ],
    )
    def test_non_finite_spec_fields_are_400_naming_the_field(self, app, query_fields, message):
        status, envelope = self.raw_search(app, query_fields)
        assert status == 400, envelope
        assert message in envelope["error"]
        assert app.metrics.snapshot()["parse_errors"] == 1

    def test_a_huge_integer_k_is_accepted(self, app):
        status, envelope = self.raw_search(
            app, '"type": "topk", "k": 1%s, "max_radius": 5' % ("0" * 400)
        )
        assert status == 200, envelope
        assert envelope["query"]["k"] == 10**400

    @pytest.mark.parametrize("values", ["[NaN, NaN, NaN, NaN, NaN, NaN, NaN]", "[1, Infinity, 3]"])
    def test_non_finite_sequence_values_are_400(self, app, values):
        status, envelope = self.raw_search(app, '"type": "range", "radius": 1', values)
        assert status == 400
        assert "finite" in envelope["error"]
        body = '{"sequence": {"kind": "time_series", "values": %s}}' % values
        status, payload = app_request(app, "POST", "/sequences", raw_body=body.encode())
        assert status == 400
        assert "finite" in payload["error"]
        assert app.metrics.snapshot()["mutations"] == 0

    @pytest.mark.parametrize("values", ["[true, false, true]", "[true, 1, 2]", "[1.5, false]"])
    def test_boolean_sequence_values_are_400(self, app, pattern_query, values):
        status, envelope = self.raw_search(app, '"type": "range", "radius": 1', values)
        assert status == 400, envelope
        assert "true / false" in envelope["error"]
        sequence = '{"kind": "time_series", "values": %s}' % values
        entry = json.dumps(search_body(TOPK, pattern_query))
        body = '{"requests": [%s, {"query": {"type": "range", "radius": 1}, "sequence": %s}]}' % (
            entry, sequence,
        )  # fmt: skip
        status, payload = app_request(app, "POST", "/search/batch", raw_body=body.encode())
        assert status == 400, payload
        assert "batch entry 1" in payload["error"] and "true / false" in payload["error"]
        body = '{"sequence": %s}' % sequence
        status, payload = app_request(app, "POST", "/sequences", raw_body=body.encode())
        assert status == 400, payload
        assert "true / false" in payload["error"]
        assert app.metrics.snapshot()["mutations"] == 0

    def test_non_finite_batch_timeout_is_400(self, app, pattern_query):
        entry = json.dumps(search_body(TOPK, pattern_query))
        for timeout in ("NaN", "Infinity"):
            body = '{"requests": [%s], "timeout": %s}' % (entry, timeout)
            status, payload = app_request(app, "POST", "/search/batch", raw_body=body.encode())
            assert status == 400
            assert "timeout" in payload["error"]

    def test_a_query_shorter_than_a_segment_is_422(self, app):
        short = Sequence.from_values([1.0, 2.0, 3.0], seq_id="short")
        status, envelope = app_request(
            app, "POST", "/search", search_body(RangeQuery(radius=1.0), short)
        )
        assert status == 422
        assert "shorter than the smallest segment length 5" in envelope["error"]
        assert envelope["matches"] == []
        assert app.metrics.snapshot()["query_errors"] == 1

    @pytest.mark.parametrize(
        "sequence, named",
        [
            ({"kind": "trajectory", "values": [[1.0, 2.0]] * 20}, ("trajectory", "time_series")),
            ({"kind": "string", "values": [1.5, 2.5] * 10}, ("string", "time_series")),
        ],
        ids=["trajectory", "string"],
    )
    def test_a_query_of_another_kind_is_422_naming_both(self, app, pattern_query, sequence, named):
        body = {"query": RangeQuery(radius=1.0).describe(), "sequence": sequence}
        status, envelope = app_request(app, "POST", "/search", body)
        assert status == 422
        assert all(name in envelope["error"] for name in named), envelope["error"]
        assert envelope["matches"] == []
        status, payload = app_request(
            app, "POST", "/search/batch", {"requests": [search_body(TOPK, pattern_query), body]}
        )
        assert status == 200
        good, bad = payload["results"]
        assert good["error"] is None and good["matches"]
        assert all(name in bad["error"] for name in named) and bad["matches"] == []

    def test_a_short_batch_entry_carries_its_own_error(self, app, pattern_query):
        short = Sequence.from_values([1.0, 2.0, 3.0], seq_id="short")
        status, payload = app_request(
            app,
            "POST",
            "/search/batch",
            {"requests": [search_body(TOPK, pattern_query), search_body(TOPK, short)]},
        )
        assert status == 200
        good, bad = payload["results"]
        assert good["error"] is None and good["matches"]
        assert "shorter than the smallest segment length" in bad["error"]
        assert bad["matches"] == []


# --------------------------------------------------------------------- #
# The real socket: stdlib server + concurrency guarantee
# --------------------------------------------------------------------- #
class TestLiveServer:
    def test_round_trip_over_a_real_socket(self, planted_db, pattern_query, config):
        service = make_service(planted_db, config, "plain")
        with BackgroundServer(SearchApp(service)) as server:
            status, payload = server.request_json("GET", "/health")
            assert status == 200 and payload["status"] == "ok"

            status, envelope = server.request_json(
                "POST", "/search", search_body(TOPK, pattern_query)
            )
            assert status == 200
            assert len(envelope["matches"]) == 3

            status, payload = server.request_json("GET", "/nope")
            assert status == 404

    def test_sustains_eight_concurrent_queries_identical_to_serial(
        self, planted_db, pattern_query, config
    ):
        clients = 10
        body = search_body(TOPK, pattern_query, include_timings=False)

        # Serial reference: same requests, one at a time, fresh service.
        serial_service = make_service(planted_db, config, "plain")
        with BackgroundServer(SearchApp(serial_service)) as server:
            serial = [
                server.request_json("POST", "/search", body) for _ in range(clients)
            ]
        assert all(status == 200 for status, _ in serial)

        concurrent_service = make_service(planted_db, config, "plain")
        app = SearchApp(concurrent_service, max_in_flight=16)
        responses = [None] * clients
        barrier = threading.Barrier(clients)

        def fire(position, server):
            barrier.wait()
            responses[position] = server.request_json("POST", "/search", body)

        with BackgroundServer(app) as server:
            # Hold the service lock so every admitted query queues behind
            # it: the in-flight gauge must reach all 10 clients at once.
            with concurrent_service._lock:
                threads = [
                    threading.Thread(target=fire, args=(position, server))
                    for position in range(clients)
                ]
                for thread in threads:
                    thread.start()
                deadline = 10.0
                import time as time_module

                started = time_module.perf_counter()
                peak = 0
                while time_module.perf_counter() - started < deadline:
                    peak = max(peak, server.request_json("GET", "/health")[1]["in_flight"])
                    if peak >= clients:
                        break
                assert peak >= 8, f"never saw 8 queries in flight (peak {peak})"
            for thread in threads:
                thread.join(timeout=30)
        assert all(response is not None for response in responses)
        assert all(status == 200 for status, _ in responses)

        # Byte-identical to the serial run.  All requests are the same, so
        # compare as multisets: the first query on each server computes
        # distances cold, the rest replay the warm cache identically.
        serial_bytes = sorted(canonical_json(envelope) for _, envelope in serial)
        concurrent_bytes = sorted(
            canonical_json(envelope) for _, envelope in responses
        )
        assert concurrent_bytes == serial_bytes


def raw_exchange(server, request: bytes):
    """Send ``request`` bytes verbatim; returns ``(status, content type, JSON body)``."""
    with socket.create_connection((server.host, server.port), timeout=10) as connection:
        connection.sendall(request)
        response = http.client.HTTPResponse(connection)
        response.begin()
        body = response.read()
        return response.status, response.getheader("Content-Type"), json.loads(body)


class TestTransport:
    """What the socket handler adds to :meth:`SearchApp.handle`."""

    @pytest.fixture
    def server(self, planted_db, config):
        with BackgroundServer(SearchApp(make_service(planted_db, config, "plain"))) as live:
            yield live

    @pytest.mark.parametrize("seq_id", ["x%41y", "x/y", "x y"])
    def test_a_percent_encoded_id_is_decoded_once(self, server, seq_id):
        sequence = Sequence.from_values(np.linspace(0.0, 1.0, 30), seq_id=seq_id)
        status, payload = server.request_json(
            "POST", "/sequences", {"sequence": sequence_to_wire(sequence)}
        )
        assert status == 200 and payload["seq_id"] == seq_id
        status, payload = server.request_json(
            "DELETE", "/sequences/" + urllib.parse.quote(seq_id, safe="")
        )
        assert status == 200, payload
        assert payload["seq_id"] == seq_id
        assert payload["sequences"] == 3

    def test_an_over_cap_body_is_a_json_413_before_it_is_read(self, server):
        assert MAX_BODY_BYTES == 8 * 1024 * 1024
        # The forged length is never sent: the answer comes before the body.
        status, content_type, payload = raw_exchange(
            server,
            b"POST /search HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n{}" % (MAX_BODY_BYTES + 1),
        )
        assert status == 413
        assert content_type == "application/json"
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert server.app.metrics.snapshot()["parse_errors"] == 0  # the app never saw it

    @pytest.mark.parametrize("length", [b"-1", b"ten", b"1_0", b"\xd9\xa1"])
    def test_a_bad_content_length_is_a_json_400(self, server, length):
        status, content_type, payload = raw_exchange(
            server,
            b"POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: " + length + b"\r\n\r\n{}",
        )
        assert status == 400
        assert content_type == "application/json"
        assert "Content-Length" in payload["error"]

    def test_a_malformed_request_line_is_a_json_400(self, server):
        status, content_type, payload = raw_exchange(server, b"NOT A VALID REQUEST\r\n\r\n")
        assert status == 400
        assert content_type == "application/json"
        assert payload["error"]

    def test_idle_connections_are_closed_and_their_threads_end(self, server, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        baseline = threading.active_count()
        idle = [socket.create_connection((server.host, server.port), timeout=10) for _ in range(20)]
        try:
            deadline = time.monotonic() + 10
            while threading.active_count() < baseline + 20 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() >= baseline + 20  # one thread per idle socket
            while threading.active_count() > baseline and time.monotonic() < deadline:
                assert server.request_json("GET", "/health")[0] == 200
                time.sleep(0.05)
            assert threading.active_count() <= baseline
            assert server.request_json("GET", "/health")[0] == 200
            assert all(connection.recv(1) == b"" for connection in idle)  # closed by the server
        finally:
            for connection in idle:
                connection.close()

    def test_a_body_that_stalls_is_a_json_408(self, server, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        status, content_type, payload = raw_exchange(
            server, b'POST /search HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n\r\n{"que'
        )
        assert status == 408
        assert content_type == "application/json"
        assert "0.5 seconds" in payload["error"]
        assert server.app.in_flight == 0

    def test_every_method_reaches_the_app(self, server):
        assert server.request_json("GET", "/health?verbose=1")[0] == 200
        status, payload = server.request_json("PUT", "/search")
        assert status == 405 and "use POST" in payload["error"]
        status, payload = server.request_json("PURGE", "/health")
        assert status == 405 and "use GET" in payload["error"]
        assert server.request_json("PATCH", "/nope")[0] == 404

    def test_admission_accounting_holds_under_contention(self, server, pattern_query):
        # More clients than slots and cores, with a short switch interval:
        # a lost update to the admission counter or the metrics shows as a
        # leaked slot or a count that does not add up.
        server.app.max_in_flight = 3
        body = search_body(TOPK, pattern_query, include_timings=False)
        statuses = []
        answers = set()
        lock = threading.Lock()

        def client():
            for _ in range(4):
                status, payload = server.request_json("POST", "/search", body)
                with lock:
                    statuses.append(status)
                    if status == 200:
                        answers.add(canonical_json(payload["matches"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(statuses) == 48 and set(statuses) <= {200, 503}
        metrics = server.app.metrics.snapshot()
        assert metrics["queries_served"] == statuses.count(200) > 0
        assert metrics["rejected"] == statuses.count(503)
        assert server.app.in_flight == 0
        assert server._server.drain(timeout=10)  # no accepted connection left open
        assert len(answers) == 1

    def test_an_exception_in_admitted_work_is_a_json_500(
        self, server, pattern_query, monkeypatch
    ):
        def broken_execute_many(*args, **kwargs):
            raise RuntimeError("matcher exploded")

        monkeypatch.setattr(server.app.service, "execute_many", broken_execute_many)
        for path, body in (
            ("/search", search_body(TOPK, pattern_query)),
            ("/search/batch", {"requests": [search_body(TOPK, pattern_query)]}),
        ):
            status, payload = server.request_json("POST", path, body)
            assert status == 500
            assert "matcher exploded" in payload["error"]
            assert server.app.in_flight == 0


class TestShutdown:
    def test_sigterm_answers_the_batch_in_flight_then_writes_the_snapshot(self, tmp_path):
        corpus, snapshot = tmp_path / "songs.npz", tmp_path / "songs-matcher.npz"
        assert cli_main(["generate", "songs", str(corpus), "--windows", "80", "--seed", "1"]) == 0
        build = ["snapshot", str(corpus), str(snapshot), "--dataset", "songs"]
        assert cli_main(build + ["--min-length", "20", "--max-shift", "1"]) == 0
        database = load_database(corpus)
        queries = [generate_song_query(database, length=60, seed=seed)[0] for seed in range(6)]
        # Six distinct top-k queries: a batch of a few seconds on this corpus.
        batch = {"requests": [search_body(TOPK, query) for query in queries], "timeout": 60}
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        command = [sys.executable, "-m", "repro.cli", "serve", str(snapshot), "--snapshot"]
        process = subprocess.Popen(
            command + ["--port", "0"], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            port = int(process.stdout.readline().rsplit(":", 1)[1])
            client = BackgroundServer(None, port=port)  # only its client is used
            answer = {}

            def send_batch():
                try:
                    answer["status"] = client.request_json("POST", "/search/batch", batch)[0]
                except (OSError, http.client.HTTPException) as error:
                    answer["dropped"] = error

            sender = threading.Thread(target=send_batch)
            sender.start()
            deadline = time.monotonic() + 60
            while client.request_json("GET", "/health")[1]["in_flight"] != 1:
                assert sender.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            sender.join(timeout=90)
            assert not sender.is_alive()
            assert answer.get("status") in (200, 504), answer
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0
        assert f"wrote snapshot back to {snapshot}" in output
        restored = SearchService(snapshot)
        assert len(restored.backend.database) == len(database)
        restored.execute(TOPK.bind(queries[0]))


# --------------------------------------------------------------------- #
# Optional smoke against an externally launched `repro serve`
# --------------------------------------------------------------------- #
@pytest.mark.skipif(
    "REPRO_SERVER_URL" not in os.environ,
    reason="set REPRO_SERVER_URL to smoke-test a live `repro serve` process",
)
class TestExternalServer:
    """CI starts `repro serve` and points REPRO_SERVER_URL at it."""

    def request(self, method, path, payload=None):
        import http.client
        import urllib.parse

        parsed = urllib.parse.urlparse(os.environ["REPRO_SERVER_URL"])
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port or 80, timeout=30
        )
        try:
            body = None if payload is None else json.dumps(payload).encode("utf-8")
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            raw = response.read()
            return response.status, json.loads(raw.decode("utf-8")) if raw else None
        finally:
            connection.close()

    def test_health(self):
        status, payload = self.request("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema_version"] == 2

    def test_search_round_trip(self):
        generator = np.random.default_rng(5)
        query = Sequence.from_values(
            np.cumsum(generator.normal(size=30)), seq_id="smoke"
        )
        status, envelope = self.request(
            "POST",
            "/search",
            search_body(TopKQuery(k=1, max_radius=50.0), query, request_id="smoke-1"),
        )
        # The external corpus is arbitrary: a clean answer or a clean
        # query-failure envelope are both healthy outcomes.
        assert status in (200, 422)
        assert envelope["schema_version"] == 2
        assert envelope["request_id"] == "smoke-1"
        assert envelope["config"]["fingerprint"]

    def test_parse_error_envelope(self):
        status, envelope = self.request("POST", "/search", {"query": {"type": "fuzzy"}})
        assert status == 400
        assert "error" in envelope and envelope["error"]

    def test_metrics(self):
        status, payload = self.request("GET", "/metrics")
        assert status == 200
        assert payload["queries_served"] >= 1
