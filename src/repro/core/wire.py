"""The wire format shared by ``repro search --json`` and the HTTP service.

PR 5 made the declarative specs and :class:`~repro.core.queries.QueryResult`
the single source of truth for what a query means; this module is the single
source of truth for how those objects travel as JSON.  Both the CLI's
``--json`` flag and every ``repro.server`` endpoint build their payloads
here, so the two surfaces cannot drift: the same bound spec produces the
byte-identical envelope whichever door it enters through.

Schema
------
``schema_version`` 2 (current) extends version 1 with a top-level
``request_id`` (client-suppliable, echoed verbatim; ``None`` when the caller
does not care) and a ``server`` block identifying the software that produced
the envelope.  Version 1 is still *accepted on input* -- a request carrying
``"schema_version": 1`` parses fine; responses are always version 2.

Envelope keys: ``schema_version``, ``request_id``, ``server``, ``query``
(the spec's :meth:`~repro.core.queries.BaseQuery.describe` echo),
``query_origin`` (provenance of the query sequence; ``None`` unless the
caller supplies one), ``matches``, ``total_matches``, ``error``, ``stats``,
and ``config`` (backend fingerprint + full matcher configuration).

Requests (``parse_search_request``) carry the spec under ``query``, the
query sequence under ``sequence`` (see :func:`sequence_from_wire`), and the
optional knobs ``request_id``, ``query_origin``, ``executor``, ``workers``,
``timeout``, and ``include_timings`` (set it ``false`` to zero out the
wall-clock blocks and make two identical requests byte-identical).
Unknown fields anywhere are rejected -- a misspelled parameter must never
silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

import numpy as np

from repro.core.queries import (
    BaseQuery,
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    QueryResult,
    QueryStats,
    RangeQuery,
    SubsequenceMatch,
    TopKQuery,
)
from repro.exceptions import QueryError, SequenceError
from repro.sequences.alphabet import Alphabet
from repro.sequences.sequence import Sequence, SequenceKind

#: The schema version every envelope built here reports.
WIRE_SCHEMA_VERSION = 2

#: Schema versions accepted on *input* (responses are always the current one).
ACCEPTED_SCHEMA_VERSIONS = (1, 2)

#: The ``server`` block of every version-2 envelope.  Static by design: the
#: CLI and the HTTP service must emit byte-identical envelopes for the same
#: spec, so nothing host- or process-specific may appear here.
SERVER_NAME = "repro-search"

#: ``type`` discriminator -> spec class, the inverse of ``BaseQuery.kind``.
SPEC_TYPES = {
    RangeQuery.kind: RangeQuery,
    LongestSubsequenceQuery.kind: LongestSubsequenceQuery,
    NearestSubsequenceQuery.kind: NearestSubsequenceQuery,
    TopKQuery.kind: TopKQuery,
}

#: Wire coercions per spec field: JSON gives us loose numbers ("3" vs 3 vs
#: 3.0); these normalise them before the dataclass validation runs so a bad
#: type surfaces as a QueryError, not a TypeError deep in the sweep.
_OPTIONAL_SPEC_FIELDS = frozenset({"max_results", "radius_increment", "limit"})
_SPEC_FIELD_COERCERS = {
    "radius": float,
    "max_radius": float,
    "tolerance": float,
    "radius_increment": float,
    "k": int,
    "max_results": int,
    "limit": int,
    "offset": int,
    "exhaustive": bool,
}


def _server_block() -> Dict[str, str]:
    # Imported lazily: repro/__init__ imports repro.core, which imports this
    # module, so a top-level ``from repro import __version__`` would cycle.
    from repro import __version__

    return {"name": SERVER_NAME, "version": __version__}


# --------------------------------------------------------------------- #
# Spec codec
# --------------------------------------------------------------------- #
def spec_to_wire(spec: BaseQuery) -> Dict[str, object]:
    """The JSON-safe echo of a spec -- its ``describe()`` dictionary."""
    return spec.describe()


def parse_spec(payload) -> BaseQuery:
    """Build an (unbound) query spec from its wire dictionary.

    The payload is exactly what :meth:`~repro.core.queries.BaseQuery.describe`
    emits: a ``type`` discriminator plus the spec's scalar fields.  Unknown
    types and unknown fields raise :class:`~repro.exceptions.QueryError`;
    so do out-of-range values, via the spec's own validation.
    """
    if not isinstance(payload, dict):
        raise QueryError(f"query must be a JSON object, got {type(payload).__name__}")
    if "type" not in payload:
        raise QueryError("query is missing the 'type' discriminator")
    kind = payload["type"]
    spec_class = SPEC_TYPES.get(kind)
    if spec_class is None:
        raise QueryError(
            f"unknown query type {kind!r}; expected one of {sorted(SPEC_TYPES)}"
        )
    allowed = {f.name for f in fields(spec_class)} - {"query"}
    unknown = set(payload) - allowed - {"type"}
    if unknown:
        raise QueryError(
            f"unknown field(s) for {kind!r} query: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    kwargs = {}
    for name, value in payload.items():
        if name == "type":
            continue
        kwargs[name] = _coerce_spec_field(kind, name, value)
    return spec_class(**kwargs)


def _coerce_spec_field(kind: str, name: str, value):
    if value is None:
        if name in _OPTIONAL_SPEC_FIELDS:
            return None
        raise QueryError(f"field {name!r} of a {kind!r} query must not be null")
    coerce = _SPEC_FIELD_COERCERS.get(name)
    if coerce is None:
        return value
    if coerce is bool:
        if not isinstance(value, bool):
            raise QueryError(f"field {name!r} of a {kind!r} query must be a boolean")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(
            f"field {name!r} of a {kind!r} query must be a number, got {value!r}"
        )
    # A NaN or infinite float is not integral either; for the float fields
    # the spec itself rejects it, naming the field.
    if coerce is int and isinstance(value, float) and not value.is_integer():
        raise QueryError(
            f"field {name!r} of a {kind!r} query must be an integer, got {value!r}"
        )
    try:
        return coerce(value)
    except OverflowError:
        raise QueryError(
            f"field {name!r} of a {kind!r} query is too large for a float"
        ) from None


# --------------------------------------------------------------------- #
# Sequence codec
# --------------------------------------------------------------------- #
def sequence_to_wire(sequence: Sequence) -> Dict[str, object]:
    """A JSON-safe dictionary that :func:`sequence_from_wire` round-trips."""
    payload: Dict[str, object] = {
        "kind": sequence.kind.value,
        "values": sequence.to_list(),
    }
    if sequence.seq_id is not None:
        payload["seq_id"] = sequence.seq_id
    if sequence.alphabet is not None:
        payload["alphabet"] = "".join(sequence.alphabet.symbols)
        payload["alphabet_name"] = sequence.alphabet.name
    return payload


_SEQUENCE_FIELDS = frozenset(
    {"kind", "values", "text", "seq_id", "alphabet", "alphabet_name"}
)

#: The most values one wire sequence may carry: a character of ``text``, a
#: number of a series, a coordinate of a trajectory point.  The longest
#: sequence any example, test, CI step or benchmark workload sends holds a
#: few hundred; a body under the byte cap could hold ~450 k.
MAX_SEQUENCE_VALUES = 100_000


class PayloadTooLarge(QueryError):
    """A request that is well-formed but larger than the service runs (HTTP 413)."""


def _holds_boolean(values) -> bool:
    """Whether a JSON value -- a number or a (nested) array -- holds a boolean."""
    if isinstance(values, list):
        return any(map(_holds_boolean, values))
    return isinstance(values, bool)


def sequence_from_wire(payload) -> Sequence:
    """Build a :class:`~repro.sequences.sequence.Sequence` from its wire form.

    ``kind`` selects the family; the elements arrive either as ``values``
    (a flat list for strings/series, a list of points for trajectories) or
    -- for strings only -- as ``text`` decoded through the mandatory
    ``alphabet`` (its symbols in code order, e.g. ``"ACGT"``).
    """
    if not isinstance(payload, dict):
        raise QueryError(f"sequence must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - _SEQUENCE_FIELDS
    if unknown:
        raise QueryError(
            f"unknown sequence field(s): {sorted(unknown)}; "
            f"allowed: {sorted(_SEQUENCE_FIELDS)}"
        )
    try:
        kind = SequenceKind(payload.get("kind"))
    except ValueError:
        raise QueryError(
            f"unknown sequence kind {payload.get('kind')!r}; expected one of "
            f"{sorted(k.value for k in SequenceKind)}"
        ) from None
    seq_id = payload.get("seq_id")
    if seq_id is not None and not isinstance(seq_id, str):
        raise QueryError("sequence 'seq_id' must be a string")
    alphabet = None
    if payload.get("alphabet") is not None:
        symbols = payload["alphabet"]
        if not isinstance(symbols, str):
            raise QueryError("sequence 'alphabet' must be a string of symbols")
        try:
            alphabet = Alphabet(symbols, name=payload.get("alphabet_name") or "wire")
        except Exception as error:
            raise QueryError(f"invalid sequence alphabet: {error}") from None
    if "text" in payload and "values" in payload:
        raise QueryError("sequence carries both 'text' and 'values'; send exactly one")
    elements = payload.get("text", payload.get("values"))
    if isinstance(elements, (str, list)):
        width = len(elements[0]) if elements and isinstance(elements[0], list) else 1
        if len(elements) * width > MAX_SEQUENCE_VALUES:
            raise PayloadTooLarge(f"sequence exceeds the {MAX_SEQUENCE_VALUES}-value cap")
    try:
        if "text" in payload:
            if kind is not SequenceKind.STRING:
                raise QueryError("'text' is only valid for string sequences")
            if alphabet is None:
                raise QueryError("a textual string sequence needs an 'alphabet'")
            return Sequence.from_string(payload["text"], alphabet, seq_id=seq_id)
        if "values" not in payload:
            raise QueryError("sequence is missing its 'values' (or 'text')")
        if _holds_boolean(payload["values"]):  # np.asarray would read them as 1 / 0
            raise QueryError("sequence 'values' must be numbers, not true / false")
        values = np.asarray(payload["values"])
        if values.dtype == object:
            raise QueryError("sequence 'values' must be a homogeneous numeric array")
        if values.dtype.kind in "fc" and not np.isfinite(values).all():
            raise QueryError("sequence 'values' must be finite numbers (no NaN or Infinity)")
        return Sequence(values, kind, seq_id=seq_id, alphabet=alphabet)
    except QueryError:
        raise
    except (SequenceError, TypeError, ValueError) as error:
        raise QueryError(f"malformed sequence: {error}") from None


# --------------------------------------------------------------------- #
# Result envelopes
# --------------------------------------------------------------------- #
def match_to_wire(match: SubsequenceMatch) -> Dict[str, object]:
    """One verified match as its stable wire dictionary."""
    return {
        "source_id": match.source_id,
        "query_start": match.query_start,
        "query_stop": match.query_stop,
        "db_start": match.db_start,
        "db_stop": match.db_stop,
        "distance": match.distance,
        "length": match.length,
    }


def stats_to_wire(stats: QueryStats, include_timings: bool = True) -> Dict[str, object]:
    """The work-accounting block of the envelope.

    With ``include_timings=False`` the wall-clock dictionaries are emptied
    (they are the only run-to-run varying part of the envelope), which is
    what makes byte-for-byte CLI-vs-HTTP parity testable.
    """
    return {
        "segments_extracted": stats.segments_extracted,
        "segment_matches": stats.segment_matches,
        "candidate_chains": stats.candidate_chains,
        "index_distance_computations": stats.index_distance_computations,
        "verification_distance_computations": stats.verification_distance_computations,
        "index_cache_hits": stats.index_cache_hits,
        "verification_cache_hits": stats.verification_cache_hits,
        "prefilter_evaluations": stats.prefilter_evaluations,
        "prefilter_pruned": stats.prefilter_pruned,
        "table_segments": stats.table_segments,
        "naive_distance_computations": stats.naive_distance_computations,
        "pruning_ratio": stats.pruning_ratio,
        "passes": len(stats.passes),
        "executor": stats.executor,
        "workers": stats.workers,
        "kernel_backend": stats.kernel_backend,
        "shards": stats.shards,
        "stage_seconds": dict(stats.stage_timings) if include_timings else {},
        "cpu_stage_seconds": dict(stats.cpu_stage_timings) if include_timings else {},
    }


def config_block(service) -> Dict[str, object]:
    """The backend-identity block: fingerprint plus the full configuration."""
    backend = service.backend
    return {
        "fingerprint": service.fingerprint(),
        "backend": type(backend).__name__,
        "distance": backend.distance.name,
        **asdict(backend.config),
    }


def result_envelope(
    result: QueryResult,
    service,
    *,
    request_id: Optional[str] = None,
    query_origin: Optional[Dict[str, object]] = None,
    include_timings: bool = True,
) -> Dict[str, object]:
    """The versioned envelope for one :class:`QueryResult`.

    This is the promoted ``repro search --json`` builder: the CLI and every
    HTTP endpoint call exactly this function, so their envelopes cannot
    diverge.  ``request_id`` and ``query_origin`` are echoed verbatim
    (``None`` when the caller supplies neither).
    """
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "request_id": request_id,
        "server": _server_block(),
        "query": result.query.describe(),
        "query_origin": query_origin,
        "matches": [match_to_wire(match) for match in result.matches],
        "total_matches": result.total_matches,
        "error": result.error,
        "stats": stats_to_wire(result.stats, include_timings=include_timings),
        "config": config_block(service),
    }


def error_envelope(
    message: str,
    *,
    request_id: Optional[str] = None,
    query: Optional[Dict[str, object]] = None,
    query_origin: Optional[Dict[str, object]] = None,
    stats: Optional[QueryStats] = None,
    service=None,
    include_timings: bool = True,
) -> Dict[str, object]:
    """The envelope for a request that never produced a :class:`QueryResult`.

    Same keys as :func:`result_envelope` -- clients parse one shape -- with
    ``matches`` empty, ``error`` set, zeroed statistics unless the failing
    query did real work, and ``config: None`` when the failure happened
    before a backend was even involved.
    """
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "request_id": request_id,
        "server": _server_block(),
        "query": query,
        "query_origin": query_origin,
        "matches": [],
        "total_matches": 0,
        "error": str(message),
        "stats": stats_to_wire(stats or QueryStats(), include_timings=include_timings),
        "config": config_block(service) if service is not None else None,
    }


# --------------------------------------------------------------------- #
# Search requests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SearchRequest:
    """One parsed ``POST /search`` body: a bound spec plus per-request knobs."""

    #: The spec, bound to the request's query sequence.
    spec: BaseQuery
    request_id: Optional[str] = None
    #: Echoed verbatim into the response envelope.
    query_origin: Optional[Dict[str, object]] = None
    #: Per-request execution-engine override (see ``SearchService.execute``).
    executor: Optional[str] = None
    workers: Optional[int] = None
    #: Per-request deadline in seconds (server-enforced; None = server default).
    timeout: Optional[float] = None
    include_timings: bool = True


_REQUEST_FIELDS = frozenset(
    {
        "schema_version",
        "query",
        "sequence",
        "request_id",
        "query_origin",
        "executor",
        "workers",
        "timeout",
        "include_timings",
    }
)


def parse_timeout(timeout) -> float:
    """A request's ``timeout`` field: a positive, finite number of seconds."""
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not (
        0 < timeout < math.inf
    ):
        raise QueryError(f"'timeout' must be a positive number, got {timeout!r}")
    return float(timeout)


def parse_search_request(payload) -> SearchRequest:
    """Validate and parse one search-request body into a :class:`SearchRequest`.

    Accepts ``schema_version`` 1 or 2 (defaulting to the current version
    when absent); every other version, any unknown field, a malformed spec,
    or a malformed sequence raises :class:`~repro.exceptions.QueryError`.
    """
    if not isinstance(payload, dict):
        raise QueryError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise QueryError(
            f"unknown request field(s): {sorted(unknown)}; "
            f"allowed: {sorted(_REQUEST_FIELDS)}"
        )
    version = payload.get("schema_version", WIRE_SCHEMA_VERSION)
    if version not in ACCEPTED_SCHEMA_VERSIONS:
        raise QueryError(
            f"unsupported schema_version {version!r}; "
            f"accepted: {list(ACCEPTED_SCHEMA_VERSIONS)}"
        )
    if "query" not in payload:
        raise QueryError("request is missing its 'query' spec")
    if "sequence" not in payload:
        raise QueryError("request is missing its 'sequence'")
    spec = parse_spec(payload["query"])
    sequence = sequence_from_wire(payload["sequence"])

    request_id = payload.get("request_id")
    if request_id is not None and not isinstance(request_id, str):
        raise QueryError("'request_id' must be a string")
    query_origin = payload.get("query_origin")
    if query_origin is not None and not isinstance(query_origin, dict):
        raise QueryError("'query_origin' must be a JSON object")

    executor = payload.get("executor")
    if executor is not None:
        # Imported lazily to keep the wire module importable on its own.
        from repro.core.executor import EXECUTOR_NAMES

        if executor not in EXECUTOR_NAMES:
            raise QueryError(
                f"unknown executor {executor!r}; expected one of {sorted(EXECUTOR_NAMES)}"
            )
    workers = payload.get("workers")
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise QueryError(f"'workers' must be a positive integer, got {workers!r}")
    timeout = payload.get("timeout")
    if timeout is not None:
        timeout = parse_timeout(timeout)
    include_timings = payload.get("include_timings", True)
    if not isinstance(include_timings, bool):
        raise QueryError("'include_timings' must be a boolean")

    return SearchRequest(
        spec=spec.bind(sequence),
        request_id=request_id,
        query_origin=query_origin,
        executor=executor,
        workers=workers,
        timeout=timeout,
        include_timings=include_timings,
    )


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace -- the byte form the
    parity tests (CLI vs HTTP, serial vs concurrent) compare."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ACCEPTED_SCHEMA_VERSIONS",
    "SERVER_NAME",
    "SPEC_TYPES",
    "SearchRequest",
    "spec_to_wire",
    "parse_spec",
    "sequence_to_wire",
    "sequence_from_wire",
    "MAX_SEQUENCE_VALUES",
    "PayloadTooLarge",
    "match_to_wire",
    "stats_to_wire",
    "config_block",
    "result_envelope",
    "error_envelope",
    "parse_search_request",
    "canonical_json",
]
