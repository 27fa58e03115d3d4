"""Benchmark-owned tracing: which callables belong to which layer, and the spans.

The program under test has no tracing of its own, so the traced run wraps
each layer's callables *from outside*: :data:`LAYER_TARGETS` names them as
``"module:attribute.path"`` strings that are resolved when the traced run
starts.  A target that no longer exists is reported in
:attr:`Tracer.untraced` and its layer simply loses that span -- a later PR
may delete or rename anything listed here without breaking the benchmark.

A span is ``(name, start, end, parent, op)``.  Raw spans are kept in memory
up to :data:`MAX_RAW_SPANS`; the per-layer numbers come from running
aggregates (calls, total seconds, self seconds = duration minus the part
covered by child spans), so they stay exact past the cap.  The current span
lives in a :mod:`contextvars` variable, which keeps parent links right both
across threads and across interleaved asyncio tasks in the server.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans kept per process; aggregates keep counting past it.
MAX_RAW_SPANS = 200_000

_perf_counter = time.perf_counter


class Tracer:
    """Span recorder shared by every wrapper installed in one process."""

    def __init__(self) -> None:
        #: Wrappers call straight through while this is false, so set-up and
        #: warm-up ops run at (almost) untraced speed inside a traced run.
        self.enabled = False
        self.untraced: List[str] = []
        #: ``(id, name, start, end, parent id, op id)``, in closing order.
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[str]]] = []
        self.spans_dropped = 0
        self._span_ids = itertools.count()
        self._current = contextvars.ContextVar("ledger_span", default=None)
        self._op = contextvars.ContextVar("ledger_op", default=None)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_tables: List[Dict[str, list]] = []
        #: Counts reported by hooks (pairs, cells, evictions, ...).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Hand-off from an async parent to the worker thread it spawns:
        #: ``id(payload) -> op id`` (contextvars do not cross run_in_executor).
        self.op_handoff: Dict[int, str] = {}
        #: The service seen serving requests (the launcher reads its cache size).
        self.service = None

    # ------------------------------------------------------------------ #
    # Op identity
    # ------------------------------------------------------------------ #
    def set_op(self, op_id: Optional[str]) -> None:
        """Tag every span opened from this context with ``op_id``."""
        self._op.set(op_id)

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def _table(self) -> Dict[str, list]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            with self._lock:
                self._thread_tables.append(table)
        return table

    def _open(self, name: str):
        # frame: [name, start, seconds covered by children, parent frame, span id]
        frame = [name, 0.0, 0.0, self._current.get(), next(self._span_ids)]
        token = self._current.set(frame)
        frame[1] = _perf_counter()
        return frame, token

    def _close(self, frame, token) -> None:
        end = _perf_counter()
        self._current.reset(token)
        name, start, covered, parent, span_id = frame
        duration = end - start
        if parent is not None:
            parent[2] += duration
        table = self._table()
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered
        if len(self.spans) < MAX_RAW_SPANS:
            self.spans.append(
                (span_id, name, start, end, None if parent is None else parent[4], self._op.get())
            )
        else:
            self.spans_dropped += 1

    def wrap(self, name: Optional[str], fn: Callable, enter=None, leave=None) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``enter(tracer, args, kwargs)`` runs before the span opens and
        ``leave(tracer, args, kwargs, result)`` after it closes; both are
        outside the timed interval.  Coroutine functions get an async
        wrapper and generator functions are drained inside the span.  With
        ``name=None`` only the hooks run: no span is recorded.
        """
        tracer = self

        if name is None:

            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                if tracer.enabled and enter is not None:
                    enter(tracer, args, kwargs)
                return fn(*args, **kwargs)

            return hooked

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                if enter is not None:
                    enter(tracer, args, kwargs)
                frame, token = tracer._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(frame, token)
                if leave is not None:
                    leave(tracer, args, kwargs, result)
                return result

            return traced_async

        drain = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(tracer, args, kwargs)
            frame, token = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                tracer._close(frame, token)
            if leave is not None:
                leave(tracer, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, total_s, self_s}}`` summed over threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            tables = list(self._thread_tables)
        for table in tables:
            for name, (calls, total, own) in list(table.items()):
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return {
            name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
            for name, row in sorted(merged.items())
        }

    def dump(self) -> Dict[str, object]:
        """Everything a traced process hands back, JSON-safe."""
        return {
            "spans": self.aggregates(),
            "counts": dict(self.counts),
            "untraced": list(self.untraced),
            "spans_recorded": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }


def write_spans(tracer: Tracer, path: str) -> None:
    """The raw spans as JSON lines (``--spans``)."""
    with open(path, "w") as handle:
        for span_id, name, start, end, parent, op in tracer.spans:
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "op": op}
            handle.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------- #
# Hooks: counts taken at the span boundary, outside the timed interval
# --------------------------------------------------------------------- #
def _pair_cells(tracer: Tracer, args, kwargs, result) -> None:
    # Distance.__call__(self, first, second) / bounded(self, first, second, cutoff)
    tracer.counts["kernel_pairs"] += 1
    tracer.counts["kernel_cells"] += len(args[1]) * len(args[2])


def _batch_cells(tracer: Tracer, args, kwargs, result) -> None:
    # compute_batch(self, query, items, cutoff): items is a (k, n[, d]) tensor
    items = args[2]
    tracer.counts["kernel_pairs"] += len(items)
    tracer.counts["kernel_cells"] += len(args[1]) * len(items) * (
        items.shape[1] if getattr(items, "ndim", 1) > 1 else 1
    )


def _store_enter(tracer: Tracer, args, kwargs) -> None:
    """Decide, before a store, whether it will evict.

    At capacity a store of a *new* key evicts exactly one entry and a store
    of a known key evicts none, so one membership test -- taken only when
    the cache is full -- counts evictions exactly.  ``DistanceCache`` is
    asked through ``len`` / ``peek``; the bulk ``_ReplayView`` (handed out
    while the cache lock is held) through its ``entries`` dict.
    """
    cache, first, second = args[0], args[1], args[2]
    capacity = getattr(cache, "max_entries", None)
    if capacity is None:
        return
    entries = getattr(cache, "entries", None)
    if entries is not None:
        if len(entries) >= capacity and (first, second) not in entries:
            tracer.counts["cache_evictions"] += 1
    elif len(cache) >= capacity and cache.peek(first, second, float("-inf")) is None:
        tracer.counts["cache_evictions"] += 1


def _admit_enter(tracer: Tracer, args, kwargs) -> None:
    # SearchApp._run_admitted(self, request): tag the request's spans, and
    # leave the id where the worker thread that runs the spec can find it.
    request = args[1]
    tracer.set_op(request.request_id)
    tracer.op_handoff[id(request.spec)] = request.request_id


def _execute_many_enter(tracer: Tracer, args, kwargs) -> None:
    # SearchService.execute_many(self, specs, ...): pick up the hand-off.
    tracer.service = args[0]
    specs = args[1]
    if specs:
        op_id = tracer.op_handoff.pop(id(specs[0]), None)
        if op_id is not None:
            tracer.set_op(op_id)


#: ``(span name, target, enter hook, leave hook)``.  The span name is the
#: layer; metrics derived from it are listed in ``run.py``'s ``SPAN_METRICS``.
LAYER_TARGETS: List[Tuple[Optional[str], str, Optional[Callable], Optional[Callable]]] = [
    # sequences: windowing and the packed window tensors
    ("sequences.windows", "repro.core.matcher:partition_database", None, None),
    ("sequences.windows", "repro.core.matcher:tumbling_windows", None, None),
    ("sequences.pack", "repro.sequences.packed:PackedWindowStore.add", None, None),
    ("sequences.pack", "repro.sequences.packed:PackedWindowStore.remove", None, None),
    ("sequences.pack", "repro.sequences.packed:PackedWindowStore.group_tensor", None, None),
    ("sequences.pack", "repro.sequences.packed:StoreGather.gather", None, None),
    # distances: the DP kernels (coercion + compiled/NumPy sweep) ...
    ("distances.kernel", "repro.distances.base:Distance.__call__", None, _pair_cells),
    ("distances.kernel", "repro.distances.base:Distance.bounded", None, _pair_cells),
    ("distances.kernel", "repro.distances.frechet:DiscreteFrechet.compute_batch", None, _batch_cells),
    ("distances.kernel", "repro.distances.levenshtein:Levenshtein.compute_batch", None, _batch_cells),
    ("distances.kernel", "repro.distances.erp:ERP.compute_batch", None, _batch_cells),
    # ... the lower-bound prefilter in front of them ...
    ("distances.prefilter", "repro.indexing.stats:combined_bound", None, None),
    ("distances.prefilter", "repro.indexing.stats:combined_batch_bound", None, None),
    # ... and the distance cache (single calls and the bulk view).
    ("distances.cache_lookup", "repro.distances.cache:DistanceCache.lookup", None, None),
    ("distances.cache_lookup", "repro.distances.cache:_ReplayView.lookup", None, None),
    ("distances.cache_store", "repro.distances.cache:DistanceCache.store", _store_enter, None),
    ("distances.cache_store", "repro.distances.cache:_ReplayView.store", _store_enter, None),
    ("distances.recording", "repro.indexing.base:run_query_work_units", None, None),
    ("distances.recording", "repro.distances.recording:RecordingVerifyCache.replay_into", None, None),
    # indexing: build, traversal, the counting wrapper, incremental updates
    ("indexing.build", "repro.indexing.reference_net:ReferenceNet.add", None, None),
    ("indexing.build", "repro.indexing.linear_scan:LinearScanIndex.add", None, None),
    ("indexing.traverse", "repro.indexing.base:MetricIndex.batch_range_query", None, None),
    ("indexing.traverse", "repro.indexing.base:MetricIndex.range_query", None, None),
    ("indexing.counting", "repro.indexing.stats:CountingDistance.__call__", None, None),
    ("indexing.counting", "repro.indexing.stats:CountingDistance.bounded", None, None),
    ("indexing.counting", "repro.indexing.stats:CountingDistance.batch", None, None),
    ("indexing.insert", "repro.indexing.base:MetricIndex.insert", None, None),
    ("indexing.delete", "repro.indexing.base:MetricIndex.delete", None, None),
    # core: pipeline stages, verification, matcher build, the service facade
    ("core.pipeline", "repro.core.pipeline:QueryPipeline.probe", None, None),
    ("core.pipeline", "repro.core.pipeline:QueryPipeline.chain", None, None),
    ("core.pipeline", "repro.core.pipeline:QueryPipeline.run_range", None, None),
    ("core.pipeline", "repro.core.pipeline:QueryPipeline.run_longest", None, None),
    ("core.pipeline", "repro.core.pipeline:QueryPipeline.run_scored_pass", None, None),
    ("core.verification", "repro.core.pipeline:verify_chain", None, None),
    ("core.verification", "repro.core.pipeline:enumerate_matches", None, None),
    ("core.matcher", "repro.core.matcher:SubsequenceMatcher.__init__", None, None),
    ("core.service", "repro.core.service:SearchService.execute", None, None),
    ("core.service", "repro.core.service:SearchService.execute_many", _execute_many_enter, None),
    ("core.service", "repro.core.service:SearchService.add_sequence", None, None),
    ("core.service", "repro.core.service:SearchService.remove_sequence", None, None),
    ("core.executor", "repro.core.executor:ThreadPoolExecutor.run", None, None),
    ("core.executor", "repro.core.executor:ProcessPoolExecutor.run", None, None),
    ("core.sharded", "repro.core.sharded:ShardedMatcher._fan_out", None, None),
    # wire + server (only reached in the traced server of http-mixed)
    ("core.wire.decode", "repro.server.app:parse_search_request", None, None),
    ("core.wire.decode", "repro.server.app:sequence_from_wire", None, None),
    ("core.wire.encode", "repro.server.app:result_envelope", None, None),
    # No span of its own: it only awaits the worker thread, whose spans would
    # be counted twice.  The hook ties the request id to that thread's spans.
    (None, "repro.server.app:SearchApp._run_admitted", _admit_enter, None),
    ("server.http", "repro.server.app:_read_json", None, None),
    ("server.http", "repro.server.app:_send_json", None, None),
]


def _resolve(target: str):
    """``(owner, attribute name, callable)`` for ``"module:attr.path"``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer) -> Tracer:
    """Wrap every resolvable target of :data:`LAYER_TARGETS` in place."""
    for name, target, enter, leave in LAYER_TARGETS:
        try:
            owner, attribute, fn = _resolve(target)
        except (ImportError, AttributeError):
            tracer.untraced.append(target)
            continue
        setattr(owner, attribute, tracer.wrap(name, fn, enter, leave))
    return tracer
