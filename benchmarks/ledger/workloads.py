"""The four ledger workloads: inputs, set-up, timed ops, answer checks.

Every workload runs in its own child process (see ``run.py``) against the
program's *default* configuration -- ``MatcherConfig(min_length=40,
max_shift=1, index=...)`` and nothing else -- through the stable public
surface only.  Each op builds a fresh ``Sequence`` from its wire payload,
as a wire decode does; no query object is ever reused across ops.

Why these four (the README has the long form):

``fresh-range``    the paper's Type I on its own index with nothing to reuse:
                   index traversal and per-call counting dominate, and the
                   index build is paid inside the run (build, ask, exit).
``warm-topk``      content-identical repeats that fit the cache: zero fresh
                   DP work, so cache lookups, counters and sweep
                   orchestration do all the work -- the mirror image.
``stream-verify``  distinct wide-radius queries on one long-lived service
                   whose working set overflows the cache: verification and
                   cache store/evict dominate, probe does not.
``http-mixed``     the same pipeline behind the real HTTP server with two
                   closed-loop clients, a hot query pool and writes beside
                   reads: wire, HTTP and contention are on the path.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import (
    LongestSubsequenceQuery,
    MatcherConfig,
    RangeQuery,
    SearchService,
    SequenceDatabase,
    SubsequenceMatcher,
    TopKQuery,
    brute_force_matches,
    load_matcher,
    save_matcher,
)
from repro.core.wire import sequence_from_wire, sequence_to_wire, stats_to_wire
from repro.datasets import (
    generate_protein_query,
    generate_song_query,
    generate_trajectory_query,
    load_dataset,
)
from repro.datasets.loaders import dataset_distance

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]

#: ``--seconds`` this many gives the op counts the README documents.
NOMINAL_SECONDS = 15

QUERY_LENGTH = 80
WINDOW_LENGTH = 20

#: The corpus is part of the benchmark's definition, like a standard data
#: set: every seed searches the same database, so index shape, build cost
#: and memory do not vary from seed to seed.  ``--seed`` draws the queries,
#: their order and the write mix.
CORPUS_SEED = 0

_GENERATORS = {
    "songs": generate_song_query,
    "proteins": generate_protein_query,
    "traj": generate_trajectory_query,
}


# --------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------- #
@dataclass
class OpRecord:
    """One op as its client saw it."""

    kind: str  # "search" | "add" | "delete"
    latency_s: float
    ok: bool
    #: Wire-format ``stats`` block (searches only).
    stats: Optional[dict] = None
    #: Sorted match tuples (searches only).
    answer: Optional[list] = None
    request_bytes: int = 0
    response_bytes: int = 0
    #: Why the op failed, for the failure report.
    error: Optional[str] = None


@dataclass
class Phase:
    """A run of ops with the wall and CPU seconds it took."""

    records: List[OpRecord] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0


@dataclass
class RunData:
    """Everything a workload hands back to ``run.py`` for metric derivation."""

    setup_samples: List[float] = field(default_factory=list)
    build_samples: List[float] = field(default_factory=list)
    cold_latencies: List[float] = field(default_factory=list)
    #: Fresh DP computations spent by warm-up searches (set-up ops).
    warmup_computations: int = 0
    warmup_searches: int = 0
    timed: Phase = field(default_factory=Phase)
    #: Traced runs only: the untraced reference block after the traced one.
    reference: Optional[Phase] = None
    peak_rss_mb: float = 0.0
    kernel_backend: str = "unknown"
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific per-layer values measured from outside.
    extras: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Match counts of the brute-force fixture check (ours vs the oracle).
    fixture: Dict[str, int] = field(default_factory=dict)
    #: Server-side tracer dump (http-mixed traced runs).
    remote_trace: Optional[dict] = None


def answer_of(matches) -> list:
    """Match objects -> sorted, JSON-safe identity tuples."""
    return sorted(
        [m.source_id, m.query_start, m.query_stop, m.db_start, m.db_stop, m.distance]
        for m in matches
    )


def wire_answer_of(envelope: dict) -> list:
    """The same tuples from a wire envelope's ``matches`` list."""
    return sorted(
        [
            m["source_id"],
            m["query_start"],
            m["query_stop"],
            m["db_start"],
            m["db_stop"],
            m["distance"],
        ]
        for m in envelope["matches"]
    )


def fresh_computations(stats: dict) -> int:
    """Fresh DP computations of one search, from its wire ``stats`` block."""
    return stats["index_distance_computations"] + stats["verification_distance_computations"]


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process in MiB (0.0 where /proc has no such line)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def database_fingerprint(database: SequenceDatabase) -> str:
    digest = hashlib.sha256()
    for seq_id in database.ids():
        digest.update(seq_id.encode("utf-8"))
        digest.update(np.ascontiguousarray(database[seq_id].values).tobytes())
    return digest.hexdigest()[:16]


def quarter(count: int) -> int:
    """Size of the traced block: the first quarter of the timed steps."""
    return max(1, math.ceil(count / 4))


def run_steps(steps: List[Callable[[], List[OpRecord]]]) -> Phase:
    """Run steps back to back; wall and CPU cover the whole block."""
    phase = Phase()
    cpu_started = time.process_time()
    started = time.perf_counter()
    for step in steps:
        phase.records.extend(step())
    phase.wall_s = time.perf_counter() - started
    phase.cpu_s = time.process_time() - cpu_started
    return phase


def run_timed_phase(steps, tracer, data: RunData) -> None:
    """Untraced: every step.  Traced: first quarter traced, next quarter not.

    The second, untraced block is the reference ``trace.overhead_ratio`` is
    taken against; it runs the ops that follow the traced ones, which are
    drawn from the same distribution.
    """
    if tracer is None:
        data.timed = run_steps(steps)
        return
    block = quarter(len(steps))
    tracer.enabled = True
    try:
        data.timed = run_steps(steps[:block])
    finally:
        tracer.enabled = False
    data.reference = run_steps(steps[block : 2 * block])


# --------------------------------------------------------------------- #
# Shared workload machinery
# --------------------------------------------------------------------- #
class Workload:
    """Inputs and checks common to the four workloads."""

    name = ""
    dataset = ""
    distance_name = ""
    index = ""
    windows = 0
    check_index = ""
    fixture_radius = 0.0
    #: Where a traced server should write its raw spans (``--spans``).
    spans_path: Optional[str] = None

    def __init__(self, seed: int, seconds: float, quick: bool) -> None:
        self.seed = seed
        self.scale = seconds / NOMINAL_SECONDS
        self.quick = quick
        # --quick is a smoke test of the harness, not a measurement: half the data.
        self.database = load_dataset(
            self.dataset, self.windows // 2 if quick else self.windows, WINDOW_LENGTH,
            seed=CORPUS_SEED,
        )
        self.distance = dataset_distance(self.dataset, self.distance_name)
        self.config = MatcherConfig(min_length=40, max_shift=1, index=self.index)
        self._payloads: Dict[int, dict] = {}

    def count(self, nominal: int, quick: int, floor: int = 1) -> int:
        """An op count: ``nominal`` at the nominal ``--seconds``, scaled."""
        if self.quick:
            return quick
        return max(floor, round(nominal * self.scale))

    def query_seed(self, number: int) -> int:
        """Seed of planted query ``number``: 1000+number under ``--seed 0``."""
        return self.seed * 1_000_003 + 1000 + number

    def payload(self, number: int) -> dict:
        """Wire payload of planted query ``number``."""
        if number not in self._payloads:
            query, _source, _start = _GENERATORS[self.dataset](
                self.database, length=QUERY_LENGTH, seed=self.query_seed(number)
            )
            payload = sequence_to_wire(query)
            payload.pop("seq_id", None)
            self._payloads[number] = payload
        return self._payloads[number]

    def spec(self, number: int):
        """The unbound spec op ``number`` runs (overridden per workload)."""
        raise NotImplementedError

    def bound(self, number: int):
        """Op ``number``'s spec bound to a *fresh* ``Sequence`` object."""
        return self.spec(number).bind(sequence_from_wire(self.payload(number)))

    def build_service(self, data: RunData) -> SearchService:
        started = time.perf_counter()
        service = SearchService(SubsequenceMatcher(self.database, self.distance, self.config))
        data.build_samples.append(time.perf_counter() - started)
        return service

    def search(self, service: SearchService, number: int, tracer, op_id: str) -> OpRecord:
        """One in-process search op on a fresh ``Sequence`` object."""
        bound = self.bound(number)
        if tracer is not None:
            tracer.set_op(op_id)
        started = time.perf_counter()
        try:
            result = service.execute(bound)
        except Exception as error:  # an op that raises is a failed op, not a crashed run
            return OpRecord(
                "search", time.perf_counter() - started, ok=False, error=repr(error)
            )
        latency = time.perf_counter() - started
        return OpRecord(
            "search",
            latency,
            ok=result.error is None,
            stats=stats_to_wire(result.stats),
            answer=answer_of(result.matches),
        )

    def warm_up(self, service: SearchService, numbers, data: RunData) -> List[OpRecord]:
        records = [self.search(service, n, None, f"warmup-{n}") for n in numbers]
        for record in records:
            if not record.ok:
                raise RuntimeError(f"warm-up search failed: {record.error}")
            data.cold_latencies.append(record.latency_s)
            data.warmup_computations += fresh_computations(record.stats)
        data.warmup_searches += len(records)
        return records

    def prewarm_kernel(self) -> str:
        """Resolve (and if need be compile) the kernel tier before any clock.

        Runs the workload's own query type once on a three-sequence corner
        of the dataset; returns the backend that served it.
        """
        corner = SequenceDatabase(self.database.kind)
        for seq_id in self.database.ids()[:3]:
            corner.add(self.database[seq_id], seq_id=seq_id)
        matcher = SubsequenceMatcher(corner, self.distance, self.config)
        try:
            return matcher.execute(self.bound(0)).stats.kernel_backend
        finally:
            matcher.close()

    def note_cache_entries(self, service: SearchService, data: RunData) -> None:
        """Size of the matcher's distance cache, where it exposes one."""
        cache = getattr(service.backend, "distance_cache", None)
        if cache is not None:
            data.extras["distances.cache_entries"] = len(cache)

    def index_space(self, matcher, data: RunData) -> None:
        """The paper's space numbers, where the index reports them."""
        index = matcher.index
        stats = index.stats() if hasattr(index, "stats") else None
        nodes = getattr(stats, "node_count", None)
        size = getattr(stats, "estimated_size_bytes", None)
        data.extras["indexing.nodes"] = int(nodes if nodes is not None else len(index))
        data.extras["indexing.bytes_per_window"] = (
            float(size) / max(1, len(index)) if size is not None else 0.0
        )

    # ------------------------------------------------------------------ #
    # Answer checks (all outside the timed phase)
    # ------------------------------------------------------------------ #
    def check_matcher(self) -> SubsequenceMatcher:
        """A fresh matcher of a *different* index class, prefilter off."""
        config = MatcherConfig(
            min_length=40, max_shift=1, index=self.check_index, prefilter=False
        )
        return SubsequenceMatcher(self.database, self.distance, config)

    def check_sampled(
        self,
        sampled: Dict[int, list],
        data: RunData,
        matcher=None,
        key: str = "sampled_answers_match_other_index",
    ) -> None:
        """Sampled timed answers must equal the other index class's."""
        owned = matcher is None
        matcher = matcher or self.check_matcher()
        try:
            data.checks[key] = all(
                answer_of(matcher.execute(self.bound(number)).matches) == answer
                for number, answer in sampled.items()
            )
        finally:
            if owned:
                matcher.close()

    def check_fixture(self, data: RunData) -> None:
        """Exhaustive Type I on a 3 x 60-point fixture against brute force.

        Every match the framework reports must be a brute-force match with
        the identical distance.  (The converse -- it reports *every*
        brute-force match -- holds on most seeds but not all, e.g. not for a
        query cut at offset 0-1 of its source, so the two counts are
        recorded rather than required to be equal.)
        """
        source = self.database[self.database.ids()[0]]
        fixture = SequenceDatabase(self.database.kind)
        for part in range(3):
            fixture.add(source.subsequence(part * 60, (part + 1) * 60), seq_id=f"fixture-{part}")
        query, _source, _start = _GENERATORS[self.dataset](
            fixture, length=44, seed=self.query_seed(0)
        )
        matcher = SubsequenceMatcher(fixture, self.distance, self.config)
        try:
            spec = RangeQuery(radius=self.fixture_radius, exhaustive=True)
            ours = answer_of(matcher.execute(spec.bind(query)).matches)
        finally:
            matcher.close()
        oracle = answer_of(
            brute_force_matches(query, fixture, self.distance, self.fixture_radius, self.config)
        )
        data.checks["fixture_matches_are_bruteforce_matches"] = all(m in oracle for m in ours)
        data.fixture = {"matches": len(ours), "bruteforce_matches": len(oracle)}

    def run(self, tracer) -> RunData:
        raise NotImplementedError


def sample_evenly(items: list, count: int = 5) -> list:
    """``count`` items spread evenly over ``items`` (all of them if fewer)."""
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


# --------------------------------------------------------------------- #
# fresh-range
# --------------------------------------------------------------------- #
class FreshRange(Workload):
    name = "fresh-range"
    dataset, distance_name, index, windows = "songs", "frechet", "reference-net", 300
    check_index = "linear-scan"
    fixture_radius = 2.0
    # Five, not more: a session then stores <= ~150 k cache entries, clear of
    # the 174 762-entry dict resize that makes peak RSS jump by ~13 MB.
    queries_per_session = 5

    def spec(self, number: int):
        return RangeQuery(radius=2.0)

    def run(self, tracer) -> RunData:
        data = RunData(kernel_backend=self.prewarm_kernel())
        sessions = self.count(6, 1)
        per_session = 3 if self.quick else self.queries_per_session
        # Set-up is one index build; it is short, so take several.
        for _ in range(2 if self.quick else 5):
            started = time.perf_counter()
            service = self.build_service(data)
            data.setup_samples.append(time.perf_counter() - started)
            self.index_space(service.backend, data)
            service.close()

        def session(number: int) -> Callable[[], List[OpRecord]]:
            def step() -> List[OpRecord]:
                service = self.build_service(data)
                try:
                    return [
                        self.search(service, q, tracer, f"s{number}-q{q}")
                        for q in range(number * per_session, (number + 1) * per_session)
                    ]
                finally:
                    self.note_cache_entries(service, data)
                    service.close()

            return step

        run_timed_phase([session(n) for n in range(sessions)], tracer, data)
        data.peak_rss_mb = peak_rss_mb()
        data.op_counts = {"sessions": sessions, "searches": sessions * per_session}
        # Every timed query is a first-time query here.
        data.cold_latencies = [r.latency_s for r in data.timed.records]
        numbers = sample_evenly(list(range(len(data.timed.records))))
        self.check_sampled({n: data.timed.records[n].answer for n in numbers}, data)
        self.check_fixture(data)
        return data


# --------------------------------------------------------------------- #
# warm-topk
# --------------------------------------------------------------------- #
class WarmTopK(Workload):
    name = "warm-topk"
    dataset, distance_name, index, windows = "proteins", "levenshtein", "linear-scan", 80
    check_index = "reference-net"
    fixture_radius = 8.0

    def spec(self, number: int):
        return TopKQuery(k=3, max_radius=25.0)

    def run(self, tracer) -> RunData:
        data = RunData(kernel_backend=self.prewarm_kernel())
        pool = list(range(3 if self.quick else 5))
        rounds = self.count(3, 1)
        # Set-up: build, then one cold round over the pool.
        service = None
        for _ in range(1 if self.quick else 2):
            if service is not None:
                service.close()
            data.cold_latencies.clear()
            data.warmup_computations = data.warmup_searches = 0
            started = time.perf_counter()
            service = self.build_service(data)
            cold = self.warm_up(service, pool, data)
            data.setup_samples.append(time.perf_counter() - started)
        self.index_space(service.backend, data)
        expected = {n: record.answer for n, record in zip(pool, cold)}

        def op(position: int) -> Callable[[], List[OpRecord]]:
            def step() -> List[OpRecord]:
                number = pool[position % len(pool)]
                record = self.search(service, number, tracer, f"r{position // len(pool)}-q{number}")
                # A repeat must answer exactly what the cold run answered.
                record.ok = record.ok and record.answer == expected[number]
                return [record]

            return step

        run_timed_phase([op(p) for p in range(rounds * len(pool))], tracer, data)
        data.peak_rss_mb = peak_rss_mb()
        data.op_counts = {"pool": len(pool), "warmup": len(pool), "searches": rounds * len(pool)}
        self.note_cache_entries(service, data)
        service.close()
        self.check_sampled(expected, data)
        self.check_fixture(data)
        return data


# --------------------------------------------------------------------- #
# stream-verify
# --------------------------------------------------------------------- #
class StreamVerify(Workload):
    name = "stream-verify"
    dataset, distance_name, index, windows = "traj", "erp", "reference-net", 150
    check_index = "linear-scan"
    fixture_radius = 60.0

    def spec(self, number: int):
        return RangeQuery(radius=90.0)

    def run(self, tracer) -> RunData:
        data = RunData(kernel_backend=self.prewarm_kernel())
        timed = self.count(20, 3, floor=4)
        # Set-up fills the program's own cache: distinct queries until their
        # fresh computations (each one is stored) reach the default capacity,
        # so the timed phase starts within one query of the first eviction
        # whatever the seed.  It takes ~14 s, so it is measured once per run.
        capacity = self.config.cache_max_entries
        started = time.perf_counter()
        service = self.build_service(data)
        warmup = 0

        def filled() -> bool:
            if self.quick:
                return warmup >= 2
            if capacity is None:
                return warmup >= 30
            return data.warmup_computations >= capacity

        while not filled():
            self.warm_up(service, [warmup], data)
            warmup += 1
        data.setup_samples.append(time.perf_counter() - started)
        self.index_space(service.backend, data)

        def op(number: int) -> Callable[[], List[OpRecord]]:
            return lambda: [self.search(service, number, tracer, f"q{number}")]

        run_timed_phase([op(warmup + n) for n in range(timed)], tracer, data)
        data.peak_rss_mb = peak_rss_mb()
        data.op_counts = {"warmup": warmup, "searches": timed}
        self.note_cache_entries(service, data)
        service.close()
        positions = sample_evenly(list(range(len(data.timed.records))))
        self.check_sampled({warmup + p: data.timed.records[p].answer for p in positions}, data)
        self.check_fixture(data)
        return data


# --------------------------------------------------------------------- #
# http-mixed
# --------------------------------------------------------------------- #
class HttpClient:
    """One closed-loop client on one persistent connection."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, payload=None):
        """``(status, decoded body, request bytes, response bytes, seconds)``."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - started
        decoded = json.loads(raw.decode("utf-8")) if raw else None
        return response.status, decoded, len(body or b""), len(raw), elapsed

    def close(self) -> None:
        self.connection.close()


class HttpMixed(Workload):
    name = "http-mixed"
    dataset, distance_name, index, windows = "songs", "frechet", "reference-net", 200
    check_index = "linear-scan"
    fixture_radius = 2.0
    clients = 2

    def __init__(self, seed: int, seconds: float, quick: bool) -> None:
        super().__init__(seed, seconds, quick)
        self.pool = list(range(2 if quick else 8))
        self.ops_per_client = self.count(60, 3)
        #: Per client: the ids it has inserted and not yet deleted, oldest first.
        self.inserted: List[List[str]] = [[] for _ in range(self.clients)]
        self.workdir = ROOT / ".bench_build" / "ledger-tmp" / f"{os.getpid()}"

    def spec(self, number: int):
        # Hot item ``number`` is query ``number // 2`` as range (even) or
        # longest (odd); both at radius 2.0.
        return RangeQuery(radius=2.0) if number % 2 == 0 else LongestSubsequenceQuery(radius=2.0)

    def payload(self, number: int) -> dict:
        return super().payload(number // 2)

    def query_seed(self, number: int) -> int:
        # The hot pool is part of the workload like the corpus is: the same
        # 8 queries on every seed.  ``--seed`` draws the traffic.
        return 1000 + number

    def search_body(self, number: int, op_id: str) -> dict:
        spec = self.spec(number)
        return {
            "query": {"type": spec.kind, "radius": spec.radius},
            "sequence": self.payload(number),
            "request_id": op_id,
        }

    def far_sequence(self, client: int, serial: int) -> dict:
        """A 200-point song shifted far outside every query's radius."""
        donor = load_dataset(
            "songs", 10, WINDOW_LENGTH, seed=self.seed * 1_000_003 + 7919 + client * 131 + serial
        )
        values = np.asarray(donor[donor.ids()[0]].values, dtype=np.float64) + 100.0
        # The client names the sequence: ids the server assigns by itself
        # (``songs-<count>``) collide once deletes have shrunk the count.
        return {
            "kind": "time_series",
            "values": values.tolist(),
            "seq_id": f"ledger-c{client}-{serial}",
        }

    def client_ops(self, client: int) -> List[tuple]:
        """One client's seeded ``(kind, hot item | sequence payload | None)`` list:
        75 % search, 12.5 % add, 12.5 % delete.

        The mix is exact (so throughput does not depend on how many cheap
        writes a seed happened to draw); the seed shuffles the order and
        draws the hot item of each search, Zipf over the pool with the kind
        alternating range / longest.
        """
        rng = np.random.default_rng([self.seed, client])
        zipf = np.array([1.0 / (1 + rank) for rank in range(len(self.pool))])
        zipf /= zipf.sum()
        writes = max(1, self.ops_per_client // 8)
        kinds = ["search"] * (self.ops_per_client - 2 * writes) + ["add", "delete"] * writes
        rng.shuffle(kinds)
        # A client's first op is a search, so that even the one-op traced
        # block of --quick measures one.
        first = kinds.index("search")
        kinds[0], kinds[first] = kinds[first], kinds[0]
        ops, inserted, owed, searches, adds = [], 0, 0, 0, 0
        for kind in kinds:
            # A delete needs an earlier insert of this client: where the
            # shuffle put a delete first, it trades places with a later add.
            if kind == "delete" and inserted == 0:
                kind, owed = "add", owed + 1
            elif kind == "add" and owed and inserted:
                kind, owed = "delete", owed - 1
            if kind == "search":
                query = int(rng.choice(len(self.pool), p=zipf))
                ops.append(("search", 2 * query + searches % 2))
                searches += 1
            elif kind == "add":
                ops.append(("add", self.far_sequence(client, adds)))
                adds, inserted = adds + 1, inserted + 1
            else:
                ops.append(("delete", None))
                inserted -= 1
        return ops

    # ------------------------------------------------------------------ #
    def spawn_server(self, snapshot: Path, traced: bool, dump: Path):
        """Start the real server on a free port; returns (process, port)."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        serve = [
            "serve", str(snapshot), "--snapshot", "--server-backend", "stdlib",
            "--no-snapshot-on-exit", "--port", str(port),
        ]  # fmt: skip
        if traced:
            launcher = [str(LEDGER_DIR / "serve_traced.py"), str(dump), self.spans_path or "-"]
            command = [sys.executable] + launcher + serve
        else:
            command = [sys.executable, "-m", "repro"] + serve
        with open(self.workdir / "server.err", "wb") as errors:
            process = subprocess.Popen(
                command, cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=errors
            )
        return process, port

    def wait_ready(self, process, port: int) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(
                    "server exited during start-up: "
                    + (self.workdir / "server.err").read_text(errors="replace")[-2000:]
                )
            try:
                client = HttpClient(port)
                try:
                    if client.request("GET", "/health")[0] == 200:
                        return
                finally:
                    client.close()
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("server did not answer GET /health within 60 s")

    def stop_server(self, process) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def set_up(self, data: RunData, traced: bool):
        """Build, snapshot, spawn, warm each hot item once; all on the clock."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        snapshot = self.workdir / "matcher.npz"
        dump = self.workdir / "trace.json"
        started = time.perf_counter()
        matcher = SubsequenceMatcher(self.database, self.distance, self.config)
        data.build_samples.append(time.perf_counter() - started)
        saved = time.perf_counter()
        save_matcher(matcher, snapshot)
        data.extras["storage.save_s"] = time.perf_counter() - saved
        data.extras["storage.snapshot_bytes"] = snapshot.stat().st_size
        self.index_space(matcher, data)
        matcher.close()
        process, port = self.spawn_server(snapshot, traced, dump)
        try:
            self.wait_ready(process, port)
            client = HttpClient(port)
            expected = {}
            try:
                for query in self.pool:
                    for number in (2 * query, 2 * query + 1):
                        status, envelope, _sent, _got, elapsed = client.request(
                            "POST", "/search", self.search_body(number, f"warmup-{number}")
                        )
                        if status != 200:
                            raise RuntimeError(f"warm-up search answered {status}: {envelope}")
                        expected[number] = wire_answer_of(envelope)
                        data.cold_latencies.append(elapsed)
                        data.warmup_searches += 1
                        data.warmup_computations += fresh_computations(envelope["stats"])
                        data.kernel_backend = envelope["stats"]["kernel_backend"]
            finally:
                client.close()
        except BaseException:
            self.stop_server(process)
            raise
        data.setup_samples.append(time.perf_counter() - started)
        return process, port, snapshot, dump, expected

    def run_clients(self, port: int, op_lists, expected, tag: str, pid: int) -> Phase:
        """Run each client's ops on its own thread and connection."""
        phase = Phase()
        per_client: List[List[OpRecord]] = [[] for _ in op_lists]
        errors: List[BaseException] = []

        def loop(client_number: int, ops) -> None:
            client = HttpClient(port)
            try:
                for position, (kind, argument) in enumerate(ops):
                    op_id = f"{tag}-c{client_number}-{position}"
                    try:
                        record = self.one_op(client, client_number, kind, argument, op_id, expected)
                    except (OSError, http.client.HTTPException, ValueError) as error:
                        record = OpRecord(kind, 0.0, ok=False, error=repr(error))
                        client.close()
                        client = HttpClient(port)
                    per_client[client_number].append(record)
            except BaseException as error:  # surfaced after join
                errors.append(error)
            finally:
                client.close()

        threads = [
            threading.Thread(target=loop, args=(number, ops))
            for number, ops in enumerate(op_lists)
        ]
        cpu_started = process_cpu_s(pid)
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall_s = time.perf_counter() - started
        phase.cpu_s = process_cpu_s(pid) - cpu_started
        if errors:
            raise errors[0]
        for records in per_client:
            phase.records.extend(records)
        return phase

    def one_op(self, client, client_number, kind, argument, op_id, expected) -> OpRecord:
        mine = self.inserted[client_number]
        if kind == "search":
            status, envelope, sent, got, elapsed = client.request(
                "POST", "/search", self.search_body(argument, op_id)
            )
            if status != 200:
                return OpRecord("search", elapsed, ok=False, error=f"HTTP {status}: {envelope}")
            answer = wire_answer_of(envelope)
            # Inserted sequences sit far outside the radius, so every hot
            # item must keep answering what it answered during warm-up.
            return OpRecord(
                "search",
                elapsed,
                ok=envelope["error"] is None and answer == expected[argument],
                stats=envelope["stats"],
                answer=answer,
                request_bytes=sent,
                response_bytes=got,
            )
        if kind == "add":
            status, body, sent, got, elapsed = client.request(
                "POST", "/sequences", {"sequence": argument}
            )
            if status == 200:
                mine.append(body["seq_id"])
        elif not mine:
            return OpRecord("delete", 0.0, ok=False, error="nothing left to delete")
        else:
            status, body, sent, got, elapsed = client.request(
                "DELETE", f"/sequences/{mine.pop(0)}"
            )
        return OpRecord(
            kind,
            elapsed,
            ok=status == 200,
            request_bytes=sent,
            response_bytes=got,
            error=None if status == 200 else f"HTTP {status}: {body}",
        )

    def run(self, tracer) -> RunData:
        # ``tracer`` only says whether this is a traced run: the spans are
        # recorded inside the server process, by ``serve_traced.py``.
        traced = tracer is not None
        data = RunData(kernel_backend=self.prewarm_kernel())
        process = None
        try:
            process, port, snapshot, dump, expected = self.set_up(data, traced)
            op_lists = [self.client_ops(c) for c in range(self.clients)]
            if traced:
                block = quarter(self.ops_per_client)
                self.toggle_tracing(process, port)
                data.timed = self.run_clients(
                    port, [ops[:block] for ops in op_lists], expected, "t", process.pid
                )
                self.toggle_tracing(process, port)
                data.reference = self.run_clients(
                    port, [ops[block : 2 * block] for ops in op_lists], expected, "r", process.pid
                )
            else:
                data.timed = self.run_clients(port, op_lists, expected, "t", process.pid)
            data.peak_rss_mb = peak_rss_mb(str(process.pid))
            client = HttpClient(port)
            try:
                served = client.request("GET", "/metrics")[1]
            finally:
                client.close()
            self.stop_server(process)
            process = None
            if traced and dump.is_file():
                data.remote_trace = json.loads(dump.read_text())
            for name in ("rejected", "timeouts", "query_errors"):
                data.extras[f"server.{name}"] = int(served[name])
            data.extras["server_p50_s"] = float(served["latency"]["p50_seconds"])
            data.op_counts = {
                "clients": self.clients,
                "pool": len(self.pool) * 2,
                "warmup": len(self.pool) * 2,
                "ops_per_client": self.ops_per_client,
                "searches": sum(kind == "search" for ops in op_lists for kind, _ in ops),
            }
            self.check_answers(snapshot, expected, data)
        finally:
            if process is not None:
                self.stop_server(process)
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.check_fixture(data)
        return data

    def toggle_tracing(self, process, port: int) -> None:
        """Flip the traced server's span recording and wait until it took.

        The launcher toggles on SIGUSR1; a Python signal handler runs on the
        main thread, which is also the thread that answers requests, so one
        round trip afterwards proves the handler ran.
        """
        process.send_signal(signal.SIGUSR1)
        client = HttpClient(port)
        try:
            client.request("GET", "/health")
        finally:
            client.close()

    def check_answers(self, snapshot: Path, expected, data: RunData) -> None:
        """Served answers vs another index class, before and after inserts."""
        started = time.perf_counter()
        loaded = load_matcher(snapshot)
        data.extras["storage.load_s"] = time.perf_counter() - started
        loaded.close()
        other = self.check_matcher()
        try:
            sampled = {n: expected[n] for n in sample_evenly(sorted(expected))}
            self.check_sampled(sampled, data, matcher=other)
            added = [
                other.add_sequence(sequence_from_wire(self.far_sequence(0, serial)))
                for serial in range(2)
            ]
            self.check_sampled(sampled, data, matcher=other, key="inserts_change_no_answer")
            for seq_id in added:
                other.remove_sequence(seq_id)
        finally:
            other.close()


WORKLOADS = {cls.name: cls for cls in (FreshRange, WarmTopK, StreamVerify, HttpMixed)}
