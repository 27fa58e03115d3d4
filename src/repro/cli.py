"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands
--------
``generate``
    Generate a synthetic dataset (proteins / songs / traj) and save it.
``search``
    Run a query of a saved database against a query sequence cut from it.
    ``--type`` selects the query: ``range`` (Type I), ``longest`` (Type II,
    the default), ``nearest`` (Type III), or ``topk`` (the ``--k`` nearest
    pairs); ``--json`` emits the machine-readable result envelope
    documented in the README.  Every variant is served through the
    :class:`~repro.core.service.SearchService` facade.  With ``--snapshot``
    the positional path is a matcher snapshot (see ``snapshot``) and the
    query runs immediately, with zero index-rebuild work.
``snapshot``
    Build a matcher over a saved database and persist the *built* state
    (index structure, distance cache) as a versioned snapshot.
``add``
    Generate new sequences and add them to a saved snapshot *incrementally*
    -- windows are inserted into the persisted index without a rebuild --
    then write the snapshot back in place.
``serve``
    Put the declarative query API on the wire: serve a database or matcher
    snapshot over HTTP (``POST /search`` and friends; see
    :mod:`repro.server`).  With ``--snapshot`` the state loads lazily and
    is written back on shutdown, so mutations made over ``POST /sequences``
    survive a restart.
``distribution``
    Print the pairwise window distance distribution of a dataset
    (the paper's Figure 4 for one dataset/distance pairing).
``compare-indexes``
    Print the query-cost comparison of the reference net (with and without
    bound-first routing) and the prefiltered linear scan at several ranges
    (Figures 8-11 style).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.distributions import distance_distribution
from repro.analysis.pruning import compare_indexes
from repro.analysis.reporting import (
    format_histogram,
    format_index_stats,
    format_query_stats,
    format_table,
)
from repro.core.config import MatcherConfig, _default_executor
from repro.core.executor import EXECUTOR_NAMES, make_executor
from repro.core.matcher import SubsequenceMatcher
from repro.core.queries import (
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    QueryResult,
    RangeQuery,
    TopKQuery,
)
from repro.core.service import SearchService
from repro.core.wire import result_envelope
from repro.core.sharded import ShardedMatcher
from repro.datasets.loaders import dataset_distance, dataset_windows, load_dataset
from repro.datasets.proteins import generate_protein_query
from repro.datasets.songs import generate_song_query
from repro.datasets.trajectories import generate_trajectory_query
from repro.exceptions import ReproError
from repro.indexing.linear_scan import LinearScanIndex
from repro.indexing.reference_net import ReferenceNet
from repro.storage.persistence import (
    load_database,
    load_matcher,
    save_database,
    save_matcher,
)


def _add_execution_flags(parser: argparse.ArgumentParser, shards: bool = True) -> None:
    """The execution-engine flags shared by the query-running commands."""
    parser.add_argument(
        "--executor",
        choices=list(EXECUTOR_NAMES),
        default=None,
        help="execution engine for probe/verify work units (default: the "
        "REPRO_EXECUTOR environment variable, else 'serial'); results and "
        "work counters are identical for every choice",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the thread/process executors (default: one per CPU)",
    )
    if shards:
        parser.add_argument(
            "--shards",
            type=int,
            default=1,
            help="partition the database across N independent matcher shards "
            "and fan queries out across them (default: 1, unsharded)",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generic subsequence retrieval framework (VLDB 2012 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", choices=["proteins", "songs", "traj"])
    generate.add_argument("output", help="output .npz path")
    generate.add_argument("--windows", type=int, default=1000, help="approximate window count")
    generate.add_argument("--seed", type=int, default=0)

    search = subparsers.add_parser("search", help="run a Type II query against a saved database")
    search.add_argument(
        "database",
        help="database .npz produced by 'generate' (or a matcher snapshot "
        "produced by 'snapshot' when --snapshot is given)",
    )
    search.add_argument("--dataset", choices=["proteins", "songs", "traj"], required=True)
    search.add_argument("--distance", default=None, help="distance name (defaults per dataset)")
    search.add_argument(
        "--type",
        dest="query_type",
        choices=["range", "longest", "nearest", "topk"],
        default="longest",
        help="query type: Type I range, Type II longest (default), Type III "
        "nearest, or the k nearest pairs (topk)",
    )
    search.add_argument(
        "--k",
        type=int,
        default=3,
        help="result count for --type topk (ignored otherwise)",
    )
    search.add_argument(
        "--radius",
        type=float,
        default=5.0,
        help="query radius; for nearest/topk this is the sweep's max_radius",
    )
    search.add_argument("--min-length", type=int, default=40)
    search.add_argument("--max-shift", type=int, default=2)
    search.add_argument("--seed", type=int, default=1)
    search.add_argument(
        "--limit",
        type=int,
        default=None,
        help="result paging: return at most this many matches",
    )
    search.add_argument(
        "--offset",
        type=int,
        default=0,
        help="result paging: skip this many matches first",
    )
    search.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON result envelope (schema in the "
        "README's 'repro search --json' section) instead of the text report",
    )
    search.add_argument(
        "--request-id",
        default=None,
        help="with --json: echo this id in the envelope's request_id field "
        "(the HTTP service echoes the same field, making CLI and server "
        "envelopes byte-comparable)",
    )
    search.add_argument(
        "--no-timings",
        action="store_true",
        help="with --json: emit empty stage_seconds/cpu_stage_seconds blocks "
        "so two identical invocations produce byte-identical envelopes",
    )
    search.add_argument(
        "--stats",
        action="store_true",
        help="print the QueryStats table (pruning ratio, cache hits, "
        "prefilter counts, per-stage timings)",
    )
    search.add_argument(
        "--snapshot",
        action="store_true",
        help="treat the positional path as a matcher snapshot: the matcher "
        "(config, index structure, distance cache) loads ready-built, so "
        "--min-length/--max-shift/--shards are taken from the snapshot "
        "(--executor/--workers still override the engine)",
    )
    _add_execution_flags(search)

    snapshot = subparsers.add_parser(
        "snapshot", help="build a matcher and persist its built index state"
    )
    snapshot.add_argument("database", help="database .npz produced by 'generate'")
    snapshot.add_argument("output", help="output snapshot .npz path")
    snapshot.add_argument("--dataset", choices=["proteins", "songs", "traj"], required=True)
    snapshot.add_argument("--distance", default=None, help="distance name (defaults per dataset)")
    snapshot.add_argument("--min-length", type=int, default=40)
    snapshot.add_argument("--max-shift", type=int, default=2)
    snapshot.add_argument(
        "--index",
        choices=["reference-net", "linear-scan"],
        default="reference-net",
    )
    _add_execution_flags(snapshot)

    add = subparsers.add_parser(
        "add", help="incrementally add generated sequences to a matcher snapshot"
    )
    add.add_argument("snapshot", help="matcher snapshot .npz produced by 'snapshot'")
    add.add_argument("--dataset", choices=["proteins", "songs", "traj"], required=True)
    add.add_argument(
        "--windows", type=int, default=20, help="approximate window count of the new data"
    )
    add.add_argument(
        "--seed",
        type=int,
        default=1,
        help="generation seed; also namespaces the new sequence ids, so use "
        "a fresh value per invocation",
    )

    serve = subparsers.add_parser(
        "serve", help="serve the query API over HTTP (see the README's API section)"
    )
    serve.add_argument(
        "database",
        help="database .npz produced by 'generate' (or a matcher snapshot "
        "produced by 'snapshot' when --snapshot is given)",
    )
    serve.add_argument(
        "--dataset",
        choices=["proteins", "songs", "traj"],
        default=None,
        help="dataset family of the database (required unless --snapshot)",
    )
    serve.add_argument("--distance", default=None, help="distance name (defaults per dataset)")
    serve.add_argument("--min-length", type=int, default=40)
    serve.add_argument("--max-shift", type=int, default=2)
    serve.add_argument(
        "--snapshot",
        action="store_true",
        help="treat the positional path as a matcher snapshot: state loads "
        "lazily on the first query and is written back on shutdown",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--server-backend",
        choices=["auto", "stdlib"],
        default="auto",
        help="HTTP runtime; both names run the dependency-free stdlib server",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=16,
        help="admission control: reject (503) beyond this many concurrent queries",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds (504 past it)",
    )
    serve.add_argument(
        "--no-snapshot-on-exit",
        action="store_true",
        help="with --snapshot: do not write the matcher state back on shutdown",
    )
    _add_execution_flags(serve)

    distribution = subparsers.add_parser(
        "distribution", help="pairwise window distance distribution (Figure 4)"
    )
    distribution.add_argument("dataset", choices=["proteins", "songs", "traj"])
    distribution.add_argument("--distance", default=None)
    distribution.add_argument("--windows", type=int, default=300)
    distribution.add_argument("--pairs", type=int, default=2000)
    distribution.add_argument("--seed", type=int, default=0)

    compare = subparsers.add_parser(
        "compare-indexes", help="query-cost comparison across indexes (Figures 8-11)"
    )
    compare.add_argument("dataset", choices=["proteins", "songs", "traj"])
    compare.add_argument("--distance", default=None)
    compare.add_argument("--windows", type=int, default=400)
    compare.add_argument("--queries", type=int, default=5)
    compare.add_argument("--radii", type=float, nargs="+", default=None)
    compare.add_argument("--seed", type=int, default=0)
    _add_execution_flags(compare, shards=False)
    return parser


def _matcher_config(args: argparse.Namespace, **overrides) -> MatcherConfig:
    """A :class:`MatcherConfig` from the shared CLI flags."""
    settings = dict(
        min_length=args.min_length,
        max_shift=args.max_shift,
        shards=getattr(args, "shards", 1),
    )
    if args.executor is not None:
        settings["executor"] = args.executor
    if args.workers is not None:
        settings["workers"] = args.workers
    settings.update(overrides)
    return MatcherConfig(**settings)


def _build_matcher(database, distance, config: MatcherConfig):
    """A sharded or plain matcher, as the configuration demands."""
    if config.shards > 1:
        return ShardedMatcher(database, distance, config)
    return SubsequenceMatcher(database, distance, config)


def _default_distance(dataset: str, distance: Optional[str]) -> str:
    if distance is not None:
        return distance
    return "levenshtein" if dataset == "proteins" else "frechet"


def _cmd_generate(args: argparse.Namespace) -> int:
    database = load_dataset(args.dataset, num_windows=args.windows, seed=args.seed)
    save_database(database, args.output)
    print(f"wrote {len(database)} sequences ({database.total_length} elements) to {args.output}")
    return 0


def _generate_query(dataset: str, database, seed: int):
    if dataset == "proteins":
        return generate_protein_query(database, seed=seed)
    if dataset == "songs":
        return generate_song_query(database, seed=seed)
    return generate_trajectory_query(database, seed=seed)


def _build_query_spec(args: argparse.Namespace):
    """The declarative spec the ``search`` flags describe."""
    paging = dict(limit=args.limit, offset=args.offset)
    if args.query_type == "range":
        return RangeQuery(radius=args.radius, **paging)
    if args.query_type == "longest":
        return LongestSubsequenceQuery(radius=args.radius, **paging)
    if args.query_type == "nearest":
        return NearestSubsequenceQuery(max_radius=args.radius, **paging)
    return TopKQuery(k=args.k, max_radius=args.radius, **paging)


def _json_envelope(
    result: QueryResult,
    service: SearchService,
    source_id: str,
    offset: int,
    request_id: Optional[str] = None,
    include_timings: bool = True,
) -> dict:
    """The ``repro search --json`` envelope (see README for the schema).

    Built by :func:`repro.core.wire.result_envelope` -- the identical
    builder behind every HTTP response -- with the CLI's query provenance
    echoed as ``query_origin``.
    """
    return result_envelope(
        result,
        service,
        request_id=request_id,
        query_origin={"source_id": source_id, "offset": int(offset)},
        include_timings=include_timings,
    )


def _cmd_search(args: argparse.Namespace) -> int:
    if args.snapshot:
        distance = None
        if args.distance is not None:
            distance = dataset_distance(args.dataset, args.distance)
        service = SearchService(args.database, distance=distance)
        matcher = service.backend  # load the snapshot now: the query cut needs it
        if args.executor is not None or args.workers is not None:
            matcher.set_executor(
                args.executor if args.executor is not None else matcher.config.executor,
                args.workers,
            )
        database = matcher.database
    else:
        database = load_database(args.database)
        distance_name = _default_distance(args.dataset, args.distance)
        distance = dataset_distance(args.dataset, distance_name)
        service = SearchService(_build_matcher(database, distance, _matcher_config(args)))
    query, source_id, offset = _generate_query(args.dataset, database, args.seed)
    result = service.execute(_build_query_spec(args).bind(query))
    if args.json:
        envelope = _json_envelope(
            result,
            service,
            source_id,
            offset,
            request_id=args.request_id,
            include_timings=not args.no_timings,
        )
        print(json.dumps(envelope, indent=2))
        return 0
    print(f"query cut from {source_id!r} at offset {offset}")
    if not result.matches:
        plural = "s" if args.query_type in ("range", "topk") else ""
        print(f"no similar subsequence{plural} found at this radius")
    else:
        for match in result.matches:
            print(match)
        if result.total_matches != len(result.matches):
            print(
                f"(showing {len(result.matches)} of {result.total_matches} "
                "matches; adjust --limit/--offset)"
            )
        stats = result.stats
        print(
            f"index distance computations: {stats.index_distance_computations} "
            f"(naive: {stats.naive_distance_computations}, "
            f"pruning ratio {stats.pruning_ratio:.2%})"
        )
    if args.stats:
        print()
        print(format_query_stats(result.stats, title="query statistics"))
        cache = service.cache_stats()
        print(f"distance cache: {cache['entries']} entries, {cache['evictions']} evictions")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    database = load_database(args.database)
    distance_name = _default_distance(args.dataset, args.distance)
    distance = dataset_distance(args.dataset, distance_name)
    config = _matcher_config(args, index=args.index)
    matcher = _build_matcher(database, distance, config)
    save_matcher(matcher, args.output)
    shard_note = f", {config.shards} shards" if config.shards > 1 else ""
    print(
        f"wrote matcher snapshot ({len(matcher.windows)} windows, "
        f"distance {distance_name!r}, index {args.index!r}{shard_note}) to {args.output}"
    )
    _print_index_stats(matcher, title="index state")
    return 0


def _print_index_stats(matcher, title: str) -> None:
    """Index-state tables for a plain matcher or every shard of a sharded one."""
    if isinstance(matcher, ShardedMatcher):
        for position, shard in enumerate(matcher.shards):
            print(format_index_stats(shard.index, title=f"{title} (shard {position})"))
    else:
        print(format_index_stats(matcher.index, title=title))


def _cmd_add(args: argparse.Namespace) -> int:
    matcher = load_matcher(args.snapshot)
    fresh = load_dataset(args.dataset, num_windows=args.windows, seed=args.seed)
    windows_before = len(matcher.windows)
    for position, sequence in enumerate(fresh):
        matcher.add_sequence(sequence, seq_id=f"added-{args.seed}-{position}")
    save_matcher(matcher, args.snapshot)
    print(
        f"incrementally added {len(fresh)} sequences "
        f"({len(matcher.windows) - windows_before} windows) and updated "
        f"{args.snapshot} in place"
    )
    _print_index_stats(matcher, title="index state after update")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here: the CLI stays usable even if the server package is
    # stripped from a deployment.
    from repro.server import serve

    if args.snapshot:
        distance = None
        if args.distance is not None:
            if args.dataset is None:
                raise ReproError("--distance with --snapshot also needs --dataset")
            distance = dataset_distance(args.dataset, args.distance)
        service = SearchService(args.database, distance=distance)
    else:
        if args.dataset is None:
            raise ReproError("serve needs --dataset (or --snapshot)")
        database = load_database(args.database)
        distance_name = _default_distance(args.dataset, args.distance)
        distance = dataset_distance(args.dataset, distance_name)
        service = SearchService(_build_matcher(database, distance, _matcher_config(args)))
    serve(
        service,
        host=args.host,
        port=args.port,
        backend=args.server_backend,
        snapshot_on_exit=not args.no_snapshot_on_exit,
        max_in_flight=args.max_in_flight,
        default_timeout=args.timeout,
    )
    return 0


def _cmd_distribution(args: argparse.Namespace) -> int:
    distance_name = _default_distance(args.dataset, args.distance)
    distance = dataset_distance(args.dataset, distance_name)
    windows = dataset_windows(args.dataset, args.windows, seed=args.seed)
    sample = distance_distribution(
        [window.sequence for window in windows], distance, max_pairs=args.pairs
    )
    print(
        format_histogram(
            sample.bin_edges,
            sample.counts,
            title=f"{args.dataset} / {distance_name}: pairwise window distances",
        )
    )
    print(f"mean={sample.mean:.3f} std={sample.std:.3f} skewness={sample.skewness:.3f}")
    return 0


def _cmd_compare_indexes(args: argparse.Namespace) -> int:
    distance_name = _default_distance(args.dataset, args.distance)
    distance = dataset_distance(args.dataset, distance_name)
    windows = dataset_windows(args.dataset, args.windows, seed=args.seed)
    items = [window.sequence for window in windows]
    queries = items[: args.queries]
    sample = distance_distribution(items, distance, max_pairs=500)
    radii = args.radii or [sample.quantile(q) for q in (0.01, 0.05, 0.1, 0.25)]

    indexes = {
        "RN": ReferenceNet(distance),
        # The net with bound-first routing: lower bounds settle its routing
        # before the kernels (equal to RN for a distance without a bound table).
        "RN+LB": ReferenceNet(distance, prefilter=True),
        # Linear scan with lower-bound prefilters: the baseline every figure
        # normalises against, now with the cheap-bounds-before-kernels stage.
        "LS+LB": LinearScanIndex(distance, prefilter=True),
    }
    for index in indexes.values():
        for window in windows:
            index.add(window.sequence, key=window.key)
    executor = make_executor(args.executor or _default_executor(), args.workers)
    results = compare_indexes(indexes, queries, radii, executor=executor)
    rows = [
        [result.index_name, result.radius, result.distance_computations,
         100.0 * result.fraction_of_naive, result.prefilter_evaluations,
         result.prefilter_pruned, result.cache_hits, result.matches]
        for result in results
    ]
    print(
        format_table(
            [
                "index", "radius", "distance computations", "% of naive",
                "prefilter evals", "prefilter pruned", "cache hits", "matches",
            ],
            rows,
            title=f"{args.dataset} / {distance_name}: query cost vs naive scan "
            f"(executor {executor.name}, {executor.workers} workers)",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "search": _cmd_search,
        "snapshot": _cmd_snapshot,
        "add": _cmd_add,
        "serve": _cmd_serve,
        "distribution": _cmd_distribution,
        "compare-indexes": _cmd_compare_indexes,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
