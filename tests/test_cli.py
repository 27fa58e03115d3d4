"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.storage import load_database


@pytest.fixture
def generated_db(tmp_path):
    path = tmp_path / "songs.npz"
    code = main(["generate", "songs", str(path), "--windows", "80", "--seed", "1"])
    assert code == 0
    return path


class TestGenerate:
    def test_generate_writes_database(self, tmp_path, capsys):
        path = tmp_path / "proteins.npz"
        code = main(["generate", "proteins", str(path), "--windows", "60"])
        captured = capsys.readouterr()
        assert code == 0
        assert "wrote" in captured.out
        assert load_database(path).kind.value == "string"

    def test_generate_traj(self, tmp_path):
        path = tmp_path / "traj.npz"
        assert main(["generate", "traj", str(path), "--windows", "40"]) == 0
        assert len(load_database(path)) > 0


class TestSearch:
    def test_search_songs(self, generated_db, capsys):
        code = main(
            [
                "search",
                str(generated_db),
                "--dataset",
                "songs",
                "--radius",
                "3.0",
                "--min-length",
                "20",
                "--max-shift",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "query cut from" in captured.out

    def test_search_executor_and_shards_are_output_invariant(self, generated_db, capsys):
        """The engine flags change the execution substrate, not the answer."""
        base = [
            "search",
            str(generated_db),
            "--dataset",
            "songs",
            "--radius",
            "3.0",
            "--min-length",
            "20",
            "--max-shift",
            "1",
        ]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--executor", "thread", "--workers", "4"]) == 0
        thread_out = capsys.readouterr().out
        assert thread_out == serial_out
        assert main(base + ["--executor", "thread", "--workers", "4", "--shards", "3"]) == 0
        sharded_out = capsys.readouterr().out
        # The sharded matcher reports the same match and the same naive
        # denominator; its chain/verification counts may differ by shard.
        assert sharded_out.splitlines()[0] == serial_out.splitlines()[0]
        assert sharded_out.splitlines()[1] == serial_out.splitlines()[1]

    def test_search_stats_show_executor(self, generated_db, capsys):
        code = main(
            [
                "search",
                str(generated_db),
                "--dataset",
                "songs",
                "--radius",
                "3.0",
                "--min-length",
                "20",
                "--executor",
                "thread",
                "--workers",
                "2",
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "thread (2 workers)" in captured.out
        assert "stage cpu: probe" in captured.out

    def test_compare_indexes_executor_flag(self, capsys):
        code = main(
            [
                "compare-indexes",
                "songs",
                "--windows",
                "60",
                "--queries",
                "2",
                "--executor",
                "thread",
                "--workers",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "executor thread" in captured.out

    def test_search_stats_table(self, generated_db, capsys):
        code = main(
            [
                "search",
                str(generated_db),
                "--dataset",
                "songs",
                "--radius",
                "3.0",
                "--min-length",
                "20",
                "--max-shift",
                "1",
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "query statistics" in captured.out
        assert "pruning ratio alpha" in captured.out
        assert "prefilter evaluations" in captured.out
        assert re.search(r"index kernel calls\s+\|?\s*[1-9]", captured.out)
        # One prefix block answers every request sharing its start pair.
        computations = int(re.search(r"verification computations\s+(\d+)", captured.out)[1])
        calls = int(re.search(r"verification kernel calls\s+(\d+)", captured.out)[1])
        assert 0 < calls < computations
        assert "stage time: probe" in captured.out
        assert re.search(r"distance cache: \d+ entries, 0 evictions", captured.out)

    def test_search_missing_database(self, tmp_path, capsys):
        code = main(
            ["search", str(tmp_path / "absent.npz"), "--dataset", "songs"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err


class TestSearchTypesAndJson:
    BASE = [
        "--dataset",
        "songs",
        "--radius",
        "3.0",
        "--min-length",
        "20",
        "--max-shift",
        "1",
    ]

    def test_search_type_topk(self, generated_db, capsys):
        code = main(
            ["search", str(generated_db), *self.BASE, "--type", "topk", "--k", "2", "--stats"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("SubsequenceMatch") == 2
        # The sweep's history: per pass, the segment matches and how many
        # segments its probe table answered (none on the first pass).
        assert re.search(r"segments answered from the sweep table\s+[1-9]\d*", captured.out)
        assert re.search(r"table-answered segments per pass\s+0, \d+", captured.out)

    def test_search_type_nearest(self, generated_db, capsys):
        code = main(["search", str(generated_db), *self.BASE, "--type", "nearest"])
        captured = capsys.readouterr()
        assert code == 0
        assert "SubsequenceMatch" in captured.out

    def test_search_type_range_with_paging(self, generated_db, capsys):
        code = main(
            ["search", str(generated_db), *self.BASE, "--type", "range", "--limit", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("SubsequenceMatch") == 1
        assert "adjust --limit/--offset" in captured.out

    def _json_payload(self, generated_db, capsys, *extra):
        code = main(["search", str(generated_db), *self.BASE, "--json", *extra])
        captured = capsys.readouterr()
        assert code == 0
        return json.loads(captured.out)

    def test_json_envelope_schema(self, generated_db, capsys):
        payload = self._json_payload(generated_db, capsys, "--type", "topk", "--k", "2")
        assert payload["schema_version"] == 2
        assert payload["request_id"] is None
        assert payload["server"]["name"] == "repro-search"
        assert payload["server"]["version"]
        assert payload["query"]["type"] == "topk"
        assert payload["query"]["k"] == 2
        assert payload["error"] is None
        assert payload["total_matches"] >= len(payload["matches"]) > 0
        for match in payload["matches"]:
            assert set(match) == {
                "source_id",
                "query_start",
                "query_stop",
                "db_start",
                "db_stop",
                "distance",
                "length",
            }
        stats = payload["stats"]
        # A sweep: every pass after the first is answered, at least in part,
        # from its probe table.
        assert 0 < stats["table_segments"] <= stats["segments_extracted"] * (stats["passes"] - 1)
        # Execution-dependent (replayed work units, racing verification
        # units), so --stats rows only.
        assert "index_kernel_calls" not in stats
        assert "verification_kernel_calls" not in stats
        for counter in (
            "segments_extracted",
            "index_distance_computations",
            "verification_distance_computations",
            "naive_distance_computations",
            "pruning_ratio",
            "passes",
            "executor",
            "workers",
            "shards",
            "stage_seconds",
            "cpu_stage_seconds",
        ):
            assert counter in stats
        config = payload["config"]
        assert config["distance"] == "frechet"
        assert config["min_length"] == 20
        assert len(config["fingerprint"]) == 16
        int(config["fingerprint"], 16)  # hex digest

    def test_json_default_type_is_longest(self, generated_db, capsys):
        payload = self._json_payload(generated_db, capsys)
        assert payload["query"]["type"] == "longest"
        assert len(payload["matches"]) <= 1

    def test_json_request_id_is_echoed(self, generated_db, capsys):
        payload = self._json_payload(
            generated_db, capsys, "--request-id", "cli-run-7"
        )
        assert payload["request_id"] == "cli-run-7"

    def test_json_no_timings_is_deterministic(self, generated_db, capsys):
        first = self._json_payload(
            generated_db, capsys, "--type", "topk", "--k", "3", "--no-timings"
        )
        second = self._json_payload(
            generated_db, capsys, "--type", "topk", "--k", "3", "--no-timings"
        )
        # Nothing popped: with --no-timings the whole envelope is stable.
        assert first["stats"]["stage_seconds"] == {}
        assert first["stats"]["cpu_stage_seconds"] == {}
        assert first == second

    def test_json_envelope_is_stable_across_runs(self, generated_db, capsys):
        first = self._json_payload(generated_db, capsys, "--type", "topk", "--k", "3")
        second = self._json_payload(generated_db, capsys, "--type", "topk", "--k", "3")
        # Wall-clock timings aside, two identical invocations emit the
        # identical envelope -- matches, work counters, and fingerprint.
        for payload in (first, second):
            payload["stats"].pop("stage_seconds")
            payload["stats"].pop("cpu_stage_seconds")
        assert first == second

    def test_json_snapshot_search_matches_plain(self, generated_db, tmp_path, capsys):
        snapshot = tmp_path / "songs-matcher.npz"
        assert (
            main(
                [
                    "snapshot",
                    str(generated_db),
                    str(snapshot),
                    "--dataset",
                    "songs",
                    "--min-length",
                    "20",
                    "--max-shift",
                    "1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        plain = self._json_payload(generated_db, capsys, "--type", "topk", "--k", "2")
        from_snapshot = self._json_payload(
            snapshot, capsys, "--type", "topk", "--k", "2", "--snapshot"
        )
        for payload in (plain, from_snapshot):
            payload["stats"].pop("stage_seconds")
            payload["stats"].pop("cpu_stage_seconds")
        assert plain == from_snapshot


class TestSnapshotVerbs:
    @pytest.fixture
    def snapshot_path(self, generated_db, tmp_path, capsys):
        path = tmp_path / "songs-matcher.npz"
        code = main(
            [
                "snapshot",
                str(generated_db),
                str(path),
                "--dataset",
                "songs",
                "--min-length",
                "20",
                "--max-shift",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "wrote matcher snapshot" in captured.out
        assert "staleness policy" in captured.out
        return path

    def test_search_snapshot(self, snapshot_path, capsys):
        code = main(
            [
                "search",
                str(snapshot_path),
                "--dataset",
                "songs",
                "--radius",
                "3.0",
                "--snapshot",
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "query cut from" in captured.out
        assert "query statistics" in captured.out

    def test_add_updates_snapshot_in_place(self, snapshot_path, capsys):
        code = main(
            [
                "add",
                str(snapshot_path),
                "--dataset",
                "songs",
                "--windows",
                "10",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "incrementally added" in captured.out
        assert "incremental inserts" in captured.out
        # The updated snapshot still answers searches.
        assert (
            main(
                [
                    "search",
                    str(snapshot_path),
                    "--dataset",
                    "songs",
                    "--radius",
                    "3.0",
                    "--snapshot",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_snapshot_search_matches_plain_search_results(
        self, generated_db, snapshot_path, capsys
    ):
        args = ["--dataset", "songs", "--radius", "3.0", "--min-length", "20", "--max-shift", "1"]
        assert main(["search", str(generated_db), *args]) == 0
        plain = capsys.readouterr().out
        assert main(["search", str(snapshot_path), *args, "--snapshot"]) == 0
        from_snapshot = capsys.readouterr().out
        # Identical match line and identical work accounting.
        assert plain == from_snapshot

    def test_add_missing_snapshot_errors(self, tmp_path, capsys):
        code = main(["add", str(tmp_path / "absent.npz"), "--dataset", "songs"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err


class TestDistribution:
    def test_distribution_output(self, capsys):
        code = main(["distribution", "songs", "--windows", "40", "--pairs", "100"])
        captured = capsys.readouterr()
        assert code == 0
        assert "pairwise window distances" in captured.out
        assert "mean=" in captured.out

    def test_distribution_rejects_bad_pairing(self, capsys):
        code = main(["distribution", "proteins", "--distance", "erp", "--windows", "30"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err


class TestCompareIndexes:
    def test_compare_output_contains_all_indexes(self, capsys):
        code = main(
            [
                "compare-indexes",
                "traj",
                "--windows",
                "60",
                "--queries",
                "2",
                "--radii",
                "5",
                "20",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        labels = {line.split()[0] for line in captured.out.splitlines() if line.strip()}
        assert {"RN", "RN+LB", "LS+LB"} <= labels
        assert not labels & {"CT", "MV-5"}
        assert "% of naive" in captured.out

    def test_bound_first_net_computes_no_more_than_net_or_scan(self, capsys):
        code = main(
            ["compare-indexes", "songs", "--windows", "80", "--queries", "4", "--radii", "1", "3"]
        )
        assert code == 0
        # index, radius, distance computations, % of naive, prefilter evals, pruned, ...
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        rows = [row for row in rows if row and row[0] in ("RN", "RN+LB", "LS+LB")]
        cost = {(row[0], row[1]): float(row[2]) for row in rows}
        pruned = {(row[0], row[1]): float(row[5]) for row in rows}
        radii = sorted({radius for _label, radius in cost})
        assert len(radii) == 2
        for radius in radii:
            assert cost["RN+LB", radius] <= min(cost["RN", radius], cost["LS+LB", radius])
            assert pruned["RN+LB", radius] > 0 == pruned["RN", radius]


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_serve_accepts_only_the_stdlib_runtime_names(self, capsys):
        # `auto` and `stdlib` both name the stdlib server; uvicorn is gone.
        with pytest.raises(SystemExit):
            main(["serve", "db.npz", "--server-backend", "uvicorn"])
        assert "invalid choice: 'uvicorn'" in capsys.readouterr().err

    def test_the_kernel_flag_is_gone(self, capsys):
        # The C kernels are the only engine: no flag picks a tier.
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "db.npz", "--dataset", "songs", "--radius", "1", "--kernel", "cc"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --kernel cc" in capsys.readouterr().err
