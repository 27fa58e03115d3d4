"""Unit tests for the pluggable execution engines.

The functional guarantees (parallel == serial results and counters) are
covered by the equivalence suites; these tests pin down the executor layer
itself: task ordering, CPU accounting, the process pool's three-phase
remote protocol and its local fallback, pool sharing, and the
configuration plumbing.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.core.executor import (
    EXECUTOR_NAMES,
    ProcessPoolExecutor,
    SerialExecutor,
    TaskResult,
    ThreadPoolExecutor,
    WorkTask,
    _shared_pool,
    default_workers,
    make_executor,
)
from repro.exceptions import ConfigurationError


def _double_payload(payload):
    return payload * 2


class TestSerialExecutor:
    def test_runs_in_order(self):
        seen = []
        tasks = [WorkTask(local=lambda i=i: seen.append(i) or i) for i in range(8)]
        results = SerialExecutor().run(tasks)
        assert [result.value for result in results] == list(range(8))
        assert seen == list(range(8))

    def test_is_not_parallel(self):
        executor = SerialExecutor()
        assert not executor.is_parallel
        assert executor.workers == 1

    def test_cpu_seconds_recorded(self):
        def spin():
            deadline = time.thread_time() + 0.01
            while time.thread_time() < deadline:
                pass
            return "done"

        [result] = SerialExecutor().run([WorkTask(local=spin)])
        assert isinstance(result, TaskResult)
        assert result.value == "done"
        assert result.cpu_seconds >= 0.01


class TestThreadPoolExecutor:
    def test_results_keep_task_order(self):
        def task(i):
            time.sleep(0.002 * (8 - i))
            return i

        tasks = [WorkTask(local=lambda i=i: task(i)) for i in range(8)]
        results = ThreadPoolExecutor(4).run(tasks)
        assert [result.value for result in results] == list(range(8))

    def test_actually_uses_worker_threads(self):
        names = set()
        barrier = threading.Barrier(2, timeout=5)

        def task():
            barrier.wait()
            names.add(threading.current_thread().name)
            return True

        ThreadPoolExecutor(2).run([WorkTask(local=task) for _ in range(2)])
        assert len(names) == 2
        assert all(name.startswith("repro-worker") for name in names)

    def test_single_task_runs_inline(self):
        [result] = ThreadPoolExecutor(4).run(
            [WorkTask(local=lambda: threading.current_thread().name)]
        )
        assert result.value == threading.current_thread().name

    def test_exceptions_propagate(self):
        def boom():
            raise ValueError("unit failed")

        with pytest.raises(ValueError, match="unit failed"):
            ThreadPoolExecutor(2).run([WorkTask(local=boom), WorkTask(local=boom)])

    def test_pool_is_shared(self):
        assert _shared_pool("thread", 3) is _shared_pool("thread", 3)
        assert _shared_pool("thread", 3) is not _shared_pool("thread", 4)


class TestProcessPoolExecutor:
    def test_remote_tasks_round_trip(self):
        tasks = [
            WorkTask(
                local=lambda i=i: _double_payload(i),
                prepare=lambda i=i: i,
                remote=_double_payload,
                finish=lambda out: out + 1,
            )
            for i in range(5)
        ]
        results = ProcessPoolExecutor(2).run(tasks)
        assert [result.value for result in results] == [2 * i + 1 for i in range(5)]

    def test_tasks_without_remote_run_locally(self):
        pid_box = []

        def local():
            pid_box.append(os.getpid())
            return "local"

        [result] = ProcessPoolExecutor(2).run([WorkTask(local=local)])
        assert result.value == "local"
        assert pid_box == [os.getpid()]

    def test_mixed_remote_and_local_preserve_order(self):
        tasks = []
        for i in range(6):
            if i % 2 == 0:
                tasks.append(
                    WorkTask(
                        local=lambda i=i: _double_payload(i),
                        prepare=lambda i=i: i,
                        remote=_double_payload,
                        finish=lambda out: out,
                    )
                )
            else:
                tasks.append(WorkTask(local=lambda i=i: i * 2))
        results = ProcessPoolExecutor(2).run(tasks)
        assert [result.value for result in results] == [2 * i for i in range(6)]


    def test_sequential_process_matchers_exit_cleanly(self):
        """Two process-executor matchers in a row leave stderr empty at exit.

        Pool children are forked and share the parent's resource tracker,
        so anything a child registers or unregisters there lands on the
        parent's books; an interpreter that exits with a ``resource_tracker``
        traceback has let a child drop one of the parent's registrations.
        """
        script = textwrap.dedent(
            """
            import numpy as np
            from repro import (
                DiscreteFrechet, MatcherConfig, RangeQuery, Sequence,
                SequenceDatabase, SequenceKind, SubsequenceMatcher,
            )

            generator = np.random.default_rng(3)
            db = SequenceDatabase(SequenceKind.TIME_SERIES)
            for position in range(3):
                db.add(Sequence.from_values(
                    generator.normal(size=60).cumsum(), seq_id=f"s{position}"
                ))
            query = Sequence.from_values(db["s0"].values[10:34] + 0.01)
            config = MatcherConfig(
                min_length=12, max_shift=1, index="linear-scan",
                executor="process", workers=2,
            )
            for _ in range(2):
                matcher = SubsequenceMatcher(db, DiscreteFrechet(), config)
                matcher.execute(RangeQuery(radius=0.5).bind(query))
                matcher.close()
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr
        assert "Traceback" not in done.stderr


class TestMakeExecutor:
    def test_names(self):
        assert make_executor("serial").name == "serial"
        assert make_executor("thread", 2).name == "thread"
        assert make_executor("process", 2).name == "process"

    def test_default_worker_count(self):
        executor = make_executor("thread")
        assert executor.workers == default_workers()
        assert default_workers() >= 1

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            make_executor("gpu")
        assert "serial" in EXECUTOR_NAMES

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ThreadPoolExecutor(0)


class TestCostAwareChunking:
    """Cost-weighted chunk cuts: legacy-compatible, heavy-task-aware."""

    def _flat(self, chunks):
        return [position for chunk in chunks for position in chunk]

    def test_uniform_costs_match_sizebased_boundaries(self):
        from repro.indexing.base import chunk_positions

        for count in (1, 7, 16, 100):
            for workers in (1, 2, 4):
                uniform = chunk_positions(count, workers, costs=[1.0] * count)
                legacy = chunk_positions(count, workers)
                assert uniform == legacy

    def test_costed_chunks_are_contiguous_and_complete(self):
        from repro.indexing.base import chunk_positions

        costs = [5.0, 1.0, 1.0, 1.0, 40.0, 1.0, 1.0, 2.0]
        chunks = chunk_positions(len(costs), 2, costs=costs)
        assert self._flat(chunks) == list(range(len(costs)))
        for chunk in chunks:
            assert chunk == list(range(chunk[0], chunk[-1] + 1))

    def test_heavy_unit_closes_its_chunk(self):
        from repro.indexing.base import chunk_positions

        # One unit holds almost all the cost: it must not drag the cheap
        # tail into its chunk (the fixed-size cut would).
        costs = [100.0] + [1.0] * 7
        chunks = chunk_positions(len(costs), 2, costs=costs)
        assert chunks[0] == [0]

    def test_zero_total_cost_falls_back_to_sizebased(self):
        from repro.indexing.base import chunk_positions

        assert chunk_positions(8, 2, costs=[0.0] * 8) == chunk_positions(8, 2)

    def test_process_cost_chunks_match_legacy_for_uniform_costs(self):
        import math

        tasks = [
            WorkTask(local=lambda: None, prepare=lambda: None, remote=_double_payload)
            for _ in range(10)
        ]
        entries = [(position, None) for position in range(10)]
        workers = 2
        target = float(len(tasks)) / (2 * workers)
        chunks = ProcessPoolExecutor._cost_chunks(tasks, entries, target)
        legacy_size = math.ceil(len(entries) / (2 * workers))
        assert [len(chunk) for chunk in chunks] == [
            legacy_size
        ] * (len(entries) // legacy_size) + (
            [len(entries) % legacy_size] if len(entries) % legacy_size else []
        )

    def test_process_cost_chunks_isolate_heavy_task(self):
        tasks = []
        for cost in (50.0, 1.0, 1.0, 1.0):
            tasks.append(
                WorkTask(
                    local=lambda: None,
                    prepare=lambda: None,
                    remote=_double_payload,
                    cost=cost,
                )
            )
        entries = [(position, None) for position in range(4)]
        total = sum(task.cost for task in tasks)
        chunks = ProcessPoolExecutor._cost_chunks(tasks, entries, total / 4)
        assert [entry[0] for entry in chunks[0]] == [0]

    def test_none_target_gives_singleton_chunks(self):
        tasks = [
            WorkTask(local=lambda: None, prepare=lambda: None, remote=_double_payload)
            for _ in range(3)
        ]
        entries = [(position, None) for position in range(3)]
        chunks = ProcessPoolExecutor._cost_chunks(tasks, entries, None)
        assert [len(chunk) for chunk in chunks] == [1, 1, 1]
