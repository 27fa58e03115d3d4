"""Pluggable execution engines for parallel query work.

The query pipeline decomposes its probe and verify stages into independent
*work units* (see :meth:`repro.indexing.base.MetricIndex.query_work_units`
and :meth:`repro.core.pipeline.QueryPipeline`); an :class:`Executor` decides
how those units run:

:class:`SerialExecutor`
    In-order, in-process execution -- the reference semantics every other
    executor must reproduce exactly (results *and* work counters).
:class:`ThreadPoolExecutor`
    A shared :mod:`concurrent.futures` thread pool.  Python-level index
    traversal still serializes on the GIL, but the C DP kernels release it
    (ctypes drops it around every call), so kernel-heavy work units (the
    linear scan's shape-group batches, verification's bounded kernels)
    overlap on multiple cores with zero pickling cost.
:class:`ProcessPoolExecutor`
    A shared process pool for work units that expose a picklable
    *remote* phase.  Payloads -- chunked batches of window tensors -- are
    pickled to child processes that run pure kernels and return values;
    cache lookups, accounting, and result assembly stay in the parent, so
    the serial-equivalence contract is unaffected by what the children see.
    Units without a remote phase (the pointer-chasing tree traversals) run
    in the parent, so the process executor is never *wrong*, just selective
    about what it ships out.

Pools are shared process-wide, keyed by ``(kind, workers)``: matchers are
cheap to create in large numbers (the test-suite builds hundreds), so each
executor instance is a lightweight handle and the underlying OS threads /
processes are created lazily once and reused until interpreter exit.

Per-task CPU time is measured (``time.thread_time`` in whichever thread or
child process runs the task) and reported alongside the result, which is
what lets :class:`~repro.core.queries.QueryStats` show summed per-worker
CPU next to wall-clock for parallel stages.
"""

from __future__ import annotations

import abc
import atexit
import os
import threading
import time
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence as TypingSequence, Tuple

from repro.exceptions import ConfigurationError

#: The executor names accepted by :func:`make_executor` and ``MatcherConfig``.
EXECUTOR_NAMES = ("serial", "thread", "process")


@dataclass
class WorkTask:
    """One schedulable unit of work.

    ``local`` runs the whole task in the calling process (serial and thread
    executors).  Tasks that can ship their kernel phase to another process
    additionally provide the three-phase split: ``prepare`` (parent-side,
    builds a picklable payload), ``remote`` (a module-level function run on
    the payload in a child), and ``finish`` (parent-side, folds the child's
    output into the task result).

    ``cost`` is a relative estimate of the task's compute weight (for a
    probe unit: windows x DP cells).  The process executor chunks payloads
    by accumulated cost rather than by count, so a single heavy shape
    group gets its own chunk instead of serializing a fixed-size one.
    """

    local: Callable[[], Any]
    prepare: Optional[Callable[[], Any]] = None
    remote: Optional[Callable[[Any], Any]] = None
    finish: Optional[Callable[[Any], Any]] = None
    cost: float = 1.0

    @property
    def supports_remote(self) -> bool:
        """Whether this task can run its compute phase in a child process."""
        return self.remote is not None and self.prepare is not None


@dataclass
class TaskResult:
    """A task's return value plus the CPU seconds spent producing it.

    ``inline`` marks results produced on the *calling* thread (the serial
    executor, pool shortcuts, the process executor's local fallbacks):
    their CPU is already part of the caller's own ``thread_time`` window,
    so stage accounting must not add it a second time.
    """

    value: Any
    cpu_seconds: float
    inline: bool = False

    @property
    def worker_cpu_seconds(self) -> float:
        """CPU burned off the calling thread (0 for inline results)."""
        return 0.0 if self.inline else self.cpu_seconds


def _run_timed(fn: Callable[[], Any], inline: bool = False) -> TaskResult:
    started = time.thread_time()
    value = fn()
    return TaskResult(value, time.thread_time() - started, inline)


def _run_remote_chunk(fn: Callable[[Any], Any], payloads: List[Any]) -> List[Tuple[Any, float]]:
    """Child-process entry point: run ``fn`` over one chunk of payloads."""
    out: List[Tuple[Any, float]] = []
    for payload in payloads:
        started = time.thread_time()
        value = fn(payload)
        out.append((value, time.thread_time() - started))
    return out


# --------------------------------------------------------------------- #
# Shared pools
# --------------------------------------------------------------------- #
_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(kind: str, workers: int):
    """The process-wide pool for ``(kind, workers)``, created on first use."""
    key = (kind, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if kind == "thread":
                pool = futures.ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-worker"
                )
            else:
                pool = futures.ProcessPoolExecutor(max_workers=workers)
            _POOLS[key] = pool
        return pool


@atexit.register
def shutdown_pools() -> None:
    """Shut down every shared pool (registered atexit; callable from tests)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def default_workers() -> int:
    """The worker count used when the configuration leaves it unset."""
    return os.cpu_count() or 1


# --------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------- #
class Executor(abc.ABC):
    """Runs a list of :class:`WorkTask` and returns results in task order."""

    #: Stable identifier, also shown in ``QueryStats`` / CLI tables.
    name: str = "executor"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    @property
    def is_parallel(self) -> bool:
        """Whether tasks may run concurrently (False only for the serial one)."""
        return True

    @property
    def runs_local_tasks_concurrently(self) -> bool:
        """Whether plain ``local`` tasks (no remote phase) can overlap.

        True for the thread pool; False for the serial executor and the
        process pool (which runs local-only tasks in the parent, one by
        one).  Callers use this to skip the recording/replay bookkeeping
        when there is no concurrency to buy with it.
        """
        return self.is_parallel

    @abc.abstractmethod
    def run(self, tasks: TypingSequence[WorkTask]) -> List[TaskResult]:
        """Execute every task; results are returned in task order."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """In-order, in-process execution: the reference semantics."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)

    @property
    def is_parallel(self) -> bool:
        return False

    def run(self, tasks: TypingSequence[WorkTask]) -> List[TaskResult]:
        return [_run_timed(task.local, inline=True) for task in tasks]


class ThreadPoolExecutor(Executor):
    """Fan work units out over a shared thread pool."""

    name = "thread"

    def run(self, tasks: TypingSequence[WorkTask]) -> List[TaskResult]:
        if len(tasks) <= 1:
            return [_run_timed(task.local, inline=True) for task in tasks]
        pool = _shared_pool("thread", self.workers)
        pending = [pool.submit(_run_timed, task.local) for task in tasks]
        return [future.result() for future in pending]


class ProcessPoolExecutor(Executor):
    """Ship remote-capable work units to a shared process pool, chunked.

    Payloads are grouped by their remote function and cut into chunks of
    roughly equal *cost* (each task's :attr:`WorkTask.cost` estimate,
    targeting ``2 * workers`` chunks per run) so the per-future pickling
    and IPC overhead is amortised over a batch of payloads while a single
    heavy task -- one giant shape group -- still gets a chunk of its own
    instead of serializing the stage behind a fixed-size cut.  Tasks
    without a remote phase run in the parent.
    """

    name = "process"

    @property
    def runs_local_tasks_concurrently(self) -> bool:
        return False

    def run(self, tasks: TypingSequence[WorkTask]) -> List[TaskResult]:
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        remote_positions = [
            position for position, task in enumerate(tasks) if task.supports_remote
        ]
        if remote_positions:
            pool = _shared_pool("process", self.workers)
            prepared: List[Tuple[int, Any]] = [
                (position, tasks[position].prepare()) for position in remote_positions
            ]
            total_cost = sum(max(tasks[position].cost, 0.0) for position, _ in prepared)
            cost_target = total_cost / (2 * self.workers) if total_cost > 0 else None
            # Group by remote function so one chunk needs exactly one callable.
            by_fn: dict = {}
            for position, payload in prepared:
                by_fn.setdefault(tasks[position].remote, []).append((position, payload))
            pending = []
            for fn, entries in by_fn.items():
                for chunk in self._cost_chunks(tasks, entries, cost_target):
                    future = pool.submit(_run_remote_chunk, fn, [p for _, p in chunk])
                    pending.append((chunk, future))
            for chunk, future in pending:
                for (position, _payload), (value, child_cpu) in zip(
                    chunk, future.result()
                ):
                    task = tasks[position]
                    final = task.finish(value) if task.finish is not None else value
                    # Only the child's CPU counts as worker CPU; the
                    # prepare/finish phases ran on the calling thread and
                    # are already inside the caller's own CPU window.
                    results[position] = TaskResult(final, child_cpu)
        for position, task in enumerate(tasks):
            if results[position] is None:
                results[position] = _run_timed(task.local, inline=True)
        return results  # type: ignore[return-value]

    @staticmethod
    def _cost_chunks(
        tasks: TypingSequence[WorkTask],
        entries: List[Tuple[int, Any]],
        cost_target: Optional[float],
    ) -> List[List[Tuple[int, Any]]]:
        """Cut one remote-fn group into contiguous chunks of ~equal cost.

        ``cost_target`` is the global per-chunk budget (total cost over
        ``2 * workers``); with uniform costs the boundaries coincide with
        the old fixed ``ceil(n / (2 * workers))`` cut.  ``None`` (all
        costs zero) degrades to one chunk per entry.
        """
        if cost_target is None:
            return [[entry] for entry in entries]
        chunks: List[List[Tuple[int, Any]]] = []
        current: List[Tuple[int, Any]] = []
        accumulated = 0.0
        for entry in entries:
            current.append(entry)
            accumulated += max(tasks[entry[0]].cost, 0.0)
            if accumulated >= cost_target:
                chunks.append(current)
                current = []
                accumulated = 0.0
        if current:
            chunks.append(current)
        return chunks


def make_executor(name: str, workers: Optional[int] = None) -> Executor:
    """Build the executor the configuration names.

    ``workers=None`` means "one per CPU" for the parallel executors (and is
    ignored by the serial one).
    """
    if name == "serial":
        return SerialExecutor()
    count = default_workers() if workers is None else workers
    if name == "thread":
        return ThreadPoolExecutor(count)
    if name == "process":
        return ProcessPoolExecutor(count)
    raise ConfigurationError(
        f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
    )
