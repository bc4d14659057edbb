"""Supervised worker pools: liveness, deadlines, retry, backoff.

``multiprocessing.Pool`` cannot survive worker loss: an OOM-killed (or
``os._exit``-ed) worker leaves ``Pool.map`` waiting forever for a
result that will never arrive, and a wedged worker is indistinguishable
from a slow one.  :class:`SupervisedPool` replaces it for the sweep
execution path with explicit dispatch the coordinator can reason
about:

* **one in-flight task per worker** — when a worker dies, exactly one
  task is known lost; only that task re-runs;
* **liveness checks** — ``Process.is_alive()`` polled between reaps, so
  a dead worker is *detected* (and respawned through the same
  initializer) instead of hanging the dispatch loop;
* **per-task deadlines** — a wedged worker misses its deadline, is
  terminated, and its task re-runs elsewhere;
* **seeded exponential backoff and a retry budget** — transient
  failures retry with deterministic jitter; budget exhaustion produces
  a terminal :class:`TaskFailure` record;
* **attempt tags** — every dispatch carries its attempt number, so a
  stale result from a superseded attempt is discarded, never merged.

Determinism note: supervision decides *where and when* work runs,
never *what* it computes.  Tasks must be pure functions of their
payload (the repository's sweep cells are — pinned by the parity
suites), which is exactly why a retried task is guaranteed to
reproduce the lost result bit-for-bit.

This module also owns the live-pool registry: every started pool is
swept at interpreter exit (and finalized on garbage collection), so an
abandoned executor cannot leak worker processes.
"""

from __future__ import annotations

import atexit
import heapq
import multiprocessing
import queue
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import AnalysisError

__all__ = [
    "SupervisionPolicy",
    "TaskFailure",
    "CellFailure",
    "SupervisedPool",
]

#: How long one outbox reap waits before the liveness sweep runs.
_REAP_INTERVAL = 0.02

#: Grace given to a terminated process before it is abandoned to the
#: exit sweep.
_TERMINATE_JOIN = 1.0


@dataclass(frozen=True)
class SupervisionPolicy:
    """How failures are retried.

    ``retries`` is the number of *re*-attempts per task after the
    first; ``task_timeout`` (seconds, None = no deadline) is per
    dispatch.  Backoff before attempt ``n``'s retry is
    ``min(backoff_max, backoff_base * 2**(n-1))`` scaled by a jitter
    factor in [0.5, 1.0) drawn from ``default_rng(seed)`` — seeded, so
    a re-run schedules identically.
    """

    retries: int = 2
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise AnalysisError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise AnalysisError(
                f"task_timeout must be > 0 or None, got {self.task_timeout}"
            )

    def backoff_delay(self, attempt: int, rng: "np.random.Generator") -> float:
        """Seconds to wait before re-dispatching attempt ``attempt+1``."""
        delay = min(self.backoff_max, self.backoff_base * (2 ** max(0, attempt - 1)))
        return delay * (0.5 + 0.5 * float(rng.random()))


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure of one pool task (its retry budget spent)."""

    index: int
    label: str
    attempts: int
    #: How the final attempt ended: "crashed" (worker process died),
    #: "timeout" (missed its deadline and was terminated), or "raised"
    #: (the task body raised).
    fate: str
    error: str


@dataclass(frozen=True)
class CellFailure:
    """Terminal failure of one sweep cell, as the executor reports it."""

    x: float
    seed: int
    attempts: int
    fate: str
    error: str


class _ResultChannel:
    """Worker → supervisor result stream without a feeder thread.

    ``multiprocessing.Queue`` flushes ``put`` from a background feeder
    thread, so a worker killed at an arbitrary instruction (a crash, an
    OOM kill, an injected ``os._exit``) can die while its feeder holds
    the shared cross-process write lock mid-frame — every surviving
    worker then blocks in ``put`` on the orphaned lock and the
    supervisor starves without anything being observably dead.  Here
    the worker sends from its *main* thread: while it is executing task
    code — where crashes, injected faults and deadline terminations
    land — it cannot be holding the lock, so its death cannot poison
    the channel for the others.
    """

    def __init__(self, context) -> None:
        self._reader, self._writer = context.Pipe(duplex=False)
        self._lock = context.Lock()

    def put(self, item: Any) -> None:
        with self._lock:
            self._writer.send(item)

    def get(self, timeout: Optional[float] = None) -> Any:
        if not self._reader.poll(timeout):
            raise queue.Empty
        return self._reader.recv()

    def get_nowait(self) -> Any:
        return self.get(0)

    def close(self) -> None:
        for end in (self._writer, self._reader):
            try:
                end.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass


def _worker_main(
    inbox: "multiprocessing.queues.Queue",
    outbox: _ResultChannel,
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
) -> None:
    """Worker loop: initialize once, then (task, attempt) in, result out.

    Exceptions from the task body travel back as data (rendered, not
    pickled — arbitrary exceptions may not unpickle in the parent); a
    raising *initializer* kills the worker, which the supervisor sees
    as a crash and handles through the same respawn path.
    """
    if initializer is not None:
        initializer(*initargs)
    while True:
        item = inbox.get()
        if item is None:
            return
        task_id, attempt, func, payload = item
        try:
            value = func(payload)
        except BaseException as exc:  # noqa: BLE001 - forwarded as data
            outbox.put(
                (task_id, attempt, False, f"{type(exc).__name__}: {exc}")
            )
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                return
        else:
            outbox.put((task_id, attempt, True, value))


class _Worker:
    """One supervised worker process and its dedicated inbox."""

    __slots__ = ("process", "inbox", "current", "deadline")

    def __init__(self, process, inbox) -> None:
        self.process = process
        self.inbox = inbox
        #: (task_id, attempt) currently dispatched to this worker.
        self.current: Optional[Tuple[int, int]] = None
        #: monotonic deadline for the current task (None = no limit).
        self.deadline: Optional[float] = None


def _discard_queue(q) -> None:
    """Release a queue without risking a join on its feeder thread."""
    try:
        q.cancel_join_thread()
        q.close()
    except Exception:  # pragma: no cover - best-effort teardown
        pass


def _terminate_members(members: List[_Worker]) -> None:
    """Kill every worker in ``members`` (GC/exit safety net)."""
    for worker in members:
        try:
            if worker.process.is_alive():
                worker.process.terminate()
        except Exception:  # pragma: no cover - teardown best effort
            pass
    for worker in members:
        try:
            worker.process.join(_TERMINATE_JOIN)
        except Exception:  # pragma: no cover - teardown best effort
            pass


class SupervisedPool:
    """A process pool whose coordinator detects and survives failures.

    Parameters mirror ``multiprocessing.Pool`` where they overlap:
    ``initializer(*initargs)`` runs once per worker (and again in every
    *respawned* worker); ``mp_context`` picks the start method.

    The pool is deliberately single-dispatcher: :meth:`run` owns the
    workers for its duration.  That matches the sweep executor, which
    runs one batch of chunks at a time, and is what makes worker loss
    attributable to exactly one task.
    """

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        mp_context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise AnalysisError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._context = multiprocessing.get_context(mp_context)
        self._outbox = _ResultChannel(self._context)
        self._members: List[_Worker] = []
        self._dead = False
        #: Lifetime respawn count (observable in tests and stats).
        self.respawns = 0
        # GC safety net: losing the last reference to a live pool must
        # not leak its children.  close()/terminate() detach this.
        self._finalizer = weakref.finalize(
            self, _terminate_members, self._members
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the pool currently has worker processes."""
        return bool(self._members)

    def _spawn(self) -> _Worker:
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(inbox, self._outbox, self._initializer, self._initargs),
            daemon=True,
        )
        process.start()
        return _Worker(process, inbox)

    def start(self) -> None:
        """Ensure the full complement of workers is running."""
        if self._dead:
            raise AnalysisError("pool has been closed; create a new one")
        if not self._members:
            _LIVE_POOLS.add(self)
        while len(self._members) < self.workers:
            self._members.append(self._spawn())

    def warm_up(self) -> None:
        """Alias of :meth:`start`, matching the executor's vocabulary."""
        self.start()

    def close(self, join_deadline: float = 5.0) -> None:
        """Graceful shutdown with a deadline, then force.

        Sends every worker a stop sentinel and waits up to
        ``join_deadline`` seconds total; stragglers (wedged workers —
        the very failure mode this layer exists for) are terminated.
        Idempotent, and the pool is unusable afterwards.
        """
        for worker in self._members:
            try:
                worker.inbox.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        deadline = time.monotonic() + max(0.0, join_deadline)
        for worker in self._members:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                worker.process.join(remaining)
        self._reap_all()

    def terminate(self) -> None:
        """Kill the workers immediately (failure path; idempotent)."""
        for worker in self._members:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self._members:
            worker.process.join(_TERMINATE_JOIN)
        self._reap_all()

    def _reap_all(self) -> None:
        for worker in self._members:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(_TERMINATE_JOIN)
            _discard_queue(worker.inbox)
        self._members.clear()
        self._drain_outbox()
        self._dead = True
        self._outbox.close()
        self._finalizer.detach()
        _LIVE_POOLS.discard(self)

    def _drain_outbox(self) -> None:
        try:
            while True:
                self._outbox.get_nowait()
        except (queue.Empty, EOFError, OSError, ValueError):
            pass

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._members else ("dead" if self._dead else "idle")
        return f"SupervisedPool(workers={self.workers}, {state})"

    # -- supervised dispatch -------------------------------------------

    def run(
        self,
        func: Callable[[Any], Any],
        tasks: Sequence[Any],
        policy: Optional[SupervisionPolicy] = None,
        labels: Optional[Sequence[str]] = None,
        timeouts: Optional[Sequence[Optional[float]]] = None,
    ) -> Tuple[List[Any], List[TaskFailure]]:
        """Execute ``func(task)`` for every task, surviving worker loss.

        Returns ``(results, failures)``: ``results`` is positionally
        aligned with ``tasks`` (``None`` where a task terminally
        failed), ``failures`` the terminal :class:`TaskFailure`
        records.  ``timeouts`` overrides the policy deadline per task
        (chunked callers scale the deadline by chunk size).
        """
        policy = policy if policy is not None else SupervisionPolicy()
        n = len(tasks)
        results: List[Any] = [None] * n
        failures: List[TaskFailure] = []
        if n == 0:
            return results, failures
        if timeouts is not None and len(timeouts) != n:
            raise AnalysisError(
                f"got {len(timeouts)} timeouts for {n} tasks"
            )
        self.start()

        def label_of(task_id: int) -> str:
            return labels[task_id] if labels is not None else f"task {task_id}"

        def deadline_of(task_id: int) -> Optional[float]:
            if timeouts is not None:
                return timeouts[task_id]
            return policy.task_timeout

        rng = np.random.default_rng(policy.seed)
        attempts = [0] * n
        done = [False] * n
        ready: "deque[int]" = deque(range(n))
        delayed: List[Tuple[float, int]] = []  # (not_before, task_id) heap
        inflight: Dict[int, _Worker] = {}
        completed = 0
        # Respawn budget: a backstop against an initializer that dies
        # deterministically (every respawn would die again, forever).
        respawn_budget = self.workers * (policy.retries + 2) + n

        def record_failure(task_id: int, fate: str, error: str) -> None:
            nonlocal completed
            if attempts[task_id] <= policy.retries:
                not_before = time.monotonic() + policy.backoff_delay(
                    attempts[task_id], rng
                )
                heapq.heappush(delayed, (not_before, task_id))
            else:
                done[task_id] = True
                completed += 1
                failures.append(
                    TaskFailure(
                        index=task_id,
                        label=label_of(task_id),
                        attempts=attempts[task_id],
                        fate=fate,
                        error=error,
                    )
                )

        def fail_everything_pending(error: str) -> None:
            nonlocal completed
            pending = [t for t in range(n) if not done[t]]
            for task_id in pending:
                done[task_id] = True
                completed += 1
                failures.append(
                    TaskFailure(
                        index=task_id,
                        label=label_of(task_id),
                        attempts=max(1, attempts[task_id]),
                        fate="crashed",
                        error=error,
                    )
                )

        while completed < n:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                ready.append(heapq.heappop(delayed)[1])

            for worker in self._members:
                if worker.current is not None or not ready:
                    continue
                task_id = ready.popleft()
                attempts[task_id] += 1
                worker.current = (task_id, attempts[task_id])
                limit = deadline_of(task_id)
                worker.deadline = (now + limit) if limit is not None else None
                inflight[task_id] = worker
                worker.inbox.put(
                    (task_id, attempts[task_id], func, tasks[task_id])
                )

            try:
                message = self._outbox.get(timeout=_REAP_INTERVAL)
            except queue.Empty:
                message = None
            if message is not None:
                task_id, attempt, ok, payload = message
                # Attempt tags discard stale results from superseded
                # dispatches — a terminated worker's last gasp must
                # never overwrite a retried task.
                if not done[task_id] and attempt == attempts[task_id]:
                    worker = inflight.pop(task_id, None)
                    if worker is not None:
                        worker.current = None
                        worker.deadline = None
                    if ok:
                        results[task_id] = payload
                        done[task_id] = True
                        completed += 1
                    else:
                        record_failure(task_id, "raised", payload)

            now = time.monotonic()
            for worker in list(self._members):
                if worker.process.is_alive():
                    if worker.deadline is not None and now > worker.deadline:
                        # Wedged: terminate, re-run the task elsewhere.
                        worker.process.terminate()
                        worker.process.join(_TERMINATE_JOIN)
                    else:
                        continue
                # Dead (crashed on its own, or terminated just above).
                self._members.remove(worker)
                _discard_queue(worker.inbox)
                held = worker.current
                if self.respawns < respawn_budget:
                    self.respawns += 1
                    self._members.append(self._spawn())
                elif not self._members:
                    fail_everything_pending(
                        "worker respawn budget exhausted (initializer "
                        "failing deterministically?)"
                    )
                    break
                if held is None:
                    continue  # died between tasks (e.g. in initializer)
                task_id, attempt = held
                inflight.pop(task_id, None)
                if done[task_id] or attempt != attempts[task_id]:
                    continue
                exitcode = worker.process.exitcode
                if worker.deadline is not None and now > worker.deadline:
                    record_failure(
                        task_id,
                        "timeout",
                        f"missed {deadline_of(task_id)}s deadline "
                        f"(worker terminated)",
                    )
                else:
                    record_failure(
                        task_id,
                        "crashed",
                        f"worker exited with code {exitcode}",
                    )
        return results, failures


#: Pools with live workers, swept at interpreter exit so an abandoned
#: pool (coordinator exception, forgotten close) cannot leak children.
#: The sweep executor's backing pools register on start and deregister
#: on close/terminate.
_LIVE_POOLS: "weakref.WeakSet[SupervisedPool]" = weakref.WeakSet()


@atexit.register
def _terminate_live_pools() -> None:  # pragma: no cover - exit hook
    for pool in list(_LIVE_POOLS):
        try:
            pool.terminate()
        except Exception:
            pass
