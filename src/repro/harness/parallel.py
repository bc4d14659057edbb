"""Parallel execution of sweep cells with deterministic reduction.

A figure sweep is a grid of attacker fractions crossed with per-point
repetition seeds; every (grid-point, seed) *cell* is an independent
simulator run.  :class:`SweepExecutor` fans those cells across a
supervised process pool and reduces the results back into grid
order, so parallel output is bit-identical to serial output: each cell
is a pure function of ``(x, seed)``, and the reduction is keyed by the
cell's position, never by completion order.

Design constraints baked in here:

* **Picklable task specs** — the ``run_one`` callable travels inside
  each cell payload (tasks are tiny specs — a module-level function
  or a dataclass with ``__call__`` such as
  :class:`repro.harness.tasks.GossipSweepTask` — so re-pickling one
  per cell is negligible next to a simulator run, and the long-lived
  pool stays reusable across different tasks).  Closures and lambdas
  are detected up front and transparently executed serially
  in-process instead, so exploratory code keeps working.
* **Chunked scheduling** — cells are handed to workers in contiguous
  chunks (default: ~4 chunks per worker) to amortize IPC overhead on
  fine-grained grids.
* **Result caching** — when the executor carries a
  :class:`~repro.harness.cache.ResultCache` and the task exposes a
  ``cache_fingerprint()``, cells already on disk are served from the
  cache and only the misses are dispatched to the pool.
* **Fault tolerance** — execution runs on a
  :class:`~repro.harness.supervise.SupervisedPool`: a dead or wedged
  worker is detected (liveness check / per-cell deadline), the worker
  is respawned, and only the lost cells re-run; a raising cell is
  isolated and retried up to ``retries`` times with seeded backoff.
  Cells that exhaust their budget become terminal
  :class:`~repro.harness.supervise.CellFailure` records and the
  ``on_failure`` policy decides what happens: ``"raise"`` (the
  default) aborts the sweep with a summary, ``"skip"`` drops the
  samples, ``"serial"`` re-runs the quarantined cells in-process as a
  last resort.  Because cells are pure functions of ``(x, seed)``,
  every recovery path reproduces the undisturbed result bit-exactly —
  pinned by the chaos suite.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import AnalysisError
from ..faults import FaultPlan, arm as _arm_faults, fault_point
from .cache import ResultCache, cell_key
from .supervise import CellFailure, SupervisedPool, SupervisionPolicy

__all__ = ["SweepCell", "SweepExecutor", "resolve_jobs", "ON_FAILURE_POLICIES"]

#: A cell whose result is absent (distinct from a legitimate None value).
_MISSING = object()

#: What to do with cells whose retry budget is spent.
ON_FAILURE_POLICIES = ("raise", "skip", "serial")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means one per CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise AnalysisError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
    return int(jobs)


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work: a grid point and a seed."""

    x: float
    seed: int


def _init_sweep_worker(fault_plan: Optional[FaultPlan]) -> None:
    """Pool initializer: arm the fault plan (tests only; None in prod)."""
    if fault_plan is not None:
        _arm_faults(fault_plan)


def _run_chunk(
    payload: Tuple[Callable[[float, int], Optional[float]], List[Tuple[int, float, int]]],
) -> List[Tuple[int, bool, object]]:
    """Pool worker body: one chunk of cells in, per-cell outcomes out.

    Each outcome is ``(index, ok, value-or-error-text)``: a raising
    cell is captured *per cell* so one bad cell cannot poison its
    chunk-mates — they complete, it alone is retried.  The task travels
    inside the payload (it is a tiny picklable spec), which keeps one
    long-lived pool reusable across different tasks.
    """
    run_one, cells = payload
    outcomes: List[Tuple[int, bool, object]] = []
    for index, x, seed in cells:
        fault_point("worker:cell")
        try:
            value = run_one(x, seed)
        except Exception as exc:  # noqa: BLE001 - forwarded as data
            outcomes.append((index, False, f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((index, True, value))
    return outcomes


def _is_picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


class SweepExecutor:
    """Runs sweep cells serially or across a process pool, with caching.

    Parameters
    ----------
    jobs:
        Worker process count; 1 runs in-process (no pool), None or 0
        uses every CPU.
    cache:
        Optional :class:`ResultCache`.  Only consulted for tasks that
        expose ``cache_fingerprint()`` *and* calls that pass an
        ``experiment`` name — arbitrary callables cannot be content-
        addressed safely.
    chunk_size:
        Cells per pool task; defaults to ~4 chunks per worker.
    mp_context:
        Optional :mod:`multiprocessing` start-method name ("fork",
        "spawn", "forkserver"); None uses the platform default.
    retries:
        Re-attempts per cell after its first failure (crash, missed
        deadline, or raise) before the cell is terminally failed.
    cell_timeout:
        Per-cell deadline in seconds (scaled by chunk size for chunked
        dispatch); None disables deadlines.
    on_failure:
        Policy for cells whose budget is spent: ``"raise"`` aborts the
        sweep, ``"skip"`` records None samples, ``"serial"`` re-runs
        the quarantined cells in-process.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` armed in every
        worker (chaos tests only); excluded from cache keys by design.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        mp_context: Optional[str] = None,
        retries: int = 2,
        cell_timeout: Optional[float] = None,
        on_failure: str = "raise",
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        if chunk_size is not None and chunk_size < 1:
            raise AnalysisError(f"chunk_size must be >= 1, got {chunk_size}")
        if retries < 0:
            raise AnalysisError(f"retries must be >= 0, got {retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise AnalysisError(
                f"cell_timeout must be > 0 or None, got {cell_timeout}"
            )
        if on_failure not in ON_FAILURE_POLICIES:
            raise AnalysisError(
                f"on_failure must be one of {ON_FAILURE_POLICIES}, "
                f"got {on_failure!r}"
            )
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.on_failure = on_failure
        self.fault_plan = fault_plan
        #: Cells actually executed (cache hits excluded), lifetime total.
        self.cells_executed = 0
        #: Cells served from the cache, lifetime total.
        self.cells_cached = 0
        #: Terminal per-cell failure records, lifetime (cleared never;
        #: the CLI reports them after each sweep).
        self.failures: List[CellFailure] = []
        # Lazily created on the first parallel _execute and reused for
        # every subsequent map() — a figure is several curves, so
        # per-call pools would pay
        # worker spin-up (an interpreter start each, under spawn)
        # many times per run.
        self._pool: Optional[SupervisedPool] = None

    def map(
        self,
        run_one: Callable[[float, int], Optional[float]],
        cells: Sequence[SweepCell],
        experiment: Optional[str] = None,
    ) -> List[Optional[float]]:
        """Evaluate ``run_one`` over ``cells``, preserving cell order.

        The returned list is positionally aligned with ``cells`` and is
        identical whatever the ``jobs`` setting: parallelism never
        changes *what* is computed, only *where*.  Terminally failed
        cells (see ``on_failure``) are never written to the cache.
        """
        results: List[object] = [_MISSING] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)

        fingerprint_fn = getattr(run_one, "cache_fingerprint", None)
        use_cache = (
            self.cache is not None
            and experiment is not None
            and callable(fingerprint_fn)
        )
        if use_cache:
            fingerprint = fingerprint_fn()
            for index, cell in enumerate(cells):
                key = cell_key(experiment, fingerprint, cell.x, cell.seed)
                keys[index] = key
                record = self.cache.get(key)
                if record is not None:
                    results[index] = record.value
                    self.cells_cached += 1

        pending = [
            (index, cell)
            for index, cell in enumerate(cells)
            if results[index] is _MISSING
        ]
        if pending:
            values, failed = self._execute(
                run_one, [cell for _, cell in pending]
            )
            for position, ((index, cell), value) in enumerate(
                zip(pending, values)
            ):
                results[index] = value
                if use_cache and position not in failed:
                    self.cache.put(
                        keys[index], value, experiment, cell.x, cell.seed
                    )
            self.cells_executed += len(pending)
        assert all(value is not _MISSING for value in results)
        return list(results)  # type: ignore[arg-type]

    def _execute(
        self,
        run_one: Callable[[float, int], Optional[float]],
        cells: Sequence[SweepCell],
    ) -> Tuple[List[Optional[float]], Set[int]]:
        """Run the non-cached cells, serially or on the supervised pool.

        Returns ``(values, failed_positions)``; positions index into
        ``cells``.  The serial path is the reference semantics — no
        supervision, exceptions propagate — and is also what
        ``on_failure="serial"`` falls back to.
        """
        if self.jobs <= 1 or len(cells) <= 1 or not _is_picklable(run_one):
            return [run_one(cell.x, cell.seed) for cell in cells], set()

        chunk = self.chunk_size or max(
            1, math.ceil(len(cells) / (self.jobs * 4))
        )
        groups: List[List[Tuple[int, float, int]]] = [
            [
                (index, cell.x, cell.seed)
                for index, cell in enumerate(cells[start : start + chunk], start)
            ]
            for start in range(0, len(cells), chunk)
        ]

        values: List[Optional[float]] = [None] * len(cells)
        resolved: List[bool] = [False] * len(cells)
        attempts = [0] * len(cells)
        last_error = [""] * len(cells)
        last_fate = [""] * len(cells)
        backoff_rng = np.random.default_rng(len(cells))
        policy = SupervisionPolicy(retries=0, task_timeout=None)

        # Round 0 dispatches the chunks; later rounds re-dispatch only
        # the failing cells, one per task, so a flaky cell cannot drag
        # healthy chunk-mates through its retries.
        round_index = 0
        while groups and round_index <= self.retries:
            retry_cells: List[int] = []
            pool = self._get_pool()
            timeouts = (
                [self.cell_timeout * len(group) for group in groups]
                if self.cell_timeout is not None
                else None
            )
            outcomes, task_failures = pool.run(
                _run_chunk,
                [(run_one, group) for group in groups],
                policy=policy,
                labels=[
                    f"cells[{group[0][0]}..{group[-1][0]}]" for group in groups
                ],
                timeouts=timeouts,
            )
            for group, outcome in zip(groups, outcomes):
                if outcome is None:
                    continue  # the task itself failed; handled below
                for index, ok, payload in outcome:
                    attempts[index] += 1
                    if ok:
                        values[index] = payload
                        resolved[index] = True
                    else:
                        last_error[index] = str(payload)
                        last_fate[index] = "raised"
                        retry_cells.append(index)
            for failure in task_failures:
                for index, _x, _seed in groups[failure.index]:
                    attempts[index] += 1
                    last_error[index] = failure.error
                    last_fate[index] = failure.fate
                    retry_cells.append(index)
            groups = [[(index, cells[index].x, cells[index].seed)] for index in sorted(retry_cells)]
            round_index += 1
            if groups and round_index <= self.retries:
                # Seeded backoff between retry rounds: transient
                # resource pressure (the common real cause of worker
                # loss) gets a moment to clear.
                time.sleep(
                    policy.backoff_delay(round_index, backoff_rng)
                )

        failed = {index for index in range(len(cells)) if not resolved[index]}
        if not failed:
            return values, set()

        terminal: Dict[int, CellFailure] = {
            index: CellFailure(
                x=cells[index].x,
                seed=cells[index].seed,
                attempts=attempts[index],
                fate=last_fate[index],
                error=last_error[index],
            )
            for index in sorted(failed)
        }
        if self.on_failure == "serial":
            # Last resort: run the quarantined cells in-process, where
            # no pool, no pickling and no injected worker faults stand
            # between us and the result.  Cells are pure functions of
            # (x, seed), so a success here is *the* correct value.
            for index in sorted(failed):
                cell = cells[index]
                try:
                    values[index] = run_one(cell.x, cell.seed)
                except Exception as exc:  # noqa: BLE001 - terminal record
                    failure = terminal[index]
                    terminal[index] = CellFailure(
                        x=failure.x,
                        seed=failure.seed,
                        attempts=failure.attempts + 1,
                        fate="raised",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    del terminal[index]
        self.failures.extend(terminal.values())
        if terminal and self.on_failure == "raise":
            summary = "; ".join(
                f"cell(x={f.x}, seed={f.seed}): {f.fate} after "
                f"{f.attempts} attempt(s) ({f.error})"
                for f in list(terminal.values())[:5]
            )
            raise AnalysisError(
                f"{len(terminal)} cell(s) failed terminally after "
                f"{self.retries} retries: {summary}"
            )
        return values, set(terminal)

    def _get_pool(self) -> SupervisedPool:
        if self._pool is None:
            self._pool = SupervisedPool(
                self.jobs,
                initializer=_init_sweep_worker,
                initargs=(self.fault_plan,),
                mp_context=self.mp_context,
            )
        return self._pool

    def warm_up(self) -> None:
        """Pre-create the worker pool (no-op when jobs == 1).

        Call before timing parallel work so worker spin-up — a full
        interpreter start per worker under the spawn method — is not
        charged to the first measured sweep.
        """
        if self.jobs > 1:
            self._get_pool().start()

    def close(self, join_deadline: float = 5.0) -> None:
        """Shut down the worker pool (idempotent; a later map() reopens it).

        Waits up to ``join_deadline`` seconds for a graceful exit, then
        terminates stragglers — an executor abandoned with wedged
        workers must not hang interpreter exit or leak children.
        """
        if self._pool is not None:
            self._pool.close(join_deadline=join_deadline)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """Lifetime counters: executed vs cache-served vs failed cells."""
        return {
            "jobs": self.jobs,
            "cells_executed": self.cells_executed,
            "cells_cached": self.cells_cached,
            "cells_failed": len(self.failures),
        }

    def __repr__(self) -> str:
        return (
            f"SweepExecutor(jobs={self.jobs}, "
            f"cache={'on' if self.cache is not None else 'off'}, "
            f"executed={self.cells_executed}, cached={self.cells_cached}, "
            f"failed={len(self.failures)})"
        )
