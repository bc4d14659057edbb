"""Chaos suite: deterministic fault injection against the sweep layer.

Every test here follows the same shape the parity suites established:
run undisturbed (serial, in-process — the reference semantics), run
again with a :class:`~repro.faults.FaultPlan` killing/wedging/raising
inside the workers, and assert the recovered output is *bit-identical*
— supervision decides where and when cells run, never what they
compute.  Alongside the parity pins: process-audit checks (no leaked
children), failure-record accuracy, and the retry-budget semantics of
all three ``on_failure`` policies.
"""

import multiprocessing
import os
import time

import pytest

from repro.core.errors import AnalysisError, ConfigurationError
from repro.faults import (
    CRASH_EXIT_CODE,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    armed,
    fault_point,
)
from repro.harness.cache import ResultCache, cell_key
from repro.harness.parallel import SweepCell, SweepExecutor
from repro.harness.supervise import SupervisedPool, SupervisionPolicy


def doubler(x, seed):
    """Module-level (hence picklable) run_one for pool tests."""
    return x * 2 + (seed % 97) / 1000.0


def fragile(x, seed):
    """Deterministically fails at one grid point — in any process."""
    if x == 2.0:
        raise ValueError("grid point 2.0 is poisoned")
    return doubler(x, seed)


CELLS = [SweepCell(x=float(i % 5), seed=i * 13) for i in range(10)]

#: Positions of CELLS that `fragile` fails on (x == 2.0).
FAILING = [index for index, cell in enumerate(CELLS) if cell.x == 2.0]


def crash_plan(tmp_path, site="worker:cell", when=3, **kwargs):
    """A plan killing one worker at the ``when``-th arrival at ``site``.

    The token directory makes the hit budget global across workers and
    respawns: the crash fires exactly once, and the recovery attempt
    draws a fresh, non-firing hit number.
    """
    return FaultPlan(
        specs=(FaultSpec(site=site, kind="crash", when=when, **kwargs),),
        token_dir=str(tmp_path / "tokens"),
    )


def assert_no_leaked_children():
    # close()/terminate() join their workers; anything still alive
    # afterwards is exactly the leak the live-pool sweep exists for.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestFaultSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="worker:celll", kind="crash")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="worker:cell", kind="explode")

    @pytest.mark.parametrize(
        "field,value", [("when", 0), ("times", 0), ("delay_seconds", -1.0)]
    )
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            FaultSpec(site="worker:cell", kind="raise", **{field: value})

    def test_plan_is_cache_invisible(self):
        plan = FaultPlan(specs=(FaultSpec(site="worker:cell", kind="raise"),))
        assert plan.cache_fingerprint() == {}

    @pytest.mark.parametrize(
        "site", ["worker:shard", "worker:shard-shared", "shm:attach"]
    )
    def test_retired_sites_rejected(self, site):
        # Their pooled-shard and shared-memory call sites are gone; a
        # stale plan naming them must fail loudly, not silently never fire.
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultSpec(site=site, kind="crash")

    def test_every_registered_site_is_wired(self):
        # The lint registry mirrors this set (pinned in tests/analysis);
        # here: the runtime set itself is what the execution layer uses.
        assert FAULT_SITES == {"worker:cell", "cache:record"}


class TestFaultPoint:
    def test_disarmed_is_noop(self):
        assert active_plan() is None
        fault_point("worker:cell")  # must not raise

    def test_fires_on_exact_hit_window(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="worker:cell", kind="raise", when=2),)
        )
        with armed(plan):
            fault_point("worker:cell")  # hit 1: below the window
            with pytest.raises(InjectedFault):
                fault_point("worker:cell")  # hit 2: fires
            fault_point("worker:cell")  # hit 3: budget spent

    def test_other_sites_do_not_consume_hits(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="cache:record", kind="raise", when=1),)
        )
        with armed(plan):
            fault_point("worker:cell")
            with pytest.raises(InjectedFault):
                fault_point("cache:record")

    def test_token_dir_budget_survives_rearm(self, tmp_path):
        """A times=1 spec spends its budget once across 'processes'
        (re-arming simulates a respawned worker's fresh counters)."""
        plan = FaultPlan(
            specs=(FaultSpec(site="worker:cell", kind="raise"),),
            token_dir=str(tmp_path / "tokens"),
        )
        with armed(plan):
            with pytest.raises(InjectedFault):
                fault_point("worker:cell")
        with armed(plan):  # fresh local counters, shared token dir
            fault_point("worker:cell")  # hit 2 on disk: no fire

    def test_corrupt_tears_the_named_file(self, tmp_path):
        victim = tmp_path / "record.json"
        victim.write_text('{"value": 1.0, "seed": 3}')
        size = victim.stat().st_size
        plan = FaultPlan(
            specs=(FaultSpec(site="cache:record", kind="corrupt"),)
        )
        with armed(plan):
            fault_point("cache:record", path=str(victim))
        assert 0 < victim.stat().st_size < size

    def test_delay_sleeps(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker:cell", kind="delay", delay_seconds=0.05
                ),
            )
        )
        start = time.monotonic()
        with armed(plan):
            fault_point("worker:cell")
        assert time.monotonic() - start >= 0.05


# ----------------------------------------------------------------------
# SupervisedPool unit tests (module-level task bodies: must pickle)
# ----------------------------------------------------------------------


def _identity(payload):
    return payload


def _crash_once(payload):
    """os._exit the worker the first time each token path is seen."""
    token_path, value = payload
    if not os.path.exists(token_path):
        with open(token_path, "w", encoding="utf-8"):
            pass
        os._exit(CRASH_EXIT_CODE)
    return value


def _always_crash(payload):
    os._exit(CRASH_EXIT_CODE)


def _sleep_for(payload):
    time.sleep(payload)
    return payload


def _wedged_init():
    time.sleep(30.0)


class TestSupervisedPool:
    def test_worker_crash_is_respawned_and_task_rerun(self, tmp_path):
        tasks = [(str(tmp_path / f"tok{i}"), i * 11) for i in range(6)]
        with SupervisedPool(2) as pool:
            results, failures = pool.run(_crash_once, tasks)
            assert results == [value for _, value in tasks]
            assert failures == []
            assert pool.respawns >= 1  # every task crashed once
        assert_no_leaked_children()

    def test_wedged_worker_misses_deadline(self):
        policy = SupervisionPolicy(retries=0, task_timeout=0.3)
        with SupervisedPool(1) as pool:
            results, failures = pool.run(_sleep_for, [30.0], policy=policy)
        assert results == [None]
        assert len(failures) == 1
        assert failures[0].fate == "timeout"
        assert failures[0].attempts == 1
        assert_no_leaked_children()

    def test_budget_exhaustion_records_terminal_failure(self):
        policy = SupervisionPolicy(retries=1, backoff_base=0.01)
        with SupervisedPool(1) as pool:
            results, failures = pool.run(
                _always_crash, [0], policy=policy, labels=["doomed"]
            )
        assert results == [None]
        assert [f.fate for f in failures] == ["crashed"]
        assert failures[0].attempts == 2  # first try + one retry
        assert failures[0].label == "doomed"
        assert str(CRASH_EXIT_CODE) in failures[0].error
        assert_no_leaked_children()

    def test_close_deadline_falls_back_to_terminate(self):
        pool = SupervisedPool(2, initializer=_wedged_init)
        pool.start()
        start = time.monotonic()
        pool.close(join_deadline=0.3)
        assert time.monotonic() - start < 10.0
        assert not pool.alive
        assert_no_leaked_children()

    def test_mixed_raise_and_success(self):
        policy = SupervisionPolicy(retries=0)
        with SupervisedPool(2) as pool:
            results, failures = pool.run(
                _sleep_for, [0.0, 0.01], policy=policy
            )
        assert results == [0.0, 0.01]
        assert failures == []


# ----------------------------------------------------------------------
# Chaos pins: faulted executor == undisturbed serial, bit for bit
# ----------------------------------------------------------------------


class TestChaosSweep:
    def _serial(self):
        return SweepExecutor(jobs=1).map(doubler, CELLS)

    def test_worker_killed_mid_sweep_recovers_bit_identically(self, tmp_path):
        serial = self._serial()
        with SweepExecutor(
            jobs=2, fault_plan=crash_plan(tmp_path)
        ) as executor:
            recovered = executor.map(doubler, CELLS)
            assert recovered == serial
            assert executor.failures == []
            assert executor.stats()["cells_failed"] == 0
        assert_no_leaked_children()

    def test_wedged_worker_hits_cell_deadline_and_recovers(self, tmp_path):
        serial = self._serial()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker:cell",
                    kind="delay",
                    when=2,
                    delay_seconds=30.0,
                ),
            ),
            token_dir=str(tmp_path / "tokens"),
        )
        with SweepExecutor(
            jobs=2, chunk_size=1, cell_timeout=0.5, fault_plan=plan
        ) as executor:
            recovered = executor.map(doubler, CELLS)
            assert recovered == serial
            assert executor.failures == []
        assert_no_leaked_children()

    def test_injected_raise_is_isolated_and_retried(self, tmp_path):
        serial = self._serial()
        plan = FaultPlan(
            specs=(FaultSpec(site="worker:cell", kind="raise", when=4),),
            token_dir=str(tmp_path / "tokens"),
        )
        with SweepExecutor(jobs=2, fault_plan=plan) as executor:
            recovered = executor.map(doubler, CELLS)
            assert recovered == serial
            assert executor.failures == []
        assert_no_leaked_children()

    def test_executor_reusable_after_recovery(self, tmp_path):
        """A pool that survived a crash keeps serving later maps."""
        serial = self._serial()
        with SweepExecutor(
            jobs=2, fault_plan=crash_plan(tmp_path)
        ) as executor:
            first = executor.map(doubler, CELLS)
            second = executor.map(doubler, CELLS)  # budget spent: clean
            assert first == serial
            assert second == serial
        assert_no_leaked_children()


class TestOnFailurePolicies:
    def test_raise_policy_aborts_with_summary(self):
        with SweepExecutor(jobs=2, retries=1, chunk_size=2) as executor:
            with pytest.raises(AnalysisError, match="failed terminally"):
                executor.map(fragile, CELLS)
            failures = executor.failures
            assert {failure.x for failure in failures} == {2.0}
            assert {failure.seed for failure in failures} == {
                CELLS[i].seed for i in FAILING
            }
            assert all(failure.fate == "raised" for failure in failures)
            assert all(failure.attempts == 2 for failure in failures)
            assert all("ValueError" in failure.error for failure in failures)
        assert_no_leaked_children()

    def test_skip_policy_returns_none_samples(self):
        serial = [
            None if index in FAILING else fragile(cell.x, cell.seed)
            for index, cell in enumerate(CELLS)
        ]
        with SweepExecutor(
            jobs=2, retries=1, chunk_size=2, on_failure="skip"
        ) as executor:
            values = executor.map(fragile, CELLS)
            assert values == serial
            assert executor.stats()["cells_failed"] == len(FAILING)
        assert_no_leaked_children()

    def test_serial_policy_rescues_worker_only_failures(self, tmp_path):
        """Cells that fail only inside workers (injected) succeed on the
        in-process re-run — the plan is never armed in the parent."""
        serial = SweepExecutor(jobs=1).map(doubler, CELLS)
        plan = FaultPlan(
            specs=(
                FaultSpec(site="worker:cell", kind="raise", times=1000),
            ),
        )
        with SweepExecutor(
            jobs=2, retries=1, on_failure="serial", fault_plan=plan
        ) as executor:
            values = executor.map(doubler, CELLS)
            assert values == serial
            assert executor.failures == []
        assert_no_leaked_children()

    def test_serial_policy_records_cells_that_fail_everywhere(self):
        with SweepExecutor(
            jobs=2, retries=1, chunk_size=2, on_failure="serial"
        ) as executor:
            values = executor.map(fragile, CELLS)
            assert [values[i] for i in FAILING] == [None] * len(FAILING)
            failures = executor.failures
            assert len(failures) == len(FAILING)
            # two pool attempts + the final in-process attempt
            assert all(failure.attempts == 3 for failure in failures)
        assert_no_leaked_children()

    def test_skipped_cells_never_poison_the_cache(self, tmp_path, small_gossip):
        """A failed cell must not write a record a later run would trust."""
        from repro.bargossip.attacker import AttackKind
        from repro.bargossip.scenario import Scenario
        from repro.harness.figures import GossipSweepTask
        from repro.harness.sweep import sweep

        cache = ResultCache(tmp_path / "cache")
        task = GossipSweepTask(
            scenario=Scenario(
                config=small_gossip, kind=AttackKind.CRASH, rounds=10
            )
        )
        plan = FaultPlan(
            specs=(FaultSpec(site="worker:cell", kind="raise", times=1000),),
        )
        with SweepExecutor(
            jobs=2,
            cache=cache,
            retries=0,
            on_failure="skip",
            fault_plan=plan,
        ) as executor:
            # Every cell fails, so the grid points end up sampleless —
            # sweep names the terminal failures in its error.
            with pytest.raises(AnalysisError, match="no valid samples"):
                sweep(
                    (0.1, 0.3),
                    task,
                    repetitions=2,
                    executor=executor,
                    experiment="chaos",
                )
        assert len(cache) == 0  # every cell failed; nothing was written
        assert_no_leaked_children()


class TestCacheQuarantine:
    def test_injected_torn_record_is_quarantined_not_raised(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cell_key("chaos", {"v": 1}, 0.5, 7)
        plan = FaultPlan(
            specs=(FaultSpec(site="cache:record", kind="corrupt"),)
        )
        with armed(plan):
            cache.put(key, 1.25, "chaos", 0.5, 7)  # committed, then torn
        with pytest.warns(RuntimeWarning, match="corrupt cache record"):
            assert cache.get(key) is None
        assert cache.stats()["quarantines"] == 1
        quarantined = cache.path_for(key).with_name(
            cache.path_for(key).name + ".corrupt"
        )
        assert quarantined.exists()
        assert not cache.path_for(key).exists()
        assert list(cache.keys()) == []  # .corrupt is out of the index
        assert cache.get(key) is None  # stays a plain miss afterwards

    def test_recompute_after_quarantine_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cell_key("chaos", {"v": 1}, 0.5, 7)
        plan = FaultPlan(
            specs=(FaultSpec(site="cache:record", kind="corrupt"),)
        )
        with armed(plan):
            cache.put(key, 1.25, "chaos", 0.5, 7)
        with pytest.warns(RuntimeWarning):
            assert cache.get(key) is None
        cache.put(key, 1.25, "chaos", 0.5, 7)  # plan disarmed: clean write
        record = cache.get(key)
        assert record is not None and record.value == 1.25
