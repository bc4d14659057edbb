"""Tests for the generalized sweep-task layer and the seed/key bugfix."""

import pickle

import pytest

from repro.bargossip.attacker import AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.scenario import ExecutionConfig, Scenario
from repro.bittorrent.config import SwarmConfig
from repro.harness.cache import ResultCache, cell_key
from repro.harness.parallel import SweepExecutor
from repro.harness.sweep import sweep
from repro.harness.tasks import (
    TASK_BUILDERS,
    GossipSweepTask,
    ScripAltruistTask,
    SwarmSweepTask,
    SweepTask,
    TokenSweepTask,
)
from repro.scrip.config import ScripConfig


class _RecordingTask:
    """A run_one that records every (x, seed) cell it is asked to run."""

    def __init__(self):
        self.cells = []

    def __call__(self, x, seed):
        self.cells.append((x, seed))
        return float(x)


class TestIntVsFloatGridRegression:
    """sweep([0, 1]) and sweep([0.0, 1.0]) are the same sweep.

    Regression test for the seed/cache-key normalization bug: seed
    labels were derived from the *raw* grid value while cache keys
    normalized with float(x), so an int grid and a float grid shared
    cache keys while spawning different seeds — the cache could return
    results computed under seeds the caller never requested.
    """

    def test_identical_seeds(self):
        int_task, float_task = _RecordingTask(), _RecordingTask()
        sweep([0, 1], int_task, repetitions=3, root_seed=9)
        sweep([0.0, 1.0], float_task, repetitions=3, root_seed=9)
        assert int_task.cells == float_task.cells

    def test_identical_cache_keys(self):
        fingerprint = {"config": "c"}
        for int_x, float_x in ((0, 0.0), (1, 1.0), (2, 2.0)):
            assert cell_key("exp", fingerprint, int_x, 5) == cell_key(
                "exp", fingerprint, float_x, 5
            )

    def test_cached_cells_reused_across_grid_spellings(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")

        class FingerprintedTask(_RecordingTask):
            def cache_fingerprint(self):
                return {"task": "fp"}

        first, second = FingerprintedTask(), FingerprintedTask()
        with SweepExecutor(jobs=1, cache=cache) as executor:
            sweep([0, 1], first, repetitions=2, root_seed=3,
                  executor=executor, experiment="exp")
            sweep([0.0, 1.0], second, repetitions=2, root_seed=3,
                  executor=executor, experiment="exp")
        # The float spelling hit the cache for every cell: same seeds,
        # same keys, nothing re-executed.
        assert first.cells != []
        assert second.cells == []
        assert executor.cells_cached == 4


class TestTaskContracts:
    TASKS = [
        GossipSweepTask(
            scenario=Scenario(
                config=GossipConfig.small(), kind=AttackKind.TRADE, rounds=5
            )
        ),
        ScripAltruistTask(config=ScripConfig.small(), rounds=50, warmup=10),
        TokenSweepTask(rows=4, cols=4, n_tokens=3, copies_per_token=2, max_rounds=20),
        SwarmSweepTask(config=SwarmConfig.small(), n_targets=2, max_rounds=60),
    ]

    @pytest.mark.parametrize("task", TASKS, ids=lambda t: type(t).__name__)
    def test_satisfies_protocol(self, task):
        assert isinstance(task, SweepTask)

    @pytest.mark.parametrize("task", TASKS, ids=lambda t: type(t).__name__)
    def test_picklable(self, task):
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    @pytest.mark.parametrize("task", TASKS, ids=lambda t: type(t).__name__)
    def test_fingerprint_is_stable_and_config_sensitive(self, task):
        assert task.cache_fingerprint() == task.cache_fingerprint()

    @pytest.mark.parametrize("task", TASKS, ids=lambda t: type(t).__name__)
    def test_deterministic_in_seed(self, task):
        x = 1.0 if isinstance(task, (ScripAltruistTask, SwarmSweepTask)) else 0.1
        assert task(x, 7) == task(x, 7)

    def test_fingerprint_distinguishes_metric(self):
        base = ScripAltruistTask(config=ScripConfig.small(), rounds=50, warmup=10)
        other = ScripAltruistTask(
            config=ScripConfig.small(), rounds=50, warmup=10,
            metric="free_service_share",
        )
        assert base.cache_fingerprint() != other.cache_fingerprint()

    def test_fingerprint_ignores_execution_strategy(self):
        # Execution never changes results, so cells cached on one
        # backend must be served on every other.
        scenario = Scenario(
            config=GossipConfig.small(), kind=AttackKind.TRADE, rounds=5
        )
        words_task = GossipSweepTask(scenario=scenario)
        sets_task = GossipSweepTask(
            scenario=scenario, execution=ExecutionConfig(backend="sets")
        )
        assert sets_task.cache_fingerprint() == words_task.cache_fingerprint()

    @pytest.mark.parametrize(
        "change",
        [{"backend": "words"}, {"jobs": 2}],
        ids=["backend", "jobs"],
    )
    @pytest.mark.parametrize("shards", [0, 1])
    def test_fingerprint_ignores_results_blind_fields(self, shards, change):
        scenario = Scenario(
            config=GossipConfig.small(), kind=AttackKind.TRADE, rounds=5
        )
        base = ExecutionConfig(backend="sets", shards=shards)
        plain = GossipSweepTask(scenario, base)
        changed = GossipSweepTask(scenario, base.replace(**change))
        assert plain.cache_fingerprint() == changed.cache_fingerprint()

    def test_fingerprint_distinguishes_partner_model(self):
        # shards == 0 runs the paper's uniform partner draws, shards == 1
        # the 4-node-cell pairing: different results, so different keys.
        uniform = GossipSweepTask(Scenario(), ExecutionConfig())
        cells = GossipSweepTask(
            Scenario(), ExecutionConfig(backend="words", shards=1)
        )
        assert uniform.cache_fingerprint() != cells.cache_fingerprint()
        assert uniform.cache_fingerprint()["pairing"] == "uniform"
        assert cells.cache_fingerprint()["pairing"] == "cells"

    def test_fingerprint_distinguishes_network_and_schedule(self):
        from repro.bargossip.network import NetworkModel

        base = GossipSweepTask(
            scenario=Scenario(config=GossipConfig.small(), rounds=5)
        )
        churny = GossipSweepTask(
            scenario=Scenario(
                config=GossipConfig.small(),
                rounds=5,
                schedule="event",
                network=NetworkModel(loss_rate=0.1),
            )
        )
        assert base.cache_fingerprint() != churny.cache_fingerprint()


class TestModelSweeps:
    def test_scrip_altruists_raise_service_rate(self):
        task = ScripAltruistTask(config=ScripConfig.small(), rounds=300, warmup=30)
        points = sweep([0, 8], task, repetitions=2, root_seed=1)
        assert points[1].mean > points[0].mean

    def test_token_altruism_reduces_starvation(self):
        task = TokenSweepTask(
            rows=5, cols=5, n_tokens=4, copies_per_token=2, max_rounds=60
        )
        points = sweep([0.0, 0.5], task, repetitions=2, root_seed=1)
        assert points[1].mean <= points[0].mean

    def test_swarm_sweep_runs_with_and_without_attack(self):
        task = SwarmSweepTask(config=SwarmConfig.small(), n_targets=2, max_rounds=80)
        points = sweep([0, 2], task, repetitions=1, root_seed=1)
        assert all(point.mean > 0 for point in points)

    def test_parallel_matches_serial_for_scrip(self):
        task = ScripAltruistTask(config=ScripConfig.small(), rounds=120, warmup=20)
        serial = sweep([0, 4], task, repetitions=2, root_seed=2)
        with SweepExecutor(jobs=2) as executor:
            parallel = sweep([0, 4], task, repetitions=2, root_seed=2,
                             executor=executor)
        assert serial == parallel


class TestTaskBuilders:
    @pytest.mark.parametrize("model", sorted(TASK_BUILDERS))
    def test_builders_produce_protocol_tasks(self, model):
        task, x_label = TASK_BUILDERS[model](True, None)
        assert isinstance(task, SweepTask)
        assert isinstance(x_label, str) and x_label
