"""Tests for the parallel sweep executor: parity, caching, determinism."""

import pytest

from repro.bargossip.attacker import AttackKind
from repro.bargossip.config import GossipConfig
from repro.core.errors import AnalysisError
from repro.core.rng import spawn_seeds
from repro.harness.cache import ResultCache
from repro.bargossip.scenario import Scenario
from repro.harness.figures import GossipSweepTask, attack_curve, figure1, figure2, figure3
from repro.harness.parallel import SweepCell, SweepExecutor, resolve_jobs
from repro.harness.sweep import sweep
from repro.harness.tables import baseline_check

FRACTIONS = (0.1, 0.3)


def doubler(x, seed):
    """Module-level (hence picklable) run_one for pool tests."""
    return x * 2 + (seed % 97) / 1000.0


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_default_is_cpu_count(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            resolve_jobs(-1)


class TestExecutorMap:
    def test_preserves_cell_order(self):
        executor = SweepExecutor(jobs=1)
        cells = [SweepCell(x=float(i), seed=i) for i in range(7)]
        values = executor.map(doubler, cells)
        assert values == [doubler(c.x, c.seed) for c in cells]

    def test_pool_matches_serial(self):
        cells = [SweepCell(x=float(i), seed=i * 13) for i in range(11)]
        serial = SweepExecutor(jobs=1).map(doubler, cells)
        pooled = SweepExecutor(jobs=2, chunk_size=2).map(doubler, cells)
        assert pooled == serial

    def test_unpicklable_falls_back_to_serial(self):
        captured = []

        def closure(x, seed):  # closures don't pickle
            captured.append((x, seed))
            return x

        values = SweepExecutor(jobs=4).map(
            closure, [SweepCell(x=1.0, seed=0), SweepCell(x=2.0, seed=1)]
        )
        assert values == [1.0, 2.0]
        assert len(captured) == 2

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(AnalysisError):
            SweepExecutor(jobs=2, chunk_size=0)

    def test_pool_reused_across_maps(self):
        cells = [SweepCell(x=float(i), seed=i) for i in range(4)]
        with SweepExecutor(jobs=2) as executor:
            first = executor.map(doubler, cells)
            pool = executor._pool
            assert pool is not None
            second = executor.map(doubler, cells)
            assert executor._pool is pool  # no per-call pool churn
            executor.close()
            assert executor._pool is None
            third = executor.map(doubler, cells)  # close() is not terminal
        assert first == second == third


class TestSweepThroughExecutor:
    def test_sweep_results_independent_of_jobs(self):
        config = GossipConfig.small()
        task = GossipSweepTask(
            scenario=Scenario(config=config, kind=AttackKind.CRASH, rounds=20)
        )
        serial = sweep(FRACTIONS, task, repetitions=2, root_seed=3)
        pooled = sweep(
            FRACTIONS,
            task,
            repetitions=2,
            root_seed=3,
            executor=SweepExecutor(jobs=2),
        )
        assert serial == pooled

    def test_one_shot_grid_iterable(self):
        points = sweep((x for x in (1.0, 2.0)), lambda x, s: x, repetitions=2)
        assert [p.x for p in points] == [1.0, 2.0]
        assert all(p.samples == 2 for p in points)

    def test_spawn_seeds_fanout_is_deterministic(self):
        """The executor sees exactly the serial seed fan-out, per grid point."""
        seen = []

        def record(x, seed):
            seen.append((x, seed))
            return 1.0

        sweep(FRACTIONS, record, repetitions=3, root_seed=9)
        expected = [
            (float(x), seed)
            for x in FRACTIONS
            for seed in spawn_seeds(9, 3, label=f"sweep:{x}")
        ]
        assert seen == expected
        # and the same fan-out again, in the same order
        seen.clear()
        sweep(FRACTIONS, record, repetitions=3, root_seed=9)
        assert seen == expected


class TestFigureParity:
    @pytest.mark.parametrize("builder", [figure1, figure2, figure3], ids=lambda f: f.__name__)
    def test_figure_parallel_bit_identical(self, small_gossip, builder):
        serial = builder(small_gossip, fractions=FRACTIONS, rounds=20)
        with SweepExecutor(jobs=2) as executor:
            pooled = builder(
                small_gossip,
                fractions=FRACTIONS,
                rounds=20,
                executor=executor,
            )
        assert set(serial) == set(pooled)
        for label in serial:
            assert serial[label].xs == pooled[label].xs
            assert serial[label].ys == pooled[label].ys


class TestExecutorCache:
    def test_repeated_sweep_skips_execution(self, tmp_path, small_gossip):
        cache = ResultCache(tmp_path / "c")
        executor = SweepExecutor(jobs=1, cache=cache)
        task = GossipSweepTask(
            scenario=Scenario(config=small_gossip, kind=AttackKind.TRADE, rounds=20)
        )

        first = sweep(FRACTIONS, task, repetitions=2, root_seed=0,
                      executor=executor, experiment="t")
        executed_after_first = executor.cells_executed
        assert executed_after_first == len(FRACTIONS) * 2

        second = sweep(FRACTIONS, task, repetitions=2, root_seed=0,
                       executor=executor, experiment="t")
        assert executor.cells_executed == executed_after_first  # nothing re-run
        assert executor.cells_cached == len(FRACTIONS) * 2
        assert first == second

    def test_cached_equals_uncached(self, tmp_path, small_gossip):
        cache = ResultCache(tmp_path / "c")
        cached_exec = SweepExecutor(jobs=1, cache=cache)
        curve_cached = attack_curve(
            small_gossip, AttackKind.IDEAL, FRACTIONS, rounds=20,
            executor=cached_exec,
        )
        curve_plain = attack_curve(
            small_gossip, AttackKind.IDEAL, FRACTIONS, rounds=20
        )
        assert curve_cached.ys == curve_plain.ys

    def test_config_change_invalidates(self, tmp_path, small_gossip):
        cache = ResultCache(tmp_path / "c")
        executor = SweepExecutor(jobs=1, cache=cache)
        base = GossipSweepTask(
            scenario=Scenario(config=small_gossip, kind=AttackKind.TRADE, rounds=20)
        )
        sweep(FRACTIONS, base, executor=executor, experiment="t")
        executed = executor.cells_executed

        changed = GossipSweepTask(
            scenario=Scenario(
                config=small_gossip.replace(push_size=small_gossip.push_size + 2),
                kind=AttackKind.TRADE,
                rounds=20,
            )
        )
        sweep(FRACTIONS, changed, executor=executor, experiment="t")
        # every cell of the changed config was a miss and re-ran
        assert executor.cells_executed == executed + len(FRACTIONS)

    def test_cache_ignored_without_experiment_name(self, tmp_path, small_gossip):
        cache = ResultCache(tmp_path / "c")
        executor = SweepExecutor(jobs=1, cache=cache)
        task = GossipSweepTask(
            scenario=Scenario(config=small_gossip, kind=AttackKind.CRASH, rounds=20)
        )
        sweep(FRACTIONS, task, executor=executor)  # no experiment name
        assert len(cache) == 0

    def test_cache_ignored_without_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.map(doubler, [SweepCell(x=1.0, seed=0)], experiment="t")
        assert len(cache) == 0

    def test_baseline_check_uses_cache(self, tmp_path, small_gossip):
        cache = ResultCache(tmp_path / "c")
        executor = SweepExecutor(jobs=1, cache=cache)
        first = baseline_check(small_gossip, rounds=20, seed=1, executor=executor)
        second = baseline_check(small_gossip, rounds=20, seed=1, executor=executor)
        assert first == second
        assert executor.cells_executed == 1
        assert executor.cells_cached == 1
