"""Exact-equality parity suite: bitset backend vs the reference sets backend.

The round loop is deterministic given the RNG streams and the bitset
backend consumes exactly the same draws, so parity is *exact*, not
approximate: delivery fractions, per-node tallies, per-epoch windows,
service counters, evictions, and the final stores must all be equal
for the same seed.
"""

import pytest

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import (
    ReportingPolicy,
    figure3_variants,
    with_larger_pushes,
)
from repro.bargossip.scenario import ExecutionConfig, Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams


def _run_pair(config, kind, seed=7, rounds=20, attacker_fraction=0.2, **sim_kwargs):
    simulators = []
    for backend in ("sets", "bitset"):
        streams = RngStreams(seed)
        coalition = AttackerCoalition.build(
            kind,
            n_nodes=config.n_nodes,
            attacker_fraction=attacker_fraction,
            rng=streams.get("coalition"),
        )
        simulator = GossipSimulator(
            config,
            attack=coalition,
            seed=seed,
            execution=ExecutionConfig(backend=backend),
            **sim_kwargs,
        )
        for _ in range(rounds):
            simulator.step()
        simulators.append(simulator)
    return simulators


def _assert_full_parity(reference, vectorized):
    assert reference.stats.delivered == vectorized.stats.delivered
    assert reference.stats.missed == vectorized.stats.missed
    assert reference.per_node_delivered == vectorized.per_node_delivered
    assert reference.per_node_missed == vectorized.per_node_missed
    assert reference.per_node_windows == vectorized.per_node_windows
    for node_ref, node_vec in zip(reference.nodes, vectorized.nodes):
        assert node_ref.counters == node_vec.counters
        assert node_ref.evicted == node_vec.evicted
        assert node_ref.group == node_vec.group
        assert node_ref.store.have == node_vec.store.have
        assert node_ref.store.missing == node_vec.store.missing


class TestExperimentParity:
    """run_experiment agrees exactly across backends."""

    @pytest.mark.parametrize(
        "kind", [AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.3])
    def test_small_config_all_attacks(self, kind, fraction):
        scenario = Scenario(
            config=GossipConfig.small(),
            kind=kind,
            attacker_fraction=fraction,
            rounds=25,
        )
        reference = run_experiment(
            scenario, execution=ExecutionConfig(backend="sets"), seed=5
        )
        vectorized = run_experiment(
            scenario, execution=ExecutionConfig(backend="bitset"), seed=5
        )
        assert reference.isolated_fraction == vectorized.isolated_fraction
        assert reference.satiated_fraction == vectorized.satiated_fraction
        assert reference.correct_fraction == vectorized.correct_fraction
        assert reference.pool_coverage == vectorized.pool_coverage
        assert reference.group_sizes == vectorized.group_sizes
        assert reference.evicted_attackers == vectorized.evicted_attackers


class TestFigureConfigParity:
    """Parity on the exact configurations behind Figures 1-3."""

    @pytest.mark.parametrize(
        "kind", [AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
    )
    def test_figure1_config(self, kind):
        _assert_full_parity(*_run_pair(GossipConfig.paper(), kind, rounds=15))

    @pytest.mark.parametrize("kind", [AttackKind.IDEAL, AttackKind.TRADE])
    def test_figure2_config(self, kind):
        config = with_larger_pushes(GossipConfig.paper(), 10)
        _assert_full_parity(*_run_pair(config, kind, rounds=15))

    def test_figure3_variants(self):
        for variant in figure3_variants(GossipConfig.paper()).values():
            _assert_full_parity(
                *_run_pair(variant, AttackKind.TRADE, rounds=15)
            )


class TestDefenseAndRotationParity:
    def test_reporting_defense(self):
        policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)
        _assert_full_parity(
            *_run_pair(
                GossipConfig.small(),
                AttackKind.TRADE,
                rounds=30,
                reporting=policy,
            )
        )

    def test_rotating_targets(self):
        _assert_full_parity(
            *_run_pair(
                GossipConfig.small(),
                AttackKind.IDEAL,
                rounds=30,
                rotate_targets_every=5,
            )
        )
        # Rotation changes group labels; the derived headline metrics
        # must agree too.
        reference, vectorized = _run_pair(
            GossipConfig.small(),
            AttackKind.TRADE,
            rounds=30,
            rotate_targets_every=4,
        )
        assert reference.unusable_node_fraction() == vectorized.unusable_node_fraction()
        assert (
            reference.intermittently_unusable_fraction()
            == vectorized.intermittently_unusable_fraction()
        )

    def test_behavior_mix_and_accept_cap(self):
        config = GossipConfig.small().replace(
            obedient_fraction=0.5, accept_cap=3
        )
        _assert_full_parity(*_run_pair(config, AttackKind.TRADE, rounds=30))

    def test_unbalanced_oldest_first(self):
        config = GossipConfig.small().replace(
            unbalanced_exchange=True, exchange_prefer_newest=False
        )
        _assert_full_parity(*_run_pair(config, AttackKind.TRADE, rounds=30))
