"""Exact-equality parity suite for the 4-node-cell pairing (``shards=1``).

On the cell pairing the words backend runs each phase as whole-phase
batched sweeps, while the sets oracle walks the pairs one at a time in
permutation order.  The traces must be bit-identical across backends
(``sets == words``): delivery fractions, per-node tallies, per-epoch
windows, service counters, evictions, and the final stores must all be
equal — on the figure-1/2/3 configurations, under the defenses and
rotation, and under adversarial load.  ``test_word_parity.py`` pins
the same for the paper's schedule.
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

#: Store backends; both must produce the identical trace, which
#: _check_config asserts with ``sets`` as the oracle.
BACKENDS = ("sets", "words")


def _run_cells(config, kind, seed=7, rounds=15, attacker_fraction=0.2,
               execution=ExecutionConfig(), **sim_kwargs):
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
        execution=execution.replace(shards=1),
        **sim_kwargs,
    )
    for _ in range(rounds):
        simulator.step()
    return simulator


def _assert_full_parity(reference, other):
    assert reference.stats.delivered == other.stats.delivered
    assert reference.stats.missed == other.stats.missed
    assert reference.per_node_delivered == other.per_node_delivered
    assert reference.per_node_missed == other.per_node_missed
    assert reference.per_node_windows == other.per_node_windows
    for node_ref, node_other in zip(reference.nodes, other.nodes):
        assert node_ref.counters == node_other.counters
        assert node_ref.evicted == node_other.evicted
        assert node_ref.group == node_other.group
        assert node_ref.store.have == node_other.store.have
        assert node_ref.store.missing == node_other.store.missing
    assert reference.attack.updates_served == other.attack.updates_served
    if reference.authority is not None:
        assert reference.authority.reports == other.authority.reports
        assert reference.authority.evicted == other.authority.evicted


def _check_config(config, kind, **sim_kwargs):
    baseline = None
    for backend in BACKENDS:
        run = _run_cells(
            config, kind, execution=ExecutionConfig(backend=backend), **sim_kwargs
        )
        if baseline is None:
            baseline = run
        else:
            _assert_full_parity(baseline, run)


class TestFigureConfigParity:
    """sets == words on the Figures 1-3 configs."""

    @pytest.mark.parametrize(
        "kind", [AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
    )
    def test_figure1_config(self, kind):
        _check_config(GossipConfig.paper(), kind)

    @pytest.mark.parametrize("kind", [AttackKind.IDEAL, AttackKind.TRADE])
    def test_figure2_config(self, kind):
        _check_config(with_larger_pushes(GossipConfig.paper(), 10), kind)

    def test_figure3_variants(self):
        for variant in figure3_variants(GossipConfig.paper()).values():
            _check_config(variant, AttackKind.TRADE, rounds=12)


class TestDefenseAndRotationParity:
    def test_reporting_defense_evictions(self):
        policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)
        config = GossipConfig.small().replace(obedient_fraction=0.5)
        _check_config(
            config, AttackKind.TRADE, rounds=30, reporting=policy,
            attacker_fraction=0.25,
        )

    def test_rotating_targets(self):
        _check_config(
            GossipConfig.small(), AttackKind.IDEAL, rounds=30,
            rotate_targets_every=5,
        )

    def test_accept_cap_and_unbalanced_oldest_first(self):
        config = GossipConfig.small().replace(
            obedient_fraction=0.5,
            accept_cap=3,
            unbalanced_exchange=True,
            exchange_prefer_newest=False,
        )
        _check_config(config, AttackKind.TRADE, rounds=30)


class TestAdversarialLoadParity:
    """The batched attacker/evicted/capped cell classes under load.

    The million-node work routed whole phases through masked word
    sweeps; these configs are chosen so those sweeps carry the
    majority of the traffic — attacker-majority coalitions, a
    hair-trigger eviction policy, and caps tight enough that almost
    every transfer truncates — and must still reproduce the sets oracle
    bit for bit.
    """

    @pytest.mark.parametrize("fraction", [0.5, 0.6])
    def test_attacker_heavy_coalitions(self, fraction):
        _check_config(
            GossipConfig.paper(), AttackKind.TRADE, rounds=12,
            attacker_fraction=fraction,
        )

    def test_mass_eviction(self):
        # The most trigger-happy policy the defense layer admits: any
        # imbalance beyond 1 draws a report, one report evicts.
        policy = ReportingPolicy(excess_threshold=1, reports_to_evict=1)
        config = GossipConfig.small().replace(obedient_fraction=1.0)
        storm = _run_cells(
            config, AttackKind.TRADE, rounds=20, reporting=policy,
            attacker_fraction=0.3,
            execution=ExecutionConfig(backend="words"),
        )
        assert sum(node.evicted for node in storm.nodes) >= 2
        _check_config(
            config, AttackKind.TRADE, rounds=20, reporting=policy,
            attacker_fraction=0.3,
        )

    def test_capped_push_and_exchange_sizes(self):
        config = GossipConfig.paper().replace(
            push_size=1, exchange_cap=3, accept_cap=2
        )
        _check_config(config, AttackKind.TRADE, rounds=12)


class TestExperimentParity:
    """run_experiment headline metrics agree across backends."""

    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_small_config_trade(self, fraction):
        scenario = Scenario(
            config=GossipConfig.small(),
            kind=AttackKind.TRADE,
            attacker_fraction=fraction,
            rounds=25,
        )
        reference = run_experiment(
            scenario, execution=ExecutionConfig(backend="sets", shards=1), seed=5
        )
        result = run_experiment(
            scenario, execution=ExecutionConfig(backend="words", shards=1), seed=5
        )
        assert reference.isolated_fraction == result.isolated_fraction
        assert reference.satiated_fraction == result.satiated_fraction
        assert reference.correct_fraction == result.correct_fraction
        assert reference.pool_coverage == result.pool_coverage
        assert reference.group_sizes == result.group_sizes
        assert reference.evicted_attackers == result.evicted_attackers

    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_every_attack_under_reporting(self, kind):
        scenario = Scenario(
            config=GossipConfig.small().replace(obedient_fraction=0.5),
            kind=kind,
            attacker_fraction=0.0 if kind is AttackKind.NONE else 0.25,
            rounds=25,
            reporting=ReportingPolicy(excess_threshold=2, reports_to_evict=2),
        )
        reference = run_experiment(
            scenario, execution=ExecutionConfig(backend="sets", shards=1), seed=3
        )
        result = run_experiment(
            scenario, execution=ExecutionConfig(backend="words", shards=1), seed=3
        )
        assert result == reference
