"""Exact-equality parity suite: word-array backend vs the reference.

Mirrors ``test_bitset_parity.py`` for ``backend="words"``: the
fixed-width word rows consume exactly the same RNG draws as the other
backends, so delivery fractions, per-node tallies, per-epoch windows,
service counters, evictions, and the final stores must all be *equal*
for the same seed — on the paper's uniform schedule here; the cell
pairing is pinned by ``test_shard_parity.py``.
"""

import pytest

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy, with_larger_pushes
from repro.bargossip.scenario import ExecutionConfig, Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams


def _run(
    config, kind, execution, seed=7, rounds=20, attacker_fraction=0.2, **sim_kwargs
):
    streams = RngStreams(seed)
    coalition = AttackerCoalition.build(
        kind,
        n_nodes=config.n_nodes,
        attacker_fraction=attacker_fraction,
        rng=streams.get("coalition"),
    )
    simulator = GossipSimulator(
        config, attack=coalition, seed=seed, execution=execution, **sim_kwargs
    )
    for _ in range(rounds):
        simulator.step()
    return simulator


def _snapshot(simulator):
    """Everything parity pins, as one comparable value."""
    return (
        simulator.stats.delivered,
        simulator.stats.missed,
        simulator.per_node_delivered,
        simulator.per_node_missed,
        simulator.per_node_windows,
        [
            (node.counters, node.evicted, node.group,
             frozenset(node.store.have), frozenset(node.store.missing))
            for node in simulator.nodes
        ],
        simulator.attack.updates_served,
    )


def _assert_parity(config, kind, **kwargs):
    reference = _snapshot(
        _run(config, kind, ExecutionConfig(backend="sets"), **kwargs)
    )
    vectorized = _snapshot(
        _run(config, kind, ExecutionConfig(backend="words"), **kwargs)
    )
    assert vectorized == reference


class TestExperimentParity:
    @pytest.mark.parametrize(
        "kind", [AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
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
            scenario, execution=ExecutionConfig(backend="words"), seed=5
        )
        assert reference == vectorized


class TestFigureConfigParity:
    @pytest.mark.parametrize("kind", [AttackKind.CRASH, AttackKind.TRADE])
    def test_figure1_config(self, kind):
        _assert_parity(GossipConfig.paper(), kind, rounds=15)

    def test_figure2_config(self):
        _assert_parity(
            with_larger_pushes(GossipConfig.paper(), 10),
            AttackKind.TRADE,
            rounds=15,
        )


class TestDefenseAndRotationParity:
    def test_reporting_defense(self):
        policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)
        _assert_parity(
            GossipConfig.small().replace(obedient_fraction=0.5),
            AttackKind.TRADE,
            rounds=30,
            attacker_fraction=0.25,
            reporting=policy,
        )

    def test_rotating_targets(self):
        _assert_parity(
            GossipConfig.small(),
            AttackKind.IDEAL,
            rounds=30,
            rotate_targets_every=5,
        )

    def test_behavior_mix_accept_cap_unbalanced_oldest_first(self):
        config = GossipConfig.small().replace(
            obedient_fraction=0.5,
            accept_cap=3,
            unbalanced_exchange=True,
            exchange_prefer_newest=False,
        )
        _assert_parity(config, AttackKind.TRADE, rounds=30)


class TestAdversarialLoadParity:
    """sets == bitset == words under attacker-heavy, mass-eviction and
    tightly-capped configurations (the cell classes the batched word
    sweeps special-case), on the paper's uniform schedule."""

    @staticmethod
    def _assert_three_backend_parity(config, kind, **kwargs):
        reference = _snapshot(
            _run(config, kind, ExecutionConfig(backend="sets"), **kwargs)
        )
        bitset = _snapshot(
            _run(config, kind, ExecutionConfig(backend="bitset"), **kwargs)
        )
        assert bitset == reference
        vectorized = _snapshot(
            _run(config, kind, ExecutionConfig(backend="words"), **kwargs)
        )
        assert vectorized == reference

    @pytest.mark.parametrize("fraction", [0.5, 0.6])
    def test_attacker_heavy_coalitions(self, fraction):
        self._assert_three_backend_parity(
            GossipConfig.paper(),
            AttackKind.TRADE,
            rounds=12,
            attacker_fraction=fraction,
        )

    def test_mass_eviction(self):
        policy = ReportingPolicy(excess_threshold=1, reports_to_evict=1)
        self._assert_three_backend_parity(
            GossipConfig.small().replace(obedient_fraction=1.0),
            AttackKind.TRADE,
            rounds=20,
            attacker_fraction=0.3,
            reporting=policy,
        )

    def test_capped_push_and_exchange_sizes(self):
        self._assert_three_backend_parity(
            GossipConfig.paper().replace(
                push_size=1, exchange_cap=3, accept_cap=2
            ),
            AttackKind.TRADE,
            rounds=12,
        )

