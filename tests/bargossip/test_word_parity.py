"""Exact-equality parity suite: word-array backend vs the sets oracle.

The round loop is deterministic given the RNG streams, and the
fixed-width word rows consume exactly the same draws as the per-node
sets, so parity is *exact*, not approximate: delivery fractions,
per-node tallies, per-epoch windows, service counters, evictions, and
the final stores must all be *equal* for the same seed — on the
paper's uniform schedule here; the cell pairing is pinned by
``test_shard_parity.py``.
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


def _run_pair(config, kind, **kwargs):
    """(sets, words) simulators of one configuration."""
    return tuple(
        _run(config, kind, ExecutionConfig(backend=backend), **kwargs)
        for backend in ("sets", "words")
    )


def _assert_parity(config, kind, **kwargs):
    reference, vectorized = _run_pair(config, kind, **kwargs)
    assert _snapshot(vectorized) == _snapshot(reference)


class TestExperimentParity:
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
            scenario, execution=ExecutionConfig(backend="words"), seed=5
        )
        assert reference == vectorized


class TestFigureConfigParity:
    @pytest.mark.parametrize(
        "kind", [AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
    )
    def test_figure1_config(self, kind):
        _assert_parity(GossipConfig.paper(), kind, rounds=15)

    @pytest.mark.parametrize("kind", [AttackKind.IDEAL, AttackKind.TRADE])
    def test_figure2_config(self, kind):
        _assert_parity(
            with_larger_pushes(GossipConfig.paper(), 10), kind, rounds=15
        )

    @pytest.mark.parametrize(
        "variant", sorted(figure3_variants(GossipConfig.paper()))
    )
    def test_figure3_variants(self, variant):
        config = figure3_variants(GossipConfig.paper())[variant]
        _assert_parity(config, AttackKind.TRADE, rounds=15)


class TestDefenseAndRotationParity:
    @pytest.mark.parametrize(
        "obedient_fraction,attacker_fraction", [(0.0, 0.2), (0.5, 0.25)]
    )
    def test_reporting_defense(self, obedient_fraction, attacker_fraction):
        policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)
        _assert_parity(
            GossipConfig.small().replace(obedient_fraction=obedient_fraction),
            AttackKind.TRADE,
            rounds=30,
            attacker_fraction=attacker_fraction,
            reporting=policy,
        )

    def test_rotating_targets(self):
        _assert_parity(
            GossipConfig.small(),
            AttackKind.IDEAL,
            rounds=30,
            rotate_targets_every=5,
        )
        # Rotation changes group labels; the derived headline metrics
        # must agree too.
        reference, vectorized = _run_pair(
            GossipConfig.small(),
            AttackKind.TRADE,
            rounds=30,
            rotate_targets_every=4,
        )
        assert _snapshot(vectorized) == _snapshot(reference)
        assert (
            vectorized.unusable_node_fraction()
            == reference.unusable_node_fraction()
        )
        assert (
            vectorized.intermittently_unusable_fraction()
            == reference.intermittently_unusable_fraction()
        )

    @pytest.mark.parametrize(
        "changes",
        [
            dict(obedient_fraction=0.5, accept_cap=3),
            dict(unbalanced_exchange=True, exchange_prefer_newest=False),
            dict(
                obedient_fraction=0.5,
                accept_cap=3,
                unbalanced_exchange=True,
                exchange_prefer_newest=False,
            ),
        ],
        ids=["behavior-mix-accept-cap", "unbalanced-oldest-first", "combined"],
    )
    def test_behavior_mix_accept_cap_unbalanced_oldest_first(self, changes):
        config = GossipConfig.small().replace(**changes)
        _assert_parity(config, AttackKind.TRADE, rounds=30)


class TestPerPairPlannerParity:
    """The per-pair packed planners (``bitset_exchange``,
    ``bitset_plan_push``/``bitset_apply_push``) against the sets oracle.

    The words store serves them through its int row views on the event
    schedule, which on an ideal network replays the rounds schedule's
    draws exactly; so words-on-events must equal sets-on-rounds.
    """

    def _assert_planner_parity(self, config, kind, **kwargs):
        reference = _run(config, kind, ExecutionConfig(backend="sets"), **kwargs)
        planned = _run(
            config, kind, ExecutionConfig(backend="words"), schedule="event",
            **kwargs,
        )
        assert _snapshot(planned) == _snapshot(reference)
        return reference, planned

    @pytest.mark.parametrize(
        "kind", [AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.3])
    def test_small_config_all_attacks(self, kind, fraction):
        self._assert_planner_parity(
            GossipConfig.small(), kind, rounds=25, attacker_fraction=fraction
        )

    @pytest.mark.parametrize(
        "obedient_fraction,attacker_fraction", [(0.0, 0.2), (0.5, 0.25)]
    )
    def test_reporting_defense(self, obedient_fraction, attacker_fraction):
        policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)
        self._assert_planner_parity(
            GossipConfig.small().replace(obedient_fraction=obedient_fraction),
            AttackKind.TRADE,
            rounds=30,
            attacker_fraction=attacker_fraction,
            reporting=policy,
        )

    def test_rotating_targets(self):
        reference, planned = self._assert_planner_parity(
            GossipConfig.small(),
            AttackKind.TRADE,
            rounds=30,
            rotate_targets_every=4,
        )
        assert (
            planned.unusable_node_fraction()
            == reference.unusable_node_fraction()
        )
        assert (
            planned.intermittently_unusable_fraction()
            == reference.intermittently_unusable_fraction()
        )


class TestAdversarialLoadParity:
    """sets == words under attacker-heavy, mass-eviction and
    tightly-capped configurations (the cell classes the batched word
    sweeps special-case), on the paper's uniform schedule."""

    @pytest.mark.parametrize("fraction", [0.5, 0.6])
    def test_attacker_heavy_coalitions(self, fraction):
        _assert_parity(
            GossipConfig.paper(),
            AttackKind.TRADE,
            rounds=12,
            attacker_fraction=fraction,
        )

    def test_mass_eviction(self):
        policy = ReportingPolicy(excess_threshold=1, reports_to_evict=1)
        _assert_parity(
            GossipConfig.small().replace(obedient_fraction=1.0),
            AttackKind.TRADE,
            rounds=20,
            attacker_fraction=0.3,
            reporting=policy,
        )

    def test_capped_push_and_exchange_sizes(self):
        _assert_parity(
            GossipConfig.paper().replace(
                push_size=1, exchange_cap=3, accept_cap=2
            ),
            AttackKind.TRADE,
            rounds=12,
        )

