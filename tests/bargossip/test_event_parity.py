"""Exact-equality parity pin: event schedule vs the classic rounds schedule.

With an ideal network (zero latency, loss and churn) every send and its
delivery share one timestamp, and the event queue's insertion-order tie
breaking replays the classic schedule's initiator order bit-exact: the
network and churn RNG streams are dedicated (and never drawn from in
ideal runs), so the two schedules consume identical protocol draws.
Delivery fractions, per-node tallies, service counters, evictions and
the final stores must all be *equal* for the same seed, on the
figure-1/2/3 configurations, for the sets and words backends.

CI runs this suite per backend: set ``LOTUS_BACKEND`` to a comma list
(e.g. ``LOTUS_BACKEND=words``) to restrict the compared backends.
"""

import os

import pytest

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import (
    ReportingPolicy,
    figure3_variants,
    with_larger_pushes,
)
from repro.bargossip.network import NetworkModel
from repro.bargossip.scenario import ExecutionConfig, Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams

#: Backends the schedule comparison runs on (both must already agree
#: with each other — pinned by the backend-parity suites).
BACKENDS = tuple(
    backend
    for backend in os.environ.get("LOTUS_BACKEND", "sets,words").split(",")
    if backend.strip()
)


def _run(config, kind, backend, schedule, seed=7, rounds=15,
         attacker_fraction=0.2, **sim_kwargs):
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
        schedule=schedule,
        **sim_kwargs,
    )
    for _ in range(rounds):
        simulator.step()
    return simulator


def _assert_full_parity(classic, event):
    assert classic.stats.delivered == event.stats.delivered
    assert classic.stats.missed == event.stats.missed
    assert classic.per_node_delivered == event.per_node_delivered
    assert classic.per_node_missed == event.per_node_missed
    assert classic.per_node_windows == event.per_node_windows
    for node_classic, node_event in zip(classic.nodes, event.nodes):
        assert node_classic.counters == node_event.counters
        assert node_classic.evicted == node_event.evicted
        assert node_classic.group == node_event.group
        assert node_classic.store.have == node_event.store.have
        assert node_classic.store.missing == node_event.store.missing
    assert classic.attack.updates_served == event.attack.updates_served
    # Nothing happened on the wire that could have gone differently.
    stats = event.network_stats
    assert stats.messages_lost == 0
    assert stats.leaves == 0 and stats.joins == 0
    assert stats.in_flight_at_end == 0


def _check_config(config, kind, **sim_kwargs):
    for backend in BACKENDS:
        classic = _run(config, kind, backend, "rounds", **sim_kwargs)
        event = _run(config, kind, backend, "event", **sim_kwargs)
        _assert_full_parity(classic, event)


class TestFigureConfigParity:
    """Event schedule vs rounds, bit-exact, Figures 1-3 configs."""

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

    def test_behavior_mix_accept_cap_unbalanced(self):
        config = GossipConfig.small().replace(
            obedient_fraction=0.5,
            accept_cap=3,
            unbalanced_exchange=True,
            exchange_prefer_newest=False,
        )
        _check_config(config, AttackKind.TRADE, rounds=30)


class TestExperimentParity:
    """run_experiment headline metrics agree across schedules."""

    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_small_config_trade(self, fraction):
        scenario = Scenario(
            config=GossipConfig.small(),
            kind=AttackKind.TRADE,
            attacker_fraction=fraction,
            rounds=25,
        )
        classic = run_experiment(scenario, seed=5)
        event = run_experiment(scenario.replace(schedule="event"), seed=5)
        assert classic.isolated_fraction == event.isolated_fraction
        assert classic.satiated_fraction == event.satiated_fraction
        assert classic.correct_fraction == event.correct_fraction
        assert classic.pool_coverage == event.pool_coverage
        assert classic.group_sizes == event.group_sizes
        assert classic.evicted_attackers == event.evicted_attackers
        # The event run carries the virtual-time extras on top.
        assert classic.schedule == "rounds" and event.schedule == "event"
        assert classic.virtual_time is None
        assert event.virtual_time == 25.0
        assert event.time_to_90_delivery is not None
        assert 0.0 < event.delivery_reached_fraction <= 1.0
        if fraction == 0.0:
            # Updates released near the end of the run can expire before
            # spreading, so "almost all" is the attack-free pin; under
            # the trade attack the whole point is that this collapses.
            assert event.delivery_reached_fraction > 0.9

    def test_time_to_threshold_positive_under_latency(self):
        scenario = Scenario(
            config=GossipConfig.small(),
            network=NetworkModel(latency_kind="exponential", latency_mean=0.5),
            schedule="event",
            rounds=25,
        )
        ideal = run_experiment(
            scenario.replace(network=NetworkModel.ideal()), seed=5
        )
        latency = run_experiment(scenario, seed=5)
        # Latency can only slow propagation down.
        assert latency.time_to_90_delivery >= ideal.time_to_90_delivery
