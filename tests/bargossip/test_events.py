"""Unit tests for the virtual-time event engine and the network model.

The end-to-end bit-parity pin lives in ``test_event_parity.py``; this
module pins the pieces: heap determinism under equal timestamps, the
loss-rate edges, churn landing mid-flight, and timeout-based liveness
detection that never books service counters.
"""

import numpy as np
import pytest

from repro.bargossip.config import GossipConfig
from repro.bargossip.events import (
    EventQueue,
    ExchangeDeliver,
    ExchangeSend,
    PartnerTimeout,
    PushSend,
)
from repro.bargossip.network import DeliveryTimeTracker, NetworkModel
from repro.bargossip.scenario import Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.errors import ConfigurationError, SimulationError


class TestEventQueueDeterminism:
    def test_equal_timestamps_pop_in_insertion_order(self):
        queue = EventQueue()
        events = [ExchangeSend(i, (i + 1) % 10) for i in range(10)]
        for event in events:
            queue.push(2.5, event)
        popped = [queue.pop() for _ in range(10)]
        assert [e for _, e in popped] == events
        assert all(t == 2.5 for t, _ in popped)

    def test_interleaved_times_sort_stably(self):
        queue = EventQueue()
        queue.push(1.0, ExchangeSend(0, 1))
        queue.push(0.5, PushSend(2, 3))
        queue.push(1.0, ExchangeSend(4, 5))
        queue.push(0.5, PushSend(6, 7))
        order = [queue.pop()[1] for _ in range(4)]
        assert order == [
            PushSend(2, 3), PushSend(6, 7),
            ExchangeSend(0, 1), ExchangeSend(4, 5),
        ]

    def test_payloads_never_compared(self):
        # Frozen dataclasses of different types at one timestamp would
        # raise TypeError under tuple comparison without the seq tie
        # breaker; mixing types must be safe.
        queue = EventQueue()
        queue.push(0.0, ExchangeSend(1, 2))
        queue.push(0.0, PushSend(3, 4))
        queue.push(0.0, PartnerTimeout(5, 6))
        assert len(queue) == 3
        while queue:
            queue.pop()

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.push(3.0, ExchangeSend(0, 1))
        queue.push(1.0, ExchangeSend(2, 3))
        assert queue.peek_time() == 1.0
        assert len(queue) == 2

    def test_invalid_times_rejected(self):
        queue = EventQueue()
        for bad in (float("nan"), float("inf"), -0.1):
            with pytest.raises(SimulationError):
                queue.push(bad, ExchangeSend(0, 1))

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()


class TestNetworkModelValidation:
    def test_ideal_is_ideal(self):
        assert NetworkModel.ideal().is_ideal
        assert not NetworkModel(loss_rate=0.1).is_ideal
        assert not NetworkModel(latency_mean=0.5).is_ideal
        assert not NetworkModel(churn_leave_rate=0.01).is_ideal

    @pytest.mark.parametrize(
        "bad",
        [
            {"latency_kind": "gaussian"},
            {"latency_mean": -1.0},
            {"loss_rate": 1.5},
            {"loss_rate": -0.1},
            {"churn_leave_rate": -0.5},
            {"liveness_timeout": 0.0},
            {"round_duration": 0.0},
        ],
    )
    def test_bad_fields_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            NetworkModel(**bad)

    def test_fixed_latency_draws_nothing(self):
        class ExplodingRng:
            def __getattr__(self, name):
                raise AssertionError("fixed latency must not draw")

        model = NetworkModel(latency_kind="fixed", latency_mean=0.25)
        assert model.sample_latency(ExplodingRng()) == 0.25


class TestLossRateEdges:
    def _run(self, loss_rate, rounds=12, seed=3):
        scenario = Scenario(
            config=GossipConfig.small(),
            network=NetworkModel(loss_rate=loss_rate),
            schedule="event",
            rounds=rounds,
        )
        return run_experiment(scenario, seed=seed)

    def test_loss_zero_drops_nothing(self):
        result = self._run(0.0)
        assert result.network_stats["messages_lost"] == 0
        assert result.network_stats["messages_sent"] > 0

    def test_loss_one_drops_everything(self):
        result = self._run(1.0)
        stats = result.network_stats
        assert stats["messages_sent"] > 0
        assert stats["messages_lost"] == stats["messages_sent"]
        # Nothing gossips: nodes only ever hold their broadcast seeds,
        # so delivery collapses to the seeding fraction.
        lossless = self._run(0.0)
        assert result.correct_fraction < lossless.correct_fraction
        config = GossipConfig.small()
        seeded_share = config.copies_seeded / config.n_nodes
        assert result.correct_fraction == pytest.approx(seeded_share, abs=0.05)

    def test_loss_zero_with_no_loss_draws_keeps_stream_cold(self):
        # loss_rate=0.0 is guarded (no RNG draw per message), so a
        # lossless latency run and an ideal run consume identical
        # network-stream draws for fixed latency.
        fixed = Scenario(
            config=GossipConfig.small(),
            network=NetworkModel(latency_kind="fixed", latency_mean=0.0),
            schedule="event",
            rounds=10,
        )
        ideal = fixed.replace(network=NetworkModel.ideal())
        assert run_experiment(fixed, seed=4) == run_experiment(ideal, seed=4)


class TestChurnDuringFlight:
    def _simulator(self, network, seed=11):
        return GossipSimulator(
            GossipConfig.small(), seed=seed, schedule="event", network=network
        )

    def test_leaves_and_joins_both_fire(self):
        network = NetworkModel(
            latency_kind="fixed",
            latency_mean=0.4,
            churn_leave_rate=0.05,
            churn_join_rate=1.0,
        )
        simulator = self._simulator(network)
        for _ in range(30):
            simulator.step()
        stats = simulator.network_stats
        assert stats.leaves > 0
        assert stats.joins > 0
        # Conservation: whoever is gone now left and never rejoined.
        assert int(simulator._departed.sum()) == stats.leaves - stats.joins
        assert stats.bootstrap_updates > 0  # rejoiners re-seeded

    def test_departure_mid_flight_starts_liveness_timer(self):
        # Latency keeps messages in flight across churn events, so some
        # deliveries must find their partner gone — never booking an
        # interaction, always arming the initiator's timeout.
        network = NetworkModel(
            latency_kind="fixed",
            latency_mean=0.6,
            churn_leave_rate=0.08,
            churn_join_rate=0.2,
        )
        simulator = self._simulator(network, seed=2)
        for _ in range(30):
            simulator.step()
        stats = simulator.network_stats
        assert stats.messages_to_departed > 0
        assert 0 < stats.departures_detected <= stats.messages_to_departed

    def test_run_survives_total_departure_pressure(self):
        # Extreme leave rate with no rejoin: the population drains but
        # every round must still complete.
        network = NetworkModel(churn_leave_rate=0.5)
        simulator = self._simulator(network, seed=5)
        for _ in range(15):
            simulator.step()
        assert simulator.network_stats.leaves > 0
        assert simulator.delivery_fraction("correct") is not None


class TestTimeoutLiveness:
    """Departure is detected through silence, never assumed — and a
    failed delivery books no service counters on either side."""

    def _arm(self, simulator, partner_departed=True):
        simulator.step()  # seed some state on the rounds grid
        initiator, partner = 1, 2
        simulator._departed[partner] = partner_departed
        counters_before = [node.counters for node in simulator.nodes]
        simulator._on_exchange_deliver(1.25, ExchangeDeliver(initiator, partner))
        return initiator, partner, counters_before

    def test_delivery_to_departed_books_no_counters(self):
        simulator = GossipSimulator(
            GossipConfig.small(), seed=0, schedule="event"
        )
        initiator, partner, before = self._arm(simulator)
        assert [node.counters for node in simulator.nodes] == before
        assert simulator.network_stats.messages_to_departed == 1
        # The initiator's liveness probe is armed at +liveness_timeout.
        time, event = simulator._events.pop()
        assert event == PartnerTimeout(initiator, partner)
        assert time == pytest.approx(1.25 + simulator.network.liveness_timeout)

    def test_timeout_on_still_departed_partner_detects(self):
        simulator = GossipSimulator(
            GossipConfig.small(), seed=0, schedule="event"
        )
        initiator, partner, _ = self._arm(simulator)
        simulator._on_partner_timeout(2.25, PartnerTimeout(initiator, partner))
        assert simulator.network_stats.departures_detected == 1

    def test_timeout_after_rejoin_is_answered(self):
        simulator = GossipSimulator(
            GossipConfig.small(), seed=0, schedule="event"
        )
        initiator, partner, _ = self._arm(simulator)
        simulator._departed[partner] = False  # rejoined before the probe
        simulator._on_partner_timeout(2.25, PartnerTimeout(initiator, partner))
        assert simulator.network_stats.departures_detected == 0


class TestDeliveryTimeTracker:
    def test_reached_and_expired_split(self):
        tracker = DeliveryTimeTracker(threshold=0.9)
        tracker.release([0, 1, 2], 1.0)
        tracker.mark_reached(0, 3.0)
        tracker.mark_reached(1, 2.0)
        tracker.expire_unreached([2])
        summary = tracker.summary()
        assert summary["reached"] == 2
        assert summary["expired_unreached"] == 1
        assert summary["reached_fraction"] == pytest.approx(2 / 3)
        assert summary["mean_time_to_threshold"] == pytest.approx(1.5)

    def test_empty_summary(self):
        summary = DeliveryTimeTracker().summary()
        assert summary["reached_fraction"] is None
        assert summary["mean_time_to_threshold"] is None

    def test_mark_unknown_update_is_noop(self):
        tracker = DeliveryTimeTracker()
        tracker.mark_reached(99, 1.0)
        assert tracker.summary()["reached"] == 0


class TestEventModeGuards:
    def test_rounds_schedule_rejects_non_ideal_network(self):
        with pytest.raises(ConfigurationError):
            GossipSimulator(
                GossipConfig.small(),
                seed=0,
                network=NetworkModel(loss_rate=0.1),
            )

    def test_event_schedule_rejects_shards(self):
        from repro.bargossip.scenario import ExecutionConfig

        with pytest.raises(ConfigurationError):
            GossipSimulator(
                GossipConfig.small(),
                seed=0,
                schedule="event",
                execution=ExecutionConfig(shards=1),
            )

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            GossipSimulator(GossipConfig.small(), seed=0, schedule="async")

    def test_rounds_mode_has_no_event_state(self):
        simulator = GossipSimulator(GossipConfig.small(), seed=0)
        assert simulator.network_stats is None
        assert simulator.delivery_time_summary() is None

    def test_departed_nodes_not_seeded(self):
        simulator = GossipSimulator(
            GossipConfig.small(), seed=0, schedule="event"
        )
        simulator._departed[:] = True
        simulator._departed[:3] = False
        simulator.step()
        assert simulator.network_stats.seeds_to_departed > 0
        departed_ids = np.flatnonzero(simulator._departed)
        for node_id in departed_ids:
            assert not simulator.nodes[node_id].store.have
