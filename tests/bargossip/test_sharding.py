"""Unit tests for the 4-node-cell partner pairing.

The end-to-end bit-parity guarantees live in ``test_shard_parity.py``;
this module pins the pieces: the permutation-pairing schedule's
structure and window contract.
"""

import numpy as np
import pytest

from repro.bargossip.config import GossipConfig
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.partner import PartnerSchedule, Purpose
from repro.bargossip.sharding import (
    CELL_SIZE,
    ShardedPartnerSchedule,
    cell_exchange_pairs,
    cell_push_pairs,
)
from repro.bargossip.simulator import GossipSimulator
from repro.core.errors import ConfigurationError
from repro.core.rng import RngStreams


def make_schedule(n=20, seed=0):
    return ShardedPartnerSchedule(n, RngStreams(seed).get("partners"))


class TestCellPairing:
    def test_full_cell(self):
        cell = (7, 3, 9, 1)
        assert cell_exchange_pairs(cell) == [(7, 3), (9, 1)]
        assert cell_push_pairs(cell) == [(7, 9), (3, 1)]

    def test_tail_cells(self):
        assert cell_exchange_pairs((5, 2, 8)) == [(5, 2)]
        assert cell_push_pairs((5, 2, 8)) == [(5, 8)]
        assert cell_exchange_pairs((5, 2)) == [(5, 2)]
        assert cell_push_pairs((5, 2)) == [(5, 2)]
        assert cell_exchange_pairs((5,)) == []
        assert cell_push_pairs((5,)) == []

    def test_distinct_partners_in_full_cells(self):
        """With n divisible by the cell size, exchange and push
        partners differ for every node every round."""
        schedule = make_schedule(n=24, seed=3)
        for round_now in range(4):
            exchange = schedule.partners_for_round(round_now, Purpose.EXCHANGE)
            push = schedule.partners_for_round(round_now, Purpose.PUSH)
            assert (exchange != push).all()
            assert (exchange != np.arange(24)).all()


class TestShardedSchedule:
    def test_pairing_is_symmetric(self):
        schedule = make_schedule(n=30, seed=1)
        for purpose in Purpose:
            partners = schedule.partners_for_round(0, purpose)
            for node in range(30):
                mate = partners[node]
                if mate != node:  # unpaired tail nodes sit out
                    assert partners[mate] == node

    def test_cells_partition_population(self):
        schedule = make_schedule(n=30, seed=2)
        cells = schedule.cells_for_round(0)
        flat = [node for cell in cells for node in cell]
        assert sorted(flat) == list(range(30))
        assert all(len(cell) <= CELL_SIZE for cell in cells)
        assert schedule.round_order(0) == tuple(flat)

    def test_deterministic_across_instances(self):
        a, b = make_schedule(seed=9), make_schedule(seed=9)
        assert a.cells_for_round(2) == b.cells_for_round(2)

    def test_roughly_uniform_partner_distribution(self):
        """The per-round permutation keeps each node's partner uniform
        over the other nodes across rounds (chi-square sanity bound),
        for both purposes."""
        n = 12
        schedule = make_schedule(n, seed=7)
        rounds = 600
        for purpose in Purpose:
            counts = np.zeros(n)
            schedule = make_schedule(n, seed=7)
            for round_now in range(rounds):
                counts[schedule.partner_of(round_now, 0, purpose)] += 1
            assert counts[0] == 0  # never self (n divisible by 4)
            expected = rounds / (n - 1)
            assert (np.abs(counts[1:] - expected) < 5 * np.sqrt(expected)).all()


class TestTailCells:
    """Every population size modulo the cell size, from the smallest."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_pairing_covers_everyone_but_the_tail(self, n):
        schedule = make_schedule(n=n, seed=n)
        for round_now in range(3):
            cells = schedule.cells_for_round(round_now)
            assert sorted(node for cell in cells for node in cell) == list(range(n))
            assert [len(cell) for cell in cells[:-1]] == [CELL_SIZE] * (len(cells) - 1)
            for purpose in Purpose:
                partners = schedule.partners_for_round(round_now, purpose)
                assert (partners[partners] == np.arange(n)).all()
                # Only a 1- or 3-node tail leaves anyone without a mate,
                # and then exactly one node per phase.
                idle = int((partners == np.arange(n)).sum())
                assert idle == (1 if n % 2 else 0)


class TestShardedWindowContract:
    """The sliding-window semantics the reference schedule pins must
    hold for the sharded schedule too — the simulator relies on them
    identically."""

    def test_partners_for_round_matches_partner_of(self):
        a, b = make_schedule(seed=11), make_schedule(seed=11)
        array = a.partners_for_round(3, Purpose.PUSH)
        repeated = [b.partner_of(3, node, Purpose.PUSH) for node in range(20)]
        assert list(array) == repeated

    def test_previous_round_still_available(self):
        schedule = make_schedule(seed=0)
        now = schedule.partners_for_round(4, Purpose.EXCHANGE).copy()
        previous = schedule.partners_for_round(3, Purpose.EXCHANGE)
        assert previous is not None
        assert list(schedule.partners_for_round(4, Purpose.EXCHANGE)) == list(now)

    def test_older_rounds_discarded(self):
        schedule = make_schedule(seed=0)
        schedule.partners_for_round(4, Purpose.EXCHANGE)
        with pytest.raises(ConfigurationError):
            schedule.partners_for_round(2, Purpose.EXCHANGE)
        with pytest.raises(ConfigurationError):
            schedule.cells_for_round(1)

    def test_cells_window_pruned(self):
        schedule = make_schedule(seed=0)
        schedule.partners_for_round(5, Purpose.EXCHANGE)
        # The raw draws keep the full look-back window; the cell tuples
        # are materialized lazily, so only the requested round exists.
        assert set(schedule._perms) == {4, 5}
        assert set(schedule._cells) == {5}
        schedule.cells_for_round(4)  # still in the window: materializes
        assert set(schedule._cells) == {4, 5}

    def test_bad_initiator_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule(n=5).partner_of(0, 5, Purpose.EXCHANGE)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule(n=1)


class TestShardedSimulatorBasics:
    def test_unpaired_tail_sits_out(self):
        """With n % 4 != 0 some node sits a phase out each round; the
        round must still complete and deliver."""
        config = GossipConfig.small().replace(n_nodes=61)
        simulator = GossipSimulator(
            config, seed=0, execution=ExecutionConfig(shards=1)
        )
        for _ in range(25):
            simulator.step()
        fraction = simulator.delivery_fraction("correct")
        assert fraction is not None and fraction > 0.9

    @pytest.mark.parametrize(
        "shards,schedule_type", [(0, PartnerSchedule), (1, ShardedPartnerSchedule)]
    )
    def test_shards_picks_the_partner_model(self, shards, schedule_type):
        simulator = GossipSimulator(
            GossipConfig.small(), seed=0, execution=ExecutionConfig(shards=shards)
        )
        assert type(simulator._partners) is schedule_type

    @pytest.mark.parametrize("n", [62, 63])
    def test_other_tails_complete_and_deliver(self, n):
        config = GossipConfig.small().replace(n_nodes=n)
        simulator = GossipSimulator(
            config, seed=0, execution=ExecutionConfig(shards=1)
        )
        for _ in range(25):
            simulator.step()
        fraction = simulator.delivery_fraction("correct")
        assert fraction is not None and fraction > 0.9
