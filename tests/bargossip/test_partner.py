"""Tests for pseudorandom partner selection."""

import numpy as np
import pytest

from repro.bargossip.partner import PartnerSchedule, Purpose
from repro.core.errors import ConfigurationError
from repro.core.rng import RngStreams


def make_schedule(n=20, seed=0):
    return PartnerSchedule(n, RngStreams(seed).get("partners"))


class TestPartnerSchedule:
    def test_never_self(self):
        schedule = make_schedule(10)
        for round_now in range(5):
            for node in range(10):
                for purpose in Purpose:
                    assert schedule.partner_of(round_now, node, purpose) != node

    def test_partner_in_range(self):
        schedule = make_schedule(7)
        for round_now in range(4):
            for node in range(7):
                partner = schedule.partner_of(round_now, node, Purpose.EXCHANGE)
                assert 0 <= partner < 7

    def test_deterministic_across_instances(self):
        a = make_schedule(seed=3)
        b = make_schedule(seed=3)
        draws_a = [a.partner_of(2, n, Purpose.PUSH) for n in range(20)]
        draws_b = [b.partner_of(2, n, Purpose.PUSH) for n in range(20)]
        assert draws_a == draws_b

    def test_query_order_does_not_matter(self):
        """Determinism must not depend on who asks first."""
        a = make_schedule(seed=5)
        b = make_schedule(seed=5)
        forward = [a.partner_of(1, n, Purpose.EXCHANGE) for n in range(20)]
        backward = [b.partner_of(1, n, Purpose.EXCHANGE) for n in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_purposes_are_independent_draws(self):
        schedule = make_schedule(50, seed=1)
        exchange = [schedule.partner_of(0, n, Purpose.EXCHANGE) for n in range(50)]
        push = [schedule.partner_of(0, n, Purpose.PUSH) for n in range(50)]
        assert exchange != push

    def test_rounds_are_independent_draws(self):
        schedule = make_schedule(50, seed=1)
        r0 = [schedule.partner_of(0, n, Purpose.EXCHANGE) for n in range(50)]
        r1 = [schedule.partner_of(1, n, Purpose.EXCHANGE) for n in range(50)]
        assert r0 != r1

    def test_roughly_uniform(self):
        """No partner is structurally favoured (chi-square sanity bound)."""
        n = 10
        schedule = make_schedule(n, seed=7)
        counts = np.zeros(n)
        rounds = 400
        for round_now in range(rounds):
            partner = schedule.partner_of(round_now, 0, Purpose.EXCHANGE)
            counts[partner] += 1
        assert counts[0] == 0  # never self
        expected = rounds / (n - 1)
        assert (np.abs(counts[1:] - expected) < 5 * np.sqrt(expected)).all()

    def test_old_rounds_discarded(self):
        schedule = make_schedule(10, seed=0)
        schedule.partner_of(0, 0, Purpose.EXCHANGE)
        schedule.partner_of(5, 0, Purpose.EXCHANGE)
        with pytest.raises(ConfigurationError):
            schedule.partner_of(0, 0, Purpose.EXCHANGE)

    def test_adjacent_round_still_available(self):
        schedule = make_schedule(10, seed=0)
        schedule.partner_of(3, 0, Purpose.EXCHANGE)
        # round 2 is still inside the sliding window
        assert isinstance(schedule.partner_of(2, 0, Purpose.EXCHANGE), int)

    def test_bad_initiator_rejected(self):
        schedule = make_schedule(5)
        with pytest.raises(ConfigurationError):
            schedule.partner_of(0, 5, Purpose.EXCHANGE)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule(1)


class TestSlidingWindowContract:
    """The exact window semantics the simulator (and any schedule
    implementation — the cell pairing included) must preserve: one
    round of look-back survives, two rounds back raises, and the batch
    accessor is the same draw as repeated scalar queries."""

    def test_partners_for_round_matches_repeated_partner_of(self):
        batch = make_schedule(seed=11)
        scalar = make_schedule(seed=11)
        for purpose in Purpose:
            array = batch.partners_for_round(3, purpose)
            repeated = [scalar.partner_of(3, node, purpose) for node in range(20)]
            assert list(array) == repeated

    def test_previous_round_queryable_after_advancing(self):
        schedule = make_schedule(seed=2)
        advanced = list(schedule.partners_for_round(4, Purpose.PUSH))
        previous = schedule.partners_for_round(3, Purpose.PUSH)
        assert len(previous) == 20
        # querying the past must not disturb the present
        assert list(schedule.partners_for_round(4, Purpose.PUSH)) == advanced

    def test_two_rounds_back_raises(self):
        schedule = make_schedule(seed=2)
        schedule.partners_for_round(4, Purpose.EXCHANGE)
        with pytest.raises(ConfigurationError):
            schedule.partners_for_round(2, Purpose.EXCHANGE)
        with pytest.raises(ConfigurationError):
            schedule.partner_of(2, 0, Purpose.EXCHANGE)
