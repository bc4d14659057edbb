"""Integration tests for the full BAR Gossip simulator."""

import numpy as np
import pytest

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.node import TargetGroup
from repro.bargossip.scenario import Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.errors import ConfigurationError


def experiment(config, kind, fraction, seed, rounds, **scenario):
    """``run_experiment`` on the scenario these arguments describe."""
    return run_experiment(
        Scenario(
            config=config, kind=kind, attacker_fraction=fraction,
            rounds=rounds, **scenario,
        ),
        seed=seed,
    )


def build_coalition(kind, fraction, config, seed=0):
    return AttackerCoalition.build(
        kind, n_nodes=config.n_nodes, attacker_fraction=fraction,
        rng=np.random.default_rng(seed),
    )


class TestBaseline:
    def test_no_attack_delivers_usable_stream(self, small_gossip):
        result = experiment(
            small_gossip, AttackKind.NONE, 0.0, seed=1, rounds=30
        )
        assert result.correct_fraction is not None
        assert result.correct_fraction > small_gossip.usability_threshold

    def test_all_correct_nodes_isolated_without_attack(self, small_gossip):
        simulator = GossipSimulator(small_gossip, seed=0)
        sizes = simulator.group_sizes()
        assert sizes["attacker"] == 0
        assert sizes["satiated"] == 0
        assert sizes["isolated"] == small_gossip.n_nodes

    def test_store_invariant_at_round_boundaries(self, small_gossip):
        """have | missing == live updates, for every node, every round."""
        simulator = GossipSimulator(small_gossip, seed=2)
        for _ in range(12):
            simulator.step()
            live = simulator.ledger.live
            for node in simulator.nodes:
                assert node.store.have.isdisjoint(node.store.missing)
                assert node.store.have | node.store.missing == live


class TestDeterminism:
    def test_same_seed_same_outcome(self, small_gossip):
        a = experiment(small_gossip, AttackKind.TRADE, 0.2, seed=5, rounds=25)
        b = experiment(small_gossip, AttackKind.TRADE, 0.2, seed=5, rounds=25)
        assert a == b

    def test_different_seeds_differ(self, small_gossip):
        a = experiment(small_gossip, AttackKind.TRADE, 0.2, seed=5, rounds=25)
        b = experiment(small_gossip, AttackKind.TRADE, 0.2, seed=6, rounds=25)
        assert a.isolated_fraction != b.isolated_fraction


class TestAttackEffects:
    def test_ideal_attack_hurts_isolated_nodes(self, small_gossip):
        baseline = experiment(
            small_gossip, AttackKind.NONE, 0.0, seed=1, rounds=30
        )
        attacked = experiment(
            small_gossip, AttackKind.IDEAL, 0.15, seed=1, rounds=30
        )
        assert attacked.isolated_fraction < baseline.correct_fraction

    def test_satiated_nodes_receive_near_perfect_service(self, small_gossip):
        """Paper: 'satiated nodes receive near perfect service.'"""
        result = experiment(
            small_gossip, AttackKind.IDEAL, 0.15, seed=1, rounds=30
        )
        assert result.satiated_fraction > 0.97
        assert result.satiated_fraction > result.isolated_fraction

    def test_ideal_stronger_than_crash_at_same_fraction(self, small_gossip):
        crash = experiment(
            small_gossip, AttackKind.CRASH, 0.15, seed=1, rounds=30
        )
        ideal = experiment(
            small_gossip, AttackKind.IDEAL, 0.15, seed=1, rounds=30
        )
        assert ideal.isolated_fraction < crash.isolated_fraction

    def test_trade_weaker_than_ideal_at_same_fraction(self, small_gossip):
        ideal = experiment(
            small_gossip, AttackKind.IDEAL, 0.1, seed=1, rounds=30
        )
        trade = experiment(
            small_gossip, AttackKind.TRADE, 0.1, seed=1, rounds=30
        )
        assert trade.isolated_fraction > ideal.isolated_fraction

    def test_pool_coverage_reported(self, small_gossip):
        result = experiment(
            small_gossip, AttackKind.IDEAL, 0.1, seed=1, rounds=30
        )
        assert result.pool_coverage is not None
        assert 0.0 < result.pool_coverage < 1.0

    def test_partial_satiation_suffices(self):
        """Paper: the ideal attacker at its crossover holds only a
        minority of updates — 'frequent partial satiation can be
        sufficient to attack the system.'"""
        config = GossipConfig.small()
        result = experiment(
            config, AttackKind.IDEAL, 0.1, seed=1, rounds=30
        )
        assert result.pool_coverage < 0.6
        assert result.isolated_fraction < 0.93

    def test_group_sizes_sum(self, small_gossip):
        result = experiment(
            small_gossip, AttackKind.TRADE, 0.25, seed=0, rounds=20
        )
        assert sum(result.group_sizes.values()) == small_gossip.n_nodes

    def test_crash_attack_has_no_satiated_group(self, small_gossip):
        result = experiment(
            small_gossip, AttackKind.CRASH, 0.25, seed=0, rounds=20
        )
        assert result.group_sizes["satiated"] == 0
        assert result.satiated_fraction is None


class TestRotatingAttack:
    def _run(self, config, rotate, rounds=40, fraction=0.2, seed=3):
        coalition = build_coalition(AttackKind.IDEAL, fraction, config, seed=seed)
        simulator = GossipSimulator(
            config, attack=coalition, seed=seed, rotate_targets_every=rotate
        )
        for _ in range(rounds):
            simulator.step()
        return simulator

    def test_rotation_changes_target_set(self, small_gossip):
        simulator = self._run(small_gossip, rotate=3, rounds=1)
        before = set(simulator.attack.satiated_targets)
        for _ in range(3):
            simulator.step()
        assert set(simulator.attack.satiated_targets) != before

    def test_rotation_keeps_groups_consistent(self, small_gossip):
        simulator = self._run(small_gossip, rotate=4, rounds=9)
        for node in simulator.nodes:
            if node.is_correct:
                expected = (
                    TargetGroup.SATIATED
                    if simulator.attack.is_satiated_target(node.node_id)
                    else TargetGroup.ISOLATED
                )
                assert node.group is expected

    def test_rotation_spreads_intermittent_unusability(self, small_gossip):
        """Paper: rotating targets makes service intermittently
        unusable for (many) more nodes than a fixed-target attack."""
        fixed = self._run(small_gossip, rotate=None, rounds=45)
        rotating = self._run(small_gossip, rotate=small_gossip.update_lifetime,
                             rounds=45)
        assert (
            rotating.intermittently_unusable_fraction()
            > fixed.intermittently_unusable_fraction()
        )

    def test_intermittent_fraction_matches_window_walk(self, small_gossip):
        """The words backend's array reduction over the epoch tallies
        agrees with a walk over ``per_node_windows`` at every threshold,
        including each epoch's exact delivered fraction."""
        simulator = self._run(
            small_gossip, rotate=small_gossip.update_lifetime, rounds=45
        )
        windows = simulator.per_node_windows
        correct = [node.node_id for node in simulator.nodes if node.is_correct]
        achieved = {
            delivered / (delivered + missed)
            for node_id in correct
            for delivered, missed in windows[node_id].values()
            if delivered + missed
        }
        for threshold in sorted(achieved | {0.0, 0.93, 1.0}):
            hit = sum(
                any(
                    delivered + missed
                    and delivered / (delivered + missed) <= threshold
                    for delivered, missed in windows[node_id].values()
                )
                for node_id in correct
            )
            assert simulator.intermittently_unusable_fraction(threshold) == (
                hit / len(correct)
            )

    def test_per_node_fractions_cover_correct_nodes(self, small_gossip):
        simulator = self._run(small_gossip, rotate=None, rounds=30)
        fractions = simulator.per_node_fractions()
        correct = sum(1 for node in simulator.nodes if node.is_correct)
        assert len(fractions) == correct
        assert all(0.0 <= value <= 1.0 for value in fractions.values())

    def test_windowed_and_total_tallies_agree(self, small_gossip):
        simulator = self._run(small_gossip, rotate=5, rounds=30)
        for node in simulator.nodes:
            if not node.is_correct:
                continue
            windows = simulator.per_node_windows[node.node_id]
            delivered = sum(bucket[0] for bucket in windows.values())
            missed = sum(bucket[1] for bucket in windows.values())
            assert delivered == simulator.per_node_delivered[node.node_id]
            assert missed == simulator.per_node_missed[node.node_id]

    def test_bad_rotation_interval_rejected(self, small_gossip):
        with pytest.raises(ConfigurationError):
            GossipSimulator(small_gossip, seed=0, rotate_targets_every=0)

    def test_crash_attack_never_rotates(self, small_gossip):
        coalition = build_coalition(AttackKind.CRASH, 0.2, small_gossip)
        simulator = GossipSimulator(
            small_gossip, attack=coalition, seed=0, rotate_targets_every=2
        )
        for _ in range(6):
            simulator.step()
        assert coalition.satiated_targets == set()


class TestDefensesInSimulation:
    def test_larger_push_raises_isolated_delivery(self, small_gossip):
        small = experiment(
            small_gossip, AttackKind.IDEAL, 0.15, seed=1, rounds=30
        )
        big = experiment(
            small_gossip.replace(push_size=8),
            AttackKind.IDEAL, 0.15, seed=1, rounds=30,
        )
        assert big.isolated_fraction > small.isolated_fraction

    def test_unbalanced_exchanges_raise_isolated_delivery(self, small_gossip):
        balanced = experiment(
            small_gossip, AttackKind.TRADE, 0.2, seed=1, rounds=30
        )
        unbalanced = experiment(
            small_gossip.replace(unbalanced_exchange=True),
            AttackKind.TRADE, 0.2, seed=1, rounds=30,
        )
        assert unbalanced.isolated_fraction > balanced.isolated_fraction

    def test_reporting_defense_evicts_trade_attackers(self, small_gossip):
        """With obedient targets, the trade attack self-destructs."""
        config = small_gossip.replace(obedient_fraction=1.0)
        policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)
        defended = experiment(
            config, AttackKind.TRADE, 0.2, seed=1, rounds=30, reporting=policy
        )
        undefended = experiment(
            config, AttackKind.TRADE, 0.2, seed=1, rounds=30
        )
        assert defended.evicted_attackers > 0
        assert defended.isolated_fraction >= undefended.isolated_fraction

    def test_rate_limit_blunts_trade_dumps(self, small_gossip):
        """Obedient receivers capping intake slow the attacker's
        satiation (the Section 5 open-problem defense)."""
        obedient = small_gossip.replace(obedient_fraction=1.0)
        plain = experiment(
            obedient, AttackKind.TRADE, 0.2, seed=1, rounds=30
        )
        limited = experiment(
            obedient.replace(accept_cap=4), AttackKind.TRADE, 0.2, seed=1, rounds=30
        )
        assert limited.isolated_fraction >= plain.isolated_fraction

    def test_rate_limit_inert_for_rational_receivers(self, small_gossip):
        """Rational receivers pocket the excess: the cap changes nothing."""
        plain = experiment(
            small_gossip, AttackKind.TRADE, 0.2, seed=1, rounds=30
        )
        limited = experiment(
            small_gossip.replace(accept_cap=4),
            AttackKind.TRADE, 0.2, seed=1, rounds=30,
        )
        assert limited == plain or (
            limited.isolated_fraction == plain.isolated_fraction
        )

    def test_rational_beneficiaries_do_not_report(self, small_gossip):
        """Rational nodes keep quiet about service they benefit from."""
        policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)
        result = experiment(
            small_gossip,  # obedient_fraction = 0
            AttackKind.TRADE, 0.2, seed=1, rounds=30, reporting=policy,
        )
        assert result.evicted_attackers == 0


class TestValidation:
    def test_attack_referencing_unknown_nodes_rejected(self, small_gossip):
        coalition = AttackerCoalition(
            AttackKind.TRADE, nodes=[10_000], satiated_targets=[]
        )
        with pytest.raises(ConfigurationError):
            GossipSimulator(small_gossip, attack=coalition)

    def test_round_counter_advances(self, small_gossip):
        simulator = GossipSimulator(small_gossip, seed=0)
        assert simulator.round == 0
        simulator.step()
        assert simulator.round == 1

    def test_delivery_fraction_none_before_expiry(self, small_gossip):
        simulator = GossipSimulator(small_gossip, seed=0)
        simulator.step()
        assert simulator.delivery_fraction("isolated") is None
