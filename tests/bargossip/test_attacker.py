"""Tests for attacker coalitions and the three strategies."""

import numpy as np
import pytest

from repro.bargossip.attacker import (
    DEFAULT_SATIATE_FRACTION,
    AttackKind,
    AttackerCoalition,
    no_attack,
)
from repro.core.errors import ConfigurationError


def build(kind, fraction, n=100, seed=0, satiate=DEFAULT_SATIATE_FRACTION):
    return AttackerCoalition.build(
        kind, n_nodes=n, attacker_fraction=fraction,
        rng=np.random.default_rng(seed), satiate_fraction=satiate,
    )


class TestBuild:
    def test_sizes_match_fractions(self):
        coalition = build(AttackKind.TRADE, 0.2)
        assert len(coalition.nodes) == 20
        # attacker + satiated = 70% of the system
        assert len(coalition.nodes) + len(coalition.satiated_targets) == 70

    def test_satiation_includes_attacker_share(self):
        """Paper: satiate 70% 'including whatever percentage he controls'."""
        coalition = build(AttackKind.IDEAL, 0.5)
        assert len(coalition.satiated_targets) == 20  # 70 - 50

    def test_attacker_larger_than_target_fraction(self):
        coalition = build(AttackKind.TRADE, 0.8)
        assert len(coalition.satiated_targets) == 0

    def test_crash_has_no_satiated_targets(self):
        coalition = build(AttackKind.CRASH, 0.3)
        assert coalition.satiated_targets == set()

    def test_zero_fraction_is_none(self):
        coalition = build(AttackKind.TRADE, 0.0)
        assert coalition.kind is AttackKind.NONE
        assert not coalition.active

    def test_groups_disjoint(self):
        coalition = build(AttackKind.TRADE, 0.3)
        assert not (coalition.nodes & coalition.satiated_targets)

    def test_deterministic_by_seed(self):
        a = build(AttackKind.TRADE, 0.3, seed=9)
        b = build(AttackKind.TRADE, 0.3, seed=9)
        assert a.nodes == b.nodes and a.satiated_targets == b.satiated_targets

    def test_invalid_fractions(self):
        with pytest.raises(ConfigurationError):
            build(AttackKind.TRADE, 1.5)
        with pytest.raises(ConfigurationError):
            build(AttackKind.TRADE, 0.3, satiate=-0.1)


class TestStrategyQueries:
    def test_trade_trades(self):
        assert build(AttackKind.TRADE, 0.1).trades()
        assert not build(AttackKind.CRASH, 0.1).trades()
        assert not build(AttackKind.IDEAL, 0.1).trades()

    def test_only_ideal_broadcasts(self):
        assert build(AttackKind.IDEAL, 0.1).broadcasts_out_of_band()
        assert not build(AttackKind.TRADE, 0.1).broadcasts_out_of_band()
        assert not build(AttackKind.CRASH, 0.1).broadcasts_out_of_band()

    def test_none_attack_inactive(self):
        assert not no_attack().active

    def test_none_with_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackerCoalition(AttackKind.NONE, nodes=[1])

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackerCoalition(AttackKind.TRADE, nodes=[1], satiated_targets=[1])


class TestPooling:
    def test_observe_seeding_pools_only_coalition_nodes(self):
        coalition = AttackerCoalition(AttackKind.TRADE, nodes=[1, 2], satiated_targets=[5])
        coalition.observe_seeding(1, (10, 11))
        coalition.observe_seeding(7, (12,))
        assert coalition.pool == {10, 11}

    def test_dump_for_gives_missing_pooled(self):
        coalition = AttackerCoalition(AttackKind.TRADE, nodes=[1], satiated_targets=[5])
        coalition.observe_seeding(1, (10, 11, 12))
        give = coalition.dump_for({11, 12, 99})
        assert give == [11, 12]
        assert coalition.updates_served == 2

    def test_dump_limit(self):
        coalition = AttackerCoalition(AttackKind.TRADE, nodes=[1], satiated_targets=[5])
        coalition.observe_seeding(1, (10, 11, 12))
        give = coalition.dump_for({10, 11, 12}, limit=2)
        assert give == [10, 11]  # oldest first

    def test_expire_drops_from_pool(self):
        coalition = AttackerCoalition(AttackKind.TRADE, nodes=[1], satiated_targets=[5])
        coalition.observe_seeding(1, (10, 11))
        coalition.expire([10])
        assert coalition.pool == {11}

    def test_evict(self):
        coalition = AttackerCoalition(AttackKind.TRADE, nodes=[1, 2], satiated_targets=[5])
        assert coalition.evict(1) is True
        assert coalition.evict(1) is False
        assert coalition.nodes == {2}

    def test_retarget_is_the_only_way_to_change_targets(self):
        coalition = AttackerCoalition(AttackKind.TRADE, nodes=[1], satiated_targets=[5])
        assert coalition.targets_version == 0
        with pytest.raises(AttributeError):
            coalition.satiated_targets.add(6)
        with pytest.raises(AttributeError):
            coalition.satiated_targets = {6}
        coalition.retarget([6, 7])
        assert coalition.satiated_targets == {6, 7}
        assert coalition.targets_version == 1
        with pytest.raises(ConfigurationError):
            coalition.retarget([1])
        assert coalition.targets_version == 1

    def test_repr_mentions_kind(self):
        assert "trade" in repr(build(AttackKind.TRADE, 0.1))
