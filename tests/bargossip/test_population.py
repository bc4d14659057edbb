"""Unit tests for the columnar population state.

The end-to-end guarantees (bit-exact parity across backends and
partner models with the columnar counters in place) live in the parity
suites; this module pins the pieces: the counters matrix and its
views, the code columns behind ``group``/``behavior``/``evicted``, the
overflow guards, and the sparse counter deltas the batched sweeps fold
in.
"""

import numpy as np
import pytest

from repro.bargossip.node import (
    COUNTER_FIELDS,
    COUNTER_MAX,
    CounterColumnView,
    GossipNode,
    ServiceCounters,
    TargetGroup,
)
from repro.bargossip.population import N_COUNTER_COLS, Population
from repro.core.behaviors import Behavior
from repro.core.errors import SimulationError


class TestCounterColumns:
    def test_view_reads_and_writes_matrix(self):
        population = Population(4)
        view = population.counters_view(2)
        view.add(updates_sent=3, junk_received=1)
        view.updates_received = 7
        assert population.counters[2].tolist() == [3, 7, 0, 1, 0, 0, 0, 0]
        assert view.updates_sent == 3
        assert population.counters[1].tolist() == [0] * N_COUNTER_COLS

    def test_record_helpers_match_dataclass(self):
        population = Population(1)
        view = population.counters_view(0)
        plain = ServiceCounters()
        for counters in (view, plain):
            counters.record_exchange(sent=3, received=2)
            counters.record_nonempty_exchange(sent=1, received=0)
            counters.add(pushes_initiated=2, junk_sent=4)
        assert view == plain
        assert plain == view
        assert view.as_tuple() == plain.as_tuple()

    def test_views_with_different_tallies_differ(self):
        population = Population(2)
        a, b = population.counters_view(0), population.counters_view(1)
        a.add(updates_sent=1)
        assert a != b
        assert a != ServiceCounters()
        assert b == ServiceCounters()

    def test_unknown_field_rejected(self):
        population = Population(1)
        with pytest.raises(SimulationError):
            population.counters_view(0).add(bogus_field=1)
        with pytest.raises(SimulationError):
            ServiceCounters().add(bogus_field=1)

    def test_field_order_is_the_schema(self):
        population = Population(1)
        view = population.counters_view(0)
        for offset, name in enumerate(COUNTER_FIELDS):
            view.add(**{name: offset + 1})
        assert population.counters[0].tolist() == [
            offset + 1 for offset in range(len(COUNTER_FIELDS))
        ]


class TestOverflowGuards:
    """The int64 columns refuse to wrap, on every mutation path."""

    def test_add_overflow_raises(self):
        population = Population(1)
        view = population.counters_view(0)
        view.updates_sent = COUNTER_MAX - 1
        with pytest.raises(SimulationError):
            view.add(updates_sent=2)
        # The failed add must not have corrupted the column.
        assert view.updates_sent == COUNTER_MAX - 1
        view.add(updates_sent=1)  # exactly at the max is fine
        assert view.updates_sent == COUNTER_MAX

    def test_negative_delta_raises(self):
        population = Population(1)
        with pytest.raises(SimulationError):
            population.counters_view(0).add(updates_sent=-1)
        with pytest.raises(SimulationError):
            ServiceCounters().add(updates_sent=-1)

    def test_setter_guards(self):
        population = Population(1)
        view = population.counters_view(0)
        with pytest.raises(SimulationError):
            view.junk_sent = -5
        with pytest.raises(SimulationError):
            view.junk_sent = COUNTER_MAX + 1

    def test_dataclass_add_overflow_raises(self):
        counters = ServiceCounters(updates_sent=COUNTER_MAX)
        with pytest.raises(SimulationError):
            counters.add(updates_sent=1)


class TestGroupCodeVocabulary:
    def test_codes_match_metrics_order(self):
        """The population's group encoding and core.metrics'
        tally_group_codes reduction must agree code for code — the
        codes are derived from GROUP_CODE_ORDER, pinned here."""
        from repro.bargossip.node import GROUP_CODES, GROUPS_BY_CODE
        from repro.core.metrics import GROUP_CODE_ORDER

        assert tuple(group.value for group in GROUPS_BY_CODE) == GROUP_CODE_ORDER
        for group, code in GROUP_CODES.items():
            assert GROUP_CODE_ORDER[code] == group.value
        assert GROUP_CODES[TargetGroup.ATTACKER] == 0


class TestNodeViews:
    def test_bound_node_delegates_to_columns(self):
        population = Population(3)
        node = GossipNode(
            1,
            Behavior.OBEDIENT,
            TargetGroup.SATIATED,
            population=population,
            row=1,
        )
        assert population.satiated_mask.tolist() == [False, True, False]
        node.group = TargetGroup.ISOLATED
        assert not population.satiated_mask.any()
        assert node.group is TargetGroup.ISOLATED
        node.evicted = True
        assert population.evicted[1]
        node.counters.add(updates_sent=2)
        assert population.counters[1, 0] == 2
        assert isinstance(node.counters, CounterColumnView)

    def test_standalone_node_keeps_local_state(self):
        node = GossipNode(0, Behavior.RATIONAL, TargetGroup.ISOLATED)
        node.evicted = True
        node.group = TargetGroup.SATIATED
        node.counters.add(updates_sent=1)
        assert node.evicted and node.group is TargetGroup.SATIATED
        assert isinstance(node.counters, ServiceCounters)

    def test_attacker_flag_tracks_group(self):
        node = GossipNode(0, Behavior.BYZANTINE, TargetGroup.ATTACKER)
        assert node.is_attacker and not node.is_correct
        population = Population(1)
        bound = GossipNode(
            0, Behavior.BYZANTINE, TargetGroup.ATTACKER,
            population=population, row=0,
        )
        assert bound.is_attacker
        assert population.byzantine_mask.tolist() == [True]
        assert population.correct_mask.tolist() == [False]


class TestSparseDeltas:
    def test_roundtrip_through_add(self):
        target = Population(4)
        target.counters_view(3).add(exchanges_initiated=1)
        deltas = np.zeros((2, N_COUNTER_COLS), dtype=np.int16)
        deltas[0, 0] = 2
        deltas[1, 4] = 5
        target.add_counter_deltas(np.array([0, 3], dtype=np.int32), deltas)
        assert target.counters[0].tolist() == [2, 0, 0, 0, 0, 0, 0, 0]
        assert int(target.counters[3, 4]) == 6

    def test_empty_rows_fold_nothing(self):
        target = Population(2)
        target.add_counter_deltas(
            np.zeros(0, dtype=np.int32), np.zeros((0, N_COUNTER_COLS))
        )
        assert not target.counters.any()
