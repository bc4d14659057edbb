"""Unit tests for the columnar population state.

The end-to-end guarantees (bit-exact parity across backends and
partner models with the columnar counters in place) live in the parity
suites; this module pins the pieces: the counters matrix and its
views, the code columns behind ``group``/``behavior``/``evicted``, the
overflow guards, the sparse counter deltas the batched sweeps fold
in, and the column-first construction: role columns equal to the
per-node loop they replace, no node view built on the words path, and
the on-demand ``simulator.nodes`` sequence.
"""

import numpy as np
import pytest

from repro.bargossip.node import (
    BEHAVIOR_CODES,
    COUNTER_FIELDS,
    COUNTER_MAX,
    CounterColumnView,
    GROUP_CODES,
    GossipNode,
    ServiceCounters,
    TargetGroup,
)
from repro.bargossip.attacker import AttackerCoalition, AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.population import N_COUNTER_COLS, Population
from repro.bargossip.scenario import ExecutionConfig, Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.behaviors import Behavior
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.rng import RngStreams


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


class TestCounterLayout:
    """The counters are stored column-major behind an ``(n, 8)`` view.

    Every read the rest of the tree makes — the shape, the dtype, row
    views, reductions, the per-node :class:`CounterColumnView` and
    :meth:`Population.add_counter_deltas` — must see what a row-major
    ``(n, 8)`` int64 matrix given the same writes holds.
    """

    N = 7

    def _booked(self):
        """A population and a C-order reference given the same writes."""
        population = Population(self.N)
        reference = np.zeros((self.N, N_COUNTER_COLS), dtype=np.int64)
        rng = np.random.default_rng(5)
        for row in range(self.N):
            view = population.counters_view(row)
            for index, name in enumerate(COUNTER_FIELDS):
                amount = int(rng.integers(0, 50))
                view.add(**{name: amount})
                reference[row, index] += amount
        view = population.counters_view(3)
        view.junk_sent = 11
        reference[3, COUNTER_FIELDS.index("junk_sent")] = 11
        rows = np.array([5, 0, 2])
        deltas = rng.integers(0, 9, size=(3, N_COUNTER_COLS))
        population.add_counter_deltas(rows, deltas)
        reference[rows] += deltas
        # The batched sweeps' booking: one column at a time.
        population.counters[:, 4][rows] += np.array([1, 2, 3])
        reference[rows, 4] += np.array([1, 2, 3])
        return population, reference

    def test_shape_and_dtype(self):
        population = Population(self.N)
        assert population.counters.shape == (self.N, N_COUNTER_COLS)
        assert population.counters.dtype == np.int64
        assert population.memory_breakdown()["counter_bytes"] == (
            self.N * N_COUNTER_COLS * 8
        )

    def test_each_column_is_contiguous(self):
        counters = Population(self.N).counters
        for index in range(N_COUNTER_COLS):
            assert counters[:, index].flags.c_contiguous

    def test_reads_match_row_major_reference(self):
        population, reference = self._booked()
        counters = population.counters
        assert np.array_equal(counters, reference)
        assert np.ascontiguousarray(counters).tobytes() == reference.tobytes()
        for row in range(self.N):
            assert counters[row].tolist() == reference[row].tolist()
            assert population.counters_view(row).as_tuple() == tuple(
                reference[row].tolist()
            )
            assert population.counters_view(row) == ServiceCounters(
                **dict(zip(COUNTER_FIELDS, reference[row].tolist()))
            )
        assert counters.sum(axis=0).tolist() == reference.sum(axis=0).tolist()
        assert int(counters.sum()) == int(reference.sum())


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


def _set_role(population, row, behavior, group):
    population.behavior_codes[row] = BEHAVIOR_CODES[behavior]
    population.group_codes[row] = GROUP_CODES[group]


class TestNodeViews:
    def test_bound_node_delegates_to_columns(self):
        population = Population(3)
        for row in range(3):
            _set_role(population, row, Behavior.RATIONAL, TargetGroup.ISOLATED)
        _set_role(population, 1, Behavior.OBEDIENT, TargetGroup.SATIATED)
        node = GossipNode.view(population, 1)
        assert node.behavior is Behavior.OBEDIENT
        assert node.group is TargetGroup.SATIATED
        node.group = TargetGroup.ISOLATED
        assert not population.satiated_mask.any()
        assert node.group is TargetGroup.ISOLATED
        node.evicted = True
        assert population.evicted[1]
        node.counters.add(updates_sent=2)
        assert population.counters[1, 0] == 2
        assert isinstance(node.counters, CounterColumnView)

    def test_view_writes_no_column(self):
        population = Population(2)
        _set_role(population, 0, Behavior.RATIONAL, TargetGroup.SATIATED)
        before = [
            column.copy()
            for column in (
                population.group_codes,
                population.behavior_codes,
                population.evicted,
                population.counters,
            )
        ]
        GossipNode.view(population, 0)
        after = (
            population.group_codes,
            population.behavior_codes,
            population.evicted,
            population.counters,
        )
        for old, new in zip(before, after):
            assert np.array_equal(old, new)

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
        node.group = TargetGroup.ISOLATED
        assert node.is_correct
        population = Population(1)
        _set_role(population, 0, Behavior.BYZANTINE, TargetGroup.ATTACKER)
        bound = GossipNode.view(population, 0)
        assert bound.is_attacker is True
        assert population.byzantine_mask.tolist() == [True]
        assert population.correct_mask.tolist() == [False]
        # The flag reads the group column, not a copy taken at build.
        population.group_codes[0] = GROUP_CODES[TargetGroup.SATIATED]
        assert bound.is_correct and not bound.is_attacker


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


def _config(n_nodes, **fields):
    """The paper's protocol at ``n_nodes`` (seeding clipped to fit)."""
    return GossipConfig.paper().replace(
        n_nodes=n_nodes, copies_seeded=min(12, n_nodes), **fields
    )


def _reference_codes(config, attack, roles_rng):
    """The per-node role loop the simulator ran before roles were
    vectorized: one obedience draw per correct node, in id order."""
    groups, behaviors = [], []
    for node_id in range(config.n_nodes):
        if attack.controls(node_id):
            behavior, group = Behavior.BYZANTINE, TargetGroup.ATTACKER
        else:
            group = (
                TargetGroup.SATIATED
                if attack.is_satiated_target(node_id)
                else TargetGroup.ISOLATED
            )
            behavior = (
                Behavior.OBEDIENT
                if roles_rng.random() < config.obedient_fraction
                else Behavior.RATIONAL
            )
        groups.append(GROUP_CODES[group])
        behaviors.append(BEHAVIOR_CODES[behavior])
    return groups, behaviors


class TestColumnConstruction:
    @pytest.mark.parametrize("n_nodes", [5, 250, 2000])
    @pytest.mark.parametrize("obedient_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "kind",
        [AttackKind.NONE, AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE],
    )
    def test_roles_match_the_per_node_loop(self, kind, obedient_fraction, n_nodes):
        config = _config(n_nodes, obedient_fraction=obedient_fraction)
        for seed in range(5):
            attack = AttackerCoalition.build(
                kind, n_nodes, 0.2, RngStreams(seed).get("coalition")
            )
            simulator = GossipSimulator(config, attack=attack, seed=seed)
            roles_rng = RngStreams(seed).get("roles")
            groups, behaviors = _reference_codes(config, attack, roles_rng)
            population = simulator.population
            assert population.group_codes.tolist() == groups
            assert population.behavior_codes.tolist() == behaviors
            assert simulator._roles_rng.random() == roles_rng.random()

    def test_unknown_attack_node_rejected(self):
        attack = AttackerCoalition(AttackKind.TRADE, nodes=[1, 9], satiated_targets=[7])
        with pytest.raises(ConfigurationError, match=r"\[7, 9\]"):
            GossipSimulator(_config(5), attack=attack)


@pytest.fixture
def count_node_builds(monkeypatch):
    """Counts every node view the simulator builds."""
    built = []
    make_node = GossipSimulator._make_node

    def counting(self, node_id):
        built.append(node_id)
        return make_node(self, node_id)

    monkeypatch.setattr(GossipSimulator, "_make_node", counting)
    return built


class TestNoViewsOnTheWordsPath:
    """The words backend's round path and the post-run reductions read
    the columns only: no node view is ever built."""

    @pytest.mark.parametrize("shards", [0, 1])
    def test_build_and_step(self, count_node_builds, shards):
        config = _config(300, obedient_fraction=1.0)
        attack = AttackerCoalition.build(
            AttackKind.TRADE, 300, 0.2, RngStreams(3).get("coalition")
        )
        simulator = GossipSimulator(
            config,
            attack=attack,
            seed=3,
            reporting=ReportingPolicy(excess_threshold=1),
            rotate_targets_every=2,
            execution=ExecutionConfig(backend="words", shards=shards),
        )
        for _ in range(3):
            simulator.step()
        simulator.group_sizes()
        simulator.per_node_fractions()
        simulator.intermittently_unusable_fraction()
        assert simulator.population.evicted.any()  # the report path ran
        assert count_node_builds == []

    @pytest.mark.parametrize("shards", [0, 1])
    def test_run_experiment(self, count_node_builds, shards):
        scenario = Scenario(
            config=_config(200, obedient_fraction=1.0),
            kind=AttackKind.TRADE,
            attacker_fraction=0.2,
            rounds=25,
            reporting=ReportingPolicy(excess_threshold=1),
            rotate_targets_every=4,
        )
        result = run_experiment(
            scenario, ExecutionConfig(backend="words", shards=shards), seed=1
        )
        assert result.isolated_fraction is not None
        assert result.evicted_attackers > 0
        assert count_node_builds == []


class TestNodeSequence:
    def test_sequence_semantics(self, count_node_builds):
        simulator = GossipSimulator(
            _config(6),
            attack=AttackerCoalition(AttackKind.TRADE, nodes=[2], satiated_targets=[4]),
        )
        nodes = simulator.nodes
        assert len(nodes) == 6
        assert count_node_builds == []
        assert nodes[3] is nodes[3]
        assert nodes[-1] is nodes[5]
        assert nodes[np.int64(2)] is nodes[2]
        assert nodes[2].is_attacker and nodes[4].group is TargetGroup.SATIATED
        assert count_node_builds == [3, 5, 2, 4]
        for index in (6, -7):
            with pytest.raises(IndexError):
                nodes[index]
        with pytest.raises(TypeError):
            nodes[0] = nodes[1]
        iterated = list(nodes)
        assert [node.node_id for node in iterated] == list(range(6))
        assert all(view is nodes[i] for i, view in enumerate(iterated))
        assert list(nodes) == iterated
        assert sorted(count_node_builds) == list(range(6))

    def test_sets_views_keep_their_stores(self):
        simulator = GossipSimulator(
            _config(20),
            execution=ExecutionConfig(backend="sets"),
        )
        store = simulator.nodes[7].store
        simulator.step()
        assert simulator.nodes[7].store is store
        assert store.have or store.missing


class TestRowsAreIds:
    @pytest.mark.parametrize("pair, bad", [([0, 8], 8), ([-1, 3], -1)])
    def test_id_outside_the_population_raises(self, pair, bad):
        simulator = GossipSimulator(
            _config(8), execution=ExecutionConfig(backend="words", shards=1)
        )
        with pytest.raises(SimulationError, match=f"node id {bad} "):
            simulator._engine.run_exchanges_batched(0, np.array([pair]))
