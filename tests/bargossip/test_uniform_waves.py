"""The uniform partner schedule on the words backend, run as dependency waves.

On the rounds schedule the words engine cuts each exchange/push phase
into node-disjoint dependency waves
(:func:`~repro.bargossip.partner.dependency_plan`; its wave list is
:func:`~repro.bargossip.partner.dependency_waves`) and runs each wave
through the batched word sweeps.  Two layers of properties pin it:

* **The peel** against its brute-force definition: waves are
  node-disjoint, every earlier interaction sharing a node sits in an
  earlier wave (and each interaction in the earliest such wave),
  schedule order holds within a wave, and the waves concatenate to a
  permutation of the non-self entries.  With per-interaction flags the
  same plan splits each wave into its unflagged and flagged parts.
* **Whole runs**: the wave path equals the per-pair ``sets`` oracle on
  generated scenarios (populations of 2 to 200 nodes, every attack,
  mid-phase evictions, rotating targets, capped pushes and exchanges),
  ``run_experiment`` gives the same result on both backends, and the
  event schedule (per-pair on every backend) replays the wave path.
* **Protocol invariants** on generated scenarios, for both partner
  models and the event schedule under the ideal network: each correct
  node's delivered + missed equals the updates released over the
  measured window, every counter is non-negative, and no node holds an
  update it is also missing.
* **The cache-key contract**: over generated ``(Scenario,
  ExecutionConfig)`` pairs, equal ``GossipSweepTask.cache_fingerprint()``
  means equal ``task(x, seed)``.  The execution side is enumerable:
  ``backend`` x ``shards``.

CI runs the event comparison per backend: set ``LOTUS_BACKEND`` to a
comma list (e.g. ``LOTUS_BACKEND=sets``) to restrict the event-side
backends.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.partner import (
    PartnerSchedule,
    Purpose,
    dependency_plan,
    dependency_waves,
)
from repro.bargossip.scenario import ExecutionConfig, Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams
from repro.harness.tasks import GossipSweepTask

from .test_word_parity import _snapshot

#: Event-side backends of the event-vs-waves comparison.
BACKENDS = tuple(
    backend
    for backend in os.environ.get("LOTUS_BACKEND", "sets,words").split(",")
    if backend.strip()
)


# ---------------------------------------------------------------------------
# The peel
# ---------------------------------------------------------------------------


def _brute_force_levels(pairs):
    """Wave of each non-self interaction by definition, None for self entries.

    An interaction's wave is one past the latest wave of any earlier
    interaction sharing a node with it (0 when there is none).
    """
    levels = []
    for k, (a, b) in enumerate(pairs):
        if a == b:
            levels.append(None)
            continue
        earlier = [
            levels[j]
            for j in range(k)
            if levels[j] is not None and {a, b} & set(pairs[j])
        ]
        levels.append(max(earlier) + 1 if earlier else 0)
    return levels


def _assert_peel_invariants(pairs):
    initiators = [a for a, _ in pairs]
    partners = [b for _, b in pairs]
    waves = dependency_waves(initiators, partners)
    wave_of = {}
    for level, wave in enumerate(waves):
        assert len(wave), "no empty waves"
        # Schedule order within a wave.
        assert np.all(np.diff(wave) > 0)
        nodes = [node for k in wave.tolist() for node in pairs[k]]
        assert len(set(nodes)) == len(nodes), "a wave's interactions share a node"
        for k in wave.tolist():
            wave_of[k] = level
    # The waves concatenate to a permutation of the non-self entries.
    flat = sorted(np.concatenate(waves).tolist()) if waves else []
    assert flat == [k for k, (a, b) in enumerate(pairs) if a != b]
    # Every earlier conflicting interaction sits in an earlier wave, and
    # each interaction in the earliest wave that allows.
    levels = _brute_force_levels(pairs)
    for k, level in enumerate(levels):
        assert wave_of.get(k) == level
    return waves


@st.composite
def _interaction_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    return draw(st.lists(st.tuples(node, node), max_size=40))


class TestPeel:
    @settings(max_examples=300, deadline=None)
    @given(pairs=_interaction_lists())
    def test_invariants_against_brute_force(self, pairs):
        _assert_peel_invariants(pairs)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_uniform_schedule_rounds(self, n, seed):
        """The peel on the partner schedule's own (order, partners) draws."""
        schedule = PartnerSchedule(n, np.random.default_rng(seed))
        order = np.random.default_rng(seed + 1).permutation(n)
        for purpose in (Purpose.EXCHANGE, Purpose.PUSH):
            partners = schedule.partners_for_round(0, purpose)
            pairs = [(int(i), int(partners[i])) for i in order]
            _assert_peel_invariants(pairs)

    @settings(max_examples=200, deadline=None)
    @given(pairs=_interaction_lists(), data=st.data())
    def test_flagged_plan_splits_each_wave(self, pairs, data):
        """``dependency_plan`` with flags: each wave (the same level pass
        the engine runs) is its unflagged then its flagged interactions,
        each part in schedule order."""
        flags = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))),
            dtype=bool,
        )
        waves = _assert_peel_invariants(pairs)
        order, bounds = dependency_plan(
            [a for a, _ in pairs], [b for _, b in pairs], flags
        )
        assert len(bounds) == 2 * len(waves) + 1
        for level, wave in enumerate(waves):
            lo, mid, hi = bounds[2 * level : 2 * level + 3]
            assert order[lo:mid].tolist() == wave[~flags[wave]].tolist()
            assert order[mid:hi].tolist() == wave[flags[wave]].tolist()

    def test_empty_and_all_self(self):
        assert dependency_waves([], []) == []
        assert dependency_waves([3, 1], [3, 1]) == []

    def test_single_self_entry(self):
        """Shrunk failure: an all-self list once peeled to one empty wave."""
        assert dependency_waves([0], [0]) == []

    def test_mutual_partners_split(self):
        """``a -> b`` then ``b -> a``: the second waits for the first."""
        waves = dependency_waves([0, 1, 2], [1, 0, 3])
        assert [wave.tolist() for wave in waves] == [[0, 2], [1]]


# ---------------------------------------------------------------------------
# Whole runs: waves vs the per-pair oracle
# ---------------------------------------------------------------------------


def _run(config, kind, execution, seed, rounds, attacker_fraction,
         schedule="rounds", chunk_pairs=None, **sim_kwargs):
    streams = RngStreams(seed)
    coalition = AttackerCoalition.build(
        kind,
        n_nodes=config.n_nodes,
        attacker_fraction=attacker_fraction,
        rng=streams.get("coalition"),
    )
    simulator = GossipSimulator(
        config, attack=coalition, seed=seed, execution=execution,
        schedule=schedule, **sim_kwargs,
    )
    if chunk_pairs is not None:
        simulator._engine.chunk_pairs = chunk_pairs
    for _ in range(rounds):
        simulator.step()
    return simulator


@st.composite
def _cases(draw):
    """One rounds-schedule scenario: (config, kind, fraction, seed, kwargs)."""
    n = draw(st.integers(min_value=2, max_value=200))
    config = GossipConfig.small().replace(
        n_nodes=n,
        copies_seeded=min(5, n),
        push_size=draw(st.sampled_from([1, 2])),
        exchange_cap=draw(st.sampled_from([1, 6])),
        unbalanced_exchange=draw(st.booleans()),
        exchange_prefer_newest=draw(st.booleans()),
        obedient_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        accept_cap=draw(st.sampled_from([None, 2])),
    )
    kind = draw(st.sampled_from([AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]))
    fraction = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    kwargs = {}
    reports = draw(st.sampled_from([None, 1, 2]))
    if reports is not None:
        kwargs["reporting"] = ReportingPolicy(
            excess_threshold=1, reports_to_evict=reports
        )
    rotate = draw(st.sampled_from([None, 1, 3]))
    if rotate is not None:
        kwargs["rotate_targets_every"] = rotate
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return config, kind, fraction, seed, kwargs


def _assert_waves_match_oracle(config, kind, fraction, seed, kwargs, rounds=12):
    reference = _snapshot(
        _run(config, kind, ExecutionConfig(backend="sets"), seed, rounds,
             fraction, **kwargs)
    )
    waves = _snapshot(
        _run(config, kind, ExecutionConfig(backend="words"), seed, rounds,
             fraction, **kwargs)
    )
    assert waves == reference


class TestWavesMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_generated(self, case):
        _assert_waves_match_oracle(*case)

    # Named regressions: the edges the generated cases must keep covering.

    def test_two_nodes(self):
        """Every interaction conflicts: one interaction per wave."""
        config = GossipConfig.small().replace(n_nodes=2, copies_seeded=2)
        _assert_waves_match_oracle(config, AttackKind.TRADE, 0.0, 3, {})

    def test_population_not_divisible_by_four(self):
        config = GossipConfig.small().replace(n_nodes=37)
        _assert_waves_match_oracle(config, AttackKind.TRADE, 0.3, 11, {})

    def test_mid_phase_evictions(self):
        """Single-report evictions land between waves of one phase."""
        config = GossipConfig.small().replace(obedient_fraction=1.0)
        _assert_waves_match_oracle(
            config, AttackKind.TRADE, 0.6, 5,
            {"reporting": ReportingPolicy(excess_threshold=1, reports_to_evict=1)},
            rounds=20,
        )

    def test_two_report_evictions_with_rotation(self):
        config = GossipConfig.small().replace(
            obedient_fraction=0.5, push_size=1, exchange_cap=1
        )
        _assert_waves_match_oracle(
            config, AttackKind.TRADE, 0.3, 9,
            {
                "reporting": ReportingPolicy(excess_threshold=1, reports_to_evict=2),
                "rotate_targets_every": 1,
            },
            rounds=20,
        )

    @pytest.mark.parametrize("chunk", [0, 1, 7, 64])
    def test_chunked_waves(self, chunk):
        """Cache blocks cut inside a wave are still node-disjoint."""
        config = GossipConfig.paper()
        reference = _snapshot(
            _run(config, AttackKind.TRADE, ExecutionConfig(backend="sets"), 7, 12, 0.2)
        )
        chunked = _snapshot(
            _run(config, AttackKind.TRADE, ExecutionConfig(backend="words"),
                 7, 12, 0.2, chunk_pairs=chunk)
        )
        assert chunked == reference

    def test_mid_phase_evictions_actually_evict(self):
        config = GossipConfig.small().replace(obedient_fraction=1.0)
        simulator = _run(
            config, AttackKind.TRADE, ExecutionConfig(backend="words"), 5, 20, 0.6,
            reporting=ReportingPolicy(excess_threshold=1, reports_to_evict=1),
        )
        assert sum(node.evicted for node in simulator.nodes) >= 2
        simulator.close()


class TestRunExperimentDefault:
    """The default backend (words) gives the oracle's result."""

    @pytest.mark.parametrize(
        "kind", [AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_default_equals_sets(self, kind, fraction):
        scenario = Scenario(
            config=GossipConfig.small(), kind=kind, attacker_fraction=fraction,
            rounds=25,
        )
        assert ExecutionConfig().backend == "words"
        assert run_experiment(scenario, seed=5) == run_experiment(
            scenario, execution=ExecutionConfig(backend="sets"), seed=5
        )


class TestEventReplaysWaves:
    """Ideal-network event schedule (per-pair) == rounds on the wave path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=15, deadline=None)
    @given(case=_cases())
    def test_generated(self, backend, case):
        config, kind, fraction, seed, kwargs = case
        waves = _snapshot(
            _run(config, kind, ExecutionConfig(backend="words"), seed, 12,
                 fraction, **kwargs)
        )
        event = _snapshot(
            _run(config, kind, ExecutionConfig(backend=backend), seed, 12,
                 fraction, schedule="event", **kwargs)
        )
        assert event == waves


# ---------------------------------------------------------------------------
# Protocol invariants
# ---------------------------------------------------------------------------

#: (schedule, shards) of every run the invariants cover under the ideal
#: network: the paper's uniform draws and the cell pairing on rounds,
#: and the event schedule (uniform draws only).
_SCHEDULES = (("rounds", 0), ("rounds", 1), ("event", 0))


def _assert_protocol_invariants(simulator, rounds):
    config = simulator.config
    # Updates released in round r expire at the end of round
    # r + lifetime - 1; those created at or after measure_from_round are
    # scored for every correct node, as delivered or as missed.
    last_expired = rounds - config.update_lifetime
    measured_rounds = max(0, last_expired - simulator.measure_from_round + 1)
    released = config.updates_per_round * measured_rounds
    delivered = simulator.per_node_delivered
    missed = simulator.per_node_missed
    for node in simulator.nodes:
        if node.is_correct:
            assert delivered[node.node_id] + missed[node.node_id] == released
        assert not (node.store.have & node.store.missing)
    assert (simulator.population.counters >= 0).all()


class TestProtocolInvariants:
    @pytest.mark.parametrize("schedule,shards", _SCHEDULES)
    @pytest.mark.parametrize("backend", ["sets", "words"])
    @settings(max_examples=15, deadline=None)
    @given(case=_cases())
    def test_generated(self, schedule, shards, backend, case):
        config, kind, fraction, seed, kwargs = case
        rounds = 2 * config.update_lifetime + 3
        simulator = _run(
            config, kind, ExecutionConfig(backend=backend, shards=shards),
            seed, rounds, fraction, schedule=schedule, **kwargs,
        )
        _assert_protocol_invariants(simulator, rounds)

    def test_measured_window_is_not_empty(self):
        """The invariant compares against a positive release count."""
        config = GossipConfig.small()
        rounds = 2 * config.update_lifetime + 3
        simulator = _run(
            config, AttackKind.TRADE, ExecutionConfig(), 1, rounds, 0.3
        )
        assert sum(simulator.per_node_delivered) > 0
        _assert_protocol_invariants(simulator, rounds)


# ---------------------------------------------------------------------------
# The cache-key contract
# ---------------------------------------------------------------------------

#: The whole execution side: backend x partner model.
_EXECUTIONS = st.builds(
    ExecutionConfig,
    backend=st.sampled_from(["sets", "words"]),
    shards=st.sampled_from([0, 1]),
)

#: Sweep tasks per example.  Two partner models times two scenario
#: variants make four fingerprint classes at most, so five tasks always
#: put two in one class: no example passes vacuously.
_TASKS_PER_EXAMPLE = 5


class TestCacheKeyContract:
    @settings(max_examples=25, deadline=None)
    @given(
        case=_cases(),
        variants=st.lists(
            st.tuples(st.booleans(), _EXECUTIONS),
            min_size=_TASKS_PER_EXAMPLE,
            max_size=_TASKS_PER_EXAMPLE,
        ),
        metric=st.sampled_from(
            ["isolated_fraction", "correct_fraction", "pool_coverage"]
        ),
    )
    def test_equal_fingerprints_mean_equal_results(self, case, variants, metric):
        config, kind, fraction, seed, kwargs = case
        base = Scenario(config=config, kind=kind, rounds=12, **kwargs)
        classes = {}
        for longer, execution in variants:
            scenario = base.replace(rounds=13) if longer else base
            task = GossipSweepTask(scenario, execution, metric)
            key = repr(sorted(task.cache_fingerprint().items()))
            classes.setdefault(key, []).append(task)
        assert any(len(tasks) > 1 for tasks in classes.values())
        for tasks in classes.values():
            results = {repr(task(fraction, seed)) for task in tasks}
            assert len(results) == 1, [task.execution for task in tasks]

    @pytest.mark.parametrize(
        "other",
        [
            ExecutionConfig(backend="words"),
            ExecutionConfig(backend="words", jobs=2),
        ],
        ids=["words", "words-jobs"],
    )
    @pytest.mark.parametrize("shards", [0, 1])
    def test_results_blind_fields_share_a_key(self, shards, other):
        """Named examples: only ``shards`` may split a key, and fields
        that share one give the ``sets`` oracle's result."""
        scenario = Scenario(
            config=GossipConfig.small(), kind=AttackKind.TRADE, rounds=25
        )
        oracle = GossipSweepTask(scenario, ExecutionConfig(backend="sets", shards=shards))
        task = GossipSweepTask(scenario, other.replace(shards=shards))
        assert task.cache_fingerprint() == oracle.cache_fingerprint()
        assert task(0.3, 5) == oracle(0.3, 5)

    def test_partner_models_fingerprint_apart(self):
        """``shards`` is the one results-bearing execution field."""
        scenario = Scenario(
            config=GossipConfig.small(), kind=AttackKind.TRADE, rounds=25
        )
        uniform = GossipSweepTask(scenario, ExecutionConfig(shards=0))
        cells = GossipSweepTask(scenario, ExecutionConfig(shards=1))
        assert uniform.cache_fingerprint() != cells.cache_fingerprint()
        assert uniform.cache_fingerprint()["pairing"] == "uniform"
        assert cells.cache_fingerprint()["pairing"] == "cells"
        assert uniform(0.3, 5) != cells(0.3, 5)
