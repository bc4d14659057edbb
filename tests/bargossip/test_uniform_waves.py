"""The uniform partner schedule on the words backend, run as dependency waves.

On the rounds schedule the words engine cuts each exchange/push phase
into node-disjoint dependency waves
(:func:`~repro.bargossip.partner.dependency_waves`) and runs each wave
through the batched word sweeps.  Two layers of properties pin it:

* **The peel** against its brute-force definition: waves are
  node-disjoint, every earlier interaction sharing a node sits in an
  earlier wave (and each interaction in the earliest such wave),
  schedule order holds within a wave, and the waves concatenate to a
  permutation of the non-self entries.
* **Whole runs**: the wave path equals the per-pair ``sets`` oracle on
  generated scenarios (populations of 2 to 200 nodes, every attack,
  mid-phase evictions, rotating targets, capped pushes and exchanges,
  both memory placements), ``run_experiment`` gives the same result on
  both backends, and the event schedule (per-pair on every backend)
  replays the wave path.

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
from repro.bargossip.partner import PartnerSchedule, Purpose, dependency_waves
from repro.bargossip.scenario import ExecutionConfig, Scenario, run_experiment
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams

from .test_word_parity import MEMORY_MODES, _snapshot

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
         schedule="rounds", **sim_kwargs):
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
    for memory in MEMORY_MODES:
        waves = _snapshot(
            _run(config, kind, ExecutionConfig(backend="words", memory=memory),
                 seed, rounds, fraction, **kwargs)
        )
        assert waves == reference, f"memory={memory}"


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

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunked_waves(self, chunk):
        """Cache blocks cut inside a wave are still node-disjoint."""
        config = GossipConfig.paper()
        reference = _snapshot(
            _run(config, AttackKind.TRADE, ExecutionConfig(backend="sets"), 7, 12, 0.2)
        )
        chunked = _snapshot(
            _run(config, AttackKind.TRADE,
                 ExecutionConfig(backend="words", phase_chunk_pairs=chunk),
                 7, 12, 0.2)
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
