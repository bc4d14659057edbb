"""The words engine's phase plan: peeled and split once, routed as per wave.

A words phase is peeled into dependency waves and each interaction is
tagged clean (two live correct nodes) or mixed (an attacker or evicted
member present) once, at phase start
(:meth:`~repro.bargossip.simulator.InteractionEngine._phase_waves`).
The reference is a split taken at each wave's own start, reading the
eviction column as earlier waves left it.  The two agree because
inside a phase only attacker rows are ever evicted, and every pair
holding an attacker is mixed already.

These tests run whole simulations with every phase checked: each wave
the engine runs must hold the interactions an independent peel puts in
that wave, routed clean or mixed exactly as a split taken at that
wave's start routes them, and no correct row's eviction flag may
change inside a phase.  Generated cases cover seeds, attack kinds,
attacker fractions, the reporting defense on and off, and correct
nodes evicted before the phase.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.partner import Purpose
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams


def _reference_waves(order, partners):
    """The phase's waves by the original plain peel, as ``(m, 2)`` rows."""
    pairs = [(int(a), int(partners[a])) for a in order]
    last = {}
    levels = []
    for a, b in pairs:
        if a == b:
            levels.append(-1)
            continue
        level = max(last.get(a, 0), last.get(b, 0))
        last[a] = last[b] = level + 1
        levels.append(level)
    return [
        np.array(
            [pair for pair, lv in zip(pairs, levels) if lv == level], dtype=np.intp
        ).reshape(-1, 2)
        for level in range(max(levels, default=-1) + 1)
    ]


class _PlanChecker:
    """Wraps one simulator's engine to check every words phase it runs."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.engine = engine = simulator._engine
        self.phases = 0
        self.waves = 0
        #: Attacker rows evicted between two waves of one phase.
        self.mid_phase_evictions = 0
        self._reference = None
        run_phase = engine.run_phase

        def run_exchanges(round_now, order, partners):
            self._reference = _reference_waves(order, partners)
            type(engine).run_exchanges(engine, round_now, order, partners)

        def run_pushes(round_now, order, partners):
            self._reference = _reference_waves(order, partners)
            type(engine).run_pushes(engine, round_now, order, partners)

        def checked_run_phase(round_now, waves, purpose, both_ways=False):
            assert not both_ways
            reference, self._reference = self._reference, None
            assert reference is not None
            run_phase(round_now, self._check(list(waves), reference), purpose)

        engine.run_exchanges = run_exchanges
        engine.run_pushes = run_pushes
        engine.run_phase = checked_run_phase

    def _split_now(self, rows):
        """The per-wave split: the route a split taken right now gives."""
        population = self.simulator.population
        special = population.byzantine_mask | population.evicted
        mixed = special[rows[:, 0]] | special[rows[:, 1]]
        return rows[~mixed], rows[mixed]

    def _check(self, waves, reference):
        population = self.simulator.population
        correct = population.correct_mask
        at_start = population.evicted.copy()
        assert len(waves) == len(reference)
        for k, ((clean, mixed), expected) in enumerate(zip(waves, reference)):
            # No correct row's flag moves inside a phase.
            assert np.array_equal(population.evicted[correct], at_start[correct])
            ref_clean, ref_mixed = self._split_now(expected)
            assert np.array_equal(clean, ref_clean)
            assert np.array_equal(mixed, ref_mixed)
            self.waves += 1
            before = population.evicted.copy()
            yield clean, mixed
            if k + 1 < len(waves):
                self.mid_phase_evictions += int(
                    np.count_nonzero(population.evicted & ~before)
                )
        assert np.array_equal(population.evicted[correct], at_start[correct])
        self.phases += 1


def _checked_run(config, kind, fraction, seed, rounds, evict_share=0.0, **kwargs):
    coalition = AttackerCoalition.build(
        kind,
        n_nodes=config.n_nodes,
        attacker_fraction=fraction,
        rng=RngStreams(seed).get("coalition"),
    )
    simulator = GossipSimulator(
        config, attack=coalition, seed=seed,
        execution=ExecutionConfig(backend="words"), **kwargs,
    )
    checker = _PlanChecker(simulator)
    rng = np.random.default_rng(seed)
    for round_now in range(rounds):
        if round_now == rounds // 3 and evict_share:
            # Correct nodes evicted before a phase (no protocol path
            # does this): their pairs must route mixed from the start.
            correct = np.flatnonzero(simulator.population.correct_mask)
            picked = rng.random(len(correct)) < evict_share
            simulator.population.evicted[correct[picked]] = True
        simulator.step()
    assert checker.phases == 2 * rounds
    return checker


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    config = GossipConfig.small().replace(
        n_nodes=n,
        copies_seeded=min(5, n),
        obedient_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        push_size=draw(st.sampled_from([1, 2])),
    )
    kind = draw(st.sampled_from([AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]))
    fraction = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    kwargs = {}
    reports = draw(st.sampled_from([None, 1, 2]))
    if reports is not None:
        kwargs["reporting"] = ReportingPolicy(
            excess_threshold=1, reports_to_evict=reports
        )
    evict_share = draw(st.sampled_from([0.0, 0.1, 0.4]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return config, kind, fraction, seed, evict_share, kwargs


class TestPlanRouting:
    @settings(max_examples=40, deadline=None)
    @given(case=_cases())
    def test_generated(self, case):
        config, kind, fraction, seed, evict_share, kwargs = case
        _checked_run(config, kind, fraction, seed, 10, evict_share, **kwargs)

    def test_mid_phase_evictions_are_checked(self):
        """Attackers evicted between waves of one phase: the case the
        once-per-phase split must get right."""
        config = GossipConfig.small().replace(obedient_fraction=1.0)
        checker = _checked_run(
            config, AttackKind.TRADE, 0.6, 5, 20,
            reporting=ReportingPolicy(excess_threshold=1, reports_to_evict=1),
        )
        assert checker.mid_phase_evictions >= 2
        assert checker.waves > checker.phases

    def test_correct_nodes_evicted_before_the_phase(self):
        config = GossipConfig.small()
        checker = _checked_run(config, AttackKind.TRADE, 0.1, 2, 9, evict_share=0.5)
        assert checker.simulator.population.evicted.any()


class TestCellWaveSplit:
    """The cell pairing's one wave takes the same split, at phase start."""

    def test_split_matches_split_at_wave_start(self):
        config = GossipConfig.small().replace(obedient_fraction=1.0)
        coalition = AttackerCoalition.build(
            AttackKind.TRADE, n_nodes=config.n_nodes, attacker_fraction=0.3,
            rng=RngStreams(4).get("coalition"),
        )
        simulator = GossipSimulator(
            config, attack=coalition, seed=4,
            execution=ExecutionConfig(backend="words", shards=1),
            reporting=ReportingPolicy(excess_threshold=1, reports_to_evict=1),
        )
        engine = simulator._engine
        run_phase = engine.run_phase
        seen = []

        def checked_run_phase(round_now, waves, purpose, both_ways=False):
            assert both_ways
            (clean, mixed), = waves
            population = simulator.population
            special = population.byzantine_mask | population.evicted
            rows = np.concatenate((clean, mixed))
            tagged = special[rows[:, 0]] | special[rows[:, 1]]
            assert not tagged[: len(clean)].any() and tagged[len(clean):].all()
            seen.append(purpose)
            run_phase(round_now, [(clean, mixed)], purpose, both_ways)

        engine.run_phase = checked_run_phase
        for _ in range(8):
            simulator.step()
        assert seen == [Purpose.EXCHANGE, Purpose.PUSH] * 8
