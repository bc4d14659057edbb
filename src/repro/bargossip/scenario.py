"""The Scenario API: what to simulate, separated from how to run it.

Three orthogonal concerns used to share :class:`~repro.bargossip.
config.GossipConfig`: the protocol parameters (Table 1), the execution
strategy (store backend, partner model, sweep workers), and the
network scenario (latency, loss, churn).  This module splits them:

* :class:`ExecutionConfig` — *how* to run: backend and jobs, plus
  ``shards``, which picks the partner model (0 = the paper's uniform
  draws, 1 = the 4-node-cell pairing) and therefore *does* change
  results.  Sweep tasks fingerprint that choice as
  ``pairing``; every other field is results-free (pinned by the parity
  suites), so switching backends serves cached cells.
* :class:`Scenario` — *what* to simulate: the protocol
  :class:`GossipConfig`, the :class:`~repro.bargossip.network.
  NetworkModel`, the schedule mode, and the attack.
* :func:`run_experiment` — the single entry point behind every figure
  point, sweep cell and CLI invocation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.errors import ConfigurationError
from ..core.rng import RngStreams
from .attacker import DEFAULT_SATIATE_FRACTION, AttackKind, AttackerCoalition
from .config import GossipConfig
from .defenses import ReportingPolicy
from .network import NetworkModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import GossipExperimentResult

__all__ = ["ExecutionConfig", "Scenario", "run_experiment"]

#: Schedule modes: the paper's synchronous rounds, or the virtual-time
#: event engine of :mod:`repro.bargossip.events`.
SCHEDULES = ("rounds", "event")


@dataclass(frozen=True)
class ExecutionConfig:
    """How a simulation executes, plus the partner-model switch.

    ``backend`` and ``jobs`` never change results: every combination
    produces bit-identical traces for the same seed (pinned by the
    backend- and schedule-parity suites).  ``shards`` is the exception:
    it picks the partner model, 0 for the paper's uniform draws and 1
    for the 4-node-cell pairing, and the two give different traces.  :meth:`cache_fingerprint` stays empty
    because :class:`~repro.harness.tasks.GossipSweepTask` fingerprints
    that choice itself, as ``pairing``.
    """

    #: Update-store implementation.  ``"words"`` (the default) packs
    #: the population's live-update state into fixed-width 64-bit word
    #: arrays and runs every rounds-schedule phase as batched numpy
    #: sweeps over node-disjoint waves: dependency waves on the paper's
    #: uniform partner schedule, one wave run both ways on the cell
    #: pairing.  ``"sets"``
    #: keeps per-node Python sets: the reference oracle every parity
    #: suite compares against.
    backend: str = "words"
    #: The partner model: 0 runs the paper's uniform partner draws
    #: (:class:`~repro.bargossip.partner.PartnerSchedule`), 1 the
    #: 4-node-cell pairing (:class:`~repro.bargossip.sharding.
    #: ShardedPartnerSchedule`).  Changes results; fingerprinted by
    #: sweep tasks as ``pairing``.
    shards: int = 0
    #: Worker processes for sweep fan-out (dispatch only; 0 = serial).
    jobs: int = 1

    def replace(self, **changes: Any) -> "ExecutionConfig":
        """A copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExecutionConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown ExecutionConfig keys: {unknown} "
                f"(known: {sorted(known)})"
            )
        return cls(**payload)

    def cache_fingerprint(self) -> Dict[str, Any]:
        """Empty by design: the one results-bearing field, ``shards``,
        is fingerprinted by the sweep task as ``pairing``."""
        return {}

    def __post_init__(self) -> None:
        if self.backend not in ("sets", "words"):
            raise ConfigurationError(
                f"backend must be 'sets' or 'words', got {self.backend!r}"
            )
        if self.shards not in (0, 1):
            raise ConfigurationError(
                "shards picks the partner model: 0 (the paper's uniform "
                f"draws) or 1 (the 4-node-cell pairing), got {self.shards}"
            )
        if self.jobs < 0:
            raise ConfigurationError(
                f"jobs must be >= 0 (0 = serial), got {self.jobs}"
            )


@dataclass(frozen=True)
class Scenario:
    """One complete experiment description (immutable, picklable).

    Everything that decides *results*: the protocol configuration, the
    network model, the schedule mode and the attack.  Execution
    strategy deliberately lives elsewhere (:class:`ExecutionConfig`).
    """

    #: Protocol and population parameters (Table 1 by default).
    config: GossipConfig = field(default_factory=GossipConfig.paper)
    #: The network between the nodes; the ideal model is the paper's
    #: synchronous world.
    network: NetworkModel = field(default_factory=NetworkModel.ideal)
    #: ``"rounds"`` (classic synchronous schedule) or ``"event"``
    #: (virtual-time event engine).  A non-ideal network requires the
    #: event schedule — synchronous rounds cannot express latency.
    schedule: str = "rounds"
    #: The attack mounted against the system.
    kind: AttackKind = AttackKind.NONE
    #: Fraction of the population the attacker controls.
    attacker_fraction: float = 0.0
    #: Fraction of the whole system, coalition included, that ends up
    #: satiated: the coalition plus ``round(f * n_nodes) - attackers``
    #: correct targets (see ``AttackerCoalition.build``).
    satiate_fraction: float = DEFAULT_SATIATE_FRACTION
    #: Rounds to simulate.
    rounds: int = 50
    #: Re-draw the satiated target set every this many rounds (the
    #: rotating attack variant); None keeps targets fixed.
    rotate_targets_every: Optional[int] = None
    #: The Section 4 reporting defense, when enabled.
    reporting: Optional[ReportingPolicy] = None

    def replace(self, **changes: Any) -> "Scenario":
        """A copy of this scenario with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON representation (canonical cache/spec form)."""
        return {
            "config": self.config.to_dict(),
            "network": self.network.to_dict(),
            "schedule": self.schedule,
            "kind": self.kind.value,
            "attacker_fraction": self.attacker_fraction,
            "satiate_fraction": self.satiate_fraction,
            "rounds": self.rounds,
            "rotate_targets_every": self.rotate_targets_every,
            "reporting": (
                dataclasses.asdict(self.reporting)
                if self.reporting is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown Scenario keys: {unknown} (known: {sorted(known)})"
            )
        payload = dict(payload)
        if "config" in payload:
            payload["config"] = GossipConfig.from_dict(payload["config"])
        if "network" in payload:
            payload["network"] = NetworkModel.from_dict(payload["network"])
        if "kind" in payload:
            payload["kind"] = AttackKind(payload["kind"])
        if payload.get("reporting") is not None:
            payload["reporting"] = ReportingPolicy(**payload["reporting"])
        return cls(**payload)

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ConfigurationError(
                f"schedule must be one of {SCHEDULES}, got {self.schedule!r}"
            )
        if self.schedule == "rounds" and not self.network.is_ideal:
            raise ConfigurationError(
                "a non-ideal NetworkModel (latency/loss/churn) requires "
                "schedule='event'; the synchronous rounds schedule cannot "
                "express it"
            )
        if not 0.0 <= self.attacker_fraction < 1.0:
            raise ConfigurationError(
                f"attacker_fraction must be in [0, 1), got {self.attacker_fraction}"
            )
        if not 0.0 < self.satiate_fraction <= 1.0:
            raise ConfigurationError(
                f"satiate_fraction must be in (0, 1], got {self.satiate_fraction}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.rotate_targets_every is not None and self.rotate_targets_every < 1:
            raise ConfigurationError(
                "rotate_targets_every must be >= 1 or None, got "
                f"{self.rotate_targets_every}"
            )


def run_experiment(
    scenario: Scenario,
    execution: Optional[ExecutionConfig] = None,
    seed: int = 0,
) -> "GossipExperimentResult":
    """Run one scenario and summarize it — the single experiment entry point.

    Behind every point of Figures 1-3 and every sweep cell: build a
    coalition of ``scenario.kind`` at ``scenario.attacker_fraction``,
    simulate ``scenario.rounds`` rounds under ``scenario.network`` on
    ``scenario.schedule``, and report the per-group delivery fractions
    over the measured window (plus the virtual-time delivery metrics
    on the event schedule).  ``execution`` decides how the run executes
    and, through ``shards``, which partner model it runs.
    """
    from .simulator import GossipExperimentResult, GossipSimulator

    execution = execution if execution is not None else ExecutionConfig()
    streams = RngStreams(seed)
    coalition = AttackerCoalition.build(
        scenario.kind,
        n_nodes=scenario.config.n_nodes,
        attacker_fraction=scenario.attacker_fraction,
        rng=streams.get("coalition"),
        satiate_fraction=scenario.satiate_fraction,
    )
    simulator = GossipSimulator(
        scenario.config,
        attack=coalition,
        seed=seed,
        reporting=scenario.reporting,
        rotate_targets_every=scenario.rotate_targets_every,
        execution=execution,
        network=scenario.network,
        schedule=scenario.schedule,
    )
    pool_samples: List[float] = []
    for _ in range(scenario.rounds):
        simulator.step()
        live = simulator.ledger.live_count
        if coalition.active and live:
            pool_samples.append(len(coalition.pool) / live)
    pool_coverage = (
        sum(pool_samples) / len(pool_samples) if pool_samples else None
    )
    population = simulator.population
    evicted = int((population.evicted & ~population.correct_mask).sum())
    delivery_times = simulator.delivery_time_summary()
    network_stats = (
        simulator.network_stats.as_dict()
        if simulator.network_stats is not None
        else None
    )
    return GossipExperimentResult(
        attack=scenario.kind,
        attacker_fraction=scenario.attacker_fraction,
        isolated_fraction=simulator.delivery_fraction("isolated"),
        satiated_fraction=simulator.delivery_fraction("satiated"),
        correct_fraction=simulator.delivery_fraction("correct"),
        pool_coverage=pool_coverage,
        group_sizes=simulator.group_sizes(),
        evicted_attackers=evicted,
        schedule=scenario.schedule,
        virtual_time=(
            scenario.rounds * scenario.network.round_duration
            if scenario.schedule == "event"
            else None
        ),
        time_to_90_delivery=(
            delivery_times["mean_time_to_threshold"]
            if delivery_times is not None
            else None
        ),
        delivery_reached_fraction=(
            delivery_times["reached_fraction"]
            if delivery_times is not None
            else None
        ),
        network_stats=network_stats,
    )
