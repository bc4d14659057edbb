"""Picklable sweep tasks for every model in the repository.

A *sweep task* is the unit the sweep harness fans out: a tiny, frozen,
picklable spec that maps ``(grid value, seed)`` to one scalar response.
The :class:`SweepTask` protocol pins down the contract —

* ``__call__(x, seed)`` runs one experiment cell and returns the
  response (or None to drop the sample);
* ``cache_fingerprint()`` reduces the full task configuration to a
  JSON-serializable structure that
  :func:`repro.harness.cache.cell_key` hashes into result-cache keys,
  so *any* configuration change transparently invalidates cached
  cells.

PR 1 introduced the pattern for the gossip figures
(:class:`GossipSweepTask`); this module generalizes it so the scrip
economy, the token model, and the BitTorrent swarm ride the same
executor: all four models gain ``--jobs`` fan-out, content-addressed
result caching, and a ``lotus-eater sweep`` CLI subcommand for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

from ..bargossip.attacker import AttackKind
from ..bargossip.config import GossipConfig
from ..bargossip.network import NetworkModel
from ..bargossip.scenario import ExecutionConfig, Scenario
from ..bittorrent.config import SwarmConfig
from ..core.rng import derive_seed
from ..scrip.config import ScripConfig
from .cache import fingerprint_of

__all__ = [
    "SweepTask",
    "GossipSweepTask",
    "ScripAltruistTask",
    "TokenSweepTask",
    "SwarmSweepTask",
    "TASK_BUILDERS",
]


@runtime_checkable
class SweepTask(Protocol):
    """What the sweep executor requires of a fan-out-able task."""

    def __call__(self, x: float, seed: int) -> Optional[float]:
        """Run one cell; None drops the sample."""

    def cache_fingerprint(self) -> Dict[str, Any]:
        """JSON-serializable digest of the full task configuration."""


@dataclass(frozen=True)
class GossipSweepTask:
    """A picklable ``run_one(fraction, seed)`` for gossip sweeps.

    The sweep executor ships this object to worker processes (a plain
    closure over a scenario would not pickle) and hashes
    :meth:`cache_fingerprint` into result-cache keys, so changing any
    scenario field — protocol, network model or schedule —
    transparently invalidates cached cells.  The grid value is the
    attacker fraction: each cell runs ``scenario.replace(
    attacker_fraction=x)`` through :func:`~repro.bargossip.scenario.
    run_experiment`.  ``execution`` decides only *how* cells run and
    is absent from the fingerprint (execution strategy never changes
    results — pinned by the parity suites), with one exception: the
    partner model ``shards`` picks.  ``shards == 0`` runs the paper's
    uniform partner draws and ``shards == 1`` the 4-node-cell pairing,
    two different models, so the fingerprint carries ``"pairing"`` and
    the two never share cached cells.
    """

    scenario: Scenario
    execution: ExecutionConfig = ExecutionConfig()
    metric: str = "isolated_fraction"

    def __call__(self, fraction: float, seed: int) -> Optional[float]:
        from ..bargossip.scenario import run_experiment

        result = run_experiment(
            self.scenario.replace(attacker_fraction=fraction),
            execution=self.execution,
            seed=seed,
        )
        return getattr(result, self.metric)

    def cache_fingerprint(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "execution": self.execution.cache_fingerprint(),
            "pairing": "uniform" if self.execution.shards == 0 else "cells",
            "metric": self.metric,
        }


@dataclass(frozen=True)
class ScripAltruistTask:
    """``run_one(altruist count, seed)`` over the scrip economy.

    Wraps the :func:`repro.scrip.analysis.altruist_sweep` cell —
    build a standard population with ``round(x)`` altruists, run the
    economy, report one :class:`~repro.scrip.analysis.EconomyReport`
    metric — as a picklable task, which is what lets the Section 4
    altruist-crash curve fan out across workers and cache per cell.
    """

    config: ScripConfig
    rounds: int = 20000
    warmup: int = 2000
    metric: str = "service_rate"

    def __call__(self, x: float, seed: int) -> Optional[float]:
        from ..scrip.analysis import measure_economy
        from ..scrip.system import ScripSystem, build_agents

        agents = build_agents(self.config, altruists=int(round(x)))
        system = ScripSystem(self.config, agents=agents, seed=seed)
        report = measure_economy(system, rounds=self.rounds, warmup=self.warmup)
        value = getattr(report, self.metric)
        return None if value is None else float(value)

    def cache_fingerprint(self) -> Dict[str, Any]:
        return {
            "config": fingerprint_of(self.config),
            "rounds": self.rounds,
            "warmup": self.warmup,
            "metric": self.metric,
        }


@dataclass(frozen=True)
class TokenSweepTask:
    """``run_one(altruism, seed)`` over the token model.

    Wraps :func:`repro.tokenmodel.simulator.run_token_experiment` on a
    grid graph with a uniform allocation: the grid value is the
    altruism parameter, and ``cut_column`` (when set) mounts the
    cut-satiation attack along that column.  The allocation is drawn
    from a seed derived from the cell seed, so every cell stays a pure
    function of ``(x, seed)``.
    """

    rows: int = 10
    cols: int = 10
    n_tokens: int = 8
    copies_per_token: int = 3
    cut_column: Optional[int] = None
    max_rounds: int = 200
    metric: str = "starving_fraction"

    def __call__(self, x: float, seed: int) -> Optional[float]:
        import numpy as np

        from ..core.graphs import grid_column_cut, grid_graph
        from ..tokenmodel.attacks import CutSatiationAttack
        from ..tokenmodel.simulator import run_token_experiment
        from ..tokenmodel.system import TokenSystem, uniform_allocation

        graph = grid_graph(self.rows, self.cols)
        allocation_rng = np.random.default_rng(derive_seed(seed, "token:allocation"))
        allocation = uniform_allocation(
            graph, self.n_tokens, self.copies_per_token, rng=allocation_rng
        )
        system = TokenSystem.complete_collection(
            graph, self.n_tokens, allocation, altruism=float(x)
        )
        attack = (
            CutSatiationAttack(grid_column_cut(self.rows, self.cols, self.cut_column))
            if self.cut_column is not None
            else None
        )
        summary = run_token_experiment(
            system, attack, max_rounds=self.max_rounds, seed=seed
        )
        value = getattr(summary, self.metric)
        return None if value is None else float(value)

    def cache_fingerprint(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "n_tokens": self.n_tokens,
            "copies_per_token": self.copies_per_token,
            "cut_column": self.cut_column,
            "max_rounds": self.max_rounds,
            "metric": self.metric,
        }


@dataclass(frozen=True)
class SwarmSweepTask:
    """``run_one(attacker count, seed)`` over the BitTorrent swarm.

    Wraps :func:`repro.bittorrent.swarm.run_swarm_experiment`: the grid
    value is the number of attacker peers mounting the upload-satiation
    attack against the first ``n_targets`` leechers (0 attackers runs
    the clean swarm).
    """

    config: SwarmConfig
    n_targets: int = 10
    slots_per_attacker: int = 4
    max_rounds: int = 400
    metric: str = "mean_completion_round"

    def __call__(self, x: float, seed: int) -> Optional[float]:
        from ..bittorrent.attacks import UploadSatiationAttack
        from ..bittorrent.swarm import run_swarm_experiment

        n_attackers = int(round(x))
        attack = (
            UploadSatiationAttack(
                n_attackers=n_attackers,
                targets=range(self.n_targets),
                slots_per_attacker=self.slots_per_attacker,
            )
            if n_attackers > 0
            else None
        )
        result = run_swarm_experiment(
            self.config, attack=attack, max_rounds=self.max_rounds, seed=seed
        )
        value = getattr(result, self.metric)
        return None if value is None else float(value)

    def cache_fingerprint(self) -> Dict[str, Any]:
        return {
            "config": fingerprint_of(self.config),
            "n_targets": self.n_targets,
            "slots_per_attacker": self.slots_per_attacker,
            "max_rounds": self.max_rounds,
            "metric": self.metric,
        }


def _build_gossip_task(
    fast: bool,
    metric: Optional[str],
    execution: Optional[ExecutionConfig] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
) -> Tuple[SweepTask, str]:
    task = GossipSweepTask(
        scenario=Scenario(
            config=GossipConfig.paper(),
            network=network if network is not None else NetworkModel.ideal(),
            schedule=schedule,
            kind=AttackKind.TRADE,
            rounds=30 if fast else 50,
        ),
        execution=execution if execution is not None else ExecutionConfig(),
        metric=metric or "isolated_fraction",
    )
    return task, "attacker fraction"


def _build_scrip_task(
    fast: bool,
    metric: Optional[str],
    execution: Optional[ExecutionConfig] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
) -> Tuple[SweepTask, str]:
    task = ScripAltruistTask(
        config=ScripConfig.paper(),
        rounds=3000 if fast else 20000,
        warmup=300 if fast else 2000,
        metric=metric or "service_rate",
    )
    return task, "altruists"


def _build_token_task(
    fast: bool,
    metric: Optional[str],
    execution: Optional[ExecutionConfig] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
) -> Tuple[SweepTask, str]:
    task = TokenSweepTask(
        max_rounds=100 if fast else 200,
        metric=metric or "starving_fraction",
    )
    return task, "altruism"


def _build_swarm_task(
    fast: bool,
    metric: Optional[str],
    execution: Optional[ExecutionConfig] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
) -> Tuple[SweepTask, str]:
    task = SwarmSweepTask(
        config=SwarmConfig.small() if fast else SwarmConfig.paper(),
        n_targets=4 if fast else 10,
        metric=metric or "mean_completion_round",
    )
    return task, "attackers"


#: ``lotus-eater sweep-<name>`` builders: ``name -> (fast, metric,
#: execution, network, schedule) -> (task, x-axis label)``.
#: ``execution`` is the gossip :class:`ExecutionConfig` (backend and
#: the ``shards`` partner-model switch), ``network``/``schedule`` the
#: gossip scenario's asynchronous-network knobs; the other models take
#: them for interface uniformity and ignore them.
TASK_BUILDERS = {
    "gossip": _build_gossip_task,
    "scrip": _build_scrip_task,
    "token": _build_token_task,
    "swarm": _build_swarm_task,
}
