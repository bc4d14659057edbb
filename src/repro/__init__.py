"""Reproduction of "The Lotus-Eater Attack" (Kash, Friedman, Halpern, PODC 2008).

The lotus-eater attack targets *satiation-compatible* protocols —
protocols whose nodes stop providing service once their own demands
are met.  The attacker harms nobody directly: he showers chosen nodes
with service until they are satiated and stop serving others, starving
the rest of the system.

This package provides:

* ``repro.bargossip`` — a BAR Gossip simulator with the paper's three
  attacks (crash, ideal, trade) and defenses (Figures 1-3, Table 1);
* ``repro.tokenmodel`` — the abstract ``(G, T, sat, f, c, a)`` model of
  Section 3 with cut, rare-token and mass-satiation attacks;
* ``repro.scrip`` — a scrip-system economy with money-injection
  attacks (the Section 1/4 discussion);
* ``repro.reputation`` — a reputation economy with rating-inflation
  attacks and the EigenTrust-style normalization defense;
* ``repro.bittorrent`` — a BitTorrent swarm simulator showing why the
  attack does only modest damage there;
* ``repro.coding`` — the network-coding defense;
* ``repro.harness`` — sweeps and figure/table regeneration.

Quickstart
----------
>>> from repro import AttackKind, GossipConfig, Scenario, run_experiment
>>> scenario = Scenario(
...     config=GossipConfig.small(), kind=AttackKind.TRADE,
...     attacker_fraction=0.2, rounds=30)
>>> result = run_experiment(scenario)
>>> result.isolated_fraction is not None
True
"""

from .bargossip import (
    AttackKind,
    AttackerCoalition,
    ExecutionConfig,
    GossipConfig,
    GossipExperimentResult,
    GossipSimulator,
    NetworkModel,
    ReportingPolicy,
    Scenario,
    figure3_variants,
    run_experiment,
    with_larger_pushes,
    with_unbalanced_exchanges,
)
from .bittorrent import SwarmConfig, SwarmSimulator, UploadSatiationAttack, run_swarm_experiment
from .coding import CodedGossipSimulator, run_coded_experiment
from .core import (
    USABILITY_THRESHOLD,
    Behavior,
    DeliveryStats,
    RngStreams,
    TimeSeries,
)
from .harness import attack_curve, crossovers, figure1, figure2, figure3
from .reputation import (
    RatingInflationAttack,
    ReputationConfig,
    ReputationSystem,
)
from .scrip import MoneyInjectionAttack, ScripConfig, ScripSystem
from .tokenmodel import (
    CutSatiationAttack,
    MassSatiationAttack,
    RareTokenAttack,
    TokenSimulator,
    TokenSystem,
    run_token_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # BAR Gossip (Section 2, Figures 1-3, Table 1)
    "GossipConfig",
    "GossipSimulator",
    "GossipExperimentResult",
    "Scenario",
    "ExecutionConfig",
    "NetworkModel",
    "run_experiment",
    "AttackKind",
    "AttackerCoalition",
    "ReportingPolicy",
    "figure3_variants",
    "with_larger_pushes",
    "with_unbalanced_exchanges",
    # Abstract token model (Section 3)
    "TokenSystem",
    "TokenSimulator",
    "run_token_experiment",
    "CutSatiationAttack",
    "RareTokenAttack",
    "MassSatiationAttack",
    # Scrip economy (Sections 1 and 4)
    "ScripConfig",
    "ScripSystem",
    "MoneyInjectionAttack",
    # Reputation systems (Sections 1 and 4)
    "ReputationConfig",
    "ReputationSystem",
    "RatingInflationAttack",
    # BitTorrent (Sections 1 and 4)
    "SwarmConfig",
    "SwarmSimulator",
    "UploadSatiationAttack",
    "run_swarm_experiment",
    # Network-coding defense (Section 4)
    "CodedGossipSimulator",
    "run_coded_experiment",
    # Harness
    "figure1",
    "figure2",
    "figure3",
    "attack_curve",
    "crossovers",
    # Core
    "Behavior",
    "DeliveryStats",
    "TimeSeries",
    "RngStreams",
    "USABILITY_THRESHOLD",
]
