"""BAR Gossip substrate, attacks, and defenses (paper Section 2).

A from-scratch implementation of the gossip protocol the paper
evaluates: broadcaster seeding, balanced exchanges, optimistic pushes,
pseudorandom partner selection, update lifetimes — plus the three
attacks of Section 2 (crash, ideal lotus-eater, trade lotus-eater) and
the Section 4 defenses (larger pushes, unbalanced exchanges,
excessive-service reporting).
"""

from .attacker import DEFAULT_SATIATE_FRACTION, AttackKind, AttackerCoalition
from .config import GossipConfig
from .defenses import (
    EvictionAuthority,
    ReportingPolicy,
    figure3_variants,
    with_larger_pushes,
    with_rate_limit,
    with_unbalanced_exchanges,
)
from .events import EventQueue
from .exchange import ExchangePlan, apply_exchange, plan_balanced_exchange
from .messages import InteractionReceipt, sign_receipt, verify_receipt
from .network import DeliveryTimeTracker, NetworkModel, NetworkStats
from .node import COUNTER_FIELDS, CounterColumnView, GossipNode, ServiceCounters, TargetGroup
from .partner import PartnerSchedule, Purpose
from .population import Population
from .push import PushPlan, apply_push, plan_optimistic_push
from .scenario import ExecutionConfig, Scenario, run_experiment
from .sharding import ShardedPartnerSchedule
from .simulator import (
    GossipExperimentResult,
    GossipSimulator,
    InteractionEngine,
)
from .updates import (
    BitsetUpdateStore,
    UpdateLedger,
    UpdateStore,
    creation_round,
    update_id,
)

__all__ = [
    "GossipConfig",
    "GossipSimulator",
    "GossipExperimentResult",
    "Scenario",
    "ExecutionConfig",
    "NetworkModel",
    "NetworkStats",
    "DeliveryTimeTracker",
    "EventQueue",
    "run_experiment",
    "AttackKind",
    "AttackerCoalition",
    "DEFAULT_SATIATE_FRACTION",
    "ReportingPolicy",
    "EvictionAuthority",
    "figure3_variants",
    "with_larger_pushes",
    "with_rate_limit",
    "with_unbalanced_exchanges",
    "ExchangePlan",
    "plan_balanced_exchange",
    "apply_exchange",
    "PushPlan",
    "plan_optimistic_push",
    "apply_push",
    "GossipNode",
    "TargetGroup",
    "ServiceCounters",
    "CounterColumnView",
    "COUNTER_FIELDS",
    "Population",
    "PartnerSchedule",
    "ShardedPartnerSchedule",
    "InteractionEngine",
    "Purpose",
    "UpdateStore",
    "BitsetUpdateStore",
    "UpdateLedger",
    "update_id",
    "creation_round",
    "InteractionReceipt",
    "sign_receipt",
    "verify_receipt",
]
