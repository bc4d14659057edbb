"""Ablation D (paper Section 4): the remaining defense principles.

* Leveraging obedience for enforcement: obedient beneficiaries report
  excessive service; verified reports evict the trade attacker's
  nodes, and the attack collapses.
* Making satiation hard with network coding: rare-token targeting
  buys the attacker nothing once tokens are random combinations.
"""

import numpy as np

from repro.bargossip.attacker import AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.scenario import Scenario, run_experiment
from repro.coding import CodedGossipSimulator, run_coded_experiment
from repro.core.graphs import grid_graph
from repro.harness.ascii import render_table
from repro.tokenmodel import (
    RareTokenAttack,
    TokenSystem,
    rare_token_allocation,
    run_token_experiment,
)

from conftest import emit


def test_reporting_defense(benchmark):
    """Obedient nodes + signed receipts evict the trade attacker."""
    config = GossipConfig.paper().replace(obedient_fraction=1.0)
    policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)

    def run():
        scenario = Scenario(
            config=config, kind=AttackKind.TRADE, attacker_fraction=0.2, rounds=30
        )
        undefended = run_experiment(scenario, seed=0)
        defended = run_experiment(scenario.replace(reporting=policy), seed=0)
        return undefended, defended

    undefended, defended = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ("no reporting", f"{undefended.isolated_fraction:.3f}", 0),
        ("reporting + eviction", f"{defended.isolated_fraction:.3f}",
         defended.evicted_attackers),
    ]
    emit("Reporting defense vs 20% trade attack (all nodes obedient)",
         render_table(["scenario", "isolated delivery", "attackers evicted"], rows))
    assert defended.evicted_attackers > 0
    assert defended.isolated_fraction > undefended.isolated_fraction


def test_rational_nodes_do_not_report(benchmark):
    """The defense needs obedience: rational beneficiaries keep quiet."""
    config = GossipConfig.paper()  # obedient_fraction = 0
    policy = ReportingPolicy(excess_threshold=2, reports_to_evict=2)

    def run():
        scenario = Scenario(
            config=config, kind=AttackKind.TRADE, attacker_fraction=0.2,
            rounds=30, reporting=policy,
        )
        return run_experiment(scenario, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Same defense with rational-only beneficiaries",
         f"attackers evicted: {result.evicted_attackers}")
    assert result.evicted_attackers == 0


def test_network_coding_defense(benchmark):
    """Coding removes the rare-token target entirely."""
    graph = grid_graph(8, 8)

    def run():
        allocation = rare_token_allocation(
            graph, 6, 4, rare_token=0, rare_holder=0, rng=np.random.default_rng(0)
        )
        plain = TokenSystem.complete_collection(graph, 6, allocation, altruism=0.0)
        plain_clean = run_token_experiment(plain, max_rounds=250, seed=1)
        plain_hit = run_token_experiment(
            plain, RareTokenAttack([0]), max_rounds=250, seed=1
        )

        def coded_sim():
            return CodedGossipSimulator(
                graph, dimension=6, seeded_nodes=list(range(0, 64, 4)),
                vectors_per_seed=3, altruism=0.0, seed=1,
            )

        coded_clean = run_coded_experiment(coded_sim(), max_rounds=250)
        coded_hit = run_coded_experiment(coded_sim(), attack_targets=[0], max_rounds=250)
        return plain_clean, plain_hit, coded_clean, coded_hit

    plain_clean, plain_hit, coded_clean, coded_hit = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ("plain, no attack", plain_clean.organically_satiated, plain_clean.starving),
        ("plain, rare-token attack", plain_hit.organically_satiated, plain_hit.starving),
        ("coded, no attack", coded_clean.decodable, coded_clean.starving),
        ("coded, same targeting", coded_hit.decodable, coded_hit.starving),
    ]
    emit("Network-coding defense vs rare-token targeting", render_table(
        ["scenario", "satiated/decodable", "starving"], rows
    ))
    # Plain: the attack wipes out organic completion.
    assert plain_hit.organically_satiated == 0
    assert plain_hit.organically_satiated < plain_clean.organically_satiated
    # Coded: the same targeting costs (almost) nothing.
    assert coded_hit.decodable >= coded_clean.decodable - 2
