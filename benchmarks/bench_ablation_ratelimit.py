"""Ablation E (paper Section 5): rate-limiting service provision.

"Another concrete open problem that arises from this attack is how we
can design a system that limits the rate at which nodes can provide
service. ... this potentially is a strong technique for preventing
lotus-eater attacks by preventing an attacker from providing service
sufficiently rapidly to satiate targeted nodes."

We implement the receiver-side variant: obedient nodes refuse to
accept more than ``accept_cap`` updates per interaction.  The bench
sweeps the cap against the trade attack and shows (a) the defense's
dose response, and (b) that it dissolves entirely when receivers are
rational — which is exactly why the paper files it under *leveraging
obedience*.
"""

from repro.bargossip.attacker import AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import with_rate_limit
from repro.bargossip.scenario import Scenario, run_experiment
from repro.harness.ascii import render_table

from conftest import emit

ATTACK_FRACTION = 0.15


def trade_attack(config):
    """The benched trade attack on ``config``."""
    return Scenario(
        config=config, kind=AttackKind.TRADE,
        attacker_fraction=ATTACK_FRACTION, rounds=35,
    )


def test_rate_limit_dose_response(benchmark):
    base = GossipConfig.paper().replace(obedient_fraction=1.0)

    def run():
        results = {}
        results["no cap"] = run_experiment(trade_attack(base), seed=2)
        for cap in (20, 10, 5):
            config = with_rate_limit(base, accept_cap=cap)
            results[f"cap {cap}"] = run_experiment(trade_attack(config), seed=2)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (name, f"{result.isolated_fraction:.3f}", f"{result.satiated_fraction:.3f}")
        for name, result in results.items()
    ]
    emit(
        f"Rate limiting vs {ATTACK_FRACTION:.0%} trade attack (all obedient)",
        render_table(["accept cap", "isolated delivery", "satiated delivery"], rows),
    )
    # Tighter caps help isolated nodes (weakly, monotone in the cap).
    assert results["cap 5"].isolated_fraction >= results["no cap"].isolated_fraction
    assert results["cap 5"].isolated_fraction >= results["cap 20"].isolated_fraction - 0.01


def test_rate_limit_needs_obedience(benchmark):
    rational = GossipConfig.paper()  # obedient_fraction = 0

    def run():
        plain = run_experiment(trade_attack(rational), seed=2)
        capped = run_experiment(
            trade_attack(rational.replace(accept_cap=5)), seed=2
        )
        return plain, capped

    plain, capped = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Same cap with rational receivers",
        f"no cap {plain.isolated_fraction:.3f} vs cap 5 "
        f"{capped.isolated_fraction:.3f} — identical: rational nodes "
        "pocket the excess",
    )
    assert capped.isolated_fraction == plain.isolated_fraction
