#!/usr/bin/env python
"""One Figure-1 trade-attack point at a million nodes, on one box.

The paper simulates 250 nodes.  The word-array backend turns each
round's exchange and push phases into whole-population masked word
sweeps over a flat ~91 bytes/node of state (packed have rows plus one
shared live row, the counter matrix, and three one-byte code columns;
a node's missing row is derived as ``live & ~have``), so the protocol
runs at 10^6 nodes in well under a second per round on a single
machine.  This script runs one such point — a 20% trade coalition
pampering its satiated targets — on the 4-node-cell pairing
(``shards=1``), not the paper's uniform partner schedule, and prints
the round-time, the flat-buffer byte budget, the process's peak RSS,
and the group outcome the attack is designed to produce.

The population size is a flag, so the same script doubles as a quick
scaling probe:

Run:  PYTHONPATH=src python examples/million_nodes.py
      PYTHONPATH=src python examples/million_nodes.py --nodes 100000
"""

import argparse
import resource
import time

from repro.bargossip.attacker import AttackerCoalition, AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams

ATTACKER_FRACTION = 0.2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes", type=int, default=1_000_000,
        help="population size (default: one million)",
    )
    parser.add_argument(
        "--rounds", type=int, default=12,
        help="rounds to simulate after the warm-up round (default 12)",
    )
    args = parser.parse_args()

    config = GossipConfig.paper().replace(n_nodes=args.nodes)
    coalition = AttackerCoalition.build(
        AttackKind.TRADE,
        n_nodes=args.nodes,
        attacker_fraction=ATTACKER_FRACTION,
        rng=RngStreams(0).get("coalition"),
    )
    print(
        f"figure-1 trade point: {args.nodes:,} nodes, "
        f"{ATTACKER_FRACTION:.0%} attacker coalition, words backend"
    )

    start = time.perf_counter()
    simulator = GossipSimulator(
        config,
        attack=coalition,
        seed=0,
        execution=ExecutionConfig(backend="words", shards=1),
    )
    print(f"init: {(time.perf_counter() - start) * 1000.0:.0f} ms")

    memory = simulator.memory_breakdown()
    print(
        f"flat state: {memory['total_bytes'] / 1e6:.0f} MB total "
        f"({memory['bytes_per_node']} B/node — "
        f"{memory['word_row_bytes'] / 1e6:.0f} MB word rows, "
        f"{memory['counter_bytes'] / 1e6:.0f} MB counters, "
        f"{memory['code_column_bytes'] / 1e6:.0f} MB code columns)"
    )

    simulator.step()  # warm-up: first broadcast grows the live window
    start = time.perf_counter()
    for _ in range(args.rounds):
        simulator.step()
    round_ms = (time.perf_counter() - start) / args.rounds * 1000.0
    print(f"steady state: {round_ms:.0f} ms/round over {args.rounds} rounds")

    masks = simulator.population.group_masks()
    satiated = int(masks["satiated"].sum())
    print(
        f"attack outcome: {simulator.attack.updates_served:,} updates "
        f"served out of band to {satiated:,} satiated targets "
        f"({satiated / args.nodes:.1%} of the population)"
    )
    # ru_maxrss is in kilobytes on Linux.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"peak RSS: {peak_rss / 1e6:.0f} MB")


if __name__ == "__main__":
    main()
