#!/usr/bin/env python
"""Parallel, cached figure regeneration with the sweep executor.

Regenerates Figure 1 on the fast grid twice through one executor: the
first pass fans every (fraction, seed) cell across worker processes,
the second is served entirely from the on-disk result cache — zero
simulator runs — while producing identical curves.

All current simulator knobs are exposed, so the same script doubles as
a quick tour of the execution options::

    python examples/parallel_sweep.py                   # words backend, paper's schedule
    python examples/parallel_sweep.py --backend sets    # reference oracle
    python examples/parallel_sweep.py --shards 1        # 4-node-cell pairing

``--jobs`` defaults to one worker per CPU and is clamped to the CPU
count: requesting more workers than cores would only measure
oversubscription noise (on a 1-CPU container the sweep simply runs
serially, which is the honest configuration there).
"""

import argparse
import os
import sys
import tempfile
import time

from repro.bargossip.config import GossipConfig
from repro.bargossip.scenario import ExecutionConfig
from repro.harness import (
    FAST_FRACTIONS,
    ResultCache,
    SweepExecutor,
    crossovers,
    figure1,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        choices=["sets", "words"],
        default="words",
        help="gossip update-store backend (default: words; sets is the "
        "reference oracle)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        choices=[0, 1],
        default=0,
        help="partner model: 0 = the paper's uniform draws, "
        "1 = the 4-node-cell pairing (different results)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="sweep worker processes (0 = one per CPU; clamped to the "
        "CPU count to avoid undersubscription noise)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=3, help="seeds per grid point"
    )
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    cpus = os.cpu_count() or 1
    jobs = cpus if args.jobs == 0 else min(args.jobs, cpus)
    if args.jobs > cpus:
        print(
            f"note: clamping --jobs {args.jobs} to {cpus} CPU(s) — more "
            "workers than cores measures oversubscription, not speedup"
        )
    config = GossipConfig.paper()
    execution = ExecutionConfig(backend=args.backend, shards=args.shards, jobs=jobs)

    cache_dir = tempfile.mkdtemp(prefix="lotus-cache-")
    with SweepExecutor(jobs=jobs, cache=ResultCache(cache_dir)) as executor:
        print(
            f"executor: {executor!r}\ncache: {cache_dir}\n"
            f"execution: backend={execution.backend} "
            f"shards={execution.shards}\n"
        )

        start = time.perf_counter()
        first = figure1(
            config=config,
            fractions=FAST_FRACTIONS,
            rounds=30,
            repetitions=args.repetitions,
            executor=executor,
            execution=execution,
        )
        cold = time.perf_counter() - start

        start = time.perf_counter()
        second = figure1(
            config=config,
            fractions=FAST_FRACTIONS,
            rounds=30,
            repetitions=args.repetitions,
            executor=executor,
            execution=execution,
        )
        warm = time.perf_counter() - start

        assert all(
            first[k].ys == second[k].ys for k in first
        ), "cache changed results?!"
        stats = executor.stats()

    print(f"cold run {cold:.2f}s ({stats['cells_executed']} cells executed)")
    print(f"warm run {warm:.2f}s ({stats['cells_cached']} cells from cache)")

    print("\nusability crossovers (attacker fraction pushing delivery below 93%):")
    for label, value in crossovers(first).items():
        print(f"  {label:<28} {'never' if value is None else f'{value:.3f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
