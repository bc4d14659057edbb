"""The ``lotus-eater bench`` benchmark: figures timed, summarized, serialized.

Runs the figure suite (fast profile by default) twice — once serially,
once through a parallel :class:`~repro.harness.parallel.SweepExecutor`
— verifies the two produce identical series (the executor's core
guarantee), and writes a machine-readable ``BENCH_summary.json`` that
CI uploads as a workflow artifact.  The summary records wall-clock per
figure, parallel speedup, and the delivery metrics a reviewer needs to
spot a regression without rerunning anything: per-curve usability
crossovers and the delivery at the largest attacker fraction.

It also times the update-store backends head to head
(:func:`run_backend_bench`): one large single-core gossip experiment
(5,000 nodes, 50 rounds by default) on the reference set backend and
on the packed word-array backend, asserting exact metric parity and
reporting the speedup — the within-a-run scaling axis, complementing
the executor's across-cells axis.  ``lotus-eater bench-diff`` (see
:mod:`~repro.harness.trend`) compares consecutive summaries in CI.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import time
from typing import Any, Callable, Dict, List, Optional

from ..bargossip.attacker import AttackKind
from ..bargossip.config import GossipConfig
from ..bargossip.network import NetworkModel
from ..bargossip.scenario import ExecutionConfig, Scenario, run_experiment
from ..bargossip.simulator import GossipSimulator
from ..core.metrics import USABILITY_THRESHOLD, TimeSeries
from .figures import DEFAULT_FRACTIONS, FAST_FRACTIONS, crossovers, figure1, figure2, figure3
from .parallel import SweepExecutor, resolve_jobs
from .tables import baseline_check

__all__ = [
    "BENCH_FIGURES",
    "SCALE_BENCH_POINTS",
    "run_backend_bench",
    "run_event_bench",
    "run_scale_bench",
    "run_bench",
    "render_bench_summary",
    "render_scale_bench",
    "write_bench_summary",
]


#: The figure builders exercised by the benchmark, in report order.
BENCH_FIGURES: Dict[str, Callable[..., Dict[str, TimeSeries]]] = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
}


def _series_payload(curves: Dict[str, TimeSeries]) -> Dict[str, Any]:
    """Delivery metrics for one figure's curves, JSON-ready."""
    return {
        label: {
            "xs": list(series.xs),
            "ys": list(series.ys),
            "crossover_below_threshold": series.crossover_below(),
            "delivery_at_max_fraction": series.ys[-1] if series.ys else None,
        }
        for label, series in curves.items()
    }


def _curves_equal(a: Dict[str, TimeSeries], b: Dict[str, TimeSeries]) -> bool:
    return (
        set(a) == set(b)
        and all(a[k].xs == b[k].xs and a[k].ys == b[k].ys for k in a)
    )


def run_backend_bench(
    n_nodes: int = 5000, rounds: int = 50, seed: int = 0
) -> Dict[str, Any]:
    """Time one large gossip experiment on both store backends.

    Single-core, no attack: a pure measurement of the protocol round
    loop, which is what the words backend vectorizes.  The two
    backends are required to agree *exactly* on the delivery metrics
    (the parity suite pins much more; this is the last-line check in
    every bench artifact).

    Deliberately runs at the same 5,000-node scale in both bench
    profiles: this number is the headline within-a-run scaling metric,
    and the CI trend job diffs it across runs — shrinking it under
    ``--fast`` would make consecutive artifacts incomparable.
    """
    seconds: Dict[str, float] = {}
    fractions: Dict[str, Optional[float]] = {}
    scenario = Scenario(
        config=GossipConfig(n_nodes=n_nodes), kind=AttackKind.NONE, rounds=rounds
    )
    for backend in ("sets", "words"):
        start = time.perf_counter()
        result = run_experiment(
            scenario, execution=ExecutionConfig(backend=backend), seed=seed
        )
        seconds[backend] = time.perf_counter() - start
        fractions[backend] = result.correct_fraction
    return {
        "n_nodes": n_nodes,
        "rounds": rounds,
        "sets_seconds": seconds["sets"],
        "words_seconds": seconds["words"],
        "speedup": (
            seconds["sets"] / seconds["words"] if seconds["words"] > 0 else None
        ),
        "parity_ok": fractions["sets"] == fractions["words"],
        "delivery_fraction": fractions["words"],
    }


#: The network points the event bench sweeps, from the ideal network
#: (the parity anchor) through progressively harsher asynchrony.  Rates
#: are in round units: mean latency of 0.3 rounds, 5% message loss,
#: and per-node Poisson churn (leave 0.002/round, rejoin 0.05/round).
EVENT_BENCH_POINTS: Dict[str, NetworkModel] = {
    "ideal": NetworkModel.ideal(),
    "latency": NetworkModel(latency_kind="exponential", latency_mean=0.3),
    "latency_loss": NetworkModel(
        latency_kind="exponential", latency_mean=0.3, loss_rate=0.05
    ),
    "latency_loss_churn": NetworkModel(
        latency_kind="exponential",
        latency_mean=0.3,
        loss_rate=0.05,
        churn_leave_rate=0.002,
        churn_join_rate=0.05,
    ),
}


def run_event_bench(
    n_nodes: int = 20000,
    rounds: int = 25,
    seed: int = 0,
    backend: str = "words",
) -> Dict[str, Any]:
    """Time the virtual-time event engine across network harshness points.

    One no-attack run per :data:`EVENT_BENCH_POINTS` entry, all on the
    event schedule, plus one classic-rounds reference run.  Two things
    come out of it:

    * ``parity_ok`` — the ideal-network event run must reproduce the
      classic synchronous schedule's delivery metrics exactly (the
      schedule-parity suite pins the full trace; this is the bench
      artifact's last-line check).
    * per-point ``time_to_90_delivery`` / ``reached_fraction`` — the
      virtual-time delivery metrics only the event engine can measure:
      how long an update takes to reach 90% of the live population,
      and what fraction of measured updates ever get there, as latency,
      loss and churn are layered on.

    Like the backend bench this runs at a fixed scale (20,000 nodes) in
    both profiles so consecutive CI artifacts stay comparable.

    ``rounds`` must comfortably exceed twice the update lifetime:
    measurement starts at round ``update_lifetime`` (the warm-up) and
    the first measured update only expires — and is counted — a full
    lifetime after that, so shorter runs report no delivery at all.
    """
    config = GossipConfig(n_nodes=n_nodes)
    execution = ExecutionConfig(backend=backend)
    start = time.perf_counter()
    classic = run_experiment(
        Scenario(config=config, kind=AttackKind.NONE, rounds=rounds),
        execution=execution,
        seed=seed,
    )
    classic_seconds = time.perf_counter() - start
    points: Dict[str, Any] = {}
    parity_ok = True
    for name, network in EVENT_BENCH_POINTS.items():
        scenario = Scenario(
            config=config,
            network=network,
            schedule="event",
            kind=AttackKind.NONE,
            rounds=rounds,
        )
        start = time.perf_counter()
        result = run_experiment(scenario, execution=execution, seed=seed)
        elapsed = time.perf_counter() - start
        if name == "ideal":
            # Requiring a measured fraction keeps the check honest: a
            # run too short to record any delivery would otherwise
            # compare None against None and pass vacuously.
            parity_ok = (
                classic.correct_fraction is not None
                and result.isolated_fraction == classic.isolated_fraction
                and result.satiated_fraction == classic.satiated_fraction
                and result.correct_fraction == classic.correct_fraction
            )
        points[name] = {
            "seconds": elapsed,
            "network": network.to_dict(),
            "correct_fraction": result.correct_fraction,
            "time_to_90_delivery": result.time_to_90_delivery,
            "delivery_reached_fraction": result.delivery_reached_fraction,
            "network_stats": result.network_stats,
        }
    return {
        "n_nodes": n_nodes,
        "rounds": rounds,
        "backend": backend,
        "rounds_seconds": classic_seconds,
        "ideal_seconds": points["ideal"]["seconds"],
        "latency_loss_churn_seconds": points["latency_loss_churn"]["seconds"],
        "event_overhead_vs_rounds": (
            points["ideal"]["seconds"] / classic_seconds
            if classic_seconds > 0
            else None
        ),
        "points": points,
        "parity_ok": parity_ok,
        "delivery_fraction": classic.correct_fraction,
    }


#: Population sizes the scale bench sweeps (the fast profile keeps only
#: the first).  The top point is the tentpole claim: one full figure-1
#: trade configuration at a million nodes on one box.
SCALE_BENCH_POINTS = (100_000, 1_000_000)

#: Attacker fraction of the scale bench's figure-1 trade point.
SCALE_BENCH_ATTACKER_FRACTION = 0.2


def _scale_point_worker(n_nodes: int, rounds: int, seed: int) -> Dict[str, Any]:
    """Measure one scale point; run in a fresh process for honest RSS.

    One figure-1 trade configuration (paper parameters, 20% attacker
    coalition) on the serial words backend, timed over ``rounds``
    steady-state rounds after one warm-up round.  Returns the
    per-round wall clock, the flat-buffer byte budget and the
    process-lifetime peak RSS — which is why isolation matters:
    ``ru_maxrss`` never decreases, so points sharing a process would
    all report the largest point's peak.
    """
    import resource

    from ..bargossip.attacker import AttackerCoalition
    from ..bargossip.updates import word_popcounts
    from ..core.rng import RngStreams

    config = GossipConfig.paper().replace(n_nodes=n_nodes)
    streams = RngStreams(seed)
    coalition = AttackerCoalition.build(
        AttackKind.TRADE,
        n_nodes=n_nodes,
        attacker_fraction=SCALE_BENCH_ATTACKER_FRACTION,
        rng=streams.get("coalition"),
    )
    init_start = time.perf_counter()
    simulator = GossipSimulator(
        config,
        attack=coalition,
        seed=seed,
        execution=ExecutionConfig(backend="words", shards=1),
    )
    init_seconds = time.perf_counter() - init_start
    simulator.step()  # warm-up: first broadcast and store growth
    start = time.perf_counter()
    for _ in range(rounds):
        simulator.step()
    round_ms = (time.perf_counter() - start) / rounds * 1000.0
    memory = simulator.memory_breakdown()
    point = {
        "n_nodes": n_nodes,
        "rounds": rounds,
        "init_seconds": init_seconds,
        "round_ms": round_ms,
        "memory": memory,
        "bytes_per_node": memory["bytes_per_node"],
        "peak_rss_bytes": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        ),
        "delivery_fraction": simulator.delivery_fraction("correct"),
        # Determinism fingerprint: the live-window have bits and the
        # counter matrix summarize every interaction the run made, so
        # two runs agreeing here agree on the whole trace.
        "aggregates": [
            int(word_popcounts(simulator._pool.have_words).sum()),
            int(simulator.population.counters.sum()),
            simulator.attack.updates_served,
        ],
    }
    return point


def run_scale_bench(
    points=SCALE_BENCH_POINTS,
    rounds: int = 12,
    seed: int = 0,
    isolate: bool = True,
) -> Dict[str, Any]:
    """Measure figure-1 rounds at population scale, point by point.

    Each point runs :func:`_scale_point_worker` in its own spawned
    subprocess (``isolate=False`` keeps everything in-process — the
    test-suite escape hatch, at the cost of peak-RSS figures that
    accumulate across points and inherit the parent).  The smallest
    point runs twice; ``parity_ok`` asserts the two runs' delivery
    aggregates are identical — the scale sweep's determinism check.
    """
    context = multiprocessing.get_context("spawn") if isolate else None

    def _measure(n_nodes: int) -> Dict[str, Any]:
        if context is None:
            return _scale_point_worker(n_nodes, rounds, seed)
        with context.Pool(1) as pool:
            return pool.apply(_scale_point_worker, (n_nodes, rounds, seed))

    results = {str(n): _measure(n) for n in sorted(points)}
    smallest = str(min(points))
    rerun = _measure(min(points))
    parity_ok = results[smallest]["aggregates"] == rerun["aggregates"]
    return {
        "rounds": rounds,
        "attacker_fraction": SCALE_BENCH_ATTACKER_FRACTION,
        "backend": "words",
        "pairing": "cells",
        "isolated": isolate,
        "points": results,
        "parity_ok": parity_ok,
    }


def run_bench(
    fast: bool = True,
    jobs: Optional[int] = None,
    repetitions: int = 1,
    root_seed: int = 0,
    executor: Optional[SweepExecutor] = None,
    headline_nodes: int = 20000,
    scale_points=None,
    scale_rounds: int = 12,
    scale_isolate: bool = True,
) -> Dict[str, Any]:
    """Run the benchmark suite and return the summary dictionary.

    ``executor`` supplies the parallel pass; when None, a pool-backed
    executor with ``jobs`` workers is built (and closed before
    returning).  Pass an *uncached* executor — the serial reference
    pass always runs uncached on one core, so a cache-backed parallel
    pass would report cache speedup, not executor speedup (the CLI's
    ``bench`` command always benches uncached for this reason).

    ``headline_nodes`` sizes the ``event_bench`` section; like the
    backend bench it deliberately runs at the same headline scale in
    both profiles so consecutive CI artifacts stay comparable.

    ``scale_points`` parameterizes the ``scale_bench`` section
    (:func:`run_scale_bench`); None keeps the tracked defaults — the
    10^5 point under ``--fast``, 10^5 and 10^6 on the full profile —
    so trend baselines stay comparable at each point independently.
    """
    if scale_points is None:
        scale_points = SCALE_BENCH_POINTS[:1] if fast else SCALE_BENCH_POINTS
    fractions = FAST_FRACTIONS if fast else DEFAULT_FRACTIONS
    rounds = 30 if fast else 50
    own_executor = executor is None
    if executor is None:
        executor = SweepExecutor(jobs=resolve_jobs(jobs))
    executor.warm_up()  # keep pool spin-up out of figure1's timing

    figures: Dict[str, Any] = {}
    total_serial = 0.0
    total_parallel = 0.0
    for name, builder in BENCH_FIGURES.items():
        serial_start = time.perf_counter()
        serial_curves = builder(
            fractions=fractions,
            rounds=rounds,
            repetitions=repetitions,
            root_seed=root_seed,
        )
        serial_seconds = time.perf_counter() - serial_start

        parallel_start = time.perf_counter()
        parallel_curves = builder(
            fractions=fractions,
            rounds=rounds,
            repetitions=repetitions,
            root_seed=root_seed,
            executor=executor,
        )
        parallel_seconds = time.perf_counter() - parallel_start

        total_serial += serial_seconds
        total_parallel += parallel_seconds
        figures[name] = {
            "wall_clock_serial_s": serial_seconds,
            "wall_clock_parallel_s": parallel_seconds,
            "speedup_vs_serial": (
                serial_seconds / parallel_seconds if parallel_seconds > 0 else None
            ),
            "parallel_matches_serial": _curves_equal(serial_curves, parallel_curves),
            "crossovers": crossovers(parallel_curves),
            "curves": _series_payload(parallel_curves),
        }

    baseline = baseline_check(rounds=rounds, seed=root_seed, executor=executor)
    backend_bench = run_backend_bench(seed=root_seed)
    event_bench = run_event_bench(n_nodes=headline_nodes, seed=root_seed)
    scale_bench = run_scale_bench(
        points=scale_points,
        rounds=scale_rounds,
        seed=root_seed,
        isolate=scale_isolate,
    )
    executor_stats = executor.stats()
    executor_stats["failures"] = executor.failure_records()
    if own_executor:
        executor.close()
    return {
        "profile": "fast" if fast else "full",
        "fractions": list(fractions),
        "rounds": rounds,
        "repetitions": repetitions,
        "root_seed": root_seed,
        "usability_threshold": USABILITY_THRESHOLD,
        "baseline_delivery_fraction": baseline["delivery_fraction"],
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "executor": executor_stats,
        "backend_bench": backend_bench,
        "event_bench": event_bench,
        "scale_bench": scale_bench,
        "figures": figures,
        "totals": {
            "wall_clock_serial_s": total_serial,
            "wall_clock_parallel_s": total_parallel,
            "speedup_vs_serial": (
                total_serial / total_parallel if total_parallel > 0 else None
            ),
        },
    }


def render_bench_summary(summary: Dict[str, Any]) -> str:
    """A short human-readable digest of :func:`run_bench` output."""
    lines = [
        f"profile={summary['profile']} jobs={summary['executor']['jobs']} "
        f"rounds={summary['rounds']} repetitions={summary['repetitions']}",
    ]
    for name, report in summary["figures"].items():
        speedup = report["speedup_vs_serial"]
        match = "ok" if report["parallel_matches_serial"] else "MISMATCH"
        lines.append(
            f"{name}: serial {report['wall_clock_serial_s']:.2f}s, "
            f"parallel {report['wall_clock_parallel_s']:.2f}s "
            f"({speedup:.2f}x, parity {match})"
        )
    totals = summary["totals"]
    lines.append(
        f"total: serial {totals['wall_clock_serial_s']:.2f}s, "
        f"parallel {totals['wall_clock_parallel_s']:.2f}s "
        f"({totals['speedup_vs_serial']:.2f}x)"
    )
    lines.append(
        f"baseline delivery {summary['baseline_delivery_fraction']:.3f} "
        f"(threshold {summary['usability_threshold']:.2f}); "
        f"cells executed {summary['executor']['cells_executed']}, "
        f"cached {summary['executor']['cells_cached']}"
    )
    backend = summary.get("backend_bench")
    if backend:
        parity = "ok" if backend["parity_ok"] else "MISMATCH"
        lines.append(
            f"backend ({backend['n_nodes']} nodes, {backend['rounds']} rounds, "
            f"single core): sets {backend['sets_seconds']:.2f}s, "
            f"words {backend['words_seconds']:.2f}s "
            f"({backend['speedup']:.2f}x, parity {parity})"
        )
    event = summary.get("event_bench")
    if event:
        parity = "ok" if event["parity_ok"] else "MISMATCH"
        lines.append(
            f"event ({event['n_nodes']} nodes, {event['rounds']} rounds, "
            f"{event['backend']} backend): classic rounds "
            f"{event['rounds_seconds']:.2f}s, event ideal "
            f"{event['ideal_seconds']:.2f}s "
            f"({event['event_overhead_vs_rounds']:.2f}x, parity {parity})"
        )
        for name, point in event["points"].items():
            if name == "ideal":
                continue
            t90 = point["time_to_90_delivery"]
            t90_text = f"{t90:.2f}" if t90 is not None else "n/a"
            reached = point["delivery_reached_fraction"]
            reached_text = f"{reached:.3f}" if reached is not None else "n/a"
            delivery = point["correct_fraction"]
            delivery_text = f"{delivery:.3f}" if delivery is not None else "n/a"
            lines.append(
                f"  {name}: {point['seconds']:.2f}s, "
                f"t90 {t90_text} rounds, reached {reached_text}, "
                f"delivery {delivery_text}"
            )
    scale = summary.get("scale_bench")
    if scale:
        lines.extend(render_scale_bench(scale))
    return "\n".join(lines)


def render_scale_bench(scale: Dict[str, Any]) -> List[str]:
    """The ``scale_bench`` section's digest lines (shared with the
    standalone ``lotus-eater scale-bench`` subcommand)."""
    parity = "ok" if scale["parity_ok"] else "MISMATCH"
    isolation = "" if scale.get("isolated", True) else ", IN-PROCESS RSS"
    lines = [
        f"scale (figure-1 trade, cell pairing, words backend, {scale['rounds']} "
        f"rounds/point): determinism {parity}{isolation}"
    ]
    for key in sorted(scale["points"], key=int):
        point = scale["points"][key]
        delivery = point["delivery_fraction"]
        delivery_text = f"{delivery:.3f}" if delivery is not None else "n/a"
        lines.append(
            f"  {int(key):,} nodes: {point['round_ms']:.0f} ms/round, "
            f"{point['bytes_per_node']} B/node flat state, peak RSS "
            f"{point['peak_rss_bytes'] / 1e6:.0f} MB, "
            f"delivery {delivery_text}"
        )
    return lines


def write_bench_summary(summary: Dict[str, Any], path: str) -> str:
    """Serialize ``summary`` to ``path`` as indented JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
