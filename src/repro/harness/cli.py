"""Command-line entry point: regenerate any experiment from a shell.

Installed as ``lotus-eater`` (see ``pyproject.toml``)::

    lotus-eater table1
    lotus-eater figure1 --fast --jobs 4
    lotus-eater figure2 --backend sets
    lotus-eater figure3 --seed 7
    lotus-eater tokenmodel
    lotus-eater scrip
    lotus-eater bittorrent
    lotus-eater sweep-gossip --grid 0.1,0.2,0.3 --repetitions 3
    lotus-eater sweep-scrip --grid 0,4,8,16 --metric free_service_share
    lotus-eater sweep-token --grid 0,0.1,0.2,0.4
    lotus-eater sweep-swarm --grid 0,1,2,4 --jobs 0
    lotus-eater figure1 --shards 1
    lotus-eater figure1 --schedule event
    lotus-eater figure1 --schedule event --latency exponential:0.3 --loss 0.05
    lotus-eater sweep-gossip --schedule event --churn 0.002:0.05
    lotus-eater lint src tests benchmarks examples
    lotus-eater lint --format json
    lotus-eater lint --rules DET001,FLW011 src

Sweep-based commands (the figures, the per-model ``sweep-*``
subcommands, ``table1``'s baseline) fan their (grid-point,
seed) cells across ``--jobs`` worker processes and cache cell results
content-addressed under ``--cache-dir`` (default
``$LOTUS_EATER_CACHE_DIR`` or ``.lotus-eater-cache``), so repeated runs
skip every already-computed simulation.  ``--no-cache`` disables the
store; parallel output is bit-identical to ``--jobs 1``.  The gossip
commands run on the fixed-width word-array store by default
(``--backend words``: every round's phases run as batched sweeps);
``--backend sets`` runs the per-node set reference oracle, with
identical results.
``--shards`` picks the partner model: 0 (the default) is the paper's
uniform partner draws, 1 the 4-node-cell pairing — a different model
with different results, cached separately.  ``--schedule
event`` replays the gossip commands on the virtual-time event engine
(bit-identical to the rounds schedule when the network is ideal), and
``--latency`` / ``--loss`` / ``--churn`` describe the asynchronous
network it simulates (all three require ``--schedule event``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from ..bargossip.config import GossipConfig
from ..bargossip.network import NetworkModel
from ..bargossip.scenario import ExecutionConfig
from ..core.errors import ReproError
from ..core.metrics import USABILITY_THRESHOLD
from .ascii import render_chart, render_series_table, render_table
from .cache import ResultCache
from .figures import DEFAULT_FRACTIONS, FAST_FRACTIONS, crossovers, figure1, figure2, figure3
from .parallel import SweepExecutor
from .sweep import sweep
from .tables import baseline_check, render_table1
from .tasks import TASK_BUILDERS

__all__ = ["main", "build_executor"]

#: Cache directory used when neither --cache-dir nor the environment
#: variable overrides it.
DEFAULT_CACHE_DIR = ".lotus-eater-cache"


def build_executor(args: argparse.Namespace) -> SweepExecutor:
    """The sweep executor implied by --jobs / --cache-dir / --no-cache."""
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(
            "LOTUS_EATER_CACHE_DIR", DEFAULT_CACHE_DIR
        )
        cache = ResultCache(cache_dir)
    return SweepExecutor(
        jobs=args.jobs,
        cache=cache,
        retries=getattr(args, "retries", 2),
        cell_timeout=getattr(args, "cell_timeout", None),
        on_failure=getattr(args, "on_failure", "raise"),
    )


def _report_executor(executor: SweepExecutor) -> None:
    stats = executor.stats()
    print(
        f"[sweep] jobs={stats['jobs']} cells executed={stats['cells_executed']} "
        f"cached={stats['cells_cached']} failed={stats['cells_failed']}",
        file=sys.stderr,
    )
    for failure in executor.failures:
        print(
            f"[sweep] FAILED cell x={failure.x} seed={failure.seed}: "
            f"{failure.fate} after {failure.attempts} attempt(s) "
            f"({failure.error})",
            file=sys.stderr,
        )


def _parse_latency(text: str):
    """``--latency`` spec: MEAN, or KIND:MEAN, or uniform:MEAN:JITTER."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return ("fixed", float(parts[0]), 0.0)
        kind = parts[0]
        mean = float(parts[1])
        jitter = float(parts[2]) if len(parts) > 2 else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad latency {text!r}: expected MEAN, KIND:MEAN or "
            "uniform:MEAN:JITTER (kinds: fixed, uniform, exponential)"
        ) from None
    if kind not in ("fixed", "uniform", "exponential"):
        raise argparse.ArgumentTypeError(
            f"bad latency kind {kind!r}: expected fixed, uniform or exponential"
        )
    return (kind, mean, jitter)


def _parse_churn(text: str):
    """``--churn`` spec: LEAVE or LEAVE:JOIN (per-node Poisson rates)."""
    parts = text.split(":")
    try:
        leave = float(parts[0])
        join = float(parts[1]) if len(parts) > 1 else 0.0
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(
            f"bad churn {text!r}: expected LEAVE or LEAVE:JOIN rates"
        ) from None
    return (leave, join)


def network_from_args(args: argparse.Namespace) -> NetworkModel:
    """The NetworkModel implied by --latency / --loss / --churn."""
    kind, mean, jitter = args.latency if args.latency else ("fixed", 0.0, 0.0)
    leave, join = args.churn if args.churn else (0.0, 0.0)
    return NetworkModel(
        latency_kind=kind,
        latency_mean=mean,
        latency_jitter=jitter,
        loss_rate=args.loss,
        churn_leave_rate=leave,
        churn_join_rate=join,
    )


def execution_from_args(args: argparse.Namespace) -> ExecutionConfig:
    """The ExecutionConfig implied by --backend / --shards."""
    return ExecutionConfig(
        backend=args.backend,
        shards=args.shards,
        jobs=args.jobs,
    )


def _figure_command(builder: Callable, args: argparse.Namespace) -> int:
    fractions = FAST_FRACTIONS if args.fast else DEFAULT_FRACTIONS
    rounds = 30 if args.fast else 50
    with build_executor(args) as executor:
        curves = builder(
            config=GossipConfig.paper(),
            fractions=fractions,
            rounds=rounds,
            repetitions=args.repetitions,
            root_seed=args.seed,
            executor=executor,
            network=network_from_args(args),
            schedule=args.schedule,
            execution=execution_from_args(args),
        )
    print(render_series_table(curves, x_label="attacker fraction"))
    print()
    print(render_chart(curves, threshold=USABILITY_THRESHOLD))
    print()
    rows = [
        (label, "never" if value is None else f"{value:.3f}")
        for label, value in crossovers(curves).items()
    ]
    print(render_table(["curve", "crossover below 93%"], rows))
    _report_executor(executor)
    return 0


#: Default grids for the per-model sweep subcommands (``--grid``
#: overrides).  Gossip sweeps attacker fraction; scrip sweeps altruist
#: head-count; token sweeps the altruism parameter; swarm sweeps
#: attacker peers.
DEFAULT_SWEEP_GRIDS: Dict[str, tuple] = {
    "gossip": FAST_FRACTIONS,
    "scrip": (0, 2, 4, 8, 12, 16),
    "token": (0.0, 0.1, 0.2, 0.3, 0.5),
    "swarm": (0, 1, 2, 3, 4),
}


def _parse_grid(text: str) -> List[float]:
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}: expected comma-separated numbers"
        ) from None
    if not grid:
        raise argparse.ArgumentTypeError("grid must name at least one value")
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = args.command.split("-", 1)[1]
    task, x_label = TASK_BUILDERS[model](
        args.fast,
        args.metric,
        execution=execution_from_args(args),
        network=network_from_args(args),
        schedule=args.schedule,
    )
    grid = args.grid if args.grid else DEFAULT_SWEEP_GRIDS[model]
    with build_executor(args) as executor:
        points = sweep(
            grid,
            task,
            repetitions=args.repetitions,
            root_seed=args.seed,
            executor=executor,
            experiment=f"sweep:{model}:{task.metric}",
        )
    rows = [
        (f"{point.x:g}", f"{point.mean:.4f}", f"{point.half_width_95:.4f}", point.samples)
        for point in points
    ]
    print(render_table([x_label, task.metric, "95% half-width", "samples"], rows))
    _report_executor(executor)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1())
    check = baseline_check(
        rounds=30 if args.fast else 50,
        seed=args.seed,
        executor=build_executor(args),
    )
    print()
    print(
        f"baseline delivery (no attack): {check['delivery_fraction']:.3f} "
        f"(usable above {check['usability_threshold']:.2f})"
    )
    return 0


def _cmd_tokenmodel(args: argparse.Namespace) -> int:
    from ..core.graphs import grid_column_cut, grid_graph
    from ..tokenmodel import (
        CutSatiationAttack,
        RareTokenAttack,
        TokenSystem,
        rare_token_allocation,
        run_token_experiment,
        uniform_allocation,
    )

    rng = np.random.default_rng(args.seed)
    graph = grid_graph(10, 10)
    rows: List[tuple] = []
    alloc = uniform_allocation(graph, n_tokens=8, copies_per_token=3, rng=rng)
    for altruism in (0.0, 0.2):
        system = TokenSystem.complete_collection(graph, 8, alloc, altruism=altruism)
        for name, attack in (
            ("none", None),
            ("cut column 5", CutSatiationAttack(grid_column_cut(10, 10, 5))),
        ):
            summary = run_token_experiment(system, attack, max_rounds=200, seed=args.seed)
            rows.append(
                (name, f"a={altruism}", summary.starving,
                 f"{summary.mean_coverage_of_starving:.2f}",
                 summary.completion_round or "never")
            )
    alloc2 = rare_token_allocation(graph, 8, 4, rare_token=0, rare_holder=0, rng=rng)
    for altruism in (0.0, 0.2):
        system = TokenSystem.complete_collection(graph, 8, alloc2, altruism=altruism)
        summary = run_token_experiment(
            system, RareTokenAttack([0]), max_rounds=200, seed=args.seed
        )
        rows.append(
            ("rare token", f"a={altruism}", summary.starving,
             f"{summary.mean_coverage_of_starving:.2f}",
             summary.completion_round or "never")
        )
    print(render_table(
        ["attack", "altruism", "starving", "coverage", "completion"], rows
    ))
    return 0


def _cmd_scrip(args: argparse.Namespace) -> int:
    from ..scrip import (
        MoneyInjectionAttack,
        ScripConfig,
        ScripSystem,
        build_rare_resource_agents,
        measure_economy,
    )

    config = ScripConfig.paper().replace(
        n_resource_types=4, type_weights=(0.32, 0.32, 0.32, 0.04)
    )
    providers = [0, 1, 2]
    rows = []
    for name, budget in (("no attack", 0), ("money injection", 60)):
        system = ScripSystem(
            config,
            agents=build_rare_resource_agents(config, rare_type=3, rare_providers=providers),
            seed=args.seed,
        )
        if budget:
            attack = MoneyInjectionAttack(providers, top_up_to=config.threshold, budget=budget)
            attack.install(system)
        report = measure_economy(system, rounds=3000, warmup=300)
        rows.append(
            (name, f"{report.service_rate:.3f}",
             f"{system.service_rate_of_type(3):.3f}",
             f"{system.service_rate_of_type(0):.3f}",
             system.injected_scrip)
        )
    print(render_table(
        ["scenario", "overall rate", "rare-type rate", "common rate", "injected"], rows
    ))
    return 0


def _cmd_bittorrent(args: argparse.Namespace) -> int:
    from ..bittorrent import SwarmConfig, UploadSatiationAttack, run_swarm_experiment

    config = SwarmConfig.paper()
    rows = []
    base = run_swarm_experiment(config, seed=args.seed)
    rows.append(("no attack", f"{base.mean_completion_round:.1f}", "-", "-", 0))
    attack = UploadSatiationAttack(n_attackers=3, targets=range(10), slots_per_attacker=4)
    hit = run_swarm_experiment(config, attack=attack, seed=args.seed)
    rows.append(
        ("upload satiation",
         f"{hit.mean_completion_round:.1f}",
         f"{hit.target_mean_completion:.1f}",
         f"{hit.non_target_mean_completion:.1f}",
         hit.attacker_pieces_uploaded)
    )
    print(render_table(
        ["scenario", "mean completion", "targets", "non-targets", "attacker upload"],
        rows,
    ))
    return 0


def _jobs_value(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one worker per CPU), got {value}"
        )
    return value


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotus-eater lint",
        description=(
            "lotus-lint: AST-based determinism & resource-discipline "
            "analyzer.  Rejects the known ways a change silently breaks "
            "the bit-exact parity invariants.  Every run checks both "
            "tiers: per file, global-state randomness, unsorted set "
            "iteration, wall-clock reads and unguarded counter writes; "
            "over the whole-program call graph, network/churn stream "
            "draws outside the event engine, unguarded batched writes, "
            "unpicklable task specs and unregistered fault sites.  "
            "Deliberate exceptions are inline "
            "'# lotus: ignore[CODE] reason' comments."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src tests benchmarks "
        "examples, whichever exist under the repo root)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help="report format (github emits ::error/::warning annotations "
        "for PR diffs, as the CI lotus-lint job does)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to enable (default: all); an "
        "unknown code is an error",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list inline-suppressed findings with their reasons",
    )
    return parser


def _cmd_lint(argv: List[str]) -> int:
    """The ``lotus-eater lint`` subcommand (own parser, own positionals)."""
    from pathlib import Path

    from ..analysis import (
        LintConfig,
        detect_root,
        flow_rule_codes,
        format_github,
        format_json,
        format_text,
        rule_codes,
        run_lint,
    )

    args = _build_lint_parser().parse_args(argv)
    enabled = None
    if args.rules:
        enabled = frozenset(code.strip().upper() for code in args.rules.split(","))
        known = set(rule_codes()) | set(flow_rule_codes())
        unknown = sorted(enabled - known)
        if unknown:
            print(
                "lotus-eater lint: unknown rule code(s): " + ", ".join(unknown)
                + " (known: " + ", ".join(sorted(known)) + ")",
                file=sys.stderr,
            )
            return 2
    root = detect_root(Path(args.paths[0]).resolve() if args.paths else None)
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            "lotus-eater lint: no such path(s): " + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    paths = [Path(p) for p in args.paths] or [
        root / name
        for name in ("src", "tests", "benchmarks", "examples")
        if (root / name).is_dir()
    ]
    result = run_lint(paths, config=LintConfig(enabled=enabled), root=root)
    if args.format == "json":
        print(format_json(result))
    elif args.format == "github":
        print(format_github(result))
    else:
        print(format_text(result, verbose=args.verbose))
    return result.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotus-eater",
        description="Regenerate experiments from 'The Lotus-Eater Attack' (PODC 2008).",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--fast", action="store_true", help="coarser grids / fewer rounds"
    )
    parser.add_argument(
        "--repetitions", type=int, default=1, help="seeds averaged per grid point"
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_value,
        default=1,
        help="worker processes for sweep cells (0 = one per CPU; "
        "default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $LOTUS_EATER_CACHE_DIR "
        f"or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-attempts per sweep cell after a worker crash, missed "
        "deadline, or raised exception before the cell fails "
        "terminally (default 2; cells are pure functions of their "
        "seed, so retries cannot change results)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell deadline; a worker that misses it is presumed "
        "wedged, terminated, and the cell re-runs elsewhere "
        "(default: no deadline)",
    )
    parser.add_argument(
        "--on-failure",
        choices=["raise", "skip", "serial"],
        default="raise",
        help="what to do with cells that exhaust their retry budget: "
        "abort the sweep (raise, default), drop the samples (skip), "
        "or re-run the quarantined cells serially in-process (serial)",
    )
    parser.add_argument(
        "--backend",
        choices=["sets", "words"],
        default="words",
        help="gossip update-store backend (words, the default: "
        "fixed-width word arrays whose rounds run as batched sweeps; "
        "sets: per-node Python sets, the reference oracle). Results "
        "are identical on both backends",
    )
    parser.add_argument(
        "--shards",
        type=int,
        choices=[0, 1],
        default=0,
        help="gossip partner model: 0 = the paper's uniform partner "
        "draws (default), 1 = the 4-node-cell pairing. The two give "
        "different results; the cache fingerprints the choice as "
        "'pairing'",
    )
    parser.add_argument(
        "--schedule",
        choices=["rounds", "event"],
        default="rounds",
        help="gossip schedule: the paper's synchronous rounds, or the "
        "virtual-time event engine (required for --latency/--loss/"
        "--churn; bit-identical to rounds when the network is ideal)",
    )
    parser.add_argument(
        "--latency",
        type=_parse_latency,
        default=None,
        metavar="SPEC",
        help="per-message latency in round units: MEAN (fixed), "
        "KIND:MEAN, or uniform:MEAN:JITTER "
        "(kinds: fixed, uniform, exponential)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="probability an individual message is dropped in flight",
    )
    parser.add_argument(
        "--churn",
        type=_parse_churn,
        default=None,
        metavar="SPEC",
        help="node churn as per-node Poisson rates: LEAVE or LEAVE:JOIN "
        "(per node per round unit; rejoining nodes bootstrap from a "
        "live correct node)",
    )
    parser.add_argument(
        "--grid",
        type=_parse_grid,
        default=None,
        help="comma-separated grid values for the sweep-* commands",
    )
    parser.add_argument(
        "--metric",
        default=None,
        help="result field the sweep-* commands report "
        "(default: per-model headline metric)",
    )
    parser.add_argument(
        "command",
        choices=[
            "table1", "figure1", "figure2", "figure3",
            "tokenmodel", "scrip", "bittorrent",
            "sweep-gossip", "sweep-scrip", "sweep-token", "sweep-swarm",
            "lint",
        ],
        help="which experiment to regenerate",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    # `lint` has its own parser and positionals (the paths to lint):
    # route it there before the experiment parser sees the argv.
    if raw and raw[0] == "lint":
        return _cmd_lint(raw[1:])
    parser = _build_parser()
    args = parser.parse_args(raw)
    commands: Dict[str, Callable[[argparse.Namespace], int]] = {
        "table1": _cmd_table1,
        "figure1": lambda a: _figure_command(figure1, a),
        "figure2": lambda a: _figure_command(figure2, a),
        "figure3": lambda a: _figure_command(figure3, a),
        "tokenmodel": _cmd_tokenmodel,
        "scrip": _cmd_scrip,
        "bittorrent": _cmd_bittorrent,
        "sweep-gossip": _cmd_sweep,
        "sweep-scrip": _cmd_sweep,
        "sweep-token": _cmd_sweep,
        "sweep-swarm": _cmd_sweep,
        # Reached only when global flags precede the word `lint`; the
        # experiment parser takes no positionals after the command, so
        # a path there is rejected (exit 2) rather than dropped.
        "lint": lambda a: _cmd_lint([]),
    }
    try:
        return commands[args.command](args)
    except (ReproError, OSError) as error:
        # Bad flag combinations and unwritable cache dirs surface here;
        # a traceback would bury the one line the user needs.
        print(f"lotus-eater: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
