"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_20k --seed 3 --seconds 30 --trace 0

``--trace 0`` measures in one fresh spawned process with tracing off
and prints every end-to-end metric of ``BENCHMARK.json``.  ``--trace 1``
measures once untraced and once traced, each in its own fresh process,
and prints every per-layer metric, including the tracing overhead
(traced minus untraced ``round_ms_p50``).  Either way the run's outputs
go through the correctness gate: episode fingerprints (or figure cell
values) must agree within the run, match the recorded references at the
default seed, and at any other seed a reduced-size run of the same
scenario must match the ``sets`` oracle.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
when the gate passes, 1 when it does not (a traced run also fails when
an entry point it wraps no longer exists), and 2 when the checkout
holds no program to measure.

``--record-references`` re-records the default-seed references after
checking them against the oracle.  ``--profile micro`` shrinks every
workload for the smoke tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
#: Every process a run starts must have ended within this margin plus
#: twice ``--seconds``: 170 s at the default 45.  The repeats fill about
#: ``--seconds``; set-ups, the oracle and a traced pass take the rest.
RUN_MARGIN_S = 80.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "micro"), default="full")
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--record-references", action="store_true")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Host manifest
# ---------------------------------------------------------------------------


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` directly; None outside a clone."""
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(root / ".git" / ref))
    if direct is not None:
        return direct.strip()
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """Digest of the program sources, which identifies a checkout that
    is not a git clone."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_manifest() -> Dict[str, Any]:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "l3_cache": l3.strip() if l3 else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "source_digest": source_digest(ROOT),
        "loadavg_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# Fresh spawned process per measurement
# ---------------------------------------------------------------------------


def run_child(request: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run :func:`perfbench.workloads.child_main` in a fresh spawned process."""
    from perfbench.workloads import child_main

    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=child_main, args=(sender, request))
    process.start()
    sender.close()
    try:
        if receiver.poll(max(1.0, deadline - time.monotonic())):
            return receiver.recv()
        return {"errors": ["measurement exceeded the run deadline"], "attempted": 1, "failed": 1}
    except EOFError:
        return {"errors": ["measurement process died"], "attempted": 1, "failed": 1}
    finally:
        receiver.close()
        process.join(10.0)
        if process.is_alive():
            process.terminate()
            process.join()


def stop_resource_tracker() -> None:
    """End the resource tracker the spawn context started, and wait for it.

    Every process a run starts must have ended when it exits; left
    alone, the tracker would only exit once it sees this process gone.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def load_reference(path: Path, profile: str, workload: str) -> Optional[Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle).get(profile, {}).get(workload)
    except (OSError, ValueError):
        return None


def oracle_single(workload: str, profile: str, seed: int) -> List[str]:
    """Reduced-size words run vs the sets oracle, and the oracle vs the
    public ``run_experiment`` entry point."""
    from perfbench import workloads
    from repro.bargossip.scenario import run_experiment

    params = workloads.PROFILES[profile][workload]
    n, rounds = params["oracle_n"], params["rounds"]
    words = workloads.run_fingerprint(workload, n, rounds, seed, "words")
    sets = workloads.run_fingerprint(workload, n, rounds, seed, "sets")
    problems = []
    if words != sets:
        problems.append(f"oracle: words {words} != sets {sets} at n={n}")
    scenario, execution = workloads.scenario_for(workload, n, rounds, "sets")
    result = run_experiment(scenario, execution=execution, seed=seed)
    public = {
        "correct": result.correct_fraction,
        "isolated": result.isolated_fraction,
        "satiated": result.satiated_fraction,
    }
    if any(sets[key] != value for key, value in public.items()):
        problems.append(f"oracle: run_experiment {public} != benchmark path {sets}")
    return problems


def oracle_sweep(cells: List[list]) -> List[str]:
    """Recompute one cell per attack in-process on the words backend."""
    from repro.bargossip.scenario import ExecutionConfig, Scenario
    from repro.harness.tasks import GossipSweepTask

    by_attack: Dict[str, list] = {}
    for cell in cells:
        by_attack.setdefault(cell[0]["kind"], []).append(cell)
    problems = []
    for kind, group in sorted(by_attack.items()):
        scenario_dict, x, seed, value, _ = sorted(group, key=lambda c: c[1])[len(group) // 2]
        task = GossipSweepTask(Scenario.from_dict(scenario_dict), ExecutionConfig(backend="words"))
        recomputed = task(x, seed)
        if recomputed != value:
            problems.append(f"oracle: {kind} cell x={x} sweep {value} != words {recomputed}")
    return problems


def gate(workload: str, profile: str, seed: int, runs: List[Dict[str, Any]],
         references: Path) -> Tuple[List[str], int, int]:
    """``(problems, attempted, failed)`` over every run of this invocation."""
    from perfbench import workloads

    attempted = sum(run.get("attempted", 0) for run in runs)
    failed = sum(run.get("failed", 0) for run in runs)
    problems = [error for run in runs for error in run.get("errors", [])]
    reference = load_reference(references, profile, workload)
    at_default = seed == workloads.DEFAULT_SEED
    if at_default and reference is None:
        return problems + [f"no {profile}/{workload} reference in {references}"], attempted, attempted
    if workloads.WORKLOADS[workload]["kind"] == "single":
        rounds = workloads.PROFILES[profile][workload]["rounds"]
        prints = [fp for run in runs for fp in run.get("fingerprints", [])]
        if not prints:
            return problems + ["no episode completed"], attempted, max(failed, 1)
        expected = reference if at_default else prints[0]
        bad = sum(fp != expected for fp in prints)
        if bad:
            problems.append(f"fingerprint mismatch in {bad} episode(s): {prints} vs {expected}")
            failed += bad * rounds
        if not at_default:
            oracle = oracle_single(workload, profile, seed)
            problems += oracle
            failed = attempted if oracle else failed
        return problems, attempted, failed
    sweeps = [values for run in runs for values in run.get("values", [])]
    if not sweeps:
        return problems + ["no sweep completed"], attempted, max(failed, 1)
    expected = reference["values"] if at_default else sweeps[0]
    bad = sum(a != b for values in sweeps for a, b in zip(values, expected))
    bad += sum(abs(len(values) - len(expected)) for values in sweeps)
    if bad:
        problems.append(f"{bad} figure cell value(s) differ from {'reference' if at_default else 'the first sweep'}")
        failed += bad
    if not at_default:
        oracle = oracle_sweep([cell for run in runs for sweep in run.get("cells", []) for cell in sweep])
        problems += oracle
        failed += len(oracle)
    return problems, attempted, failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: str, run: Dict[str, Any]) -> Tuple[Dict[str, float], str]:
    """End-to-end metrics of an untraced run, and a note on the tail.

    Timings are best-of-repeats per item (:func:`workloads.best_of`):
    per timed round for a simulation, per cell for the sweep.  Set-up
    is the best of every set-up the run made.
    """
    from perfbench import workloads

    if workloads.WORKLOADS[workload]["kind"] == "single":
        round_ms = workloads.best_of(run["round_ms"])
        throughput = run["nodes"] * len(round_ms) / (sum(round_ms) / 1000.0)
        wall = min(run["episode_wall_s"])
    else:
        cells = workloads.best_of(workloads.cell_seconds(run["cells"]))
        round_ms = [seconds * 1000.0 / run["rounds"] for seconds in cells]
        throughput = len(cells) * run["nodes"] * run["rounds"] / min(run["work_wall_s"])
        wall = min(run["sweep_wall_s"])
    pct, tail_value = workloads.tail(round_ms)
    metrics = {
        "setup_s": min(run["setup_s"]),
        "round_ms_p50": statistics.median(round_ms),
        "round_ms_tail": tail_value,
        "node_rounds_per_s": throughput,
        "wall_s": wall,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    repeats = len(run["round_ms"] if "round_ms" in run else run["cells"])
    note = f"round_ms_tail is p{pct:.1f} of {len(round_ms)} timed items, each the best of {repeats} repeat(s)"
    return metrics, note


def per_layer(workload: str, base: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced run; layers a workload does not
    exercise read 0."""
    from perfbench import workloads

    if workloads.WORKLOADS[workload]["kind"] == "single":
        traced_ms = workloads.best_of(traced["round_ms"])
    else:
        traced_ms = traced["serial_round_ms"]
    untraced, _ = end_to_end(workload, base)
    metrics = dict(traced.get("layers", {}))
    metrics["population.bytes_per_node"] = float(traced.get("bytes_per_node", 0))
    metrics["trace.round_ms_p50"] = statistics.median(traced_ms)
    metrics["trace.overhead_ms_per_round"] = (
        metrics["trace.round_ms_p50"] - untraced["round_ms_p50"]
    )
    return metrics


def shares(metrics: Dict[str, float], round_ms: float) -> str:
    """Layer shares of the untraced round, for the contrast the
    workloads rely on."""
    exchange_push = metrics["exchange.ms_per_round"] + metrics["push.ms_per_round"]
    return (
        f"exchange+push {exchange_push / round_ms:.0%} and truncate "
        f"{metrics['updates.truncate_ms_per_round'] / round_ms:.0%} of "
        f"untraced round_ms_p50 {round_ms:.1f} ms"
    )


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def record_references(args: argparse.Namespace, run: Dict[str, Any]) -> int:
    from perfbench import workloads

    if run.get("errors"):
        print("\n".join(run["errors"]), file=sys.stderr)
        return 1
    single = workloads.WORKLOADS[args.workload]["kind"] == "single"
    if single:
        problems = oracle_single(args.workload, args.profile, workloads.DEFAULT_SEED)
        entry: Any = run["fingerprints"][0]
    else:
        problems = oracle_sweep([cell for sweep in run["cells"] for cell in sweep])
        entry = {"values": run["values"][0]}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    try:
        with open(args.references, encoding="utf-8") as handle:
            stored = json.load(handle)
    except (OSError, ValueError):
        stored = {}
    stored.setdefault(args.profile, {})[args.workload] = entry
    with open(args.references, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {args.profile}/{args.workload} reference in {args.references}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import the benchmark as a package and the program from source; the
    # script's own directory must not shadow standard modules.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != BENCH_DIR
    ]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seed = workloads.DEFAULT_SEED if args.record_references else args.seed
    manifest = host_manifest()
    deadline = time.monotonic() + RUN_MARGIN_S + 2.0 * seconds
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    stem = f"{args.workload}-{args.profile}-seed{seed}-trace{args.trace}"
    request = {
        "workload": args.workload, "profile": args.profile, "seed": seed,
        "units": workloads.units_for(args.workload, args.profile, seconds),
        "trace": False, "work_dir": work_dir,
    }
    try:
        if args.record_references:
            return record_references(args, run_child(dict(request, units=1), deadline))
        if args.trace:
            traced = run_child(
                dict(request, units=1, trace=True, trace_path=str(OUT_DIR / f"{stem}-spans.json")),
                deadline,
            )
            runs = [traced.pop("base"), traced] if "base" in traced else [traced]
        else:
            runs = [run_child(request, deadline)]
        problems, attempted, failed = gate(args.workload, args.profile, seed, runs, args.references)
        # A wrapped entry point that is gone would read as a layer cost of 0.
        problems += [f"traced entry point not found: {name}" for name in runs[-1].get("missing_layers", [])]
        correct = not problems and failed == 0
        metrics: Dict[str, float] = {}
        notes: List[str] = []
        if not any(run.get("errors") for run in runs):
            e2e, note = end_to_end(args.workload, runs[0])
            notes.append(note)
            if args.trace:
                metrics = per_layer(args.workload, runs[0], runs[-1])
                notes.append(shares(metrics, e2e["round_ms_p50"]))
            else:
                metrics = e2e
    finally:
        stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        } if metrics else {},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"manifest": manifest, "notes": notes, "problems": problems, **result}, handle, indent=1)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("# manifest " + json.dumps(manifest, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
