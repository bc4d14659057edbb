"""The benchmark workloads and their measurement.

Every workload is the figure-1 trade point: Table 1 parameters,
``AttackKind.TRADE``, 20% attackers, and the seed the caller passes.

* ``paper_20k``: one 20,000-node simulation on the paper's uniform
  partner schedule, ``words`` backend, serial (per-pair dispatch).
* ``cells_100k``: one 100,000-node simulation on the 4-node-cell
  pairing, ``words`` backend, batched whole-phase sweeps, serial.
* ``fig1_sweep``: ``figures.figure1()`` on its default grid, run by
  ``SweepExecutor(jobs=2)`` into a fresh, cold ``ResultCache``.

``BENCHMARK.json`` lists ``cells_100k`` and ``fig1_sweep``.
``paper_20k`` stays runnable by name; see ``perfbench/README.md`` for
why the benchmark dropped it.

:func:`child_main` is the body of the fresh spawned process that
measures one workload; :mod:`perfbench.run` starts it and gates its
outputs.  Work per run is fixed: ``units`` same-seed repeats of an
episode (one simulation from construction through its last round) or
a sweep, sized by :func:`units_for` from ``--seconds``, so two commits
are compared on the same samples.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Attack point shared by every workload.
ATTACKER_FRACTION = 0.2
#: The seed the recorded references were taken at.
DEFAULT_SEED = 0
#: Sweep worker processes: one per CPU of the 2-CPU baseline host.
SWEEP_JOBS = 2
#: Extra set-ups before each repeat, beyond the one the repeat makes
#: itself, so ``setup_s`` is the best of samples spread across the run.
SETUP_REPS = {"single": 1, "sweep": 5}

WORKLOADS: Dict[str, Dict[str, str]] = {
    "paper_20k": {"kind": "single", "partner_model": "uniform", "backend": "words"},
    "cells_100k": {"kind": "single", "partner_model": "cells", "backend": "words"},
    "fig1_sweep": {"kind": "sweep", "partner_model": "uniform", "backend": "sets"},
}

#: Sizes per profile.  ``rounds`` is one repeat's length; rounds before
#: one update lifetime (10) are warm-up and untimed.  A run makes
#: ``--seconds / unit_s`` repeats, at least two (:func:`units_for`).
#: ``oracle_n`` is the reduced population of the sets-oracle cross-check.
PROFILES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "paper_20k": {"n": 20_000, "rounds": 30, "unit_s": 15.0, "oracle_n": 500},
        "cells_100k": {"n": 100_000, "rounds": 40, "unit_s": 10.0, "oracle_n": 500},
        "fig1_sweep": {"n": 250, "rounds": 50, "unit_s": 15.0, "fractions": None},
    },
    "micro": {
        "paper_20k": {"n": 400, "rounds": 24, "unit_s": 1.0, "oracle_n": 200},
        "cells_100k": {"n": 400, "rounds": 24, "unit_s": 1.0, "oracle_n": 200},
        "fig1_sweep": {"n": 100, "rounds": 24, "unit_s": 1.0, "fractions": (0.1, 0.3)},
    },
}


class GateError(RuntimeError):
    """A workload ran something other than what it names."""


def units_for(workload: str, profile: str, seconds: float) -> int:
    """Repeats (at least two) that fill ``seconds`` at the baseline speed."""
    return max(2, round(seconds / PROFILES[profile][workload]["unit_s"]))


def best_of(repeats: List[List[float]]) -> List[float]:
    """Per-item minimum over repeats of the same items.

    Repeats run the same seed, so item ``i`` (a timed round, or a
    figure cell) does the same work in every repeat; its cheapest
    repeat is the one other tenants of the host disturbed least.
    """
    return [min(times) for times in zip(*repeats)]


def tail(values: List[float]) -> Tuple[float, float]:
    """``(pct, value)``: the highest percentile with ten samples beyond
    it (the eleventh largest), never below the median; fewer than 21
    samples leave only the median."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index + 1 <= len(ordered) / 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


# ---------------------------------------------------------------------------
# Partner model: resolved in one place
# ---------------------------------------------------------------------------


def resolve_partner_model(model: str, backend: str) -> Tuple[Dict[str, Any], Any]:
    """Scenario fields and ExecutionConfig that run ``model``.

    Uses an explicit partner-model field on ``Scenario`` when the
    checkout has one (``pairing``), and falls back to the ``shards``
    mapping (0 = uniform, 1 = cells) otherwise.
    """
    from repro.bargossip.scenario import ExecutionConfig, Scenario

    if model not in ("uniform", "cells"):
        raise GateError(f"unknown partner model {model!r}")
    fields = {field.name for field in dataclasses.fields(Scenario)}
    scenario_fields = {"pairing": model} if "pairing" in fields else {}
    execution = ExecutionConfig(backend=backend, shards=1 if model == "cells" else 0)
    return scenario_fields, execution


def check_partner_model(simulator: Any, model: str) -> None:
    """Raise unless ``simulator`` runs the schedule class ``model`` names."""
    from repro.bargossip.partner import PartnerSchedule
    from repro.bargossip.sharding import ShardedPartnerSchedule

    expected = PartnerSchedule if model == "uniform" else ShardedPartnerSchedule
    schedule = getattr(simulator, "_partners", None)
    if not isinstance(schedule, expected):
        raise GateError(
            f"partner model {model!r} expects {expected.__name__}, "
            f"simulator runs {type(schedule).__name__}"
        )


def check_sweep_task(task: Any, model: str) -> None:
    """Raise unless a figure sweep task resolves to ``model``."""
    scenario_fields, execution = resolve_partner_model(model, task.execution.backend)
    pairing = getattr(task.scenario, "pairing", None)
    if task.execution.shards != execution.shards or pairing != scenario_fields.get("pairing"):
        raise GateError(
            f"figure sweep expected partner model {model!r}, got shards="
            f"{task.execution.shards} pairing={pairing!r}"
        )


# ---------------------------------------------------------------------------
# Single-simulation workloads
# ---------------------------------------------------------------------------


def scenario_for(workload: str, n: int, rounds: int, backend: Optional[str] = None) -> Tuple[Any, Any]:
    """The workload's ``(Scenario, ExecutionConfig)`` at population ``n``."""
    from repro.bargossip.attacker import AttackKind
    from repro.bargossip.config import GossipConfig
    from repro.bargossip.scenario import Scenario

    spec = WORKLOADS[workload]
    scenario_fields, execution = resolve_partner_model(
        spec["partner_model"], backend or spec["backend"]
    )
    scenario = Scenario(
        config=GossipConfig.paper().replace(n_nodes=n),
        kind=AttackKind.TRADE,
        attacker_fraction=ATTACKER_FRACTION,
        rounds=rounds,
        **scenario_fields,
    )
    return scenario, execution


def build_simulator(scenario: Any, execution: Any, seed: int) -> Any:
    """Construct the simulator exactly as ``run_experiment`` does."""
    from repro.bargossip.attacker import AttackerCoalition
    from repro.bargossip.simulator import GossipSimulator
    from repro.core.rng import RngStreams

    coalition = AttackerCoalition.build(
        scenario.kind,
        n_nodes=scenario.config.n_nodes,
        attacker_fraction=scenario.attacker_fraction,
        rng=RngStreams(seed).get("coalition"),
        satiate_fraction=scenario.satiate_fraction,
    )
    return GossipSimulator(
        scenario.config,
        attack=coalition,
        seed=seed,
        reporting=scenario.reporting,
        rotate_targets_every=scenario.rotate_targets_every,
        execution=execution,
        network=scenario.network,
        schedule=scenario.schedule,
    )


def fingerprint(simulator: Any) -> Dict[str, Any]:
    """Determinism fingerprint plus the per-group delivery fractions.

    Have-bit popcount, counters-matrix sum and updates served summarize
    every interaction of the run, so two runs agreeing here agree on
    the whole trace.
    """
    from repro.bargossip.updates import word_popcounts

    pool = getattr(simulator, "_pool", None)
    if hasattr(pool, "have_words"):
        have_bits = int(word_popcounts(pool.have_words).sum())
    else:
        have_bits = sum(len(node.store.have) for node in simulator.nodes)
    return {
        "have_bits": have_bits,
        "counters_sum": int(simulator.population.counters.sum()),
        "updates_served": int(simulator.attack.updates_served),
        "correct": simulator.delivery_fraction("correct"),
        "isolated": simulator.delivery_fraction("isolated"),
        "satiated": simulator.delivery_fraction("satiated"),
    }


def run_fingerprint(workload: str, n: int, rounds: int, seed: int, backend: str) -> Dict[str, Any]:
    """Fingerprint of one untimed run (the oracle cross-check's unit)."""
    scenario, execution = scenario_for(workload, n, rounds, backend)
    simulator = build_simulator(scenario, execution, seed)
    try:
        check_partner_model(simulator, WORKLOADS[workload]["partner_model"])
        for _ in range(rounds):
            simulator.step()
        return fingerprint(simulator)
    finally:
        simulator.close()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _interaction_counts(simulator: Any) -> Dict[str, Tuple[int, int]]:
    from repro.bargossip.node import COUNTER_INDEX

    totals = simulator.population.counters.sum(axis=0)
    return {
        "exchange": (int(totals[COUNTER_INDEX["exchanges_nonempty"]]),
                     int(totals[COUNTER_INDEX["exchanges_initiated"]])),
        "push": (int(totals[COUNTER_INDEX["pushes_nonempty"]]),
                 int(totals[COUNTER_INDEX["pushes_initiated"]])),
    }


def measure_single(workload: str, profile: str, seed: int, units: int, tracer: Any) -> Dict[str, Any]:
    """Repeats of one simulation, each built fresh and stepped to its end."""
    params = PROFILES[profile][workload]
    model = WORKLOADS[workload]["partner_model"]
    rounds = params["rounds"]
    scenario, execution = scenario_for(workload, params["n"], rounds)
    warm = scenario.config.update_lifetime
    out: Dict[str, Any] = {
        "nodes": params["n"], "setup_s": [], "round_ms": [], "episode_wall_s": [],
        "fingerprints": [], "attempted": 0, "failed": 0,
        "errors": [], "interactions": {"exchange": [0, 0], "push": [0, 0]},
    }

    def build() -> Any:
        gc.collect()
        if tracer is not None:
            tracer.phase = "setup"
        start = time.perf_counter()
        simulator = build_simulator(scenario, execution, seed)
        out["setup_s"].append(time.perf_counter() - start)
        check_partner_model(simulator, model)
        return simulator

    # Every repeat runs the same seed: same inputs, same work, same
    # fingerprint, so per-round timings pair up across repeats.
    for _ in range(units):
        for _ in range(SETUP_REPS["single"]):
            build().close()
        start = time.perf_counter()
        simulator = build()
        timings: List[float] = []
        try:
            for round_now in range(rounds):
                timed = round_now >= warm
                if tracer is not None:
                    tracer.phase = "timed" if timed else "warm"
                out["attempted"] += 1
                step_start = time.perf_counter()
                try:
                    simulator.step()
                except Exception:
                    out["failed"] += rounds - round_now
                    out["errors"].append(traceback.format_exc())
                    break
                elapsed = time.perf_counter() - step_start
                if timed:
                    timings.append(elapsed * 1000.0)
            else:
                out["round_ms"].append(timings)
                out["episode_wall_s"].append(time.perf_counter() - start)
                out["fingerprints"].append(fingerprint(simulator))
                if execution.backend == "words":
                    out["bytes_per_node"] = simulator.memory_breakdown()["bytes_per_node"]
                for layer, (nonempty, initiated) in _interaction_counts(simulator).items():
                    out["interactions"][layer][0] += nonempty
                    out["interactions"][layer][1] += initiated
        finally:
            simulator.close()
        del simulator
        if out["errors"]:
            break
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


# ---------------------------------------------------------------------------
# The figure sweep
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TimedCell:
    """A sweep task that logs each cell's wall time, then returns its value.

    Cells run in the executor's worker processes, which the benchmark
    cannot trace; each call appends one JSON line to a per-process file
    in ``log_dir``.  The cache fingerprint is the wrapped task's, so
    cache keys are exactly those of the plain figure path.
    """

    task: Any
    log_dir: str

    def __call__(self, x: float, seed: int) -> Optional[float]:
        start = time.perf_counter()
        value = self.task(x, seed)
        seconds = time.perf_counter() - start
        record = [self.task.scenario.to_dict(), x, seed, value, seconds]
        path = os.path.join(self.log_dir, f"cells-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        return value

    def cache_fingerprint(self) -> Dict[str, Any]:
        return self.task.cache_fingerprint()


@contextmanager
def timed_cells(log_dir: str, model: str) -> Iterator[None]:
    """Have ``figures.figure1`` build :class:`TimedCell` tasks."""
    from repro.harness import figures

    original = figures.GossipSweepTask

    def factory(*args: Any, **kwargs: Any) -> TimedCell:
        task = original(*args, **kwargs)
        check_sweep_task(task, model)
        return TimedCell(task, log_dir)

    figures.GossipSweepTask = factory
    try:
        yield
    finally:
        figures.GossipSweepTask = original


def read_cells(log_dir: str) -> List[list]:
    """Every cell record the workers of one sweep logged."""
    records: List[list] = []
    for path in sorted(Path(log_dir).glob("cells-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def cell_seconds(sweeps: List[List[list]]) -> List[List[float]]:
    """Per-sweep cell wall times, aligned by (attack, fraction, seed)."""
    keyed = [
        {(cell[0]["kind"], cell[1], cell[2]): cell[4] for cell in cells} for cells in sweeps
    ]
    return [[times[key] for key in sorted(keyed[0])] for times in keyed]


def sweep_config(profile: str) -> Tuple[Any, Dict[str, Any]]:
    """Gossip config and ``figure1`` keyword arguments of the sweep."""
    from repro.bargossip.config import GossipConfig
    from repro.harness.figures import DEFAULT_FRACTIONS

    params = PROFILES[profile]["fig1_sweep"]
    config = GossipConfig.paper().replace(n_nodes=params["n"])
    return config, {
        "fractions": params["fractions"] or DEFAULT_FRACTIONS,
        "rounds": params["rounds"],
    }


def curve_values(curves: Dict[str, Any]) -> List[float]:
    """Every cell value of a figure, curve by curve in figure order."""
    return [value for series in curves.values() for value in series.ys]


def measure_sweep(profile: str, seed: int, units: int, tracer: Any, work_dir: str) -> Dict[str, Any]:
    """Cold-cache figure-1 sweeps on a fresh two-worker executor each."""
    from repro.harness.cache import ResultCache
    from repro.harness.figures import figure1
    from repro.harness.parallel import SweepExecutor

    config, kwargs = sweep_config(profile)
    model = WORKLOADS["fig1_sweep"]["partner_model"]
    out: Dict[str, Any] = {
        "nodes": config.n_nodes, "rounds": kwargs["rounds"], "setup_s": [],
        "sweep_wall_s": [], "work_wall_s": [], "cells": [], "values": [],
        "attempted": 0, "failed": 0, "errors": [], "cache_misses": 0,
        "cells_failed": 0,
    }
    cells_per_sweep = 3 * len(kwargs["fractions"])
    for index in range(units):
        for _ in range(SETUP_REPS["sweep"]):
            start = time.perf_counter()
            executor = SweepExecutor(jobs=SWEEP_JOBS)
            executor.warm_up()
            out["setup_s"].append(time.perf_counter() - start)
            executor.close()
        if tracer is not None:
            tracer.phase = "sweep"
        log_dir = tempfile.mkdtemp(prefix=f"sweep{index}-", dir=work_dir)
        cache = ResultCache(os.path.join(log_dir, "cache"))
        out["attempted"] += cells_per_sweep
        start = time.perf_counter()
        executor = SweepExecutor(jobs=SWEEP_JOBS, cache=cache)
        try:
            executor.warm_up()
            out["setup_s"].append(time.perf_counter() - start)
            work_start = time.perf_counter()
            with timed_cells(log_dir, model):
                curves = figure1(config, root_seed=seed, executor=executor, **kwargs)
            out["work_wall_s"].append(time.perf_counter() - work_start)
        except Exception:
            out["failed"] += cells_per_sweep
            out["errors"].append(traceback.format_exc())
            break
        finally:
            executor.close()
        out["sweep_wall_s"].append(time.perf_counter() - start)
        out["values"].append(curve_values(curves))
        out["cells"].append(read_cells(log_dir))
        out["cache_misses"] += cache.misses
        out["cells_failed"] += len(executor.failures)
        out["failed"] += len(executor.failures)
        shutil.rmtree(log_dir, ignore_errors=True)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Any, interactions: Dict[str, List[int]], rounds_timed: int,
                  builds: int, setup_phase: str) -> Dict[str, float]:
    """Per-layer self time per timed round, counts, and set-up split."""
    own = tracer.self_time["timed"]
    calls = tracer.calls["timed"]
    counts = tracer.counts["timed"]
    setup = tracer.self_time[setup_phase]
    rounds = max(1, rounds_timed)
    builds = max(1, builds)
    metrics = {
        "exchange.ms_per_round": own["exchange"] * 1000.0 / rounds,
        "push.ms_per_round": own["push"] * 1000.0 / rounds,
        "exchange.calls_per_round": calls["exchange.calls"] / rounds,
        "push.calls_per_round": calls["push.calls"] / rounds,
        "updates.truncate_ms_per_round": own["updates.truncate"] * 1000.0 / rounds,
        "updates.truncate_rows_per_round": counts["updates.truncate_rows"] / rounds,
        "updates.truncate_bytes_per_round": counts["updates.truncate_bytes"] / rounds,
        "updates.broadcast_ms_per_round": own["updates.broadcast"] * 1000.0 / rounds,
        "updates.expiry_ms_per_round": own["updates.expiry"] * 1000.0 / rounds,
        "partner.ms_per_round": own["partner"] * 1000.0 / rounds,
        "attacker.dump_ms_per_round": own["attacker.dump"] * 1000.0 / rounds,
        "simulator.other_ms_per_round": own["simulator"] * 1000.0 / rounds,
        "population.setup_store_s": setup["population.store"] / builds,
        "population.setup_nodes_s": setup["population.nodes"] / builds,
    }
    for layer, (nonempty, initiated) in interactions.items():
        metrics[f"{layer}.nonempty_frac"] = nonempty / initiated if initiated else 0.0
    return metrics


@contextmanager
def collect_interactions(totals: Dict[str, List[int]]) -> Iterator[None]:
    """Add every closing simulator's interaction counters to ``totals``.

    ``run_experiment`` closes its simulator when the cell ends, so this
    reads the counters of cells whose simulators the benchmark never
    holds.
    """
    from repro.bargossip.simulator import GossipSimulator

    original = GossipSimulator.close

    def close(simulator: Any) -> None:
        for layer, (nonempty, initiated) in _interaction_counts(simulator).items():
            totals[layer][0] += nonempty
            totals[layer][1] += initiated
        original(simulator)

    GossipSimulator.close = close
    try:
        yield
    finally:
        GossipSimulator.close = original


def sweep_layer_metrics(tracer: Any, result: Dict[str, Any], profile: str, seed: int,
                        work_dir: str) -> Dict[str, float]:
    """Harness figures of the parallel pass, then simulator layers of a
    traced serial pass over the same cells (workers cannot be wrapped)."""
    from perfbench.tracing import SIMULATOR_LAYERS

    seconds = [cell[4] for sweep in result["cells"] for cell in sweep]
    harness = {
        "sweep.cell_s_p50": statistics.median(seconds),
        "sweep.parallel_eff": sum(seconds) / (SWEEP_JOBS * sum(result["work_wall_s"])),
        "sweep.retries": float(sum(c["sweep.retries"] for c in tracer.counts.values())),
        "sweep.cells_failed": float(result["cells_failed"]),
        "cache.put_ms_p50": statistics.median(tracer.durations_ms("cache.put")),
        "cache.get_ms_p50": statistics.median(tracer.durations_ms("cache.get")),
        "cache.misses": float(result["cache_misses"]),
    }
    config, kwargs = sweep_config(profile)
    log_dir = tempfile.mkdtemp(prefix="serial-", dir=work_dir)
    interactions = {"exchange": [0, 0], "push": [0, 0]}
    tracer.install(SIMULATOR_LAYERS)
    tracer.phase = "timed"
    try:
        from repro.harness.figures import figure1
        from repro.harness.parallel import SweepExecutor

        with timed_cells(log_dir, WORKLOADS["fig1_sweep"]["partner_model"]), \
                collect_interactions(interactions):
            curves = figure1(config, root_seed=seed, executor=SweepExecutor(jobs=1), **kwargs)
        cells = read_cells(log_dir)
    finally:
        tracer.uninstall()
        shutil.rmtree(log_dir, ignore_errors=True)
    result["values"].append(curve_values(curves))
    result["serial_round_ms"] = [cell[4] * 1000.0 / kwargs["rounds"] for cell in cells]
    result["attempted"] += len(cells)
    metrics = layer_metrics(
        tracer, interactions, tracer.calls["timed"]["simulator"],
        tracer.calls["timed"]["setup"], setup_phase="timed",
    )
    metrics.update(harness)
    return metrics


# ---------------------------------------------------------------------------
# The spawned process
# ---------------------------------------------------------------------------


def measure(workload: str, profile: str, seed: int, units: int, trace: bool,
            work_dir: str, trace_path: Optional[str] = None) -> Dict[str, Any]:
    """One measurement; see :func:`child_main`.

    Untraced, it makes ``units`` repeats.  Traced, a simulation runs one
    untraced and then one traced repeat in this process; the untraced
    one, returned as ``result["base"]``, is the baseline of the tracing
    overhead.  A traced sweep wraps only the harness calls of its parent
    (the workers run the cells untraced, so its own cell times are the
    baseline), then runs the traced serial pass.
    """
    from perfbench.tracing import HARNESS_LAYERS, SIMULATOR_LAYERS, Tracer

    single = WORKLOADS[workload]["kind"] == "single"
    if not trace:
        if single:
            return measure_single(workload, profile, seed, units, None)
        return measure_sweep(profile, seed, units, None, work_dir)
    tracer = Tracer()
    base = measure_single(workload, profile, seed, 1, None) if single else None
    if base is not None and base["errors"]:
        return base
    tracer.install(SIMULATOR_LAYERS if single else HARNESS_LAYERS)
    try:
        if single:
            result = measure_single(workload, profile, seed, 1, tracer)
        else:
            result = measure_sweep(profile, seed, 1, tracer, work_dir)
    finally:
        tracer.uninstall()
    if result["errors"]:
        return result
    if single:
        result["base"] = base
        result["layers"] = layer_metrics(
            tracer, result["interactions"], sum(map(len, result["round_ms"])),
            len(result["setup_s"]), setup_phase="setup",
        )
    else:
        result["layers"] = sweep_layer_metrics(tracer, result, profile, seed, work_dir)
    result["missing_layers"] = tracer.missing
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle)
    return result


def child_main(conn: Any, request: Dict[str, Any]) -> None:
    """Body of the spawned process: measure, send the raw result back."""
    try:
        result = measure(**request)
    except BaseException:  # noqa: BLE001 - reported to the parent as data
        result = {"errors": [traceback.format_exc()], "attempted": 1, "failed": 1}
    try:
        conn.send(result)
    finally:
        conn.close()
