"""Smoke tests of the benchmark itself, at micro size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs through the same code path as a full run (spawned
measurement process, correctness gate, result line), shrunk by
``--profile micro``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# paper_20k is not in BENCHMARK.json (too unsteady on a shared host),
# but it stays runnable by name, so it is smoke-tested too.
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]] + ["paper_20k"]


def run_bench(*args: str, cwd: Path = ROOT) -> Tuple[int, List[str], str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--profile", "micro", "--seconds", "2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: str) -> None:
    code, lines, stderr = run_bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert code == 0, stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        assert f"{metric['name']} {entry['value']!r} {metric['unit']}" in lines
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_on_a_wrong_reference(workload: str, tmp_path: Path) -> None:
    references = json.loads((ROOT / "perfbench" / "references.json").read_text(encoding="utf-8"))
    entry = references["micro"][workload]
    if "values" in entry:
        entry["values"][0] += 1e-9
    else:
        entry["counters_sum"] += 1
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps(references), encoding="utf-8")
    code, lines, _ = run_bench("--workload", workload, "--seed", "0", "--references", str(wrong))
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_default_seed_matches_the_recorded_reference() -> None:
    code, lines, stderr = run_bench("--workload", "paper_20k", "--seed", "0")
    assert code == 0, stderr
    assert json.loads(lines[-1])["correct"] is True


def test_traced_run_fails_when_a_wrapped_entry_point_is_gone(tmp_path: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    with open(tmp_path / "perfbench" / "tracing.py", "a", encoding="utf-8") as handle:
        handle.write(
            "\nSIMULATOR_LAYERS += ((\"repro.bargossip.simulator\", \"InteractionEngine\","
            " \"renamed_away\", \"exchange\", SPAN, None),)\n"
        )
    code, lines, stderr = run_bench("--workload", "cells_100k", "--seed", "3", "--trace", "1",
                                    cwd=tmp_path)
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert "InteractionEngine.renamed_away" in stderr


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run_bench("--workload", "paper_20k", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
