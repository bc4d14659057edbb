"""Smoke tests for the example scripts: each runs to completion at a
small size and prints the reading it exists to show."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]


def run_example(script, *args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    # Scratch directories an example makes (parallel_sweep's cache)
    # land under the test's own tmp_path.
    env["TMPDIR"] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_million_nodes_example_reports_its_readings(tmp_path):
    out = run_example(
        "million_nodes.py", "--nodes", "2000", "--rounds", "2", tmp_path=tmp_path
    )
    assert re.search(r"^init: \d+ ms$", out, re.MULTILINE)
    assert "ms/round over 2 rounds" in out
    assert "B/node" in out
    assert "peak RSS:" in out


EXAMPLES = [
    ("quickstart.py", [], "trade attack: isolated nodes get"),
    ("bittorrent_swarm.py", [], "mean completion round"),
    ("reputation_sybils.py", [], "1 Sybil, rater cap"),
    ("scrip_economy_attack.py", [], "rare-type rate"),
    ("token_model_audit.py", [], "rare-token attack (satiate 1 node)"),
    ("async_churn.py", [], "leave rate"),
    ("streaming_video_attack.py", ["--fast"], "Figure 1"),
    ("parallel_sweep.py", ["--jobs", "1", "--repetitions", "1"], "cells from cache"),
]


@pytest.mark.parametrize(
    "script, args, expected",
    [pytest.param(*example, id=example[0]) for example in EXAMPLES],
)
def test_example_runs(script, args, expected, tmp_path):
    assert expected in run_example(script, *args, tmp_path=tmp_path)
