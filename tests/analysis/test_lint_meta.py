"""Meta-tests: the shipped tree is lotus-lint clean, and the CLI
subcommand drives the analyzer end to end."""

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import Baseline, LintConfig, run_lint
from repro.harness.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
TREE = ["src", "tests", "benchmarks", "examples"]


def repo_paths():
    return [REPO_ROOT / name for name in TREE if (REPO_ROOT / name).is_dir()]


class TestShippedTree:
    def test_tree_is_clean(self):
        """The acceptance gate: zero active findings on the shipped tree."""
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        result = run_lint(
            repo_paths(), config=LintConfig(), root=REPO_ROOT, baseline=baseline
        )
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.exit_code == 0, f"lotus-lint findings:\n{rendered}"
        assert result.files_checked > 100

    def test_tree_is_clean_with_flow_tier(self):
        """The flow tier (FLW010-FLW013) also runs clean on the tree."""
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        result = run_lint(
            repo_paths(),
            config=LintConfig(),
            root=REPO_ROOT,
            baseline=baseline,
            flow=True,
        )
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.exit_code == 0, f"lotus-lint --flow findings:\n{rendered}"
        assert result.flow

    def test_every_suppression_in_tree_has_a_reason(self):
        """Inline suppressions in the shipped tree must carry a written
        justification, mirroring the baseline-justification rule."""
        result = run_lint(repo_paths(), config=LintConfig(), root=REPO_ROOT)
        missing = [
            f"{finding.path}:{suppression.comment_line}"
            for finding, suppression in result.suppressed
            if not suppression.reason.strip()
        ]
        assert missing == [], f"suppressions without a reason: {missing}"

    def test_shipped_baseline_has_no_unjustified_entries(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.invalid_entries() == []

    def test_cli_lint_src_tests_is_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src", "tests"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


@pytest.fixture
def fixture_repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='fixture'\n")
    module_dir = tmp_path / "src" / "repro" / "bargossip"
    module_dir.mkdir(parents=True)
    (module_dir / "proto.py").write_text(
        dedent(
            """
            import random

            def draw():
                return random.random()
            """
        )
    )
    return tmp_path


class TestCli:
    def test_lint_fails_on_finding(self, fixture_repo, capsys):
        code = main(["lint", str(fixture_repo / "src")])
        assert code == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_format(self, fixture_repo, capsys):
        code = main(["lint", "--format", "json", str(fixture_repo / "src")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1
        assert {f["rule"] for f in payload["findings"]} == {"DET001"}
        assert all(f["fingerprint"] for f in payload["findings"])

    def test_rules_subset(self, fixture_repo, capsys):
        code = main(["lint", "--rules", "DET002", str(fixture_repo / "src")])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_write_baseline_requires_justification(self, fixture_repo, capsys):
        code = main(["lint", "--write-baseline", str(fixture_repo / "src")])
        assert code == 2
        assert "justification" in capsys.readouterr().err

    def test_write_baseline_then_clean_then_expire(self, fixture_repo, capsys):
        # 1. grandfather the finding
        code = main(
            [
                "lint",
                "--write-baseline",
                "--justification",
                "pre-rule fixture code",
                str(fixture_repo / "src"),
            ]
        )
        assert code == 0
        baseline_path = fixture_repo / "lint-baseline.json"
        assert baseline_path.exists()
        payload = json.loads(baseline_path.read_text())
        assert len(payload["entries"]) == 1  # the random.random() call
        assert all(e["justification"] for e in payload["entries"])

        # 2. baselined tree lints clean
        assert main(["lint", str(fixture_repo / "src")]) == 0
        assert "1 baselined" in capsys.readouterr().out

        # 3. fixing the code turns the entries stale (reported, exit 0)
        proto = fixture_repo / "src" / "repro" / "bargossip" / "proto.py"
        proto.write_text("def draw(rng):\n    return rng.random()\n")
        assert main(["lint", str(fixture_repo / "src")]) == 0
        assert "stale baseline" in capsys.readouterr().out

        # 4. --write-baseline prunes the stale entries
        code = main(
            [
                "lint",
                "--write-baseline",
                "--justification",
                "unused",
                str(fixture_repo / "src"),
            ]
        )
        assert code == 0
        payload = json.loads(baseline_path.read_text())
        assert payload["entries"] == []

    def test_github_format(self, fixture_repo, capsys):
        code = main(["lint", "--format", "github", str(fixture_repo / "src")])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/bargossip/proto.py,line=" in out
        assert "title=lotus-lint DET001::" in out

    def test_prune_baseline_removes_stale_entries(self, fixture_repo, capsys):
        main(
            [
                "lint",
                "--write-baseline",
                "--justification",
                "pre-rule fixture code",
                str(fixture_repo / "src"),
            ]
        )
        capsys.readouterr()
        baseline_path = fixture_repo / "lint-baseline.json"

        # Nothing stale yet: prune is a no-op and exits 0.
        assert main(["lint", "--prune-baseline", str(fixture_repo / "src")]) == 0
        assert "pruned 0" in capsys.readouterr().out
        assert len(json.loads(baseline_path.read_text())["entries"]) == 1

        # Fix the finding; the entry goes stale and prune removes it (exit 1).
        proto = fixture_repo / "src" / "repro" / "bargossip" / "proto.py"
        proto.write_text("def draw(rng):\n    return rng.random()\n")
        assert main(["lint", "--prune-baseline", str(fixture_repo / "src")]) == 1
        assert "pruned 1" in capsys.readouterr().out
        assert json.loads(baseline_path.read_text())["entries"] == []

    def test_prune_baseline_conflicts_with_no_baseline(self, fixture_repo, capsys):
        code = main(
            ["lint", "--prune-baseline", "--no-baseline", str(fixture_repo / "src")]
        )
        assert code == 2
        assert "--prune-baseline" in capsys.readouterr().err

    def test_flow_flag_runs_flow_tier(self, fixture_repo, capsys):
        proto = fixture_repo / "src" / "repro" / "bargossip" / "proto.py"
        # Only visible interprocedurally: the raw write is to a plain
        # name, so the per-file tier (API006) cannot see it.
        proto.write_text(
            "def run_exchanges_batched(state):\n"
            "    bump(state.counters)\n"
            "\n"
            "\n"
            "def bump(arr):\n"
            "    arr[0] = 1\n"
        )
        code = main(
            ["lint", "--flow", "--format", "json", str(fixture_repo / "src")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["flow"] is True
        assert "FLW010" in {f["rule"] for f in payload["findings"]}

        # --no-flow wins over --flow.
        code = main(
            [
                "lint",
                "--flow",
                "--no-flow",
                "--format",
                "json",
                str(fixture_repo / "src"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["flow"] is False

    def test_nonexistent_path_is_an_error(self, fixture_repo, capsys):
        """A typo'd explicit path must not pass green (exit 2, not 0)."""
        code = main(["lint", str(fixture_repo / "srk")])
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_no_baseline_flag(self, fixture_repo, capsys):
        main(
            [
                "lint",
                "--write-baseline",
                "--justification",
                "grandfathered",
                str(fixture_repo / "src"),
            ]
        )
        assert main(["lint", str(fixture_repo / "src")]) == 0
        capsys.readouterr()
        assert main(["lint", "--no-baseline", str(fixture_repo / "src")]) == 1
