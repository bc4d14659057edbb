"""Meta-tests: the shipped tree is lotus-lint clean, and the CLI
subcommand drives the analyzer end to end."""

import ast
import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import LintConfig, run_lint
from repro.analysis.flow.project import ProjectModel
from repro.harness.cli import _build_lint_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]
TREE = ["src", "tests", "benchmarks", "examples"]


def repo_paths():
    return [REPO_ROOT / name for name in TREE if (REPO_ROOT / name).is_dir()]


@pytest.fixture(scope="module")
def tree_result():
    return run_lint(repo_paths(), config=LintConfig(), root=REPO_ROOT)


class TestShippedTree:
    def test_tree_is_clean(self, tree_result):
        """The acceptance gate: zero active findings on the shipped
        tree, per-file and flow tiers alike."""
        rendered = "\n".join(f.render() for f in tree_result.findings)
        assert tree_result.exit_code == 0, f"lotus-lint findings:\n{rendered}"
        assert tree_result.files_checked > 100

    def test_every_suppression_in_tree_has_a_reason(self, tree_result):
        """Inline suppressions are the one exception mechanism, and each
        one in the shipped tree must carry a written justification."""
        missing = [
            f"{finding.path}:{suppression.comment_line}"
            for finding, suppression in tree_result.suppressed
            if not suppression.reason.strip()
        ]
        assert missing == [], f"suppressions without a reason: {missing}"

    def test_cli_lint_src_tests_is_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src", "tests"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


#: The config lists naming functions or classes of the shipped tree.
SCOPE_LISTS = (
    "api006_allowed_functions",
    "flw010_roots",
    "flw010_row_sources",
    "flw010_local_factories",
    "flw011_allowed_functions",
    "flw011_protocol_sinks",
    "flw014_retry_roots",
)
#: numpy calls the row-source list names on purpose.
NUMPY_ROW_SOURCES = {"flatnonzero", "nonzero", "arange"}


def test_scope_lists_name_functions_defined_under_src():
    """A rule scoped to a deleted function silently checks nothing, so
    every name in these lists must still be defined under ``src/``."""
    defined = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
    config = LintConfig()
    stale = {
        field: sorted(set(getattr(config, field)) - defined - NUMPY_ROW_SOURCES)
        for field in SCOPE_LISTS
    }
    assert stale == {field: [] for field in SCOPE_LISTS}


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

    def test_rules_subset(self, fixture_repo, capsys):
        code = main(["lint", "--rules", "DET002", str(fixture_repo / "src")])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("code", ["DET00l", "RNG004", "PKL008"])
    def test_unknown_rule_code_is_an_error(self, fixture_repo, capsys, code):
        """A typo'd or retired code must not run nothing and pass green."""
        assert main(["lint", "--rules", code, str(fixture_repo / "src")]) == 2
        err = capsys.readouterr().err
        assert code.upper() in err
        assert "known: API006, DET001" in err

    @pytest.mark.parametrize(
        "code, expected",
        [
            ("DET001", 1),
            ("DET002", 0),
            ("DET003", 0),
            ("API006", 0),
            ("FLW010", 0),
            ("FLW011", 0),
            ("FLW013", 0),
            ("FLW014", 0),
        ],
    )
    def test_known_rule_code_runs_only_that_rule(self, fixture_repo, capsys, code, expected):
        """Every registered code, per-file or flow, is accepted; only the
        fixture's DET001 finding can fail the run."""
        assert main(["lint", "--rules", code, str(fixture_repo / "src")]) == expected
        assert "unknown rule code" not in capsys.readouterr().err

    def test_rule_codes_are_case_insensitive(self, fixture_repo, capsys):
        assert main(["lint", "--rules", "det001", str(fixture_repo / "src")]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_one_unknown_code_rejects_the_whole_list(self, fixture_repo, capsys):
        code = main(["lint", "--rules", "DET001,RNG004", str(fixture_repo / "src")])
        assert code == 2
        err = capsys.readouterr().err
        assert "RNG004" in err
        assert "unknown rule code(s): DET001" not in err

    def test_github_format(self, fixture_repo, capsys):
        code = main(["lint", "--format", "github", str(fixture_repo / "src")])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/bargossip/proto.py,line=" in out
        assert "title=lotus-lint DET001::" in out

    def test_flow_tier_always_runs(self, fixture_repo, capsys):
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
        code = main(["lint", "--format", "json", str(fixture_repo / "src")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "FLW010" in {f["rule"] for f in payload["findings"]}

    def test_per_file_rules_skip_the_flow_model(self, fixture_repo, capsys, monkeypatch):
        """With no flow rule enabled, the project model is never built."""

        def no_build(*args, **kwargs):
            raise AssertionError("flow model built with no flow rule enabled")

        monkeypatch.setattr(ProjectModel, "build", no_build)
        assert main(["lint", "--rules", "DET001", str(fixture_repo / "src")]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_nonexistent_path_is_an_error(self, fixture_repo, capsys):
        """A typo'd explicit path must not pass green (exit 2, not 0)."""
        code = main(["lint", str(fixture_repo / "srk")])
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_default_paths_under_a_hidden_directory(self, tmp_path, monkeypatch, capsys):
        """Hidden directories are judged below the walked path, so a
        checkout under one (``~/.cache/...``) is still linted."""
        repo = tmp_path / ".hidden" / "r"
        module_dir = repo / "src" / "repro" / "bargossip"
        module_dir.mkdir(parents=True)
        (repo / "pyproject.toml").write_text("[project]\nname='fixture'\n")
        (module_dir / "proto.py").write_text(
            "import random\n\n\ndef draw():\n    return random.random()\n"
        )
        (module_dir / ".scratch").mkdir()
        (module_dir / ".scratch" / "skipped.py").write_text("import random\n")
        monkeypatch.chdir(repo)
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "skipped.py" not in out
        assert "1 files checked" in out

    def test_explicit_path_under_a_hidden_directory(self, tmp_path, capsys):
        repo = tmp_path / ".hidden" / "r"
        module_dir = repo / "src" / "repro" / "bargossip"
        module_dir.mkdir(parents=True)
        (repo / "pyproject.toml").write_text("[project]\nname='fixture'\n")
        (module_dir / "proto.py").write_text("import random\n\nrandom.random()\n")
        assert main(["lint", str(repo / "src")]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "1 files checked" in out

    def test_lint_writes_no_files(self, fixture_repo, capsys):
        before = sorted(fixture_repo.rglob("*"))
        main(["lint", str(fixture_repo / "src")])
        assert sorted(fixture_repo.rglob("*")) == before

    def test_options_are_format_rules_verbose(self):
        """One pass, no state files, no tier switch: besides the paths,
        these are the only options, and any other flag exits 2."""
        parser = _build_lint_parser()
        options = {flag for action in parser._actions for flag in action.option_strings}
        assert options == {"-h", "--help", "--format", "--rules", "--verbose"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--flow"],
            ["--no-flow"],
            ["--no-cache"],
            ["--baseline", "lint-baseline.json"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--justification", "pre-rule code"],
            ["--prune-baseline"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_flag_exits_2(self, fixture_repo, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", *argv, str(fixture_repo / "src")])
        assert exit_info.value.code == 2
        assert argv[0] in capsys.readouterr().err
