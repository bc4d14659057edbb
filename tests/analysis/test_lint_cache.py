"""Incremental lint cache: hits, invalidation, pruning, CLI opt-out."""

import dataclasses
import json
import textwrap

import pytest

from repro.analysis import CACHE_DIR_NAME
from repro.analysis.cache import LintCache, config_signature
from repro.analysis.rules import LintConfig
from repro.analysis.runner import run_lint
from repro.harness.cli import main


@pytest.fixture()
def repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "proto.py").write_text(
        textwrap.dedent(
            """
            def choose(rng, options):
                return options[0]
            """
        )
    )
    return tmp_path


def lint(repo_root, **kwargs):
    kwargs.setdefault("cache_dir", repo_root / CACHE_DIR_NAME)
    return run_lint([repo_root / "src"], root=repo_root, **kwargs)


class TestFileCache:
    def test_second_run_hits_for_every_file(self, repo):
        first = lint(repo)
        assert first.cache_hits == 0
        assert first.cache_misses == first.files_checked
        second = lint(repo)
        assert second.cache_hits == second.files_checked
        assert second.cache_misses == 0

    def test_cached_run_reports_identical_findings(self, repo):
        (repo / "src" / "repro" / "proto.py").write_text(
            "import random\n\ndef draw():\n    return random.random()\n"
        )
        fresh = lint(repo)
        cached = lint(repo)
        assert [f.to_dict() for f in cached.findings] == [
            f.to_dict() for f in fresh.findings
        ]
        assert any(f.rule == "DET001" for f in cached.findings)

    def test_editing_one_file_invalidates_only_that_file(self, repo):
        lint(repo)
        (repo / "src" / "repro" / "proto.py").write_text(
            "def choose(rng, options):\n    return options[-1]\n"
        )
        result = lint(repo)
        assert result.cache_misses == 1
        assert result.cache_hits == result.files_checked - 1

    def test_config_change_invalidates_everything(self, repo):
        lint(repo)
        tightened = dataclasses.replace(
            LintConfig(), enabled=frozenset({"DET001"})
        )
        assert config_signature(tightened) != config_signature(LintConfig())
        result = lint(repo, config=tightened)
        assert result.cache_hits == 0

    def test_deleted_file_entry_is_pruned_on_save(self, repo):
        extra = repo / "src" / "repro" / "extra.py"
        extra.write_text("def spare():\n    return 1\n")
        lint(repo)
        cache_file = repo / CACHE_DIR_NAME / "cache.json"
        payload = json.loads(cache_file.read_text())
        assert any("extra.py" in key for key in payload["files"])
        extra.unlink()
        lint(repo)
        payload = json.loads(cache_file.read_text())
        assert not any("extra.py" in key for key in payload["files"])

    def test_corrupt_cache_file_is_ignored(self, repo):
        lint(repo)
        (repo / CACHE_DIR_NAME / "cache.json").write_text("{not json")
        result = lint(repo)
        assert result.cache_hits == 0
        assert result.exit_code == 0


class TestFlowCache:
    def test_flow_rerun_hits_cache(self, repo):
        lint(repo, flow=True)
        cache = LintCache(repo / CACHE_DIR_NAME, LintConfig())
        sources = {
            "src/repro/__init__.py": (repo / "src" / "repro" / "__init__.py").read_text(),
            "src/repro/proto.py": (repo / "src" / "repro" / "proto.py").read_text(),
        }
        assert cache.get_flow(sources) is not None

    def test_any_file_change_invalidates_flow(self, repo):
        lint(repo, flow=True)
        # Touch a file the flow findings do not even mention.
        (repo / "src" / "repro" / "__init__.py").write_text("# comment\n")
        cache = LintCache(repo / CACHE_DIR_NAME, LintConfig())
        sources = {
            "src/repro/__init__.py": (repo / "src" / "repro" / "__init__.py").read_text(),
            "src/repro/proto.py": (repo / "src" / "repro" / "proto.py").read_text(),
        }
        assert cache.get_flow(sources) is None

    def test_flow_mutation_caught_after_cached_clean_run(self, repo):
        clean = lint(repo, flow=True)
        assert not any(f.rule.startswith("FLW") for f in clean.findings)
        (repo / "src" / "repro" / "proto.py").write_text(
            textwrap.dedent(
                """
                def run_exchanges_batched(state):
                    state.counters[0, 3] += 1
                """
            )
        )
        result = lint(repo, flow=True)
        assert any(f.rule == "FLW010" for f in result.findings)


class TestCliCache:
    def test_cli_populates_cache_by_default(self, repo, capsys):
        main(["lint", str(repo / "src"), "--no-baseline"])
        capsys.readouterr()
        assert (repo / CACHE_DIR_NAME / "cache.json").exists()

    def test_no_cache_skips_cache_directory(self, repo, capsys):
        main(["lint", str(repo / "src"), "--no-baseline", "--no-cache"])
        capsys.readouterr()
        assert not (repo / CACHE_DIR_NAME).exists()
