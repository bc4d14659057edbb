"""Tests for the lotus-eater CLI."""

import re
import shlex
from pathlib import Path

import pytest

from repro.bargossip.scenario import ExecutionConfig
from repro.harness import cli
from repro.harness.cli import (
    DEFAULT_CACHE_DIR,
    build_executor,
    execution_from_args,
    main,
    network_from_args,
)

README = Path(__file__).resolve().parents[2] / "README.md"


def parse(argv):
    """Parse *argv* the way ``main`` would, without running anything."""
    if argv and argv[0] == "lint":
        return cli._build_lint_parser().parse_args(argv[1:])
    return cli._build_parser().parse_args(argv)


class TestCli:
    def test_table1(self, capsys):
        assert main(["--fast", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Number of Nodes" in out
        assert "baseline delivery" in out

    def test_figure1_fast(self, capsys):
        assert main(["--fast", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "Crash attack" in out
        assert "crossover below 93%" in out

    def test_tokenmodel(self, capsys):
        assert main(["tokenmodel"]) == 0
        out = capsys.readouterr().out
        assert "rare token" in out

    def test_scrip(self, capsys):
        assert main(["scrip"]) == 0
        out = capsys.readouterr().out
        assert "money injection" in out

    def test_bittorrent(self, capsys):
        assert main(["bittorrent"]) == 0
        out = capsys.readouterr().out
        assert "upload satiation" in out

    def test_unknown_command_rejected(self):
        # `bench` is gone: perfbench/ is the repository benchmark.
        for command in ("nonsense", "bench"):
            with pytest.raises(SystemExit) as exit_info:
                main([command])
            assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "global_flags",
        [["--no-cache"], ["--fast"], ["--seed", "7"], ["--jobs", "2"]],
        ids=lambda flags: " ".join(flags),
    )
    def test_lint_path_after_global_flags_is_not_dropped(self, global_flags):
        """A path after `lint` must not be silently swapped for the
        default tree when global flags come first."""
        try:
            code = main([*global_flags, "lint", "src/repro/faults.py"])
        except SystemExit as exit_info:
            code = exit_info.code
        assert code not in (0, None)


class TestRetiredBenchSurface:
    """perfbench/ is the repository benchmark; the CLI's own bench
    subcommands and the values only they read are gone."""

    @pytest.mark.parametrize(
        "command", ["bench", "scale-bench", "bench-diff", "bench-trend"]
    )
    def test_subcommand_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--output", "summary.json"),
            ("--max-regression", "0.2"),
            ("--history-dir", "history"),
            ("--window", "5"),
            ("--scale-nodes", "1000"),
            ("--scale-rounds", "3"),
            ("--min-sustained", "2"),
        ],
    )
    def test_bench_only_value_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--fast", "--no-cache", "table1", flag, value])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

class TestSweepCommands:
    def test_sweep_swarm_default_grid(self, capsys):
        assert main(["--fast", "--no-cache", "sweep-swarm"]) == 0
        out = capsys.readouterr().out
        assert "attackers" in out
        assert "mean_completion_round" in out

    def test_sweep_token_custom_grid_and_metric(self, capsys):
        assert main([
            "--fast", "--no-cache", "--grid", "0,0.3",
            "--metric", "starving_fraction", "sweep-token",
        ]) == 0
        out = capsys.readouterr().out
        assert "starving_fraction" in out

    def test_sweep_scrip_uses_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = [
            "--fast", "--cache-dir", str(tmp_path / "cache"),
            "--grid", "0,4", "sweep-scrip",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "cached=2" in err

    def test_sweep_gossip_respects_backend(self, capsys):
        from repro.bargossip.scenario import ExecutionConfig
        from repro.harness.tasks import TASK_BUILDERS

        task, _ = TASK_BUILDERS["gossip"](
            True, None, execution=ExecutionConfig(backend="sets")
        )
        assert task.execution.backend == "sets"
        assert main([
            "--fast", "--no-cache", "--grid", "0.1",
            "--backend", "sets", "sweep-gossip",
        ]) == 0
        sets_out = capsys.readouterr().out
        assert "attacker fraction" in sets_out
        assert main([
            "--fast", "--no-cache", "--grid", "0.1", "sweep-gossip",
        ]) == 0
        words_out = capsys.readouterr().out
        # Exact parity: both backends print the same sweep table.
        assert sets_out == words_out

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["--grid", "nope", "sweep-token"])


class TestBackendFlag:
    def test_figure1_words_matches_sets(self, capsys):
        assert main(["--fast", "--no-cache", "--backend", "sets", "figure1"]) == 0
        sets_out = capsys.readouterr().out
        assert main(["--fast", "--no-cache", "--backend", "words", "figure1"]) == 0
        words_out = capsys.readouterr().out
        assert sets_out == words_out

    def test_sweep_words_backend_matches_sets(self, capsys):
        args = [
            "--fast", "--no-cache", "--grid", "0.1,0.3",
            "--shards", "1", "sweep-gossip",
        ]
        assert main(args + ["--backend", "sets"]) == 0
        sets_out = capsys.readouterr().out
        assert main(args + ["--backend", "words"]) == 0
        words_out = capsys.readouterr().out
        assert sets_out == words_out

    def test_bitset_backend_is_gone(self):
        with pytest.raises(SystemExit):
            main(["--backend", "bitset", "figure1"])

    def test_memory_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["--memory", "heap", "figure1"])

    def test_shards_is_a_partner_model_switch(self):
        with pytest.raises(SystemExit):
            main(["--shards", "2", "figure1"])

    def test_shards_help_names_the_partner_model(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--memory" not in help_text
        assert "uniform" in help_text and "cell" in help_text


class TestNetworkFlags:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("0.5", ("fixed", 0.5, 0.0)),
            ("fixed:0.2", ("fixed", 0.2, 0.0)),
            ("uniform:0.3:0.1", ("uniform", 0.3, 0.1)),
            ("exponential:0.3", ("exponential", 0.3, 0.0)),
        ],
    )
    def test_latency_spec(self, spec, expected):
        assert parse(["--latency", spec, "figure1"]).latency == expected

    @pytest.mark.parametrize(
        "spec", ["soon", "gauss:0.3", "uniform:x", "fixed:0.2:wide"]
    )
    def test_bad_latency_spec_rejected(self, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse(["--latency", spec, "figure1"])
        assert exit_info.value.code == 2
        assert "bad latency" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, expected", [("0.002", (0.002, 0.0)), ("0.002:0.05", (0.002, 0.05))]
    )
    def test_churn_spec(self, spec, expected):
        assert parse(["--churn", spec, "figure1"]).churn == expected

    @pytest.mark.parametrize("spec", ["often", "0.1:never"])
    def test_bad_churn_spec_rejected(self, spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse(["--churn", spec, "figure1"])
        assert exit_info.value.code == 2
        assert "bad churn" in capsys.readouterr().err

    def test_default_network_is_ideal(self):
        assert network_from_args(parse(["figure1"])).is_ideal

    def test_flags_build_the_network_model(self):
        network = network_from_args(parse([
            "--latency", "uniform:0.3:0.1", "--loss", "0.05",
            "--churn", "0.002:0.05", "figure1",
        ]))
        assert not network.is_ideal
        assert network.latency_kind == "uniform"
        assert network.latency_mean == 0.3
        assert network.latency_jitter == 0.1
        assert network.loss_rate == 0.05
        assert network.churn_leave_rate == 0.002
        assert network.churn_join_rate == 0.05

    @pytest.mark.parametrize(
        "flags",
        [["--latency", "0.3"], ["--loss", "0.05"], ["--churn", "0.002"]],
        ids=lambda flags: flags[0],
    )
    def test_non_ideal_network_requires_event_schedule(self, flags, capsys):
        assert main(["--fast", "--no-cache", *flags, "figure1"]) == 2
        assert "schedule='event'" in capsys.readouterr().err


class TestGridAndJobsFlags:
    @pytest.mark.parametrize(
        "text, expected",
        [("0.1,0.3", [0.1, 0.3]), ("0, 2 ,4", [0.0, 2.0, 4.0]), ("1,2,", [1.0, 2.0])],
    )
    def test_grid(self, text, expected):
        assert parse(["--grid", text, "sweep-token"]).grid == expected

    @pytest.mark.parametrize("text", [",", "0.1,x"])
    def test_bad_grid_rejected(self, text, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse(["--grid", text, "sweep-token"])
        assert exit_info.value.code == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [("0", 0), ("3", 3)])
    def test_jobs(self, text, expected):
        assert parse(["--jobs", text, "figure1"]).jobs == expected

    @pytest.mark.parametrize("text", ["-1", "many"])
    def test_bad_jobs_rejected(self, text):
        with pytest.raises(SystemExit) as exit_info:
            parse(["--jobs", text, "figure1"])
        assert exit_info.value.code == 2

    def test_execution_config_from_flags(self):
        args = parse(["--backend", "sets", "--shards", "1", "--jobs", "2", "figure1"])
        assert execution_from_args(args) == ExecutionConfig(
            backend="sets", shards=1, jobs=2
        )


class TestBuildExecutor:
    def test_no_cache(self):
        with build_executor(parse(["--no-cache", "figure1"])) as executor:
            assert executor.cache is None

    def test_cache_dir_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOTUS_EATER_CACHE_DIR", str(tmp_path / "env"))
        args = parse(["--cache-dir", str(tmp_path / "flag"), "figure1"])
        with build_executor(args) as executor:
            assert executor.cache.root == tmp_path / "flag"

    def test_environment_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOTUS_EATER_CACHE_DIR", str(tmp_path / "env"))
        with build_executor(parse(["figure1"])) as executor:
            assert executor.cache.root == tmp_path / "env"

    def test_default_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LOTUS_EATER_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        with build_executor(parse(["figure1"])) as executor:
            assert executor.cache.root == Path(DEFAULT_CACHE_DIR)

    def test_supervision_flags_forwarded(self):
        args = parse([
            "--no-cache", "--jobs", "2", "--retries", "5",
            "--cell-timeout", "30", "--on-failure", "skip", "figure1",
        ])
        with build_executor(args) as executor:
            assert executor.jobs == 2
            assert executor.retries == 5
            assert executor.cell_timeout == 30.0
            assert executor.on_failure == "skip"


def _documented_usages():
    """Every ``lotus-eater ...`` command line shown in the CLI module
    docstring and in README code blocks, as (where, argv) pairs."""
    pattern = re.compile(r"^\s*(?:\$ )?lotus-eater (.+)$")
    sources = [("cli", cli.__doc__), ("README.md", README.read_text())]
    usages = {}
    for name, text in sources:
        for line in text.splitlines():
            match = pattern.match(line)
            if match:
                argv = shlex.split(match.group(1), comments=True)
                where = f"{name}: {' '.join(argv)}"
                usages.setdefault(where, pytest.param(argv, id=where))
    return list(usages.values())


class TestDocumentedUsage:
    def test_usages_found(self):
        assert len(_documented_usages()) >= 20

    @pytest.mark.parametrize("argv", _documented_usages())
    def test_documented_command_parses(self, argv):
        """Documented invocations must stay valid as flags come and go."""
        parse(argv)
