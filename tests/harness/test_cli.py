"""Tests for the lotus-eater CLI."""

import pytest

from repro.harness.cli import main


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
        with pytest.raises(SystemExit):
            main(["nonsense"])

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


class TestBenchTrendCommand:
    def _write_summary(self, path, serial):
        import json

        path.write_text(json.dumps({
            "totals": {
                "wall_clock_serial_s": serial,
                "wall_clock_parallel_s": serial / 2,
                "speedup_vs_serial": 2.0,
            },
            "figures": {},
        }))

    def test_rolling_history_flags_only_sustained_drift(self, capsys, tmp_path):
        current = tmp_path / "BENCH_summary.json"
        history = str(tmp_path / "hist")
        codes = []
        for serial in (10.0, 11.0, 12.5, 14.5):
            self._write_summary(current, serial)
            codes.append(main([
                "--history-dir", history, "--window", "10",
                "bench-trend", "unused-previous", str(current),
            ]))
        # Drift only counts once three consecutive bad steps accumulate.
        assert codes == [0, 0, 0, 1]
        out = capsys.readouterr()
        assert "SUSTAINED DRIFT" in out.out
        assert "drifted for >= 3 consecutive runs" in out.err

    def test_window_is_pruned(self, tmp_path, capsys):
        import os

        current = tmp_path / "BENCH_summary.json"
        history = tmp_path / "hist"
        self._write_summary(current, 10.0)
        for _ in range(4):
            assert main([
                "--history-dir", str(history), "--window", "2",
                "bench-trend", "unused-previous", str(current),
            ]) == 0
        assert len(os.listdir(history)) == 2

    def test_missing_current_errors_cleanly(self, capsys, tmp_path):
        code = main([
            "--history-dir", str(tmp_path / "hist"),
            "bench-trend", "unused", str(tmp_path / "absent.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_single_positional_is_the_current_summary(self, tmp_path, capsys):
        """`bench-trend MY_run.json` binds to the shared 'previous'
        slot; the command must still record MY_run.json, not a stale
        default BENCH_summary.json from the cwd."""
        import os

        current = tmp_path / "MY_run.json"
        history = tmp_path / "hist"
        self._write_summary(current, 12.0)
        assert main([
            "--history-dir", str(history), "bench-trend", str(current),
        ]) == 0
        recorded = history / os.listdir(history)[0]
        assert "12.0" in recorded.read_text()


class TestBenchDiffCommand:
    def _write(self, path, serial):
        import json

        payload = {
            "totals": {
                "wall_clock_serial_s": serial,
                "wall_clock_parallel_s": serial / 2,
                "speedup_vs_serial": 2.0,
            },
            "figures": {},
        }
        path.write_text(json.dumps(payload))

    def test_pass_and_fail(self, capsys, tmp_path):
        previous, current = tmp_path / "prev.json", tmp_path / "curr.json"
        self._write(previous, 10.0)
        self._write(current, 10.5)
        assert main(["bench-diff", str(previous), str(current)]) == 0
        capsys.readouterr()
        self._write(current, 20.0)
        assert main(["bench-diff", str(previous), str(current)]) == 1
        out = capsys.readouterr()
        assert "REGRESSION" in out.out

    def test_missing_baseline_errors_cleanly(self, capsys, tmp_path):
        current = tmp_path / "curr.json"
        self._write(current, 10.0)
        code = main(["bench-diff", str(tmp_path / "absent.json"), str(current)])
        assert code == 2
        assert "error" in capsys.readouterr().err
