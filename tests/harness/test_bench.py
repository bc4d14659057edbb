"""Tests for the bench subcommand and its JSON artifact."""

import json

import pytest

from repro.harness.bench import (
    BENCH_FIGURES,
    EVENT_BENCH_POINTS,
    SCALE_BENCH_POINTS,
    render_bench_summary,
    run_bench,
    run_event_bench,
    run_scale_bench,
    write_bench_summary,
)
from repro.harness.cli import main
from repro.harness.parallel import SweepExecutor

#: Shrunk bench profile for tests: the real sections run tens of
#: thousands of nodes, which belongs in ``lotus-eater bench``, not the
#: unit suite.
SMALL_BENCH = dict(
    headline_nodes=400,
    # In-process scale points: the real sweep spawns a subprocess per
    # point for honest peak-RSS numbers, which the unit suite skips.
    scale_points=(300,), scale_rounds=3, scale_isolate=False,
)


@pytest.fixture(scope="module")
def summary():
    """One fast bench run shared by the assertions below."""
    return run_bench(fast=True, executor=SweepExecutor(jobs=1), **SMALL_BENCH)


class TestRunBench:
    def test_covers_every_figure(self, summary):
        assert set(summary["figures"]) == set(BENCH_FIGURES)

    def test_parallel_matches_serial(self, summary):
        for report in summary["figures"].values():
            assert report["parallel_matches_serial"] is True

    def test_timings_present(self, summary):
        for report in summary["figures"].values():
            assert report["wall_clock_serial_s"] > 0
            assert report["wall_clock_parallel_s"] > 0
            assert report["speedup_vs_serial"] > 0
        assert summary["totals"]["wall_clock_serial_s"] > 0

    def test_delivery_metrics_present(self, summary):
        for report in summary["figures"].values():
            for curve in report["curves"].values():
                assert len(curve["xs"]) == len(curve["ys"]) > 0
                assert 0.0 <= curve["delivery_at_max_fraction"] <= 1.0
        assert summary["baseline_delivery_fraction"] > summary["usability_threshold"]

    def test_summary_is_json_serializable(self, summary, tmp_path):
        path = write_bench_summary(summary, str(tmp_path / "BENCH_summary.json"))
        loaded = json.loads((tmp_path / "BENCH_summary.json").read_text())
        assert loaded["profile"] == "fast"
        assert path.endswith("BENCH_summary.json")

    def test_render_summary(self, summary):
        text = render_bench_summary(summary)
        assert "figure1" in text
        assert "baseline delivery" in text
        assert "sets" in text and "words" in text

    def test_backend_bench_section(self, summary):
        backend = summary["backend_bench"]
        assert backend["n_nodes"] == 5000
        assert backend["rounds"] == 50
        assert backend["parity_ok"] is True
        assert backend["sets_seconds"] > 0
        assert backend["words_seconds"] > 0
        assert backend["speedup"] > 1.0
        assert 0.0 <= backend["delivery_fraction"] <= 1.0

    @pytest.mark.parametrize(
        "section", ["shard_bench", "memory_bench", "fault_bench", "counters_bench"]
    )
    def test_retired_sections_absent(self, summary, section):
        # Their subjects (pooled shards, shared memory, shard-worker
        # chaos, the packed-int backend) are gone from the program.
        assert section not in summary

    def test_event_bench_section(self, summary):
        event = summary["event_bench"]
        assert event["n_nodes"] == 400
        # The bench artifact's last-line schedule check: the ideal
        # event run reproduces the classic rounds run exactly.
        assert event["parity_ok"] is True
        assert event["rounds_seconds"] > 0
        assert event["ideal_seconds"] > 0
        assert event["event_overhead_vs_rounds"] > 0
        assert set(event["points"]) == set(EVENT_BENCH_POINTS)
        for point in event["points"].values():
            assert point["seconds"] > 0
            assert 0.0 <= point["correct_fraction"] <= 1.0
            assert point["network_stats"]["messages_sent"] > 0
        ideal = event["points"]["ideal"]
        # Tail updates released too close to the end can expire before
        # reaching the threshold, so "almost all" is the ideal pin.
        assert ideal["delivery_reached_fraction"] > 0.9
        assert ideal["time_to_90_delivery"] is not None
        assert event["points"]["latency_loss"]["network_stats"]["messages_lost"] > 0

    def test_event_bench_standalone(self):
        # rounds must cover warm-up + one full lifetime or nothing is
        # measured and the parity check compares None against None.
        report = run_event_bench(n_nodes=120, rounds=25)
        assert report["parity_ok"] is True
        assert report["backend"] == "words"
        assert report["latency_loss_churn_seconds"] > 0
        assert report["points"]["ideal"]["correct_fraction"] is not None

    def test_scale_bench_section(self, summary):
        scale = summary["scale_bench"]
        assert scale["backend"] == "words"
        assert scale["pairing"] == "cells"
        assert scale["parity_ok"] is True
        assert scale["isolated"] is False
        assert set(scale["points"]) == {"300"}
        point = scale["points"]["300"]
        assert point["round_ms"] > 0
        assert point["init_seconds"] > 0
        assert point["peak_rss_bytes"] > 0
        # The tentpole's byte budget: word rows + counters + code
        # columns, and nothing else, on the figure-1 hot path.
        memory = point["memory"]
        assert point["bytes_per_node"] == memory["bytes_per_node"]
        assert memory["total_bytes"] == (
            memory["word_row_bytes"]
            + memory["counter_bytes"]
            + memory["code_column_bytes"]
        )
        assert memory["bytes_per_node"] == memory["total_bytes"] // 300
        rendered = render_bench_summary(summary)
        assert "scale (figure-1 trade" in rendered
        assert "B/node flat state" in rendered
        assert "IN-PROCESS RSS" in rendered

    def test_scale_bench_default_points(self):
        """The tracked sweep pins 10^5 and the 10^6 tentpole point."""
        assert SCALE_BENCH_POINTS == (100_000, 1_000_000)

    def test_scale_bench_standalone_determinism(self):
        report = run_scale_bench(points=(200, 350), rounds=4, isolate=False)
        assert report["parity_ok"] is True
        assert set(report["points"]) == {"200", "350"}
        fingerprint = report["points"]["200"]["aggregates"]
        assert len(fingerprint) == 3 and all(
            value > 0 for value in fingerprint
        )
        rerun = run_scale_bench(points=(200,), rounds=4, isolate=False)
        assert rerun["points"]["200"]["aggregates"] == fingerprint

class TestBenchCli:
    def test_bench_writes_artifact(self, tmp_path, capsys, monkeypatch):
        # One figure is enough to exercise the CLI path; the module
        # fixture above already benches the full suite.  The other
        # sections likewise run at a unit-test scale here.
        monkeypatch.setattr(
            "repro.harness.bench.BENCH_FIGURES",
            {"figure1": BENCH_FIGURES["figure1"]},
        )
        monkeypatch.setattr(
            "repro.harness.bench.run_event_bench",
            lambda **kwargs: run_event_bench(n_nodes=200, rounds=25),
        )
        monkeypatch.setattr(
            "repro.harness.bench.run_scale_bench",
            lambda **kwargs: run_scale_bench(
                points=(200,), rounds=3, isolate=False
            ),
        )
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "BENCH_summary.json"
        assert main(["--fast", "--no-cache", "--output", str(out), "bench"]) == 0
        assert out.exists()
        loaded = json.loads(out.read_text())
        assert set(loaded["figures"]) == {"figure1"}
        assert "event_bench" in loaded
        captured = capsys.readouterr()
        assert "total" in captured.out
        assert "event (" in captured.out
        assert "scale (" in captured.out

    def test_scale_bench_subcommand(self, capsys):
        assert main(
            ["--scale-nodes", "250", "--scale-rounds", "3", "scale-bench"]
        ) == 0
        captured = capsys.readouterr()
        assert "scale (figure-1 trade" in captured.out
        assert "250 nodes" in captured.out
