"""Tests for the bench trend differ behind ``lotus-eater bench-diff``
and the rolling history behind ``lotus-eater bench-trend``."""

import json
import os

import pytest

from repro.core.errors import AnalysisError
from repro.harness.trend import (
    compare_bench_history,
    compare_bench_summaries,
    load_bench_summary,
    render_bench_diff,
    render_bench_history,
    update_bench_history,
)


def _summary(serial=10.0, parallel=4.0, sets_s=8.0, words_s=2.0, crossover=0.3):
    return {
        "totals": {
            "wall_clock_serial_s": serial,
            "wall_clock_parallel_s": parallel,
            "speedup_vs_serial": serial / parallel,
        },
        "backend_bench": {
            "sets_seconds": sets_s,
            "words_seconds": words_s,
            "speedup": sets_s / words_s,
        },
        "figures": {
            "figure1": {"crossovers": {"Trade lotus-eater attack": crossover}},
        },
    }


class TestCompare:
    def test_no_change_passes(self):
        diff = compare_bench_summaries(_summary(), _summary())
        assert diff["regressions"] == []
        assert diff["metric_drift"] == []
        assert "no performance regressions" in render_bench_diff(diff)

    def test_within_tolerance_passes(self):
        diff = compare_bench_summaries(_summary(), _summary(serial=11.5))
        assert diff["regressions"] == []

    def test_wall_clock_blowup_flags(self):
        diff = compare_bench_summaries(_summary(), _summary(serial=15.0))
        assert "total serial wall-clock" in diff["regressions"]
        assert "REGRESSION" in render_bench_diff(diff)

    def test_speedup_collapse_flags(self):
        slow = _summary(words_s=6.0)  # words speedup 8/6 vs 8/2
        diff = compare_bench_summaries(_summary(), slow)
        assert "words speedup vs sets" in diff["regressions"]

    def test_improvement_never_flags(self):
        better = _summary(serial=8.0, parallel=2.0, sets_s=8.0, words_s=0.5)
        diff = compare_bench_summaries(_summary(), better)
        assert diff["regressions"] == []

    def test_missing_baseline_sections_are_skipped(self):
        previous = {"totals": {"wall_clock_serial_s": 10.0}}
        diff = compare_bench_summaries(previous, _summary())
        assert diff["regressions"] == []
        assert "no baseline, skipped" in render_bench_diff(diff)

    def test_metric_drift_is_informational(self):
        diff = compare_bench_summaries(_summary(), _summary(crossover=0.4))
        assert diff["metric_drift"] == ["figure1"]
        assert diff["regressions"] == []
        assert "informational" in render_bench_diff(diff)

    def test_malformed_figure_rows_skipped_not_crashed(self):
        """Regression: a schema-shifted artifact whose figure entry is
        not a dict used to crash the drift scan with AttributeError."""
        broken = _summary()
        broken["figures"]["figure1"] = "not-a-dict"
        for previous, current in ((broken, _summary()), (_summary(), broken)):
            diff = compare_bench_summaries(previous, current)
            assert diff["malformed_figures"] == ["figure1"]
            assert diff["metric_drift"] == []
            assert diff["regressions"] == []
            assert "unusable figure rows skipped" in render_bench_diff(diff)

    def test_non_dict_figures_container_tolerated(self):
        previous = _summary()
        previous["figures"] = ["entirely", "wrong"]
        diff = compare_bench_summaries(previous, _summary())
        assert diff["metric_drift"] == []
        assert diff["malformed_figures"] == []

    def test_missing_section_skipped(self):
        """First run after a bench section landed: the previous
        artifact has no such section and must diff cleanly."""
        current = _summary()
        current["event_bench"] = {
            "ideal_seconds": 0.5,
            "event_overhead_vs_rounds": 1.2,
        }
        diff = compare_bench_summaries(_summary(), current)
        assert diff["regressions"] == []
        rendered = render_bench_diff(diff)
        assert (
            "event-engine overhead vs rounds: no baseline, skipped" in rendered
        )

    def test_section_regression_flags(self):
        previous = _summary()
        previous["event_bench"] = {
            "ideal_seconds": 0.5, "event_overhead_vs_rounds": 1.2,
        }
        current = _summary()
        current["event_bench"] = {
            "ideal_seconds": 1.0, "event_overhead_vs_rounds": 2.4,
        }
        diff = compare_bench_summaries(previous, current)
        assert "event-engine ideal-network wall-clock" in diff["regressions"]
        assert "event-engine overhead vs rounds" in diff["regressions"]

    @pytest.mark.parametrize(
        "section,row",
        [
            ("shard_bench", {"serial_seconds": 1.0, "speedup": 2.0}),
            ("memory_bench", {"pooled_words_shared_seconds": 1.0}),
            ("fault_bench", {"supervised_seconds": 1.0, "recovery_seconds": 0.5}),
            (
                "counters_bench",
                {"words_round_seconds": 0.04, "words_vs_bitset_round_speedup": 2.5},
            ),
        ],
    )
    def test_retired_sections_in_old_baselines_ignored(self, section, row):
        """Artifacts recorded before the pooled-shard and counters
        benches were retired still carry their sections; they must
        diff cleanly."""
        previous = _summary()
        previous[section] = row
        diff = compare_bench_summaries(previous, _summary())
        assert diff["regressions"] == []
        assert section not in render_bench_diff(diff)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(AnalysisError):
            compare_bench_summaries(_summary(), _summary(), max_regression=-0.1)


class TestHistory:
    """Rolling window + sustained-drift scan (``bench-trend``)."""

    def _window(self, serials):
        return [_summary(serial=value) for value in serials]

    def test_steady_series_not_flagged(self):
        report = compare_bench_history(self._window([10.0] * 6))
        assert report["sustained_regressions"] == []
        assert "no sustained drift" in render_bench_history(report)

    def test_single_run_noise_not_flagged(self):
        """One bad run — the pairwise diff would flag it, the history
        scan must not (the next step moves the other way)."""
        report = compare_bench_history(self._window([10.0, 10.0, 16.0, 10.1, 10.0]))
        assert report["sustained_regressions"] == []

    def test_sustained_drift_flagged(self):
        report = compare_bench_history(self._window([10.0, 11.0, 12.5, 14.5]))
        assert "total serial wall-clock" in report["sustained_regressions"]
        assert "SUSTAINED DRIFT" in render_bench_history(report)

    def test_sustained_but_small_drift_not_flagged(self):
        """Three bad steps that sum below the tolerance stay quiet."""
        report = compare_bench_history(self._window([10.0, 10.3, 10.6, 10.9]))
        assert report["sustained_regressions"] == []

    def test_speedup_collapse_flagged_in_right_direction(self):
        window = [_summary(words_s=value) for value in (2.0, 2.4, 2.9, 3.5)]
        report = compare_bench_history(window)
        assert "words speedup vs sets" in report["sustained_regressions"]

    def test_short_window_never_flags(self):
        report = compare_bench_history(self._window([10.0, 14.0, 20.0]))
        assert report["sustained_regressions"] == []

    def test_gaps_are_not_stitched_into_a_streak(self):
        """A metric missing from some window entries (skipped bench
        section, older schema) must not have its sparse values treated
        as consecutive runs."""
        window = self._window([10.0, 11.0, 12.5, 14.5])
        del window[2]["totals"]  # gap inside the newest stretch
        report = compare_bench_history(window)
        assert "total serial wall-clock" not in report["sustained_regressions"]
        # The same values without the gap do flag.
        assert (
            "total serial wall-clock"
            in compare_bench_history(self._window([10.0, 11.0, 12.5, 14.5]))[
                "sustained_regressions"
            ]
        )

    def test_gap_older_than_stretch_does_not_suppress(self):
        window = self._window([10.0, 10.0, 11.0, 12.5, 14.5])
        del window[0]["totals"]  # gap outside the newest 4 entries
        report = compare_bench_history(window)
        assert "total serial wall-clock" in report["sustained_regressions"]

    def test_missing_metrics_are_informational(self):
        report = compare_bench_history(self._window([10.0] * 5))
        rendered = render_bench_history(report)
        assert "event-engine overhead vs rounds: no data in window" in rendered

    def test_bad_parameters_rejected(self):
        with pytest.raises(AnalysisError):
            compare_bench_history([], min_sustained=0)
        with pytest.raises(AnalysisError):
            compare_bench_history([], max_regression=-0.5)


class TestHistoryDirectory:
    def _write_current(self, tmp_path, serial=10.0):
        path = tmp_path / "BENCH_summary.json"
        path.write_text(json.dumps(_summary(serial=serial)))
        return str(path)

    def test_appends_and_prunes_to_window(self, tmp_path):
        history = str(tmp_path / "hist")
        current = self._write_current(tmp_path)
        for _ in range(5):
            paths = update_bench_history(history, current, window=3)
        assert len(paths) == 3
        assert [os.path.basename(p) for p in paths] == [
            "BENCH_000003.json", "BENCH_000004.json", "BENCH_000005.json",
        ]
        assert sorted(os.listdir(history)) == [
            "BENCH_000003.json", "BENCH_000004.json", "BENCH_000005.json",
        ]

    def test_sequence_survives_pruning(self, tmp_path):
        """Numbers keep rising after old artifacts are pruned, so the
        chronological order never aliases."""
        history = str(tmp_path / "hist")
        current = self._write_current(tmp_path)
        for _ in range(4):
            update_bench_history(history, current, window=2)
        paths = update_bench_history(history, current, window=2)
        assert os.path.basename(paths[-1]) == "BENCH_000005.json"

    def test_corrupt_current_rejected_and_not_recorded(self, tmp_path):
        history = str(tmp_path / "hist")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(AnalysisError):
            update_bench_history(history, str(bad))
        assert not os.path.exists(history) or os.listdir(history) == []

    def test_bad_window_rejected(self, tmp_path):
        with pytest.raises(AnalysisError):
            update_bench_history(
                str(tmp_path), self._write_current(tmp_path), window=0
            )

    def test_history_round_trips_through_compare(self, tmp_path):
        history = str(tmp_path / "hist")
        for serial in (10.0, 11.0, 12.5, 14.5):
            current = self._write_current(tmp_path, serial=serial)
            paths = update_bench_history(history, current, window=10)
        summaries = [load_bench_summary(path) for path in paths]
        report = compare_bench_history(summaries)
        assert "total serial wall-clock" in report["sustained_regressions"]


class TestLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_summary()))
        assert load_bench_summary(str(path))["totals"]["wall_clock_serial_s"] == 10.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_bench_summary(str(tmp_path / "nope.json"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError):
            load_bench_summary(str(path))

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(AnalysisError):
            load_bench_summary(str(path))
