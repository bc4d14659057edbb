"""Bench trend tracking: diff and history of ``BENCH_summary.json``.

CI uploads a ``BENCH_summary.json`` per run (see ``lotus-eater
bench``).  This module compares the current run against the previous
run's artifact and flags performance regressions — wall-clock blow-ups
or parallel/backend speedup collapses beyond a tolerated relative
slack — plus any drift in the delivery metrics themselves (those
should be bit-stable for a fixed seed, so *any* change is worth a
look, though only performance regressions fail the check: metric
drift is expected whenever the simulator legitimately changes).

Timing comparisons between two CI runs are inherently noisy (different
runner hardware, neighbors, thermal state), which is why the default
tolerance is a generous 20% and why the CI job is expected to
*annotate* rather than hard-fail when no baseline exists.

``lotus-eater bench-trend`` extends the pairwise diff with a rolling
history: :func:`update_bench_history` keeps the last N artifacts in a
directory, and :func:`compare_bench_history` flags only *sustained*
drift — a metric that moved in the bad direction across the last
``min_sustained`` consecutive runs and lost more than the tolerance
over that stretch.  Single noisy runs, which the pairwise diff can
misflag, wash out.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
from typing import Any, Dict, List, Optional

from ..core.errors import AnalysisError

__all__ = [
    "load_bench_summary",
    "compare_bench_summaries",
    "render_bench_diff",
    "update_bench_history",
    "compare_bench_history",
    "render_bench_history",
]

#: (summary path, human label, direction) of each tracked performance
#: figure of merit.  Direction "lower" means a higher current value is
#: a regression (wall-clock); "higher" means a lower current value is
#: a regression (speedups).
_TRACKED: List = [
    (("totals", "wall_clock_serial_s"), "total serial wall-clock", "lower"),
    (("totals", "wall_clock_parallel_s"), "total parallel wall-clock", "lower"),
    (("totals", "speedup_vs_serial"), "parallel speedup", "higher"),
    (("backend_bench", "sets_seconds"), "set-backend wall-clock", "lower"),
    # Sections newer than the artifacts CI already holds must diff
    # cleanly ("no baseline, skipped"), which _lookup's
    # None-on-missing handling guarantees.
    (("backend_bench", "words_seconds"), "words-backend wall-clock", "lower"),
    (("backend_bench", "speedup"), "words speedup vs sets", "higher"),
    (("event_bench", "ideal_seconds"), "event-engine ideal-network wall-clock", "lower"),
    (("event_bench", "latency_loss_churn_seconds"), "event-engine churny-network wall-clock", "lower"),
    (("event_bench", "event_overhead_vs_rounds"), "event-engine overhead vs rounds", "lower"),
    # The 10^6 scale point only exists in full-profile artifacts —
    # fast-profile runs skip those three rows the same way.
    (("scale_bench", "points", "100000", "round_ms"), "scale 100k ms/round", "lower"),
    (("scale_bench", "points", "100000", "bytes_per_node"), "scale 100k bytes/node", "lower"),
    (("scale_bench", "points", "100000", "peak_rss_bytes"), "scale 100k peak RSS", "lower"),
    (("scale_bench", "points", "1000000", "round_ms"), "scale 1M ms/round", "lower"),
    (("scale_bench", "points", "1000000", "bytes_per_node"), "scale 1M bytes/node", "lower"),
    (("scale_bench", "points", "1000000", "peak_rss_bytes"), "scale 1M peak RSS", "lower"),
]


def load_bench_summary(path: str) -> Dict[str, Any]:
    """Read one ``BENCH_summary.json``; raises AnalysisError if unusable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
    except FileNotFoundError:
        raise AnalysisError(f"bench summary not found: {path}") from None
    except json.JSONDecodeError as error:
        raise AnalysisError(
            f"bench summary {path} is not valid JSON: {error}"
        ) from error
    if not isinstance(summary, dict):
        raise AnalysisError(f"bench summary {path} is not a JSON object")
    return summary


def _lookup(summary: Dict[str, Any], path) -> Optional[float]:
    node: Any = summary
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare_bench_summaries(
    previous: Dict[str, Any],
    current: Dict[str, Any],
    max_regression: float = 0.2,
) -> Dict[str, Any]:
    """Diff two bench summaries; returns rows plus the regression list.

    A tracked metric regresses when it moves in the bad direction by
    more than ``max_regression`` relative to the previous value.
    Metrics missing from either side (schema growth, first run after a
    new section lands) are reported but never counted as regressions.
    Delivery-metric drift (crossovers per figure) is likewise reported
    as informational rows only.
    """
    if not 0.0 <= max_regression:
        raise AnalysisError(
            f"max_regression must be >= 0, got {max_regression}"
        )
    rows: List[Dict[str, Any]] = []
    regressions: List[str] = []
    for path, label, direction in _TRACKED:
        before = _lookup(previous, path)
        after = _lookup(current, path)
        row: Dict[str, Any] = {
            "metric": label,
            "previous": before,
            "current": after,
            "direction": direction,
            "regressed": False,
        }
        if before is not None and after is not None and before > 0:
            change = (after - before) / before
            row["relative_change"] = change
            bad = change > max_regression if direction == "lower" else change < -max_regression
            if bad:
                row["regressed"] = True
                regressions.append(label)
        rows.append(row)

    drift: List[str] = []
    malformed: List[str] = []
    previous_figures = previous.get("figures", {})
    current_figures = current.get("figures", {})
    if isinstance(previous_figures, dict) and isinstance(current_figures, dict):
        for name in sorted(set(previous_figures) & set(current_figures)):
            before_figure = previous_figures[name]
            after_figure = current_figures[name]
            # A schema-shifted or hand-damaged artifact can hold
            # anything here; an unusable row is reported and skipped
            # rather than crashing the whole trend job.
            if not isinstance(before_figure, dict) or not isinstance(
                after_figure, dict
            ):
                malformed.append(name)
                continue
            before_cross = before_figure.get("crossovers")
            after_cross = after_figure.get("crossovers")
            if before_cross != after_cross:
                drift.append(name)

    return {
        "max_regression": max_regression,
        "rows": rows,
        "regressions": regressions,
        "metric_drift": drift,
        "malformed_figures": malformed,
    }


def render_bench_diff(diff: Dict[str, Any]) -> str:
    """Human-readable digest of :func:`compare_bench_summaries`."""
    lines = [f"bench trend (tolerance {diff['max_regression']:.0%}):"]
    for row in diff["rows"]:
        before, after = row["previous"], row["current"]
        if before is None or after is None:
            lines.append(f"  {row['metric']}: no baseline, skipped")
            continue
        change = row.get("relative_change", 0.0)
        flag = "  << REGRESSION" if row["regressed"] else ""
        lines.append(
            f"  {row['metric']}: {before:.3f} -> {after:.3f} "
            f"({change:+.1%}){flag}"
        )
    if diff["metric_drift"]:
        lines.append(
            "  delivery crossovers changed in: "
            + ", ".join(diff["metric_drift"])
            + " (informational)"
        )
    if diff.get("malformed_figures"):
        lines.append(
            "  unusable figure rows skipped: "
            + ", ".join(diff["malformed_figures"])
        )
    if not diff["regressions"]:
        lines.append("  no performance regressions")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Rolling history: sustained drift instead of single-run noise
# ----------------------------------------------------------------------

_HISTORY_PATTERN = re.compile(r"BENCH_(\d+)\.json$")


def _history_paths(history_dir: str) -> List[str]:
    """The history directory's artifacts, oldest first."""
    paths = [
        path
        for path in glob.glob(os.path.join(history_dir, "BENCH_*.json"))
        if _HISTORY_PATTERN.search(os.path.basename(path))
    ]
    paths.sort(
        key=lambda path: int(_HISTORY_PATTERN.search(path).group(1))
    )
    return paths


def update_bench_history(
    history_dir: str, current_path: str, window: int = 10
) -> List[str]:
    """Append the current artifact to a rolling history directory.

    Copies ``current_path`` in as the next ``BENCH_<seq>.json`` and
    prunes everything but the newest ``window`` artifacts.  Returns
    the window's paths, oldest first.  The current summary is
    validated first, so a corrupt artifact never enters the history.
    """
    if window < 1:
        raise AnalysisError(f"window must be >= 1, got {window}")
    load_bench_summary(current_path)
    os.makedirs(history_dir, exist_ok=True)
    existing = _history_paths(history_dir)
    next_seq = (
        int(_HISTORY_PATTERN.search(existing[-1]).group(1)) + 1
        if existing
        else 1
    )
    shutil.copyfile(
        current_path, os.path.join(history_dir, f"BENCH_{next_seq:06d}.json")
    )
    paths = _history_paths(history_dir)
    for stale in paths[:-window]:
        os.remove(stale)
    return paths[-window:]


def compare_bench_history(
    summaries: List[Dict[str, Any]],
    max_regression: float = 0.2,
    min_sustained: int = 3,
) -> Dict[str, Any]:
    """Scan a chronological window of summaries for sustained drift.

    A tracked metric is flagged only when it moved in the bad
    direction on each of the last ``min_sustained`` run-to-run steps
    *and* the cumulative change over that stretch exceeds
    ``max_regression`` — one noisy run can neither trigger the flag
    (its neighbour step moves the other way) nor hide a real drift
    (the cumulative test spans the full stretch).  "Consecutive" means
    adjacent *summaries*: a metric absent from any of the window's
    newest ``min_sustained + 1`` artifacts (schema growth, a bench
    section skipped on that runner) is reported as an informational
    row, never flagged — gaps must not be stitched into a fake streak.
    """
    if not 0.0 <= max_regression:
        raise AnalysisError(
            f"max_regression must be >= 0, got {max_regression}"
        )
    if min_sustained < 1:
        raise AnalysisError(
            f"min_sustained must be >= 1, got {min_sustained}"
        )
    rows: List[Dict[str, Any]] = []
    sustained: List[str] = []
    for path, label, direction in _TRACKED:
        aligned = [_lookup(summary, path) for summary in summaries]
        values = [value for value in aligned if value is not None]
        row: Dict[str, Any] = {
            "metric": label,
            "direction": direction,
            "values": values,
            "sustained": False,
        }
        stretch = aligned[-(min_sustained + 1) :]
        if (
            len(stretch) == min_sustained + 1
            and all(value is not None for value in stretch)
        ):
            steps = [after - before for before, after in zip(stretch, stretch[1:])]
            monotone_bad = (
                all(step > 0 for step in steps)
                if direction == "lower"
                else all(step < 0 for step in steps)
            )
            if monotone_bad and stretch[0] > 0:
                change = (stretch[-1] - stretch[0]) / stretch[0]
                row["relative_change"] = change
                beyond = (
                    change > max_regression
                    if direction == "lower"
                    else change < -max_regression
                )
                if beyond:
                    row["sustained"] = True
                    sustained.append(label)
        rows.append(row)
    return {
        "window": len(summaries),
        "min_sustained": min_sustained,
        "max_regression": max_regression,
        "rows": rows,
        "sustained_regressions": sustained,
    }


def render_bench_history(report: Dict[str, Any]) -> str:
    """Human-readable digest of :func:`compare_bench_history`."""
    lines = [
        f"bench history ({report['window']} run(s), sustained = "
        f"{report['min_sustained']} consecutive bad steps beyond "
        f"{report['max_regression']:.0%}):"
    ]
    for row in report["rows"]:
        values = row["values"]
        if not values:
            lines.append(f"  {row['metric']}: no data in window")
            continue
        series = " -> ".join(f"{value:.3f}" for value in values[-5:])
        flag = ""
        if row["sustained"]:
            flag = f"  << SUSTAINED DRIFT ({row['relative_change']:+.1%})"
        lines.append(f"  {row['metric']}: {series}{flag}")
    if not report["sustained_regressions"]:
        lines.append("  no sustained drift")
    return "\n".join(lines)
