"""Experiment harness: sweeps, parallel execution, caching, rendering.

The harness layers, bottom up:

* :mod:`~repro.harness.cache` — content-addressed on-disk store for
  sweep cell results;
* :mod:`~repro.harness.parallel` — :class:`SweepExecutor`, fanning
  (grid-point, seed) cells across a process pool with deterministic
  reduction;
* :mod:`~repro.harness.tasks` — picklable :class:`SweepTask` specs for
  every model (gossip, scrip, token, swarm);
* :mod:`~repro.harness.sweep` — grid × repetitions aggregation;
* :mod:`~repro.harness.figures` / :mod:`~repro.harness.tables` —
  the paper's figures and Table 1;
* :mod:`~repro.harness.ascii` / :mod:`~repro.harness.cli` — rendering
  and the ``lotus-eater`` entry point.
"""

from .ascii import render_chart, render_series_table, render_table
from .cache import CellRecord, ResultCache, cell_key, fingerprint_of
from .figures import (
    DEFAULT_FRACTIONS,
    FAST_FRACTIONS,
    GossipSweepTask,
    attack_curve,
    crossovers,
    figure1,
    figure2,
    figure3,
)
from .parallel import SweepCell, SweepExecutor, resolve_jobs
from .sweep import SweepPoint, sweep, sweep_series
from .tables import baseline_check, render_table1, table1_rows
from .tasks import (
    ScripAltruistTask,
    SwarmSweepTask,
    SweepTask,
    TokenSweepTask,
)

__all__ = [
    "attack_curve",
    "figure1",
    "figure2",
    "figure3",
    "crossovers",
    "DEFAULT_FRACTIONS",
    "FAST_FRACTIONS",
    "GossipSweepTask",
    "SweepTask",
    "ScripAltruistTask",
    "TokenSweepTask",
    "SwarmSweepTask",
    "sweep",
    "sweep_series",
    "SweepPoint",
    "SweepCell",
    "SweepExecutor",
    "resolve_jobs",
    "ResultCache",
    "CellRecord",
    "cell_key",
    "fingerprint_of",
    "table1_rows",
    "render_table1",
    "baseline_check",
    "render_table",
    "render_series_table",
    "render_chart",
]
