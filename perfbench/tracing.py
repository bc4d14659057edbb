"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public entry points of the simulator and
harness layers with thin wrappers for the duration of a traced run and
restores them afterwards.  Nothing inside ``src/`` knows it is traced.

Each wrapper is one of three kinds:

* ``SPAN``: timed, and kept as a span ``(index, parent, name, start,
  end)`` that is written out when the run ends.  Used for calls made a
  few times per round (phases, store calls, cache records).
* ``TIMED``: timed but not kept, for calls made per node or per pair,
  where keeping every span would cost more memory than it tells.
* ``COUNT``: counted only, for the per-pair planner calls.

Self time is a call's duration minus the part its traced children
cover.  Calls run on one thread and nest, so that part is the sum of
the direct children's durations, kept in the parent's stack frame.
Self time, call counts and probe counts accumulate under the tracer's
current ``phase``, which the workload sets (``setup``, ``warm``,
``timed``), so per-round figures use the timed rounds only.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

SPAN, TIMED, COUNT = "span", "timed", "count"


def _truncate_probe(tracer: "Tracer", args: tuple, kwargs: dict) -> Dict[str, int]:
    """Capped rows and their computed bytes for one ``truncate_word_rows``.

    Mirrors the function's own row selection (``counts < n_available``);
    bytes are rows x row words x 8, a computed figure, not a measured one.
    """
    available, counts, n_available = args[1], args[2], args[3]
    rows = int(np.count_nonzero(np.asarray(counts) < np.asarray(n_available)))
    return {
        "updates.truncate_rows": rows,
        "updates.truncate_bytes": rows * int(available.shape[1]) * 8,
    }


#: (module, class or None for a module function, attribute, span name,
#: kind, probe).  Module functions are patched where the caller looks
#: them up: the simulator and the exchange/push modules import them by
#: name.
SIMULATOR_LAYERS: Tuple[tuple, ...] = (
    ("repro.bargossip.simulator", "GossipSimulator", "__init__", "setup", SPAN, None),
    ("repro.bargossip.simulator", "GossipSimulator", "step", "simulator", SPAN, None),
    ("repro.bargossip.simulator", "GossipSimulator", "_make_node", "population.nodes", TIMED, None),
    ("repro.bargossip.updates", "WordPopulationStore", "__init__", "population.store", SPAN, None),
    ("repro.bargossip.population", "Population", "__init__", "population.store", SPAN, None),
    ("repro.bargossip.partner", "RoundWindowSchedule", "partners_for_round", "partner", SPAN, None),
    ("repro.bargossip.sharding", "ShardedPartnerSchedule", "partners_for_round", "partner", SPAN, None),
    ("repro.bargossip.sharding", "ShardedPartnerSchedule", "round_pairs", "partner", SPAN, None),
    ("repro.bargossip.simulator", "InteractionEngine", "run_exchanges", "exchange", SPAN, None),
    ("repro.bargossip.simulator", "InteractionEngine", "run_exchanges_batched", "exchange", SPAN, None),
    ("repro.bargossip.simulator", "InteractionEngine", "run_pushes", "push", SPAN, None),
    ("repro.bargossip.simulator", "InteractionEngine", "run_pushes_batched", "push", SPAN, None),
    ("repro.bargossip.simulator", "InteractionEngine", "interact_exchange", "exchange.calls", COUNT, None),
    ("repro.bargossip.simulator", None, "batched_word_exchange", "exchange.calls", COUNT, None),
    ("repro.bargossip.simulator", None, "plan_optimistic_push", "push.calls", COUNT, None),
    ("repro.bargossip.simulator", None, "bitset_plan_push", "push.calls", COUNT, None),
    ("repro.bargossip.simulator", None, "batched_word_push", "push.calls", COUNT, None),
    ("repro.bargossip.exchange", None, "truncate_word_rows", "updates.truncate", SPAN, _truncate_probe),
    ("repro.bargossip.push", None, "truncate_word_rows", "updates.truncate", SPAN, _truncate_probe),
    ("repro.bargossip.simulator", None, "batched_word_dump", "attacker.dump", SPAN, None),
    ("repro.bargossip.attacker", "AttackerCoalition", "dump_for", "attacker.dump", TIMED, None),
    ("repro.bargossip.updates", "UpdateLedger", "release", "updates.broadcast", SPAN, None),
    ("repro.bargossip.updates", "WordPopulationStore", "advance_to", "updates.broadcast", SPAN, None),
    ("repro.bargossip.updates", "WordPopulationStore", "announce_fresh", "updates.broadcast", SPAN, None),
    ("repro.bargossip.updates", "WordPopulationStore", "seed", "updates.broadcast", SPAN, None),
    ("repro.bargossip.updates", "UpdateStore", "announce", "updates.broadcast", TIMED, None),
    ("repro.bargossip.updates", "UpdateLedger", "expire_due", "updates.expiry", SPAN, None),
    ("repro.bargossip.updates", "WordPopulationStore", "mask_of", "updates.expiry", SPAN, None),
    ("repro.bargossip.updates", "WordPopulationStore", "masked_have_popcounts", "updates.expiry", SPAN, None),
    ("repro.bargossip.updates", "WordPopulationStore", "clear_mask", "updates.expiry", SPAN, None),
    ("repro.bargossip.updates", "UpdateStore", "expire", "updates.expiry", TIMED, None),
)


def _dispatch_probe(tracer: "Tracer", args: tuple, kwargs: dict) -> Dict[str, int]:
    """Cells a pool dispatch re-runs: every batch after the first one of
    an ``SweepExecutor._execute`` call is a retry round."""
    ordinal = tracer.calls_total["sweep.execute"]
    tasks = len(args[2] if len(args) > 2 else kwargs["tasks"])
    retry = tasks if ordinal in tracer.executes_dispatched else 0
    tracer.executes_dispatched.add(ordinal)
    return {"sweep.retries": retry}


HARNESS_LAYERS: Tuple[tuple, ...] = (
    ("repro.harness.parallel", "SweepExecutor", "map", "sweep.map", SPAN, None),
    ("repro.harness.parallel", "SweepExecutor", "_execute", "sweep.execute", SPAN, None),
    ("repro.harness.supervise", "SupervisedPool", "run", "supervise.run", SPAN, _dispatch_probe),
    ("repro.harness.cache", "ResultCache", "get", "cache.get", SPAN, None),
    ("repro.harness.cache", "ResultCache", "put", "cache.put", SPAN, None),
)


class Tracer:
    """In-memory spans and per-phase self time for wrapped layer calls."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.self_time: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.calls: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.calls_total: Dict[str, int] = defaultdict(int)
        self.executes_dispatched: set = set()
        #: ``(index, parent index or -1, name, phase, start, end)``.
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------

    def install(self, layers: Tuple[tuple, ...]) -> None:
        """Wrap every listed entry point that exists in this checkout.

        An entry point a later change removed or renamed is listed in
        :attr:`missing`, and the traced run then fails its gate: its
        layer would otherwise read 0, which looks like a gain.
        """
        for module_name, class_name, attr, name, kind, probe in layers:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            target = None if owner is None else vars(owner).get(attr)
            if target is None:
                self.missing.append(f"{module_name}.{class_name or ''}.{attr}")
                continue
            self._patched.append((owner, attr, target))
            setattr(owner, attr, self._wrap(target, name, kind, probe))

    def uninstall(self) -> None:
        """Restore every wrapped entry point (idempotent)."""
        while self._patched:
            owner, attr, target = self._patched.pop()
            setattr(owner, attr, target)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, kind: str, probe: Optional[Callable]) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        if kind == COUNT:

            def counted(*args: Any, **kwargs: Any) -> Any:
                tracer.calls[tracer.phase][name] += 1
                return fn(*args, **kwargs)

            return counted

        keep = kind == SPAN

        def timed(*args: Any, **kwargs: Any) -> Any:
            phase = tracer.phase
            if probe is not None:
                for key, value in probe(tracer, args, kwargs).items():
                    tracer.counts[phase][key] += value
            tracer.calls[phase][name] += 1
            tracer.calls_total[name] += 1
            index = -1
            if keep:
                index = len(tracer.spans)
                tracer.spans.append(None)  # reserved: children may append first
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_time[phase][name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    tracer.spans[index] = (index, parent, name, phase, start, end)

        return timed

    # -- reading -------------------------------------------------------

    def durations_ms(self, name: str) -> List[float]:
        """Durations of every kept span called ``name``, in ms."""
        return [
            (end - start) * 1000.0
            for _, _, span_name, _, start, end in self.spans
            if span_name == name
        ]

    def to_json(self) -> Dict[str, Any]:
        """Spans, self time and counts as plain JSON, for writing out."""
        return {
            "missing": self.missing,
            "self_time_s": {phase: dict(names) for phase, names in self.self_time.items()},
            "calls": {phase: dict(names) for phase, names in self.calls.items()},
            "counts": {phase: dict(names) for phase, names in self.counts.items()},
            "span_fields": ["index", "parent", "name", "phase", "start", "end"],
            "spans": [list(span) for span in self.spans if span is not None],
        }
