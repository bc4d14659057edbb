"""Flow-tier rules (FLW010-FLW013): fixtures plus seeded mutations of the real tree.

The fixture tests exercise each rule on small synthetic projects; the
mutation tests load the shipped sources, introduce one representative
defect, and assert the analyzer catches it (and nothing else regresses).
"""

import glob
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flow import run_flow
from repro.analysis.rules import LintConfig

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(sources, config=None):
    fixed = {path: textwrap.dedent(src) for path, src in sources.items()}
    return run_flow(fixed, config or LintConfig())


def rules_fired(sources, config=None):
    return sorted({f.rule for f in findings_for(sources, config)})


class TestFLW010Fixtures:
    def test_constant_index_write_in_root_fires(self):
        sources = {
            "src/repro/sweepfix.py": """
            def run_exchanges_batched(state):
                state.counters[0, 3] += 1
            """
        }
        found = findings_for(sources)
        assert [f.rule for f in found] == ["FLW010"]
        assert found[0].path == "src/repro/sweepfix.py"

    def test_shared_live_row_write_fires(self):
        # The live row is one row shared by every node: a sweep that
        # writes it changes what every pair of the sweep misses.
        sources = {
            "src/repro/sweepfix.py": """
            def run_exchanges_batched(store, fresh):
                store.live_words[:] |= fresh
            """
        }
        found = findings_for(sources)
        assert [f.rule for f in found] == ["FLW010"]
        assert "'store'" in found[0].message

    def test_row_guarded_write_is_clean(self):
        sources = {
            "src/repro/sweepfix.py": """
            def run_exchanges_batched(state, rows):
                state.counters[rows, 3] += 1
            """
        }
        assert rules_fired(sources) == []

    def test_local_factory_store_is_exempt(self):
        sources = {
            "src/repro/sweepfix.py": """
            def run_exchanges_batched(n):
                pop = Population(n)
                pop.counters[0, 3] += 1
            """
        }
        assert rules_fired(sources) == []

    def test_unreachable_function_is_ignored(self):
        sources = {
            "src/repro/sweepfix.py": """
            def offline_report(state):
                state.counters[0, 3] += 1
            """
        }
        assert rules_fired(sources) == []

    def test_escape_two_calls_deep_fires_with_trace(self):
        sources = {
            "src/repro/sweepfix.py": """
            def run_exchanges_batched(state):
                level1(state.counters)

            def level1(arr):
                level2(arr)

            def level2(buf):
                buf[0] = 1
            """
        }
        found = findings_for(sources)
        assert [f.rule for f in found] == ["FLW010"]
        assert found[0].trace, "interprocedural finding must carry a call chain"

    def test_duplicate_index_write_fires(self):
        sources = {
            "src/repro/sweepfix.py": """
            import numpy as np

            def run_exchanges_batched(state):
                perm = np.array([0, 0])
                state.counters[perm, 3] += 1
            """
        }
        assert rules_fired(sources) == ["FLW010"]

    def test_duplicate_index_column_write_fires(self):
        # ``buf[:, c]`` is a view of ``buf``: the write lands in the
        # shared matrix, guarded only by the outer index.
        sources = {
            "src/repro/sweepfix.py": """
            import numpy as np

            def run_exchanges_batched(state):
                perm = np.array([0, 0])
                state.counters[:, 3][perm] += 1
            """
        }
        assert rules_fired(sources) == ["FLW010"]

    def test_duplicate_index_column_alias_write_fires(self):
        sources = {
            "src/repro/sweepfix.py": """
            import numpy as np

            def run_exchanges_batched(state):
                column = state.counters[:, 3]
                perm = np.array([0, 0])
                column[perm] += 1
            """
        }
        assert rules_fired(sources) == ["FLW010"]

    def test_row_guarded_column_write_is_clean(self):
        sources = {
            "src/repro/sweepfix.py": """
            def run_exchanges_batched(state, rows):
                state.counters[:, 3][rows] += 1
                column = state.counters[:, 4]
                column[rows] += 1
            """
        }
        assert rules_fired(sources) == []

    def test_derived_row_index_is_clean(self):
        sources = {
            "src/repro/sweepfix.py": """
            import numpy as np

            def run_exchanges_batched(state, active):
                rows = np.flatnonzero(active)
                state.counters[rows, 3] += 1
            """
        }
        assert rules_fired(sources) == []


class TestFLW011Fixtures:
    def test_net_rng_reaching_protocol_sink_fires(self):
        sources = {
            "src/repro/simfix.py": """
            class Sim:
                def step(self):
                    partner = int(self._net_rng.integers(4))
                    self._exchange_directed(0, partner, 1)
            """
        }
        assert rules_fired(sources) == ["FLW011"]

    def test_protocol_rng_is_clean(self):
        sources = {
            "src/repro/simfix.py": """
            class Sim:
                def step(self):
                    partner = int(self._proto_rng.integers(4))
                    self._exchange_directed(0, partner, 1)
            """
        }
        assert rules_fired(sources) == []

    def test_net_rng_feeding_latency_model_is_clean(self):
        # Drawn in event-schedule code (reads anywhere else fire FLW011
        # on their own); the taint reaching a latency model is fine.
        sources = {
            "src/repro/simfix.py": """
            class Sim:
                def _transmit(self):
                    delay = float(self._net_rng.exponential(0.5))
                    self._schedule(delay)
            """
        }
        assert rules_fired(sources) == []

    def test_handle_escaping_into_task_spec_fires(self):
        sources = {
            "src/repro/simfix.py": """
            class Sim:
                def make_task(self):
                    return ExchangeTask(rng=self._net_rng)
            """
        }
        assert rules_fired(sources) == ["FLW011"]


class TestFLW013Fixtures:
    def test_callable_two_dataclasses_deep_fires(self):
        sources = {
            "src/repro/specfix.py": """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass(frozen=True)
            class Inner:
                fn: "Callable[[int], int]"

            @dataclass(frozen=True)
            class Middle:
                inner: "Inner"

            @dataclass(frozen=True)
            class FanoutTask:
                middle: "Middle"
            """
        }
        found = findings_for(sources)
        assert [f.rule for f in found] == ["FLW013"]
        # Anchored at the spec-class field, with the nesting path in the trace.
        assert "FanoutTask" in found[0].message
        assert found[0].trace

    def test_plain_value_fields_are_clean(self):
        sources = {
            "src/repro/specfix.py": """
            from dataclasses import dataclass
            from typing import Tuple

            @dataclass(frozen=True)
            class Inner:
                counts: Tuple[int, ...]

            @dataclass(frozen=True)
            class FanoutTask:
                inner: "Inner"
                label: str
            """
        }
        assert rules_fired(sources) == []

    def test_non_spec_dataclass_may_hold_callables(self):
        sources = {
            "src/repro/specfix.py": """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class LocalHook:
                fn: "Callable[[int], int]"
            """
        }
        assert rules_fired(sources) == []

    def test_cycle_between_dataclasses_terminates(self):
        sources = {
            "src/repro/specfix.py": """
            from dataclasses import dataclass

            @dataclass
            class A:
                other: "B"

            @dataclass
            class B:
                other: "A"

            @dataclass
            class LoopTask:
                a: "A"
            """
        }
        assert rules_fired(sources) == []


class TestFLW014Fixtures:
    def test_registered_literal_site_is_clean(self):
        sources = {
            "src/repro/faultfix.py": """
            def _run_cell(payload):
                fault_point("worker:cell")
                return payload
            """
        }
        assert rules_fired(sources) == []

    def test_unregistered_site_fires(self):
        sources = {
            "src/repro/faultfix.py": """
            def _run_cell(payload):
                fault_point("worker:celll")
                return payload
            """
        }
        found = findings_for(sources)
        assert [f.rule for f in found] == ["FLW014"]
        assert "worker:celll" in found[0].message

    def test_computed_site_fires(self):
        sources = {
            "src/repro/faultfix.py": """
            def _run_cell(payload, site_name):
                fault_point(site_name)
                return payload
            """
        }
        assert rules_fired(sources) == ["FLW014"]

    def test_retry_path_reading_protocol_stream_fires(self):
        sources = {
            "src/repro/retryfix.py": """
            class Policy:
                def backoff_delay(self, attempt):
                    return self._jitter(attempt)

                def _jitter(self, attempt):
                    return attempt * float(self._net_rng.random())
            """
        }
        found = findings_for(sources)
        assert [f.rule for f in found] == ["FLW014"]
        assert found[0].trace, "retry-path finding must carry the call chain"

    def test_retry_path_calling_protocol_sink_fires(self):
        sources = {
            "src/repro/retryfix.py": """
            def _quarantine(snapshot, engine):
                run_exchanges(engine, snapshot)
            """
        }
        assert rules_fired(sources) == ["FLW014"]

    def test_dispatch_path_reexecuting_protocol_is_clean(self):
        sources = {
            "src/repro/retryfix.py": """
            def run_round(engine, snapshot):
                run_exchanges(engine, snapshot)
            """
        }
        assert rules_fired(sources) == []

    def test_lint_registry_matches_runtime_registry(self):
        from repro.faults import FAULT_SITES

        assert set(LintConfig().flw014_sites) == set(FAULT_SITES)


# ---------------------------------------------------------------------------
# Seeded mutations of the shipped tree: each ISSUE-specified defect must be
# caught by exactly the intended rule, at the mutated location.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_sources():
    sources = {}
    for path in glob.glob(str(REPO_ROOT / "src" / "**" / "*.py"), recursive=True):
        rel = str(Path(path).relative_to(REPO_ROOT))
        sources[rel] = Path(path).read_text()
    return sources


def tree_findings(sources):
    return [(f.rule, f.path, f.line) for f in run_flow(sources, LintConfig())]


class TestFlowRegistry:
    def test_all_four_flow_rules_registered(self):
        from repro.analysis import flow_rule_codes

        assert set(flow_rule_codes()) == {"FLW010", "FLW011", "FLW013", "FLW014"}


class TestSeededMutations:
    def test_shipped_tree_is_flow_clean(self, tree_sources):
        assert tree_findings(tree_sources) == []

    def test_flw010_unguarded_counter_write(self, tree_sources):
        sim = tree_sources["src/repro/bargossip/simulator.py"]
        needle = "counters[:, CI_EXCHANGES_NONEMPTY][rows_i] += 1"
        assert needle in sim
        mutated = dict(tree_sources)
        mutated["src/repro/bargossip/simulator.py"] = sim.replace(
            needle, "counters[:, CI_EXCHANGES_NONEMPTY][7] += 1"
        )
        fired = tree_findings(mutated)
        assert fired, "removing the row guard must surface FLW010"
        assert all(rule == "FLW010" for rule, _, _ in fired)
        assert all(path == "src/repro/bargossip/simulator.py" for _, path, _ in fired)

    @pytest.mark.parametrize(
        "write",
        [
            "population.counters[perm, CI_UPDATES_SENT] += 1",
            "population.counters[:, CI_UPDATES_SENT][perm] += 1",
        ],
        ids=["matrix", "column"],
    )
    def test_flw010_duplicate_rows_in_mixed_pass(self, tree_sources, write):
        """A scatter-add whose index repeats a row, planted in the mixed
        exchange pass, in both the 2-D and the column spelling."""
        sim = tree_sources["src/repro/bargossip/simulator.py"]
        anchor = "        if phase.pool_words is None:\n            return\n        dumped ="
        assert sim.count(anchor) == 1
        planted = (
            "        perm = np.array([0, 0])\n        " + write + "\n" + anchor
        )
        mutated = dict(tree_sources)
        mutated["src/repro/bargossip/simulator.py"] = sim.replace(anchor, planted)
        fired = tree_findings(mutated)
        assert fired, "a duplicate-row counters write must surface FLW010"
        assert all(rule == "FLW010" for rule, _, _ in fired)
        assert all(path == "src/repro/bargossip/simulator.py" for _, path, _ in fired)

    def test_flw011_net_rng_routed_into_exchange(self, tree_sources):
        sim = tree_sources["src/repro/bargossip/simulator.py"]
        match = re.search(
            r"self\._engine\._exchange_directed\(\s*"
            r"self\._event_round, event\.initiator, event\.partner\s*\)",
            sim,
        )
        assert match, "expected _exchange_directed delivery call site"
        mutated = dict(tree_sources)
        mutated["src/repro/bargossip/simulator.py"] = (
            sim[: match.start()]
            + "self._engine._exchange_directed("
            "self._event_round, int(self._net_rng.integers(2)), event.partner)"
            + sim[match.end() :]
        )
        fired = tree_findings(mutated)
        assert fired, "a network-stream draw feeding a protocol sink must surface FLW011"
        assert all(rule == "FLW011" for rule, _, _ in fired)

    def test_flw013_callable_nested_in_sweep_task(self, tree_sources):
        tasks = tree_sources["src/repro/harness/tasks.py"]
        assert "class GossipSweepTask:" in tasks
        inject = textwrap.dedent(
            '''

            @dataclass(frozen=True)
            class _MutPayloadInner:
                fn: "Callable[[int], int]"


            @dataclass(frozen=True)
            class _MutPayload:
                inner: "_MutPayloadInner"
            '''
        )
        mutated = dict(tree_sources)
        mutated["src/repro/harness/tasks.py"] = (tasks + inject).replace(
            "class GossipSweepTask:",
            'class GossipSweepTask:\n    payload: "_MutPayload" = None',
            1,
        )
        fired = tree_findings(mutated)
        assert fired, "a Callable two dataclasses deep must surface FLW013"
        assert all(rule == "FLW013" for rule, _, _ in fired)
        assert all(path == "src/repro/harness/tasks.py" for _, path, _ in fired)

    def test_flw014_typoed_fault_site(self, tree_sources):
        cache = tree_sources["src/repro/harness/cache.py"]
        needle = 'fault_point("cache:record"'
        assert needle in cache
        mutated = dict(tree_sources)
        mutated["src/repro/harness/cache.py"] = cache.replace(
            needle, 'fault_point("cache:records"'
        )
        fired = tree_findings(mutated)
        assert fired, "a typo'd fault site must surface FLW014"
        assert all(rule == "FLW014" for rule, _, _ in fired)
        assert all(path == "src/repro/harness/cache.py" for _, path, _ in fired)

    def test_flw014_backoff_drawing_protocol_stream(self, tree_sources):
        sup = tree_sources["src/repro/harness/supervise.py"]
        needle = "return delay * (0.5 + 0.5 * float(rng.random()))"
        assert needle in sup
        mutated = dict(tree_sources)
        mutated["src/repro/harness/supervise.py"] = sup.replace(
            needle,
            "return delay * (0.5 + 0.5 * float(self._net_rng.random()))",
        )
        fired = tree_findings(mutated)
        assert fired, "backoff touching a protocol stream must surface FLW014"
        assert all(rule == "FLW014" for rule, _, _ in fired)
        assert all(path == "src/repro/harness/supervise.py" for _, path, _ in fired)

    def test_flw011_net_rng_drawn_in_protocol_phase(self, tree_sources):
        sim = tree_sources["src/repro/bargossip/simulator.py"]
        needle = "        fresh = self.ledger.release(round_now)\n"
        assert needle in sim
        mutated = dict(tree_sources)
        mutated["src/repro/bargossip/simulator.py"] = sim.replace(
            needle, needle + "        _ = self._net_rng.random()\n", 1
        )
        fired = tree_findings(mutated)
        assert fired, "a network-stream read in a protocol phase must surface FLW011"
        assert all(rule == "FLW011" for rule, _, _ in fired)
        assert all(path == "src/repro/bargossip/simulator.py" for _, path, _ in fired)

    def test_flw013_callable_field_on_sweep_task(self, tree_sources):
        tasks = tree_sources["src/repro/harness/tasks.py"]
        assert "class GossipSweepTask:" in tasks
        mutated = dict(tree_sources)
        mutated["src/repro/harness/tasks.py"] = tasks.replace(
            "class GossipSweepTask:",
            'class GossipSweepTask:\n    hook: "Callable[[int], int]" = None',
            1,
        )
        fired = tree_findings(mutated)
        assert fired, "a Callable field on the spec itself must surface FLW013"
        assert all(rule == "FLW013" for rule, _, _ in fired)
        assert all(path == "src/repro/harness/tasks.py" for _, path, _ in fired)

    def test_flw013_lambda_into_task_constructor(self, tree_sources):
        tasks = tree_sources["src/repro/harness/tasks.py"]
        needle = 'metric=metric or "isolated_fraction",'
        assert needle in tasks
        mutated = dict(tree_sources)
        mutated["src/repro/harness/tasks.py"] = tasks.replace(
            needle, needle + "\n        hook=lambda seed: seed,", 1
        )
        fired = tree_findings(mutated)
        assert fired, "a lambda handed to a spec constructor must surface FLW013"
        assert all(rule == "FLW013" for rule, _, _ in fired)
        assert all(path == "src/repro/harness/tasks.py" for _, path, _ in fired)
