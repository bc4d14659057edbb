"""Fixture corpus for every per-file lotus-lint rule: one firing and one
non-firing snippet per rule (plus the edge cases each rule's
implementation carves out).  The stream-read and task-spec cases run
through the flow tier, whose FLW011/FLW013 own those invariants."""

from pathlib import Path
from textwrap import dedent

import pytest

import repro.harness
from repro.analysis import LintConfig, analyze_source, run_flow

PROTOCOL_PATH = "src/repro/bargossip/fixture.py"
HARNESS_DIR = Path(repro.harness.__file__).resolve().parent


def codes(source, path=PROTOCOL_PATH, config=None):
    findings, _ = analyze_source(dedent(source), path, config or LintConfig())
    return [finding.rule for finding in findings]


def flow_codes(source, path=PROTOCOL_PATH, config=None):
    findings = run_flow({path: dedent(source)}, config or LintConfig())
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# DET001 — global-state randomness
# ---------------------------------------------------------------------------


class TestDet001:
    def test_stdlib_random_call_fires(self):
        assert "DET001" in codes(
            """
            import random

            def draw():
                return random.random()
            """
        )

    def test_stdlib_random_aliased_import_fires(self):
        assert "DET001" in codes(
            """
            import random as rnd

            def shuffle(items):
                rnd.shuffle(items)
            """
        )

    def test_from_import_of_random_fires(self):
        assert "DET001" in codes("from random import shuffle\n")

    def test_legacy_np_random_fires(self):
        assert "DET001" in codes(
            """
            import numpy as np

            def draw():
                return np.random.rand(3)
            """
        )

    def test_np_random_seed_fires(self):
        assert "DET001" in codes(
            """
            import numpy as np

            np.random.seed(0)
            """
        )

    def test_default_rng_is_clean(self):
        assert codes(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """
        ) == []

    def test_seed_sequence_is_clean(self):
        assert codes(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(np.random.SeedSequence(seed))
            """
        ) == []

    def test_rng_streams_usage_is_clean(self):
        assert codes(
            """
            from repro.core.rng import RngStreams

            def draw(streams: RngStreams):
                return streams.get("broadcaster").integers(10)
            """
        ) == []

    def test_out_of_scope_path_is_clean(self):
        source = """
        import random

        random.random()
        """
        assert codes(source, path="tests/fixture.py") == []

    def test_local_variable_named_random_is_clean(self):
        # No import of the stdlib module: `random` is just a name.
        assert codes(
            """
            def draw(random):
                return random.random()
            """
        ) == []


# ---------------------------------------------------------------------------
# DET002 — unsorted set iteration in protocol modules
# ---------------------------------------------------------------------------


class TestDet002:
    def test_for_over_set_call_fires(self):
        assert "DET002" in codes(
            """
            def run(items):
                for item in set(items):
                    print(item)
            """
        )

    def test_for_over_set_literal_fires(self):
        assert "DET002" in codes(
            """
            for item in {3, 1, 2}:
                print(item)
            """
        )

    def test_for_over_tracked_variable_fires(self):
        assert "DET002" in codes(
            """
            def run(items):
                pending = set(items)
                for item in pending:
                    print(item)
            """
        )

    def test_annotated_parameter_fires(self):
        assert "DET002" in codes(
            """
            from typing import Set

            def run(pending: Set[int]):
                for item in pending:
                    print(item)
            """
        )

    def test_list_over_set_fires(self):
        assert "DET002" in codes(
            """
            def run(items):
                return list(frozenset(items))
            """
        )

    def test_sum_over_set_fires(self):
        assert "DET002" in codes(
            """
            def run(items):
                return sum(set(items))
            """
        )

    def test_comprehension_over_set_fires(self):
        assert "DET002" in codes(
            """
            def run(items):
                held = set(items)
                return [item + 1 for item in held]
            """
        )

    def test_set_union_fires(self):
        assert "DET002" in codes(
            """
            def run(a, b):
                left = set(a)
                for item in left | set(b):
                    print(item)
            """
        )

    def test_sorted_iteration_is_clean(self):
        assert codes(
            """
            def run(items):
                pending = set(items)
                for item in sorted(pending):
                    print(item)
            """
        ) == []

    def test_sorted_comprehension_is_clean(self):
        # The idiomatic fix for filtered iteration keeps the
        # comprehension but hands it straight to sorted().
        assert codes(
            """
            def run(tokens):
                held = set(tokens)
                return sorted(token for token in held if token)
            """
        ) == []

    def test_membership_and_len_are_clean(self):
        assert codes(
            """
            def run(items, probe):
                pending = set(items)
                return probe in pending and len(pending) > 0
            """
        ) == []

    def test_reassigned_to_list_is_clean(self):
        assert codes(
            """
            def run(items):
                pending = set(items)
                pending = sorted(pending)
                for item in pending:
                    print(item)
            """
        ) == []

    def test_harness_module_out_of_scope(self):
        source = """
        def run(items):
            for item in set(items):
                print(item)
        """
        assert codes(source, path="src/repro/harness/sweep.py") == []


# ---------------------------------------------------------------------------
# DET003 — wall-clock reads
# ---------------------------------------------------------------------------


class TestDet003:
    def test_time_time_fires(self):
        assert "DET003" in codes(
            """
            import time

            stamp = time.time()
            """
        )

    def test_aliased_perf_counter_fires(self):
        assert "DET003" in codes(
            """
            import time as _time

            started = _time.perf_counter()
            """
        )

    def test_from_import_call_fires(self):
        assert "DET003" in codes(
            """
            from time import monotonic

            stamp = monotonic()
            """
        )

    def test_datetime_now_fires(self):
        assert "DET003" in codes(
            """
            from datetime import datetime

            stamp = datetime.now()
            """
        )

    def test_virtual_time_is_clean(self):
        assert codes(
            """
            def advance(clock, dt):
                return clock + dt
            """
        ) == []

    def test_only_the_supervisor_is_exempt(self):
        source = """
        import time

        started = time.perf_counter()
        """
        assert codes(source, path="src/repro/harness/bench.py") == ["DET003"]
        assert codes(source, path="src/repro/harness/supervise.py") == []

    @pytest.mark.parametrize(
        "module",
        sorted(
            path.name
            for path in HARNESS_DIR.glob("*.py")
            if path.name != "supervise.py"
        ),
    )
    def test_harness_modules_are_in_scope(self, module):
        """Only supervise.py may read the wall clock in the harness."""
        source = """
        import time

        started = time.perf_counter()
        """
        assert codes(source, path=f"src/repro/harness/{module}") == ["DET003"]

    def test_sleep_is_not_a_clock_read(self):
        assert codes(
            """
            import time

            def pause():
                time.sleep(0)
            """
        ) == []


# ---------------------------------------------------------------------------
# FLW011 — network/churn streams only in event-schedule code
# ---------------------------------------------------------------------------


class TestFlw011StreamReads:
    def test_draw_in_protocol_phase_fires(self):
        assert "FLW011" in flow_codes(
            """
            class Simulator:
                def run_exchanges(self):
                    if self._net_rng.random() < 0.5:
                        return None
            """
        )

    def test_draw_at_module_scope_fires(self):
        assert "FLW011" in flow_codes("value = _churn_rng.exponential(1.0)\n")

    def test_draw_in_event_handler_is_clean(self):
        assert flow_codes(
            """
            class Simulator:
                def _on_exchange_deliver(self, event):
                    return self._net_rng.random()

                def _arm_churn(self, now):
                    return self._churn_rng.exponential(1.0)
            """
        ) == []

    def test_churn_draw_in_protocol_phase_fires(self):
        assert "FLW011" in flow_codes(
            """
            class Simulator:
                def run_pushes(self):
                    return self._churn_rng.exponential(1.0)
            """
        )

    def test_draw_at_class_scope_fires(self):
        assert "FLW011" in flow_codes(
            """
            class Simulator:
                jitter = _net_rng.random()
            """
        )

    def test_helper_nested_in_event_handler_is_clean(self):
        assert flow_codes(
            """
            class Simulator:
                def _on_push_deliver(self, event):
                    def delay():
                        return self._net_rng.exponential(1.0)
                    return delay()
            """
        ) == []

    def test_wiring_assignment_is_clean(self):
        assert flow_codes(
            """
            class Simulator:
                def __init__(self, streams):
                    self._net_rng = streams.get("network")
                    self._churn_rng = streams.get("churn")
            """
        ) == []

    def test_events_module_exempt(self):
        source = """
        def sample(self):
            return self._net_rng.random()
        """
        assert flow_codes(source, path="src/repro/bargossip/events.py") == []
        assert flow_codes(source, path="src/repro/bargossip/network.py") == []

    def test_allowed_functions_configurable(self):
        source = """
        class Simulator:
            def custom_event_loop(self):
                return self._net_rng.random()
        """
        assert "FLW011" in flow_codes(source)
        config = LintConfig(flw011_allowed_functions=("custom_event_loop",))
        assert flow_codes(source, config=config) == []

    def test_retry_path_read_reported_once(self):
        """FLW014 owns stream reads in the retry cone; FLW011 reports
        them only when FLW014 is not running."""
        source = """
        class Policy:
            def backoff_delay(self, attempt):
                return attempt * float(self._net_rng.random())
        """
        assert flow_codes(source) == ["FLW014"]
        only_flw011 = LintConfig(enabled=frozenset({"FLW011"}))
        assert flow_codes(source, config=only_flw011) == ["FLW011"]


# ---------------------------------------------------------------------------
# API006 — counter columns mutated only through the guarded APIs
# ---------------------------------------------------------------------------


class TestApi006:
    def test_raw_attribute_write_fires(self):
        assert "API006" in codes(
            """
            def cheat(population, row):
                population.counters[row, 0] = 99
            """
        )

    def test_raw_augmented_write_fires(self):
        assert "API006" in codes(
            """
            def cheat(population, rows):
                counters = population.counters
                counters[rows, 2] += 1
            """
        )

    @pytest.mark.parametrize(
        "write",
        [
            "population.counters[:, 2][rows] += 1",
            "column = population.counters[:, 2]\n    column[rows] += 1",
        ],
        ids=["column", "column-alias"],
    )
    def test_raw_column_write_fires(self, write):
        found = codes("def cheat(population, rows):\n    " + write + "\n")
        assert found.count("API006") == 1

    def test_counters_view_write_fires(self):
        assert "API006" in codes(
            """
            def cheat(population, row):
                population.counters_view(row)[3] = 1
            """
        )

    def test_guarded_api_is_clean(self):
        assert codes(
            """
            def record(node, ids, deltas, population):
                node.counters.add(updates_sent=1)
                node.counters.updates_received += 1
                population.add_counter_deltas(ids, deltas)
            """
        ) == []

    def test_batched_phase_scatter_add_allowed(self):
        assert codes(
            """
            class Engine:
                def run_phase(self, rows):
                    counters = self.population.counters
                    counters[rows, 0] += 1
            """
        ) == []

    def test_population_module_exempt(self):
        source = """
        def materialize(self, rows, deltas):
            self.counters[rows] += deltas
        """
        assert codes(source, path="src/repro/bargossip/population.py") == []
        assert codes(source, path="src/repro/bargossip/node.py") == []

    def test_read_is_clean(self):
        assert codes(
            """
            def read(population, row):
                return population.counters[row, 0]
            """
        ) == []


# ---------------------------------------------------------------------------
# FLW013 — task-spec picklability
# ---------------------------------------------------------------------------


class TestFlw013TaskSpecs:
    def test_callable_field_fires(self):
        assert "FLW013" in flow_codes(
            """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass(frozen=True)
            class BrokenSweepTask:
                metric: Callable[[int], float]
            """
        )

    def test_rng_field_fires(self):
        assert "FLW013" in flow_codes(
            """
            from dataclasses import dataclass
            import numpy as np

            @dataclass(frozen=True)
            class ShardTask:
                rng: np.random.Generator
            """
        )

    def test_lambda_default_fires(self):
        assert "FLW013" in flow_codes(
            """
            from dataclasses import dataclass

            @dataclass
            class BrokenTask:
                factory: object = lambda: 3
            """
        )

    def test_lambda_argument_fires(self):
        assert "FLW013" in flow_codes(
            """
            def build():
                return ShardTask(metric=lambda x: x)
            """
        )

    def test_local_function_argument_fires(self):
        assert "FLW013" in flow_codes(
            """
            def build():
                def metric(x):
                    return x
                return GossipSweepTask(metric=metric)
            """
        )

    def test_optional_callable_field_fires(self):
        assert "FLW013" in flow_codes(
            """
            from dataclasses import dataclass
            from typing import Callable, Optional

            @dataclass(frozen=True)
            class ShardTask:
                hook: Optional[Callable[[int], int]] = None
            """
        )

    def test_forward_ref_callable_field_fires(self):
        assert "FLW013" in flow_codes(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ShardTask:
                hook: "Callable[[int], int]" = None
            """
        )

    def test_stdlib_random_field_fires(self):
        assert "FLW013" in flow_codes(
            """
            import random
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ShardTask:
                rng: random.Random
            """
        )

    def test_lambda_into_qualified_constructor_fires(self):
        assert "FLW013" in flow_codes(
            """
            from repro.harness import tasks

            def build():
                return tasks.ShardTask(7, lambda x: x)
            """
        )

    def test_lambda_into_non_spec_call_is_clean(self):
        assert flow_codes(
            """
            def build(items):
                return sorted(items, key=lambda x: -x)
            """
        ) == []

    def test_plain_data_spec_is_clean(self):
        assert flow_codes(
            """
            from dataclasses import dataclass
            from typing import Tuple

            @dataclass(frozen=True)
            class GossipSweepTask:
                label: str
                fractions: Tuple[float, ...]
                seed: int
            """
        ) == []

    def test_module_level_function_argument_is_clean(self):
        assert flow_codes(
            """
            def metric(x):
                return x

            def build():
                return GossipSweepTask(metric=metric)
            """
        ) == []

    def test_non_spec_dataclass_ignored(self):
        assert flow_codes(
            """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class NotASpec:
                metric: Callable[[int], float]
            """
        ) == []


# ---------------------------------------------------------------------------
# Cross-cutting framework behavior
# ---------------------------------------------------------------------------


class TestFramework:
    def test_syntax_error_reported(self):
        findings, _ = analyze_source("def broken(:\n", PROTOCOL_PATH, LintConfig())
        assert [finding.rule for finding in findings] == ["LNT002"]
        assert findings[0].severity == "error"

    def test_enabled_subset(self):
        source = dedent(
            """
            import random

            for item in set(random.random() for _ in range(3)):
                print(item)
            """
        )
        only_det002 = LintConfig(enabled=frozenset({"DET002"}))
        assert set(codes(source, config=only_det002)) == {"DET002"}

    def test_severity_override(self):
        config = LintConfig(severity_overrides={"DET001": "warning"})
        findings, _ = analyze_source(
            "import random\nrandom.random()\n", PROTOCOL_PATH, config
        )
        assert findings and all(f.severity == "warning" for f in findings)

    def test_include_override_rescopes_rule(self):
        config = LintConfig(include_overrides={"DET001": ("*",)})
        findings, _ = analyze_source(
            "import random\nrandom.random()\n", "anywhere/at/all.py", config
        )
        assert [finding.rule for finding in findings] == ["DET001"]

    def test_all_four_rules_registered(self):
        from repro.analysis import rule_codes

        assert set(rule_codes()) == {"DET001", "DET002", "DET003", "API006"}


class TestRetiredRules:
    """SHM005 and FLW012 guarded ``SharedMemory`` segment lifecycles.

    They were retired together with the last shared-memory code under
    ``src/``; if a segment ever comes back, so must its rules.  RNG004
    and PKL008 were per-file copies of checks FLW011 and FLW013 now
    make (see ``TestFlw011StreamReads`` and ``TestFlw013TaskSpecs``).
    """

    @pytest.mark.parametrize("code", ["SHM005", "FLW012", "RNG004", "PKL008"])
    def test_retired_rule_not_registered(self, code):
        from repro.analysis import flow_rule_codes, rule_codes

        assert code not in rule_codes()
        assert code not in flow_rule_codes()

    def test_no_shared_memory_under_src(self):
        import re
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        pattern = re.compile(r"SharedMemory|shared_memory")
        offenders = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []
