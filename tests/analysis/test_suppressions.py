"""Inline ``# lotus: ignore[...]`` suppression handling."""

from textwrap import dedent

from repro.analysis import LintConfig, analyze_source, run_lint, scan_suppressions

PROTOCOL_PATH = "src/repro/bargossip/fixture.py"


def lint(source):
    return analyze_source(dedent(source), PROTOCOL_PATH, LintConfig())


class TestScan:
    def test_trailing_comment_covers_own_line(self):
        by_line, malformed = scan_suppressions(
            "x = 1  # lotus: ignore[DET001] seeded elsewhere\n"
        )
        assert malformed == []
        (suppression,) = by_line[1]
        assert suppression.target_line == 1
        assert suppression.rules == frozenset({"DET001"})
        assert suppression.reason == "seeded elsewhere"

    def test_standalone_comment_covers_next_line(self):
        by_line, _ = scan_suppressions(
            "# lotus: ignore[DET002] fixture ordering is irrelevant\nx = 1\n"
        )
        (suppression,) = by_line[2]
        assert suppression.comment_line == 1
        assert suppression.target_line == 2

    def test_multiple_rules(self):
        by_line, _ = scan_suppressions("x = 1  # lotus: ignore[DET001, DET003]\n")
        (suppression,) = by_line[1]
        assert suppression.rules == frozenset({"DET001", "DET003"})

    def test_malformed_without_brackets_reported(self):
        by_line, malformed = scan_suppressions("x = 1  # lotus: ignore DET001\n")
        assert by_line == {}
        assert malformed == [1]

    def test_ordinary_comments_ignored(self):
        by_line, malformed = scan_suppressions("# plain comment\nx = 1  # note\n")
        assert by_line == {}
        assert malformed == []


class TestApplication:
    def test_suppression_silences_matching_rule(self):
        active, suppressed = lint(
            """
            import random

            value = random.random()  # lotus: ignore[DET001] fixture noise source
            """
        )
        assert active == []
        assert [f.rule for f, _ in suppressed] == ["DET001"]
        assert suppressed[0][1].reason == "fixture noise source"

    def test_wrong_rule_does_not_suppress(self):
        active, suppressed = lint(
            """
            import time

            stamp = time.time()  # lotus: ignore[DET001] wrong code on purpose
            """
        )
        assert [f.rule for f in active] == ["DET003"]
        assert suppressed == []

    def test_standalone_suppression_covers_statement_below(self):
        active, suppressed = lint(
            """
            def run(items):
                pending = set(items)
                # lotus: ignore[DET002] consumer is order-insensitive
                for item in pending:
                    print(item)
            """
        )
        assert active == []
        assert len(suppressed) == 1

    def test_malformed_suppression_becomes_warning_finding(self):
        active, _ = lint(
            """
            x = 1  # lotus: ignore-spelled-wrong
            """
        )
        assert [f.rule for f in active] == ["LNT001"]
        assert active[0].severity == "warning"

    def test_case_insensitive_rule_codes(self):
        active, suppressed = lint(
            """
            import time

            stamp = time.time()  # lotus: ignore[det003] metadata stamp
            """
        )
        assert active == []
        assert len(suppressed) == 1


class TestStatementSpans:
    def test_trailing_comment_covers_parenthesized_continuation(self):
        active, suppressed = lint(
            """
            import random

            values = (  # lotus: ignore[DET001] fixture pair
                random.random(),
                random.random(),
            )
            """
        )
        assert active == []
        assert [f.rule for f, _ in suppressed] == ["DET001", "DET001"]
        # Both findings map back to the one comment.
        assert {s.comment_line for _, s in suppressed} == {
            suppressed[0][1].comment_line
        }

    def test_scan_expands_simple_statement_span(self):
        source = "x = (  # lotus: ignore[DET001] span\n    1,\n    2,\n)\n"
        by_line, malformed = scan_suppressions(source)
        assert malformed == []
        assert set(by_line) == {1, 2, 3, 4}
        # Same Suppression object on every line, not copies.
        assert by_line[1][0] is by_line[4][0]

    def test_standalone_comment_covers_whole_statement_below(self):
        active, suppressed = lint(
            """
            import random

            # lotus: ignore[DET001] fixture pair
            values = (
                random.random(),
                random.random(),
            )
            """
        )
        assert active == []
        assert len(suppressed) == 2

    def test_compound_statement_header_does_not_cover_body(self):
        active, suppressed = lint(
            """
            import random

            for _ in range(3):  # lotus: ignore[DET001] header only
                value = random.random()
            """
        )
        assert "DET001" in [f.rule for f in active]
        assert suppressed == []

    def test_unparsable_source_keeps_line_level_behavior(self):
        by_line, malformed = scan_suppressions(
            "x = 1  # lotus: ignore[DET001] fine\ndef broken(:\n"
        )
        assert malformed == []
        assert set(by_line) == {1}


class TestFlowFindings:
    """Flow-tier findings go through the same inline matcher."""

    @staticmethod
    def run(tmp_path, comment):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='fixture'\n")
        module_dir = tmp_path / "src" / "repro" / "bargossip"
        module_dir.mkdir(parents=True)
        (module_dir / "proto.py").write_text(
            "class Simulator:\n"
            "    def run_exchanges(self):\n"
            f"        return self._net_rng.random()  {comment}\n"
        )
        return run_lint([tmp_path / "src"], config=LintConfig(), root=tmp_path)

    def test_suppression_silences_flow_finding(self, tmp_path):
        result = self.run(tmp_path, "# lotus: ignore[FLW011] fixture draw")
        assert result.findings == []
        assert [f.rule for f, _ in result.suppressed] == ["FLW011"]
        assert result.suppressed[0][1].reason == "fixture draw"

    def test_wrong_rule_leaves_flow_finding_active(self, tmp_path):
        result = self.run(tmp_path, "# lotus: ignore[FLW013] wrong code on purpose")
        assert [f.rule for f in result.findings] == ["FLW011"]
        assert result.suppressed == []
