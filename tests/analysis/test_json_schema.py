"""Contract test for the ``lotus-eater lint --format json`` schema.

External tooling parses this payload;
field names and types are pinned here so a rename fails loudly in tests
instead of silently breaking consumers.
"""

import json
import textwrap

import pytest

from repro.analysis.rules import LintConfig
from repro.analysis.runner import format_json, run_lint

FINDING_SCHEMA = {
    "rule": str,
    "path": str,
    "line": int,
    "col": int,
    "severity": str,
    "message": str,
    "snippet": str,
    "trace": list,
}

SUMMARY_SCHEMA = {
    "files_checked": int,
    "errors": int,
    "warnings": int,
    "exit_code": int,
}

TOP_LEVEL_KEYS = {"findings", "suppressed", "summary"}


def assert_matches(obj, schema):
    assert set(obj) == set(schema), f"keys {set(obj)} != {set(schema)}"
    for key, expected_type in schema.items():
        assert isinstance(obj[key], expected_type), (
            f"{key!r} is {type(obj[key]).__name__}, expected {expected_type.__name__}"
        )


@pytest.fixture()
def repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "proto.py").write_text(
        textwrap.dedent(
            """
            import random


            def draw():
                return random.random()  # lotus: ignore[DET001] fixture case


            def leak():
                return random.random()


            def run_exchanges_batched(state):
                state.counters[0, 3] += 1
            """
        )
    )
    return tmp_path


def payload_for(repo_root):
    result = run_lint([repo_root / "src"], config=LintConfig(), root=repo_root)
    return json.loads(format_json(result))


class TestJsonSchema:
    def test_top_level_keys(self, repo):
        payload = payload_for(repo)
        assert set(payload) == TOP_LEVEL_KEYS

    def test_finding_fields_and_types(self, repo):
        payload = payload_for(repo)
        assert payload["findings"], "fixture must produce at least one finding"
        for finding in payload["findings"]:
            assert_matches(finding, FINDING_SCHEMA)

    def test_suppressed_entry_shape(self, repo):
        payload = payload_for(repo)
        assert payload["suppressed"], "fixture has an inline suppression"
        for entry in payload["suppressed"]:
            assert set(entry) == {"finding", "reason", "comment_line"}
            assert_matches(entry["finding"], FINDING_SCHEMA)
            assert isinstance(entry["reason"], str)
            assert isinstance(entry["comment_line"], int)

    def test_summary_shape(self, repo):
        payload = payload_for(repo)
        assert_matches(payload["summary"], SUMMARY_SCHEMA)

    def test_flow_finding_carries_call_chain_trace(self, repo):
        payload = payload_for(repo)
        flow_findings = [
            f for f in payload["findings"] if f["rule"].startswith("FLW")
        ]
        assert flow_findings, "fixture run_exchanges_batched write must fire FLW010"
        for finding in flow_findings:
            assert_matches(finding, FINDING_SCHEMA)
            assert finding["trace"], "flow findings must explain their call chain"
            assert all(isinstance(hop, str) for hop in finding["trace"])

    def test_per_file_findings_have_empty_trace(self, repo):
        payload = payload_for(repo)
        per_file = [f for f in payload["findings"] if not f["rule"].startswith("FLW")]
        assert per_file, "fixture leak() must fire DET001"
        for finding in per_file:
            assert finding["trace"] == []

    def test_payload_round_trips_through_json(self, repo):
        result = run_lint([repo / "src"], config=LintConfig(), root=repo)
        text = format_json(result)
        assert json.loads(text) == json.loads(format_json(result))
