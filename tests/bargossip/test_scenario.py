"""Tests for the Scenario API: configs, round-trips, and migration errors.

The redesign splits what used to be one ``GossipConfig`` into three
orthogonal pieces — protocol (:class:`GossipConfig`), network
(:class:`NetworkModel`) and execution (:class:`ExecutionConfig`) — all
carried by a :class:`Scenario` through the single
:func:`run_experiment` entry point.  This module pins the seams: the
dict round-trips every spec uses, the pointed migration errors old
call sites must see, and the cache-schema bump the re-keyed
fingerprints require.
"""

import json

import pytest

from repro.bargossip.attacker import AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.network import NetworkModel
from repro.bargossip.scenario import ExecutionConfig, Scenario
from repro.core.errors import ConfigurationError


class TestExecutionConfig:
    def test_defaults(self):
        execution = ExecutionConfig()
        assert execution.backend == "words"
        assert execution.shards == 0
        assert execution.jobs == 1
        assert set(execution.to_dict()) == {"backend", "shards", "jobs"}

    def test_round_trip(self):
        execution = ExecutionConfig(backend="sets", shards=1, jobs=3)
        assert ExecutionConfig.from_dict(execution.to_dict()) == execution
        # and through JSON, which is what specs and caches store
        payload = json.loads(json.dumps(execution.to_dict()))
        assert ExecutionConfig.from_dict(payload) == execution

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"backend": "sets", "n_nodes": 60})

    def test_fingerprint_empty_by_design(self):
        assert ExecutionConfig(backend="words", shards=1).cache_fingerprint() == {}

    @pytest.mark.parametrize(
        "bad,match",
        [
            ({"backend": "tries"}, None),
            ({"shards": -1}, None),
            ({"jobs": -1}, None),
            ({"shards": 2, "backend": "words"}, None),
            # Only the sets oracle and the words engine exist.
            ({"backend": "bitset"}, "'sets' or 'words'"),
            # Phase blocking is an engine constant, not a config field.
            ({"phase_chunk_pairs": 7}, "unknown ExecutionConfig"),
        ],
    )
    def test_validation(self, bad, match):
        with pytest.raises(ConfigurationError, match=match):
            ExecutionConfig.from_dict(bad)

    @pytest.mark.parametrize("shards", [2, 4, 64])
    def test_shards_is_a_partner_model_switch(self, shards):
        with pytest.raises(ConfigurationError, match="partner model"):
            ExecutionConfig(shards=shards)

    @pytest.mark.parametrize("shards", [0, 1])
    @pytest.mark.parametrize("backend", ["sets", "words"])
    def test_round_trip_whole_execution_space(self, backend, shards):
        """Every valid (backend, partner model) survives the JSON trip."""
        execution = ExecutionConfig(backend=backend, shards=shards)
        payload = json.loads(json.dumps(execution.to_dict()))
        assert payload["shards"] == shards
        assert ExecutionConfig.from_dict(payload) == execution

    def test_replace_revalidates(self):
        with pytest.raises(ConfigurationError, match="partner model"):
            ExecutionConfig(shards=1).replace(shards=2)

    def test_memory_knob_is_gone(self):
        with pytest.raises(TypeError):
            ExecutionConfig(memory="heap")
        with pytest.raises(ConfigurationError, match="unknown ExecutionConfig"):
            ExecutionConfig.from_dict({"memory": "heap"})


class TestGossipConfigMigration:
    """Old execution kwargs get a pointed error naming ExecutionConfig."""

    @pytest.mark.parametrize("moved", ["backend", "shards"])
    def test_moved_keys_point_at_execution_config(self, moved):
        with pytest.raises(ConfigurationError, match="ExecutionConfig"):
            GossipConfig(**{moved: "words" if moved != "shards" else 1})

    def test_moved_keys_in_replace(self):
        with pytest.raises(ConfigurationError, match="ExecutionConfig"):
            GossipConfig.small().replace(backend="sets")

    def test_moved_keys_in_from_dict(self):
        payload = GossipConfig.small().to_dict()
        payload["backend"] = "words"
        with pytest.raises(ConfigurationError, match="ExecutionConfig"):
            GossipConfig.from_dict(payload)

    def test_truly_unknown_keys_still_rejected_outright(self):
        with pytest.raises(ConfigurationError, match="unknown GossipConfig"):
            GossipConfig.from_dict({"n_nodess": 60})

    def test_config_round_trip(self):
        config = GossipConfig.small().replace(push_size=5, accept_cap=3)
        assert GossipConfig.from_dict(config.to_dict()) == config


class TestNetworkModelRoundTrip:
    def test_round_trip(self):
        network = NetworkModel(
            latency_kind="uniform",
            latency_mean=0.4,
            latency_jitter=0.2,
            loss_rate=0.03,
            churn_leave_rate=0.01,
            churn_join_rate=0.1,
            liveness_timeout=2.0,
        )
        payload = json.loads(json.dumps(network.to_dict()))
        assert NetworkModel.from_dict(payload) == network

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown NetworkModel"):
            NetworkModel.from_dict({"loss_rate": 0.1, "bandwidth": 10})


class TestScenario:
    def _full(self):
        return Scenario(
            config=GossipConfig.small(),
            network=NetworkModel(latency_mean=0.2, latency_kind="exponential"),
            schedule="event",
            kind=AttackKind.TRADE,
            attacker_fraction=0.2,
            satiate_fraction=0.6,
            rounds=12,
            rotate_targets_every=4,
            reporting=ReportingPolicy(excess_threshold=2, reports_to_evict=3),
        )

    def test_round_trip_full(self):
        scenario = self._full()
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(payload) == scenario

    def test_round_trip_defaults(self):
        scenario = Scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown Scenario"):
            Scenario.from_dict({"schedule": "rounds", "backend": "words"})

    def test_rounds_schedule_rejects_non_ideal_network(self):
        with pytest.raises(ConfigurationError, match="schedule='event'"):
            Scenario(network=NetworkModel(loss_rate=0.5))

    def test_event_schedule_accepts_non_ideal_network(self):
        scenario = Scenario(
            network=NetworkModel(loss_rate=0.5), schedule="event"
        )
        assert scenario.network.loss_rate == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            {"schedule": "async"},
            {"attacker_fraction": 1.0},
            {"attacker_fraction": -0.1},
            {"satiate_fraction": 0.0},
            {"rounds": 0},
            {"rotate_targets_every": 0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            Scenario(**bad)

    def test_replace(self):
        scenario = Scenario().replace(kind=AttackKind.IDEAL, rounds=9)
        assert scenario.kind is AttackKind.IDEAL
        assert scenario.rounds == 9


class TestCacheSchemaBump:
    """Scenario-keyed fingerprints are a new cache key universe."""

    def test_schema_version_is_5(self):
        from repro.harness.cache import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION == 5

    def test_schema_version_changes_cell_keys(self, monkeypatch):
        # Entries written by the pre-Scenario code (schema 3 keys over
        # flat config fingerprints) must never be served to the new
        # fingerprints: the version is hashed into every key.
        import repro.harness.cache as cache_module

        fingerprint = {"scenario": Scenario().to_dict()}
        new_key = cache_module.cell_key("exp", fingerprint, 0.1, 7)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 3)
        old_key = cache_module.cell_key("exp", fingerprint, 0.1, 7)
        assert new_key != old_key
