"""The word store's live row and derived missing rows, step by step.

The ``words`` store keeps no missing matrix: one shared ``live_words``
row holds the announced, unexpired columns, and a node's missing row is
``live & ~have`` (:meth:`~repro.bargossip.updates.WordPopulationStore.missing_rows`).
The batched kernels rely on every have row lying inside the live row.
These properties run a ``words`` simulator in lockstep with the
``sets`` oracle and check, after every step:

* the live row decodes to exactly the ledger's live set;
* every have row lies inside the live row;
* every node's missing row equals the oracle's ``store.missing``.

Both partner models of the rounds schedule are searched under the
crash, ideal and trade attacks, and the event schedule with latency,
loss and churn (its rejoin bootstrap writes a node's have row outside
any sweep).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.network import NetworkModel
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.simulator import GossipSimulator
from repro.bargossip.updates import iter_bits, words_to_int
from repro.core.rng import RngStreams

KINDS = st.sampled_from([AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE])
#: 4 updates per round keeps the 24-column window inside one or two
#: words; 11 makes an 88-column window that always spans word edges.
CONFIGS = st.sampled_from(
    [GossipConfig.small(), GossipConfig.small().replace(updates_per_round=11)]
)
ROUNDS = 30


def _lockstep(config, kind, seed, shards=0, **sim_kwargs):
    """(sets, words) simulators of one configuration, not yet stepped."""
    pair = []
    for backend in ("sets", "words"):
        streams = RngStreams(seed)
        coalition = AttackerCoalition.build(
            kind,
            n_nodes=config.n_nodes,
            attacker_fraction=0.2,
            rng=streams.get("coalition"),
        )
        pair.append(
            GossipSimulator(
                config,
                attack=coalition,
                seed=seed,
                execution=ExecutionConfig(backend=backend, shards=shards),
                **sim_kwargs,
            )
        )
    return pair


def _ids(pool, row):
    """The update ids set in one packed row."""
    return {pool.base + col for col in iter_bits(words_to_int(row) >> pool.offset)}


def _assert_live_row(reference, words):
    pool = words._pool
    live = words.ledger.live
    assert live == reference.ledger.live
    assert _ids(pool, pool.live_words) == live
    assert not (pool.have_words & ~pool.live_words).any()
    missing = pool.missing_rows(np.arange(pool.n_nodes))
    for node_id, row in enumerate(missing):
        assert _ids(pool, row) == reference.nodes[node_id].store.missing, (
            f"node {node_id}: derived missing row differs from the oracle"
        )


def _run_lockstep(reference, words):
    _assert_live_row(reference, words)
    for _ in range(ROUNDS):
        reference.step()
        words.step()
        _assert_live_row(reference, words)


class TestLiveRowInvariant:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=KINDS,
        shards=st.sampled_from([0, 1]),
        config=CONFIGS,
    )
    def test_rounds_schedule(self, seed, kind, shards, config):
        _run_lockstep(*_lockstep(config, kind, seed, shards=shards))

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=KINDS,
        config=CONFIGS,
    )
    def test_event_schedule_with_latency_and_churn(self, seed, kind, config):
        network = NetworkModel(
            latency_kind="exponential",
            latency_mean=0.4,
            loss_rate=0.02,
            churn_leave_rate=0.05,
            churn_join_rate=0.5,
        )
        _run_lockstep(
            *_lockstep(config, kind, seed, schedule="event", network=network)
        )
