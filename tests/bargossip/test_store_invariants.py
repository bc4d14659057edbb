"""Property tests for the documented UpdateStore invariant, both backends.

The invariant (docstring of :class:`repro.bargossip.updates.UpdateStore`):
at every round boundary, for every node, ``have`` and ``missing`` are
disjoint and ``have | missing`` equals the set of currently live
updates.  It must hold under every attack kind, with and without
target rotation, on both store backends.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.simulator import GossipSimulator
from repro.bargossip.updates import (
    WordPopulationStore,
    bottom_bits,
    iter_bits,
    popcount,
    top_bits,
    words_to_int,
)
from repro.core.errors import SimulationError
from repro.core.rng import RngStreams


def _assert_invariant(simulator):
    live = simulator.ledger.live
    for node in simulator.nodes:
        have = node.store.have
        missing = node.store.missing
        assert not have & missing, f"node {node.node_id}: have/missing overlap"
        assert have | missing == live, (
            f"node {node.node_id}: have|missing != live set"
        )


class TestStoreInvariant:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(
            [AttackKind.NONE, AttackKind.CRASH, AttackKind.IDEAL, AttackKind.TRADE]
        ),
        backend=st.sampled_from(["sets", "words"]),
        rotate=st.sampled_from([None, 3]),
    )
    def test_invariant_at_every_round_boundary(self, seed, kind, backend, rotate):
        from repro.bargossip.scenario import ExecutionConfig

        config = GossipConfig.small()
        execution = ExecutionConfig(backend=backend)
        streams = RngStreams(seed)
        coalition = AttackerCoalition.build(
            kind,
            n_nodes=config.n_nodes,
            attacker_fraction=0.2 if kind is not AttackKind.NONE else 0.0,
            rng=streams.get("coalition"),
        )
        simulator = GossipSimulator(
            config,
            attack=coalition,
            seed=seed,
            rotate_targets_every=rotate,
            execution=execution,
        )
        for _ in range(2 * config.update_lifetime + 3):
            simulator.step()
            _assert_invariant(simulator)


class TestBitsetPrimitives:
    @given(bits=st.integers(min_value=0, max_value=2**128 - 1))
    def test_iter_bits_round_trip(self, bits):
        positions = list(iter_bits(bits))
        assert positions == sorted(positions)
        assert sum(1 << position for position in positions) == bits
        assert len(positions) == popcount(bits)

    @given(
        bits=st.integers(min_value=0, max_value=2**128 - 1),
        count=st.integers(min_value=0, max_value=140),
    )
    def test_top_and_bottom_bits(self, bits, count):
        positions = list(iter_bits(bits))
        expected_bottom = sum(1 << position for position in positions[:count])
        expected_top = sum(
            1 << position for position in (positions[-count:] if count else [])
        )
        assert bottom_bits(bits, count) == expected_bottom
        assert top_bits(bits, count) == expected_top


class TestBitsetViewSemantics:
    """The per-node view behaves exactly like the reference UpdateStore.

    Each test first makes its columns live for every node, as the
    simulator's broadcast does (``announce_fresh``); the view then only
    writes the node's have row.
    """

    def _pool(self, live=0):
        pool = WordPopulationStore(2, updates_per_round=3, lifetime=4)
        if live:
            pool.announce_fresh(0, live)
        return pool

    def test_announce_receive_expire(self):
        pool = self._pool(live=2)  # updates 0 and 1 are live, 2 is not
        view = pool.view(0)
        view.announce(0, holds=False)
        view.announce(1, holds=True)
        assert view.missing == {0}
        assert view.have == {1}
        assert view.receive(0) is True
        assert view.receive(0) is False
        assert view.expire(0) is True
        assert view.expire(1) is True
        assert view.expire(2) is False
        assert view.have == set()
        # A column leaves every node's missing set when the store expires it.
        pool.clear_mask(0b111)
        assert view.have == set() and view.missing == set()

    def test_writes_need_a_live_column(self):
        pool = self._pool(live=2)
        view = pool.view(0)
        for write in (
            lambda: view.announce(2, holds=False),
            lambda: view.announce(2, holds=True),
            lambda: view.receive(2),
            lambda: view.receive_all([1, 2]),
        ):
            with pytest.raises(SimulationError, match="not live"):
                write()
        assert view.have == set() and view.missing == {0, 1}

    def test_missing_rows_are_derived_and_read_only(self):
        pool = self._pool(live=3)
        pool.view(1).receive(1)
        assert [pool.missing_bits[node] for node in (0, 1)] == [0b111, 0b101]
        assert words_to_int(pool.missing_rows([1, 0])[0]) >> pool.offset == 0b101
        with pytest.raises(TypeError):
            pool.missing_bits[0] = 0

    def test_receive_all_counts_new_only(self):
        pool = self._pool(live=3)
        view = pool.view(1)
        for update in (0, 1, 2):
            view.announce(update, holds=False)
        view.receive(1)
        assert view.receive_all([0, 1, 2]) == 2
        assert view.is_satiated

    def test_window_slide_preserves_ids(self):
        pool = self._pool(live=3)
        view = pool.view(0)
        for update in range(3):
            view.announce(update, holds=update == 0)
        pool.advance_to(4)  # base moves to (4 - 4 + 1) * 3 = 3: all expired
        assert pool.base == 3
        assert view.have == set() and view.missing == set()

    def test_age_queries_match_reference_semantics(self):
        pool = self._pool(live=6)
        view = pool.view(0)
        # Updates 0-2 are round 0; 3-5 are round 1.
        for update in range(6):
            view.announce(update, holds=update in (1, 2, 3))
        assert view.missing_older_than(1, 3) == [0]
        assert view.has_missing_older_than(1, 3)
        assert not view.has_missing_older_than(0, 3)
        assert view.have_newer_than(1, 3) == [3]
        assert view.has_have_newer_than(1, 3)
        assert not view.has_have_newer_than(2, 3)
