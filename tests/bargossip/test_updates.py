"""Tests for update stores, bit helpers, and the global ledger."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bargossip.updates import (
    UpdateLedger,
    UpdateStore,
    WordPopulationStore,
    _python_popcount,
    bottom_bits,
    creation_round,
    int_to_words,
    iter_bits,
    popcount,
    top_bits,
    update_id,
    word_popcounts,
    words_to_int,
)
from repro.core.errors import SimulationError


class TestIdArithmetic:
    def test_round_trip(self):
        for round_created in (0, 3, 17):
            for index in range(10):
                uid = update_id(round_created, index, 10)
                assert creation_round(uid, 10) == round_created

    def test_ids_are_dense(self):
        ids = [update_id(2, index, 5) for index in range(5)]
        assert ids == [10, 11, 12, 13, 14]

    def test_index_out_of_range(self):
        with pytest.raises(SimulationError):
            update_id(0, 10, 10)


class TestUpdateStore:
    def test_announce_seeded(self):
        store = UpdateStore()
        store.announce(5, holds=True)
        assert 5 in store.have
        assert 5 not in store.missing

    def test_announce_unseeded(self):
        store = UpdateStore()
        store.announce(5, holds=False)
        assert 5 in store.missing

    def test_receive_moves_to_have(self):
        store = UpdateStore()
        store.announce(5, holds=False)
        assert store.receive(5) is True
        assert 5 in store.have and 5 not in store.missing

    def test_duplicate_receive_is_noop(self):
        store = UpdateStore()
        store.announce(5, holds=True)
        assert store.receive(5) is False

    def test_receive_all_counts_new(self):
        store = UpdateStore()
        for update in (1, 2, 3):
            store.announce(update, holds=False)
        store.receive(2)
        assert store.receive_all([1, 2, 3]) == 2

    def test_expire_returns_delivery_bit(self):
        store = UpdateStore()
        store.announce(1, holds=True)
        store.announce(2, holds=False)
        assert store.expire(1) is True
        assert store.expire(2) is False
        assert not store.have and not store.missing

    def test_satiation(self):
        store = UpdateStore()
        assert store.is_satiated
        store.announce(1, holds=False)
        assert not store.is_satiated
        store.receive(1)
        assert store.is_satiated

    def test_missing_older_than(self):
        store = UpdateStore()
        # updates_per_round = 10: update 5 is round 0, update 25 round 2
        store.announce(5, holds=False)
        store.announce(25, holds=False)
        assert store.missing_older_than(2, 10) == [5]
        assert store.missing_older_than(3, 10) == [5, 25]

    def test_have_newer_than(self):
        store = UpdateStore()
        store.announce(5, holds=True)
        store.announce(25, holds=True)
        assert store.have_newer_than(2, 10) == [25]
        assert store.have_newer_than(0, 10) == [25, 5]  # newest first

    @given(
        seeded=st.sets(st.integers(0, 40), max_size=20),
        received=st.lists(st.integers(0, 40), max_size=30),
    )
    def test_have_missing_disjoint_invariant(self, seeded, received):
        """have and missing stay disjoint and cover announced updates."""
        store = UpdateStore()
        universe = set(range(41))
        for update in universe:
            store.announce(update, holds=update in seeded)
        for update in received:
            store.receive(update)
        assert store.have.isdisjoint(store.missing)
        assert store.have | store.missing == universe


class TestBitHelpers:
    """Edge cases of the packed-row selection helpers."""

    SAMPLES = (0, 1, 0b1010110, (1 << 70) | 0b11, (1 << 200) - 1)

    def test_count_zero_selects_nothing(self):
        for bits in self.SAMPLES:
            assert top_bits(bits, 0) == 0
            assert bottom_bits(bits, 0) == 0

    def test_count_beyond_popcount_selects_everything(self):
        for bits in self.SAMPLES:
            assert top_bits(bits, popcount(bits) + 1) == bits
            assert bottom_bits(bits, popcount(bits) + 5) == bits

    def test_empty_mask_is_a_fixed_point(self):
        assert top_bits(0, 3) == 0
        assert bottom_bits(0, 3) == 0

    def test_top_and_bottom_partition_priority(self):
        bits = 0b1011010001
        assert top_bits(bits, 2) == 0b1010000000
        assert bottom_bits(bits, 2) == 0b0000010001
        # Complementary picks partition the mask.
        assert top_bits(bits, 3) | bottom_bits(bits, popcount(bits) - 3) == bits

    @given(bits=st.integers(0, (1 << 130) - 1), count=st.integers(0, 140))
    def test_selection_invariants(self, bits, count):
        for take in (top_bits, bottom_bits):
            picked = take(bits, count)
            assert picked & ~bits == 0  # subset
            assert popcount(picked) == min(count, popcount(bits))

    def test_python_popcount_fallback_matches_fast_path(self):
        """The pre-3.10 ``bin().count`` fallback and ``int.bit_count``
        agree on every sample (the module picks one at import)."""
        for bits in self.SAMPLES + ((1 << 1000) | 12345,):
            assert _python_popcount(bits) == bin(bits).count("1")
            if hasattr(int, "bit_count"):
                assert _python_popcount(bits) == bits.bit_count()
            assert popcount(bits) == _python_popcount(bits)

    def test_iter_bits_round_trip(self):
        bits = (1 << 90) | 0b1001
        assert sum(1 << position for position in iter_bits(bits)) == bits
        assert list(iter_bits(0)) == []


class TestWordHelpers:
    def test_int_word_round_trip(self):
        for bits in (0, 5, (1 << 127) - 1, 1 << 64):
            assert words_to_int(int_to_words(bits, 2)) == bits

    def test_word_popcounts_matches_scalar(self):
        rows = np.array(
            [int_to_words((1 << 70) | 0b111, 2), int_to_words(0, 2)]
        )
        assert list(word_popcounts(rows)) == [4, 0]


class TestWordPopulationStore:
    """The word-array store mirrors per-node reference sets bit for bit.

    Each packed op is replayed on one :class:`UpdateStore` per node:
    column ``c`` of a row is update ``base + c``, so a window slide
    expires the ids that fall below the new base, a fresh column is an
    announce, and a column mask names a set of live ids.  The mirror
    starts from one shared live window (every column, as after a full
    lifetime of releases) with random have rows inside it.
    """

    def _mirror(self, n=5, updates_per_round=10, lifetime=10, seed=3):
        rng = np.random.default_rng(seed)
        words = WordPopulationStore(n, updates_per_round, lifetime)
        words.announce_fresh(0, words.capacity)
        sets = [UpdateStore() for _ in range(n)]
        for node in range(n):
            have = (
                int(rng.integers(0, 1 << 63))
                | (int(rng.integers(0, 1 << 37)) << 63)
            ) & words.full_mask
            words.have_bits[node] = have
            for col in range(words.capacity):
                sets[node].announce(col, holds=bool(have >> col & 1))
        return sets, words

    @staticmethod
    def _ids(words, mask):
        return [words.base + col for col in iter_bits(mask)]

    def _assert_rows_equal(self, sets, words):
        for node, store in enumerate(sets):
            assert words.view(node).have == store.have
            assert words.view(node).missing == store.missing

    def test_window_slide_matches_sets(self):
        sets, words = self._mirror()
        for round_now in (3, 11, 17, 40):
            words.advance_to(round_now)
            for store in sets:
                for update in list(store.have | store.missing):
                    if update < words.base:
                        store.expire(update)
            self._assert_rows_equal(sets, words)

    def _clear(self, sets, words, mask):
        words.clear_mask(mask)
        for store in sets:
            for update in self._ids(words, mask):
                store.expire(update)

    def test_broadcast_and_expiry_ops_match_sets(self):
        sets, words = self._mirror()
        fresh = ((1 << 6) - 1) << 4
        # A broadcast fills columns the window slide has zeroed.
        self._clear(sets, words, fresh)
        words.announce_fresh(4, 6)
        words.seed([0, 3], 5)
        for node, store in enumerate(sets):
            for update in self._ids(words, fresh):
                store.announce(update, holds=False)
            if node in (0, 3):
                store.receive(words.base + 5)
        self._assert_rows_equal(sets, words)
        mask = (1 << 30) - 1
        due = set(self._ids(words, mask))
        assert list(words.masked_have_popcounts(mask)) == [
            len(store.have & due) for store in sets
        ]
        self._clear(sets, words, mask)
        self._assert_rows_equal(sets, words)

    def test_row_views_round_trip(self):
        store = WordPopulationStore(3, 10, 10)
        store.have_bits[1] = (1 << 70) | 5
        assert store.have_bits[1] == (1 << 70) | 5
        assert list(store.have_bits)[1] == (1 << 70) | 5
        assert len(store.have_bits) == 3

    def test_view_is_updatestore_compatible(self):
        store = WordPopulationStore(2, 4, 3)
        store.announce_fresh(0, 4)
        view = store.view(0)
        assert view.receive(2) is True
        assert view.receive(2) is False
        assert 2 in view.have and 2 not in view.missing
        assert not view.is_satiated


class TestUpdateLedger:
    def test_release_returns_fresh_ids(self):
        ledger = UpdateLedger(updates_per_round=3, lifetime=2)
        assert ledger.release(0) == [0, 1, 2]
        assert ledger.release(1) == [3, 4, 5]
        assert ledger.live_count == 6

    def test_expiry_schedule(self):
        ledger = UpdateLedger(updates_per_round=2, lifetime=3)
        ledger.release(0)
        assert ledger.expire_due(0) == []
        assert ledger.expire_due(1) == []
        assert ledger.expire_due(2) == [0, 1]
        assert ledger.live_count == 0

    def test_double_expiry_detected(self):
        ledger = UpdateLedger(updates_per_round=1, lifetime=1)
        ledger.release(0)
        ledger.expire_due(0)
        ledger.expiring[5] = [0]  # simulate corruption
        with pytest.raises(SimulationError):
            ledger.expire_due(5)

    @given(lifetime=st.integers(1, 8), rounds=st.integers(1, 20))
    def test_every_released_update_expires_exactly_once(self, lifetime, rounds):
        ledger = UpdateLedger(updates_per_round=2, lifetime=lifetime)
        released = []
        expired = []
        for round_now in range(rounds):
            released.extend(ledger.release(round_now))
            expired.extend(ledger.expire_due(round_now))
        # run out the clock
        for round_now in range(rounds, rounds + lifetime):
            expired.extend(ledger.expire_due(round_now))
        assert sorted(expired) == sorted(released)
        assert ledger.live_count == 0
