"""Kernel-level parity: the batched word sweeps against per-pair oracles.

The simulator-level suites (``test_word_parity.py``,
``test_shard_parity.py``) pin whole runs; these properties pin the
three batched kernels one call at a time, on random node-disjoint pairs
over one :class:`~repro.bargossip.updates.WordPopulationStore`:

* :func:`~repro.bargossip.exchange.batched_word_exchange` against
  :func:`~repro.bargossip.exchange.bitset_exchange`, pair by pair;
* :func:`~repro.bargossip.push.batched_push_eligibility` against the
  per-node views' age queries behind ``GossipNode.wants_to_push``;
* :func:`~repro.bargossip.push.batched_word_push` against
  :func:`~repro.bargossip.push.bitset_plan_push` plus
  :func:`~repro.bargossip.push.bitset_apply_push` (a responder accepts
  iff it gains an update);
* :func:`~repro.bargossip.exchange.batched_word_dump` against
  :meth:`~repro.bargossip.attacker.AttackerCoalition.dump_for`.

The oracle runs on a copy of the same store through its int row views,
and both the have rows and the counts must be identical.  Every store
is a state the simulator reaches: one shared live window (a contiguous
run of columns, as release and expiry leave it), with each node's have
row inside it and its missing row the rest of the window.
The batched sweeps only truncate and write back the pairs that move, so
the cases below include no movers at all, every pair moving, capped
counts of one, and windows floating across bit 63 of a word.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bargossip.attacker import AttackerCoalition, AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.exchange import (
    batched_word_dump,
    batched_word_exchange,
    bitset_exchange,
)
from repro.bargossip.push import (
    batched_push_eligibility,
    batched_word_push,
    bitset_apply_push,
    bitset_plan_push,
    push_window_words,
)
from repro.bargossip.updates import WORD_BITS, WordPopulationStore, words_to_int

#: Column fill profiles: P[held] for each live column of a row; the
#: rest of the live window is missing.
DENSITIES = (0.0, 0.05, 0.3, 0.5, 0.55, 0.8, 1.0)


def _set_live(store, live):
    """Make exactly the columns of the logical bitmask ``live`` live."""
    store.live_words[:] = store.mask_words(live)


def _store(n_nodes, updates_per_round, lifetime, round_now, seed, density,
           live=None):
    """A store advanced to ``round_now`` with random rows inside ``live``.

    ``live`` defaults, drawn from ``seed``, to the whole window (the
    steady state once a lifetime of rounds has been released) or to a
    random contiguous run of columns, possibly empty; each live column
    of a row is held with probability ``density``.
    """
    store = WordPopulationStore(n_nodes, updates_per_round, lifetime)
    store.advance_to(round_now)
    rng = np.random.default_rng(seed)
    if live is None:
        lo, hi = sorted(rng.integers(0, store.capacity + 1, size=2).tolist())
        if rng.random() < 0.5:
            lo, hi = 0, store.capacity
        live = ((1 << (hi - lo)) - 1) << lo
    _set_live(store, live)
    held = rng.random((n_nodes, store.capacity)) < density
    weights = [1 << col for col in range(store.capacity)]
    for node in range(n_nodes):
        row = sum(w for w, h in zip(weights, held[node]) if h)
        store.have_bits[node] = row & live
    return store


def _copy(store):
    """An independent store with the same window and rows."""
    twin = WordPopulationStore(store.n_nodes, store.updates_per_round, store.lifetime)
    twin.base = store.base
    twin.have_words[:] = store.have_words
    twin.live_words[:] = store.live_words
    return twin


def _pairs(n_nodes, n_pairs, seed):
    """``n_pairs`` node-disjoint (initiator, responder) pairs."""
    order = np.random.default_rng(seed).permutation(n_nodes)
    n_pairs = min(n_pairs, n_nodes // 2)
    return order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]


def _assert_same_rows(store, oracle):
    assert np.array_equal(store.have_words, oracle.have_words)
    assert np.array_equal(store.live_words, oracle.live_words)
    assert not (store.have_words & ~store.live_words).any()


@st.composite
def kernel_cases(draw):
    """A store, a round and disjoint pairs; windows up to three words."""
    updates_per_round = draw(st.integers(min_value=1, max_value=12))
    lifetime = draw(st.integers(min_value=1, max_value=12))
    n_nodes = draw(st.integers(min_value=2, max_value=18))
    return {
        "n_nodes": n_nodes,
        "updates_per_round": updates_per_round,
        "lifetime": lifetime,
        # Late rounds slide the window so it floats across word edges.
        "round_now": draw(st.integers(min_value=0, max_value=4 * lifetime + 70)),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "density": draw(st.sampled_from(DENSITIES)),
        "n_pairs": draw(st.integers(min_value=0, max_value=n_nodes // 2)),
    }


def _setup(case):
    store = _store(
        case["n_nodes"], case["updates_per_round"], case["lifetime"],
        case["round_now"], case["seed"], case["density"],
    )
    initiators, responders = _pairs(case["n_nodes"], case["n_pairs"], case["seed"])
    return store, _copy(store), initiators, responders


# ----------------------------------------------------------------------
# Exchange
# ----------------------------------------------------------------------


def _check_exchange(store, oracle, initiators, responders, cap, unbalanced,
                    prefer_newest):
    to_initiator, to_responder = batched_word_exchange(
        store, initiators, responders, cap=cap, unbalanced=unbalanced,
        prefer_newest=prefer_newest,
    )
    expected = [
        bitset_exchange(
            oracle, int(i), int(r), cap=cap, unbalanced=unbalanced,
            prefer_newest=prefer_newest,
        )
        for i, r in zip(initiators, responders)
    ]
    assert [
        (int(a), int(b)) for a, b in zip(to_initiator, to_responder)
    ] == expected
    _assert_same_rows(store, oracle)
    return expected


class TestBatchedWordExchange:
    @settings(max_examples=60, deadline=None)
    @given(
        case=kernel_cases(),
        cap=st.sampled_from([1, 2, 3, 10, 200]),
        unbalanced=st.booleans(),
        prefer_newest=st.booleans(),
    )
    def test_matches_per_pair_oracle(self, case, cap, unbalanced, prefer_newest):
        store, oracle, initiators, responders = _setup(case)
        _check_exchange(
            store, oracle, initiators, responders, cap, unbalanced, prefer_newest
        )

    @pytest.mark.parametrize("unbalanced", [False, True])
    def test_zero_movers_leave_rows_untouched(self, unbalanced):
        # Every node already holds everything live: nothing to trade.
        store = _store(12, 10, 10, 25, seed=1, density=1.0)
        before = store.have_words.copy()
        oracle = _copy(store)
        initiators, responders = _pairs(12, 6, seed=2)
        counts = _check_exchange(
            store, oracle, initiators, responders, 10, unbalanced, True
        )
        assert counts == [(0, 0)] * 6
        assert np.array_equal(store.have_words, before)

    @pytest.mark.parametrize("unbalanced", [False, True])
    @pytest.mark.parametrize("prefer_newest", [False, True])
    @pytest.mark.parametrize("cap", [1, 200])
    def test_all_pairs_move(self, unbalanced, prefer_newest, cap):
        # Even columns held by initiators and missed by responders, odd
        # columns the other way round: every pair trades both ways.
        store = WordPopulationStore(8, 12, 12)
        store.advance_to(40)
        _set_live(store, store.full_mask)
        even = sum(1 << col for col in range(0, store.capacity, 2))
        odd = store.full_mask ^ even
        initiators, responders = np.arange(0, 8, 2), np.arange(1, 8, 2)
        for i, r in zip(initiators, responders):
            store.have_bits[i] = even
            store.have_bits[r] = odd
        oracle = _copy(store)
        counts = _check_exchange(
            store, oracle, initiators, responders, cap, unbalanced, prefer_newest
        )
        assert all(a > 0 and b > 0 for a, b in counts)

    @pytest.mark.parametrize("prefer_newest", [False, True])
    def test_boundary_word_holds_bit_63(self, prefer_newest):
        # Dense rows over a window floating across a word edge: bit 63
        # of the first word is live, and cap=1 makes each side keep one.
        store = _store(
            10, 10, 10, 16, seed=5, density=0.8, live=(1 << 100) - 1
        )
        assert store.offset + store.capacity > WORD_BITS
        assert (store.have_words[:, 0] >> np.uint64(63)).any()
        oracle = _copy(store)
        initiators, responders = _pairs(10, 5, seed=6)
        _check_exchange(
            store, oracle, initiators, responders, 1, False, prefer_newest
        )


# ----------------------------------------------------------------------
# Push
# ----------------------------------------------------------------------


def _push_config(case, push_size, age, recent):
    lifetime = case["lifetime"]
    return GossipConfig(
        n_nodes=max(case["n_nodes"], 2),
        updates_per_round=case["updates_per_round"],
        update_lifetime=lifetime,
        copies_seeded=1,
        push_size=push_size,
        push_age_threshold=min(age, lifetime),
        push_recent_window=min(recent, lifetime),
    )


def _check_push(store, oracle, initiators, responders, config, round_now):
    to_responder, to_initiator = batched_word_push(
        store, initiators, responders, config,
        push_window_words(store, config, round_now),
    )
    expected = []
    for i, r in zip(initiators, responders):
        plan = bitset_plan_push(oracle, int(i), int(r), config, round_now)
        if plan.responder_count:  # the responder accepts iff it gains
            bitset_apply_push(oracle, int(i), int(r), plan)
        expected.append((plan.responder_count, plan.initiator_count))
    assert [
        (int(a), int(b)) for a, b in zip(to_responder, to_initiator)
    ] == expected
    _assert_same_rows(store, oracle)
    return expected


class TestBatchedPushEligibility:
    @settings(max_examples=60, deadline=None)
    @given(
        case=kernel_cases(),
        age=st.integers(min_value=1, max_value=12),
        recent=st.integers(min_value=1, max_value=12),
        p_obedient=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_matches_per_node_views(self, case, age, recent, p_obedient):
        store = _store(
            case["n_nodes"], case["updates_per_round"], case["lifetime"],
            case["round_now"], case["seed"], case["density"],
        )
        config = _push_config(case, 1, age, recent)
        round_now = case["round_now"]
        rows = np.arange(case["n_nodes"])
        obedient = np.random.default_rng(case["seed"]).random(len(rows)) < p_obedient
        wants = batched_push_eligibility(
            store, rows, obedient, push_window_words(store, config, round_now)
        )
        u = config.updates_per_round
        expected = []
        for node, obeys in zip(rows.tolist(), obedient.tolist()):
            view = store.view(node)
            old_needs = view.has_missing_older_than(
                round_now - config.push_age_threshold + 1, u
            )
            offers = view.has_have_newer_than(
                round_now - config.push_recent_window + 1, u
            )
            expected.append(old_needs or (obeys and offers))
        assert wants.tolist() == expected


class TestBatchedWordPush:
    @settings(max_examples=60, deadline=None)
    @given(
        case=kernel_cases(),
        push_size=st.integers(min_value=0, max_value=4),
        age=st.integers(min_value=1, max_value=12),
        recent=st.integers(min_value=1, max_value=12),
    )
    def test_matches_per_pair_oracle(self, case, push_size, age, recent):
        store, oracle, initiators, responders = _setup(case)
        config = _push_config(case, push_size, age, recent)
        _check_push(
            store, oracle, initiators, responders, config, case["round_now"]
        )

    def test_zero_movers(self):
        # Nobody misses anything: no push is accepted.
        store = _store(12, 10, 10, 25, seed=3, density=1.0)
        oracle = _copy(store)
        initiators, responders = _pairs(12, 6, seed=4)
        case = {"n_nodes": 12, "updates_per_round": 10, "lifetime": 10}
        counts = _check_push(
            store, oracle, initiators, responders,
            _push_config(case, 2, 5, 3), 25,
        )
        assert counts == [(0, 0)] * 6

    @pytest.mark.parametrize("push_size", [1, 3])
    def test_all_pairs_move(self, push_size):
        # Initiators hold every live update and responders miss them all,
        # so each push is accepted; half the initiators also miss the old
        # columns their responders hold.
        store = WordPopulationStore(8, 10, 10)
        store.advance_to(30)
        _set_live(store, store.full_mask)
        old = (1 << 40) - 1
        initiators, responders = np.arange(0, 8, 2), np.arange(1, 8, 2)
        for k, (i, r) in enumerate(zip(initiators, responders)):
            store.have_bits[i] = store.full_mask ^ (old if k % 2 else 0)
            store.have_bits[r] = old
        oracle = _copy(store)
        case = {"n_nodes": 8, "updates_per_round": 10, "lifetime": 10}
        counts = _check_push(
            store, oracle, initiators, responders,
            _push_config(case, push_size, 5, 3), 30,
        )
        assert all(given == push_size for given, _ in counts)
        assert [paid for _, paid in counts] == [0, push_size, 0, push_size]

    def test_payment_capped_at_what_the_responder_took(self):
        # The responder wants one recent offer but could pay five old
        # updates: it pays one, not push_size.
        store = WordPopulationStore(2, 10, 10)
        store.advance_to(30)
        # Only these six columns are live: each node misses the other's.
        _set_live(store, (1 << 95) | 0b11111)
        store.have_bits[0] = 1 << 95
        store.have_bits[1] = 0b11111
        oracle = _copy(store)
        case = {"n_nodes": 2, "updates_per_round": 10, "lifetime": 10}
        counts = _check_push(
            store, oracle, np.array([0]), np.array([1]),
            _push_config(case, 3, 5, 3), 30,
        )
        assert counts == [(1, 1)]


# ----------------------------------------------------------------------
# Attacker dump
# ----------------------------------------------------------------------


def _check_dump(store, oracle, coalition, receivers, limits):
    pool_words = store.mask_words(coalition.pool_mask(store.base, store.capacity))
    counts, selected = batched_word_dump(store, pool_words, receivers, limits)
    movers = np.flatnonzero(counts)
    assert len(selected) == len(movers)
    expected = []
    for receiver, limit in zip(receivers, limits):
        view = oracle.view(int(receiver))
        give = coalition.dump_for(view.missing, limit=int(limit))
        view.receive_all(give)
        expected.append(give)
    assert [int(count) for count in counts] == [len(give) for give in expected]
    for row, k in zip(selected, movers):
        bits = words_to_int(row) >> store.offset
        ids = [store.base + col for col in range(store.capacity) if bits >> col & 1]
        assert ids == expected[k]
    _assert_same_rows(store, oracle)
    return counts


def _coalition(store, seed, fraction):
    """A trade coalition pooling a random share of the live columns."""
    rng = np.random.default_rng(seed)
    coalition = AttackerCoalition(AttackKind.TRADE, nodes=[store.n_nodes + 1])
    live = store.live_bits
    pooled = np.flatnonzero(rng.random(store.capacity) < fraction)
    coalition.pool.update(
        int(store.base + col) for col in pooled if live >> int(col) & 1
    )
    return coalition


class TestBatchedWordDump:
    @settings(max_examples=60, deadline=None)
    @given(
        case=kernel_cases(),
        pool_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        limit=st.sampled_from([0, 1, 2, 7, None]),
    )
    def test_matches_dump_for(self, case, pool_fraction, limit):
        store, oracle, initiators, _ = _setup(case)
        coalition = _coalition(store, case["seed"], pool_fraction)
        limits = np.full(
            len(initiators), store.capacity if limit is None else limit,
            dtype=np.int64,
        )
        _check_dump(store, oracle, coalition, initiators, limits)

    def test_zero_and_all_movers(self):
        store = _store(
            10, 10, 10, 16, seed=8, density=0.0, live=(1 << 100) - 1
        )
        coalition = _coalition(store, seed=9, fraction=1.0)
        receivers = np.arange(10)
        # limit 0 everywhere: nobody moves, rows stay as they were.
        oracle = _copy(store)
        before = store.have_words.copy()
        counts = _check_dump(
            store, oracle, coalition, receivers, np.zeros(10, dtype=np.int64)
        )
        assert not counts.any()
        assert np.array_equal(store.have_words, before)
        # limit 1 everywhere: everybody moves exactly the oldest update.
        counts = _check_dump(
            store, oracle, coalition, receivers, np.ones(10, dtype=np.int64)
        )
        assert (counts == 1).all()
