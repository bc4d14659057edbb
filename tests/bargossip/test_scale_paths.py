"""Guards on the million-node hot path.

Four invariants introduced by the scale work, each pinned so it cannot
silently erode:

* **Batched-only execution** — on the words backend, under both the
  cell pairing and the paper's per-initiator schedule (run as
  dependency waves), every figure-1/2/3 cell class (attacker, evicted,
  capped, defended) runs through the batched word sweeps; the per-node
  scalar methods are a parity oracle only.  Asserted by making them
  raise and checking the trace is unchanged.
* **Exact capped truncation** — the vectorized top/bottom-k masked
  word sweep and its broadword select equal the per-row
  arbitrary-precision oracle bit for bit, including boundary-word rank
  ties, bit-63 boundaries and the numpy < 2 popcount table.
* **Ring-buffer budget** — the word store's live window floats inside
  a fixed-width row (no per-round reallocation), and the simulator's
  ``memory_breakdown`` accounts for every flat byte.
* **Popcount discipline** — hot-path functions count bits via the
  bulk :func:`~repro.bargossip.updates.word_popcounts` family, never
  per-int fallbacks (an AST scan, so a regression fails in review).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.bargossip import exchange, push, simulator as simulator_module
from repro.bargossip.attacker import AttackerCoalition, AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import (
    ReportingPolicy,
    figure3_variants,
    with_larger_pushes,
)
from repro.bargossip.partner import Purpose
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.simulator import GossipSimulator, InteractionEngine
from repro.bargossip.updates import (
    _LOWEST_IN_BYTE,
    WordPopulationStore,
    _truncate_word_rows_scalar,
    bottom_bits,
    lowest_word_bits,
    truncate_word_rows,
    word_popcount_matrix,
    word_popcounts,
)
from repro.core.errors import SimulationError
from repro.core.rng import RngStreams

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(config, kind, execution, seed=7, rounds=10, attacker_fraction=0.2,
         chunk_pairs=None, **sim_kwargs):
    streams = RngStreams(seed)
    coalition = AttackerCoalition.build(
        kind,
        n_nodes=config.n_nodes,
        attacker_fraction=attacker_fraction,
        rng=streams.get("coalition"),
    )
    simulator = GossipSimulator(
        config, attack=coalition, seed=seed, execution=execution, **sim_kwargs
    )
    if chunk_pairs is not None:
        simulator._engine.chunk_pairs = chunk_pairs
    for _ in range(rounds):
        simulator.step()
    return simulator


def _snapshot(simulator):
    snapshot = (
        simulator.stats.delivered,
        simulator.stats.missed,
        simulator.per_node_delivered,
        simulator.per_node_missed,
        [
            (node.counters, node.evicted, node.group,
             frozenset(node.store.have), frozenset(node.store.missing))
            for node in simulator.nodes
        ],
        simulator.attack.updates_served,
    )
    simulator.close()
    return snapshot


class TestBatchedHotPath:
    """No per-node scalar fallback on the words backend's round loop."""

    WORDS = ExecutionConfig(backend="words", shards=1)
    WORDS_UNIFORM = ExecutionConfig(backend="words")

    #: (config, kind, sim kwargs) covering every figure's cell classes:
    #: plain trade, large pushes, the figure-3 defense/variant grid,
    #: rotating targets, and a mass-eviction storm.
    SCENARIOS = [
        ("figure1", GossipConfig.paper(), AttackKind.TRADE, {}),
        (
            "figure2",
            with_larger_pushes(GossipConfig.paper(), 10),
            AttackKind.TRADE,
            {},
        ),
        *[
            (f"figure3:{name}", variant, AttackKind.TRADE, {})
            for name, variant in figure3_variants(GossipConfig.paper()).items()
        ],
        (
            "rotation",
            GossipConfig.paper(),
            AttackKind.IDEAL,
            {"rotate_targets_every": 3},
        ),
        (
            "mass-eviction",
            GossipConfig.small().replace(obedient_fraction=1.0),
            AttackKind.TRADE,
            {
                "reporting": ReportingPolicy(
                    excess_threshold=1, reports_to_evict=1
                ),
                "attacker_fraction": 0.3,
                "rounds": 20,
            },
        ),
    ]

    @staticmethod
    def _ban(monkeypatch):
        def _banned(name):
            def _raise(*args, **kwargs):
                raise AssertionError(
                    f"scalar fallback {name} reached on the batched hot path"
                )
            return _raise

        monkeypatch.setattr(
            InteractionEngine, "_exchange_directed", _banned("_exchange_directed")
        )
        monkeypatch.setattr(
            InteractionEngine, "_push_directed", _banned("_push_directed")
        )
        monkeypatch.setattr(
            AttackerCoalition, "dump_for", _banned("dump_for")
        )

    @pytest.mark.parametrize(
        "name,config,kind,kwargs",
        SCENARIOS,
        ids=[scenario[0] for scenario in SCENARIOS],
    )
    def test_no_scalar_fallback(self, monkeypatch, name, config, kind, kwargs):
        reference = _snapshot(_run(config, kind, self.WORDS, **kwargs))
        self._ban(monkeypatch)
        batched = _snapshot(_run(config, kind, self.WORDS, **kwargs))
        assert batched == reference

    @pytest.mark.parametrize(
        "name,config,kind,kwargs",
        SCENARIOS,
        ids=[scenario[0] for scenario in SCENARIOS],
    )
    def test_no_scalar_fallback_uniform_schedule(
        self, monkeypatch, name, config, kind, kwargs
    ):
        """The paper's per-initiator schedule (shards 0) runs as
        dependency waves through the same batched sweeps."""
        reference = _snapshot(_run(config, kind, self.WORDS_UNIFORM, **kwargs))
        self._ban(monkeypatch)
        waves = _snapshot(_run(config, kind, self.WORDS_UNIFORM, **kwargs))
        assert waves == reference

    def test_mass_eviction_scenario_actually_evicts(self):
        _, config, kind, kwargs = next(
            s for s in self.SCENARIOS if s[0] == "mass-eviction"
        )
        for execution in (self.WORDS, self.WORDS_UNIFORM):
            simulator = _run(config, kind, execution, **kwargs)
            assert sum(node.evicted for node in simulator.nodes) >= 2
            simulator.close()

    def test_ban_helper_actually_bans(self, monkeypatch):
        """The guard itself must bite: the sets backend's scalar loop
        trips it immediately, proving the words runs above genuinely
        avoided every banned call."""
        self._ban(monkeypatch)
        with pytest.raises(AssertionError, match="scalar fallback"):
            _run(
                GossipConfig.small(),
                AttackKind.TRADE,
                ExecutionConfig(backend="sets", shards=1),
                rounds=2,
            )


class TestChunkedSweepParity:
    """Cache blocking is invisible: any chunk size, identical trace."""

    @pytest.mark.parametrize("chunk", [0, 1, 7, 64])
    def test_chunk_size_changes_nothing(self, chunk):
        config = GossipConfig.paper()
        reference = _snapshot(
            _run(
                config,
                AttackKind.TRADE,
                ExecutionConfig(backend="words", shards=1),
            )
        )
        chunked = _snapshot(
            _run(
                config,
                AttackKind.TRADE,
                ExecutionConfig(backend="words", shards=1),
                chunk_pairs=chunk,
            )
        )
        assert chunked == reference


class TestTruncateWordRows:
    """Vectorized capped truncation vs the per-row oracle."""

    @pytest.mark.parametrize("prefer_newest", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle(self, prefer_newest, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_words = 257, 3
        available = rng.integers(
            0, 1 << 64, size=(n_rows, n_words), dtype=np.uint64
        )
        available[0] = 0  # empty row: owed 0, stays empty
        n_available = word_popcounts(available)
        # Mix of full takes (counts == availability), zero takes, and
        # every partial rank in between, including boundary-word ties.
        counts = rng.integers(0, n_available + 1).astype(np.int64)
        counts[1] = n_available[1]
        counts[2] = 0
        vectorized = available.copy()
        oracle = available.copy()
        truncate_word_rows(
            vectorized, available, counts, n_available, prefer_newest
        )
        _truncate_word_rows_scalar(
            oracle, available, counts, n_available, prefer_newest
        )
        assert np.array_equal(vectorized, oracle)
        assert np.array_equal(word_popcounts(vectorized), counts)
        assert not np.any(vectorized & ~available)

    @pytest.mark.parametrize("prefer_newest", [True, False])
    @pytest.mark.parametrize("density", [0.02, 0.5, 0.98])
    @pytest.mark.parametrize("n_words", [1, 2, 3, 5])
    def test_fuzz_widths_densities_and_edge_bits(
        self, n_words, density, prefer_newest
    ):
        _assert_truncation_parity(n_words, density, prefer_newest)

    @pytest.mark.parametrize("prefer_newest", [True, False])
    def test_selected_may_alias_available(self, prefer_newest):
        available, counts, n_available = _fuzz_rows(3, 0.5, seed=11)
        oracle = available.copy()
        _truncate_word_rows_scalar(
            oracle, available, counts, n_available, prefer_newest
        )
        aliased = available.copy()
        truncate_word_rows(aliased, aliased, counts, n_available, prefer_newest)
        assert np.array_equal(aliased, oracle)


def _fuzz_rows(n_words, density, seed):
    """Random word rows of the given bit density plus hand-placed edge
    rows, with capped counts covering every interesting rank."""
    rng = np.random.default_rng(seed)
    bits = rng.random((300, n_words, 64)) < density
    random_rows = np.packbits(bits, axis=-1, bitorder="little").view(
        np.uint64
    ).reshape(300, n_words)
    top, bottom, full = np.uint64(1 << 63), np.uint64(1), ~np.uint64(0)
    # Rows whose boundary word holds only bit 63, has bit 63 as its
    # highest set bit, or bit 0 as its lowest / only one.
    edge_rows = np.array(
        [[word] * n_words for word in (top, top | bottom, full, bottom)]
        + [[top if j % 2 else bottom for j in range(n_words)]],
        dtype=np.uint64,
    )
    available = np.concatenate([edge_rows, random_rows])
    n_available = word_popcounts(available)
    counts = rng.integers(0, n_available + 1).astype(np.int64)
    # Edge rows cycle through one-short, a single bit and k = 0, so
    # k = 0 rows sit among capped rows in the same call.
    for row in range(len(available)):
        choice = row % 5
        if choice == 0:
            counts[row] = max(n_available[row] - 1, 0)
        elif choice == 1:
            counts[row] = min(1, n_available[row])
        elif choice == 2:
            counts[row] = 0
    return available, counts, n_available


def _assert_truncation_parity(n_words, density, prefer_newest, seed=0):
    available, counts, n_available = _fuzz_rows(n_words, density, seed)
    vectorized = available.copy()
    oracle = available.copy()
    truncate_word_rows(vectorized, available, counts, n_available, prefer_newest)
    _truncate_word_rows_scalar(
        oracle, available, counts, n_available, prefer_newest
    )
    assert np.array_equal(vectorized, oracle)
    assert np.array_equal(word_popcounts(vectorized), counts)


class TestLowestWordBits:
    """The broadword select against a per-int oracle."""

    @staticmethod
    def _cases(seed=5):
        rng = np.random.default_rng(seed)
        words = np.concatenate([
            np.array(
                [0, 1, 1 << 63, (1 << 63) | 1, (1 << 64) - 1, 0x8000000100000000],
                dtype=np.uint64,
            ),
            rng.integers(0, 1 << 64, size=400, dtype=np.uint64),
            rng.integers(0, 1 << 64, size=200, dtype=np.uint64)
            & rng.integers(0, 1 << 64, size=200, dtype=np.uint64)
            & rng.integers(0, 1 << 64, size=200, dtype=np.uint64),
        ])
        popcounts = word_popcounts(words[:, None])
        ks = rng.integers(0, popcounts + 1).astype(np.int64)
        # Pin both ends for every word: k = 0 and k = popcount.
        words = np.concatenate([words, words, words])
        ks = np.concatenate([ks, np.zeros_like(popcounts), popcounts])
        return words, ks

    def test_matches_per_int_oracle(self):
        words, ks = self._cases()
        kept = lowest_word_bits(words, ks)
        expected = [bottom_bits(int(w), int(k)) for w, k in zip(words, ks)]
        assert [int(value) for value in kept] == expected

    def test_bit_63_does_not_overflow(self):
        top = np.array([1 << 63, (1 << 64) - 1], dtype=np.uint64)
        kept = lowest_word_bits(top, np.array([1, 64]))
        assert [int(value) for value in kept] == [1 << 63, (1 << 64) - 1]

    @pytest.mark.parametrize("byte", range(8))
    def test_kth_bit_in_every_byte(self, byte):
        """The k-th set bit lands in each byte in turn, at its lowest
        and highest bit, and as the last set bit (k = popcount)."""
        lo, hi = 8 * byte, 8 * byte + 7
        sparse = sum(1 << (8 * j + j) for j in range(8))
        words, ks = [], []
        for word in (
            (1 << 64) - 1,                  # every bit set
            sparse,                         # one bit per byte
            ((1 << lo) - 1) | (1 << hi),    # all below, then bit ``hi``
            (1 << lo) | (1 << 63),          # bit ``lo``, then bit 63
        ):
            below = bin(word & ((1 << lo) - 1)).count("1")
            inside = bin((word >> lo) & 0xFF).count("1")
            for k in range(below + 1, below + inside + 1):
                words.append(word)
                ks.append(k)
            words.append(word)
            ks.append(bin(word).count("1"))
        words = np.array(words, dtype=np.uint64)
        kept = lowest_word_bits(words, np.array(ks))
        expected = [bottom_bits(int(w), k) for w, k in zip(words, ks)]
        assert [int(value) for value in kept] == expected


class TestLowestInByteTable:
    """The select's last step: the lowest ``j`` set bits of a byte."""

    def test_every_entry_matches_bottom_bits(self):
        table = _LOWEST_IN_BYTE.reshape(256, 9)
        assert _LOWEST_IN_BYTE.dtype == np.uint64
        for byte in range(256):
            for k in range(9):
                entry = int(table[byte, k])
                assert entry == bottom_bits(byte, k)
                # Independently of bottom_bits: a subset of the byte,
                # min(k, popcount) bits, and no skipped bit below them.
                assert entry & ~byte == 0
                assert bin(entry).count("1") == min(k, bin(byte).count("1"))
                assert byte & ((1 << entry.bit_length()) - 1) == entry


class TestNumpy1PopcountFallback:
    """numpy < 2 has no ``bitwise_count``; the shipped fallback counts
    bits through a 16-bit lookup table.  CI installs numpy 2, so the
    select and the truncation are run here through an equivalent table
    implementation patched in for ``word_popcount_matrix``, and the
    column-wise row popcounts through the shipped table itself."""

    @pytest.fixture
    def lut_popcounts(self, monkeypatch):
        from repro.bargossip import updates

        table = np.zeros(1 << 16, dtype=np.uint8)
        values = np.arange(1 << 16)
        for shift in range(16):
            table += ((values >> shift) & 1).astype(np.uint8)
        calls = []

        def word_popcount_matrix(words):
            calls.append(np.shape(words))
            words = np.asarray(words, dtype=np.uint64)
            halves = np.ascontiguousarray(words).view(np.uint16)
            return table[halves].reshape(words.shape + (4,)).sum(
                axis=-1, dtype=np.int64
            )

        monkeypatch.setattr(updates, "word_popcount_matrix", word_popcount_matrix)
        return calls

    @pytest.mark.parametrize("prefer_newest", [True, False])
    @pytest.mark.parametrize("n_words", [1, 3, 5])
    def test_truncation_parity_through_lut(
        self, lut_popcounts, n_words, prefer_newest
    ):
        _assert_truncation_parity(n_words, 0.5, prefer_newest, seed=3)
        # Per-word counts plus the select's three halving steps.
        assert len(lut_popcounts) == 4

    @pytest.mark.parametrize("n_words", [1, 3, 5])
    def test_row_popcounts_through_shipped_lut(self, monkeypatch, n_words):
        from repro.bargossip import updates

        monkeypatch.setattr(
            updates, "_word_bit_counts", updates._lut_word_bit_counts
        )
        rng = np.random.default_rng(n_words)
        words = rng.integers(
            0, 2**64 - 1, size=(64, n_words), dtype=np.uint64, endpoint=True
        )
        words[0] = 1 << 63
        words[1] = 2**64 - 1
        words[2] = 0
        per_word = [[bin(int(word)).count("1") for word in row] for row in words]
        assert word_popcount_matrix(words).tolist() == per_word
        assert word_popcounts(words).tolist() == [sum(row) for row in per_word]
        assert word_popcounts(words[:0]).tolist() == []

    def test_select_through_lut(self, lut_popcounts):
        words, ks = TestLowestWordBits._cases(seed=9)
        kept = lowest_word_bits(words, ks)
        expected = [bottom_bits(int(w), int(k)) for w, k in zip(words, ks)]
        assert [int(value) for value in kept] == expected
        # Three halving steps; the last byte goes through the table.
        assert len(lut_popcounts) == 3


def _count_calls(monkeypatch, module, name):
    """Patch ``module.name`` with a pass-through that logs each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _words_copy(pool):
    """An independent word store holding ``pool``'s rows and window."""
    copy = WordPopulationStore(
        pool.n_nodes, pool.updates_per_round, pool.lifetime
    )
    copy.base = pool.base
    copy.have_words[:] = pool.have_words
    copy.live_words[:] = pool.live_words
    return copy


class TestOneTruncationPerSweep:
    """Each batched sweep truncates all of its moving rows in one call,
    and a push mixed pass makes at most one coalition dump; the fused
    forms are pinned exact against the per-pair planners and the sets
    walk."""

    CONFIG = GossipConfig.small().replace(obedient_fraction=0.5)

    def _mid_run(self, **kwargs):
        return _run(
            self.CONFIG, AttackKind.TRADE, ExecutionConfig(backend="words"),
            seed=3, rounds=4, **kwargs,
        )

    def test_exchange_sweep_truncates_once(self, monkeypatch):
        simulator = self._mid_run()
        pool = simulator._pool
        ids = np.random.default_rng(0).permutation(pool.n_nodes)
        initiators, responders = ids[: len(ids) // 2], ids[len(ids) // 2 :]
        oracle = _words_copy(pool)
        calls = _count_calls(monkeypatch, exchange, "truncate_word_rows")
        # cap=1 caps every moving row, so the one call holds them all.
        to_i, to_r = exchange.batched_word_exchange(
            pool, initiators, responders, cap=1
        )
        movers = int(np.count_nonzero(to_i))
        assert movers and len(calls) == 1 and len(calls[0][2]) == 2 * movers
        expected = [
            exchange.bitset_exchange(oracle, int(i), int(r), cap=1)
            for i, r in zip(initiators, responders)
        ]
        assert list(zip(to_i.tolist(), to_r.tolist())) == expected
        assert np.array_equal(pool.have_words, oracle.have_words)
        assert np.array_equal(pool.live_words, oracle.live_words)
        simulator.close()

    def test_idle_exchange_sweep_does_not_truncate(self, monkeypatch):
        pool = WordPopulationStore(8, 4, 6)
        calls = _count_calls(monkeypatch, exchange, "truncate_word_rows")
        exchange.batched_word_exchange(pool, [0, 1, 2], [3, 4, 5], cap=2)
        assert calls == []

    def test_push_sweep_truncates_once(self, monkeypatch):
        config = self.CONFIG.replace(push_size=1)
        simulator = self._mid_run()
        pool, round_now = simulator._pool, simulator.round - 1
        ids = np.random.default_rng(1).permutation(pool.n_nodes)
        initiators, responders = ids[: len(ids) // 2], ids[len(ids) // 2 :]
        oracle = _words_copy(pool)
        calls = _count_calls(monkeypatch, push, "truncate_word_rows")
        to_r, to_i = push.batched_word_push(
            pool, initiators, responders, config,
            push.push_window_words(pool, config, round_now),
        )
        accepted = int(np.count_nonzero(to_r))
        assert accepted and len(calls) == 1 and len(calls[0][2]) == 2 * accepted
        expected = []
        for i, r in zip(initiators.tolist(), responders.tolist()):
            plan = push.bitset_plan_push(oracle, i, r, config, round_now)
            if plan.responder_count:
                push.bitset_apply_push(oracle, i, r, plan)
            expected.append((plan.responder_count, plan.initiator_count))
        assert list(zip(to_r.tolist(), to_i.tolist())) == expected
        assert np.array_equal(pool.have_words, oracle.have_words)
        assert np.array_equal(pool.live_words, oracle.live_words)
        simulator.close()

    def test_whole_run_call_counts(self, monkeypatch):
        """Over a reporting run on the paper's schedule: one truncation
        per sweep that moves anything, none otherwise, and at most one
        dump per push mixed pass."""
        truncations = {
            "exchange": _count_calls(monkeypatch, exchange, "truncate_word_rows"),
            "push": _count_calls(monkeypatch, push, "truncate_word_rows"),
        }
        dumps = _count_calls(monkeypatch, simulator_module, "batched_word_dump")
        per_sweep, per_pass = [], []

        def sweep(kernel, calls):
            def run(*args, **kwargs):
                before = len(calls)
                counts = kernel(*args, **kwargs)
                per_sweep.append((bool(counts[0].any()), len(calls) - before))
                return counts
            return run

        monkeypatch.setattr(
            simulator_module, "batched_word_exchange",
            sweep(simulator_module.batched_word_exchange, truncations["exchange"]),
        )
        monkeypatch.setattr(
            simulator_module, "batched_word_push",
            sweep(simulator_module.batched_word_push, truncations["push"]),
        )
        mixed = InteractionEngine._push_pass_mixed

        def push_pass_mixed(*args, **kwargs):
            before = len(dumps)
            mixed(*args, **kwargs)
            per_pass.append(len(dumps) - before)

        monkeypatch.setattr(InteractionEngine, "_push_pass_mixed", push_pass_mixed)
        simulator = self._mid_run(
            reporting=ReportingPolicy(excess_threshold=1, reports_to_evict=2)
        )
        assert any(moved for moved, _ in per_sweep)
        assert all(n == int(moved) for moved, n in per_sweep)
        assert per_pass and max(per_pass) == 1
        assert sum(node.evicted for node in simulator.nodes)
        simulator.close()

    def test_push_mixed_pass_matches_sets_walk(self, monkeypatch):
        """One pass holding a forward dump (attacker initiator onto a
        satiated responder) and a reverse dump (a satiated initiator's
        push landing on an attacker), under the reporting defense:
        receipts, evictions and counters equal the per-pair walk."""
        config = GossipConfig.small().replace(obedient_fraction=1.0)
        policy = ReportingPolicy(excess_threshold=1, reports_to_evict=1)
        simulators, reports = {}, {}
        for backend in ("sets", "words"):
            simulator = _run(
                config, AttackKind.TRADE, ExecutionConfig(backend=backend),
                seed=3, rounds=2, reporting=policy,
            )
            authority = simulator.authority
            filed = reports[backend] = []

            def file_report(reporter, receipt, _file=authority.file_report,
                            _filed=filed):
                _filed.append((reporter, receipt))
                return _file(reporter, receipt)

            monkeypatch.setattr(authority, "file_report", file_report)
            simulators[backend] = simulator
        reference = simulators["sets"]
        round_now = reference.round - 1
        attack = reference.attack
        attackers = sorted(
            node.node_id for node in reference.nodes
            if node.is_attacker and not node.evicted
        )
        hungry = [
            target for target in sorted(attack.satiated_targets)
            if len(attack.pool & reference.nodes[target].store.missing)
            > policy.excess_threshold
            and not reference.nodes[target].evicted
        ]
        pushers = [
            target for target in hungry
            if reference.nodes[target].wants_to_push(config, round_now)
        ]
        assert len(attackers) >= 2 and pushers
        pusher = pushers[0]
        receiver = next(target for target in hungry if target != pusher)
        rows_i = np.array([attackers[0], pusher])
        rows_r = np.array([receiver, attackers[1]])
        words = simulators["words"]._engine
        words._push_pass_mixed(
            words._phase_constants(round_now, Purpose.PUSH), rows_i, rows_r
        )
        for initiator, responder in zip(rows_i.tolist(), rows_r.tolist()):
            reference._engine._push_directed(round_now, initiator, responder)
        # Both dumps were flagged and evicted their givers, forward first.
        assert [receipt.giver for _, receipt in reports["sets"][-2:]] == [
            attackers[0], attackers[1],
        ]
        assert {attackers[0], attackers[1]} <= reference.authority.evicted
        assert reports["words"] == reports["sets"]
        assert simulators["words"].authority.evicted == reference.authority.evicted
        assert simulators["words"].attack.nodes == reference.attack.nodes
        assert _snapshot(simulators["words"]) == _snapshot(reference)


class TestTargetSetCaches:
    """The satiated-row mask rebuilds whenever the target set moves.

    ``InteractionEngine._satiated_row_mask`` (which the ideal attack's
    out-of-band sweep also reads) is cached on the coalition's
    ``targets_version``; a rotation must yield what a fresh build from
    the target set gives.
    """

    WORDS = ExecutionConfig(backend="words", shards=1)

    @staticmethod
    def _assert_fresh(simulator):
        mask = np.zeros(simulator.config.n_nodes, dtype=bool)
        mask[sorted(simulator.attack.satiated_targets)] = True
        assert np.array_equal(simulator._engine._satiated_row_mask(), mask)

    def test_rotation_rebuilds(self):
        simulator = _run(
            GossipConfig.small(), AttackKind.TRADE, self.WORDS, rounds=1,
            rotate_targets_every=1,
        )
        seen = set()
        for _ in range(4):
            self._assert_fresh(simulator)
            seen.add(simulator.attack.satiated_targets)
            simulator.step()
        assert len(seen) > 1  # the rotation really moved the targets
        simulator.close()


class TestRingBudget:
    """The word buffer's fixed-width ring and its byte accounting."""

    def test_offset_is_pure_function_of_base(self):
        # The layout is a function of the window base alone; nothing
        # else may feed the offset.
        store = WordPopulationStore(4, updates_per_round=10, lifetime=10)
        for round_now in range(0, 40):
            store.advance_to(round_now)
            assert store.offset == store.base % 64

    def test_row_width_never_grows(self):
        config = GossipConfig.paper()
        store = WordPopulationStore(
            4,
            updates_per_round=config.updates_per_round,
            lifetime=config.update_lifetime,
        )
        # Paper capacity 100 -> 100 + 2*63 bits -> 3 words, forever.
        assert store.words_per_row == 3
        width = store.have_words.shape
        for round_now in range(0, 200):
            store.advance_to(round_now)
            assert store.have_words.shape == width

    def test_advance_recycles_expired_columns(self):
        store = WordPopulationStore(3, updates_per_round=4, lifetime=3)
        store.seed([0, 1, 2], col=0)
        store.advance_to(5)  # window slides past everything seeded
        assert not store.have_words.any()

    def test_simulator_memory_breakdown(self):
        config = GossipConfig.small()
        simulator = GossipSimulator(
            config, execution=ExecutionConfig(backend="words", shards=1)
        )
        breakdown = simulator.memory_breakdown()
        store = simulator._pool
        n = config.n_nodes
        # The have matrix plus the one shared live row.
        assert breakdown["word_row_bytes"] == (n + 1) * store.words_per_row * 8
        assert breakdown["counter_bytes"] == n * 8 * 8
        assert breakdown["code_column_bytes"] == 3 * n
        assert breakdown["total_bytes"] == (
            breakdown["word_row_bytes"]
            + breakdown["counter_bytes"]
            + breakdown["code_column_bytes"]
        )
        assert breakdown["bytes_per_node"] == breakdown["total_bytes"] // n
        simulator.close()

    def test_memory_breakdown_requires_words_backend(self):
        simulator = GossipSimulator(
            GossipConfig.small(), execution=ExecutionConfig(backend="sets")
        )
        with pytest.raises(SimulationError):
            simulator.memory_breakdown()


#: Hot-path functions (module path -> dotted names) that must count
#: bits through the bulk ``word_popcounts`` family.  ``iter_bits`` /
#: ``popcount`` / ``int.bit_count`` are per-int: fine in the scalar
#: oracles and the rare report-filing path, banned here.
HOT_PATH_FUNCTIONS = {
    "src/repro/bargossip/simulator.py": (
        "InteractionEngine.run_exchanges_batched",
        "InteractionEngine.run_pushes_batched",
        "InteractionEngine._mixed_pairs",
        "InteractionEngine._split_pair_rows",
        "InteractionEngine._phase_constants",
        "InteractionEngine._phase_waves",
        "InteractionEngine.run_phase",
        "InteractionEngine._exchange_apply_clean",
        "InteractionEngine._exchange_pass_mixed",
        "InteractionEngine._push_pass_mixed",
        "InteractionEngine._push_pass_batched",
        "InteractionEngine._apply_dump",
        "InteractionEngine._satiated_row_mask",
        "GossipSimulator._attack_out_of_band",
        "GossipSimulator._expire_packed",
        "GossipSimulator._broadcast",
    ),
    "src/repro/bargossip/updates.py": (
        "word_popcounts",
        "word_rows_any",
        "lowest_word_bits",
        "truncate_word_rows",
        "WordPopulationStore.advance_to",
        "WordPopulationStore.masked_have_popcounts",
        "WordPopulationStore.clear_mask",
        "WordPopulationStore.seed",
        "WordPopulationStore.announce_fresh",
        "WordPopulationStore.missing_rows",
        "WordPopulationStore.mask_words",
    ),
    "src/repro/bargossip/partner.py": ("dependency_plan", "dependency_waves"),
    "src/repro/bargossip/exchange.py": (
        "batched_word_exchange",
        "batched_word_dump",
        "exchange_dump_limits",
    ),
    "src/repro/bargossip/push.py": (
        "push_window_words",
        "batched_push_eligibility",
        "batched_word_push",
        "push_dump_limits",
    ),
}

_BANNED_CALLS = frozenset(
    {"popcount", "_python_popcount", "bit_count", "iter_bits", "bin"}
)


def _collect_functions(tree):
    """``name`` / ``Class.name`` -> FunctionDef for one module."""
    functions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions[f"{node.name}.{item.name}"] = item
    return functions


class TestPopcountDiscipline:
    @pytest.mark.parametrize("rel_path", sorted(HOT_PATH_FUNCTIONS))
    def test_no_per_int_popcounts_on_hot_paths(self, rel_path):
        tree = ast.parse((REPO_ROOT / rel_path).read_text(encoding="utf-8"))
        functions = _collect_functions(tree)
        missing = [
            name for name in HOT_PATH_FUNCTIONS[rel_path]
            if name not in functions
        ]
        assert not missing, f"hot-path functions vanished: {missing}"
        offenders = []
        for name in HOT_PATH_FUNCTIONS[rel_path]:
            for node in ast.walk(functions[name]):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                if called in _BANNED_CALLS:
                    offenders.append(f"{name}:{node.lineno} calls {called}")
        assert not offenders, (
            "per-int bit counting on a hot path (use word_popcounts / "
            f"word_popcount_matrix): {offenders}"
        )
