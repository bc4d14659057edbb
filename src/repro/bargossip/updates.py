"""Update identities, per-node stores, and lifetime accounting.

Updates are identified by a dense integer id: the update with index
``k`` released in round ``r`` (with ``u`` updates per round) has id
``r * u + k``.  This makes creation round and age pure arithmetic and
lets the hot paths work on plain ``set[int]`` — or, in the vectorized
backend, on column offsets into a dense boolean matrix.

Three views of update state are kept:

* :class:`UpdateStore` — one per node: the live updates the node holds
  and the live updates it is still missing.  Both sets contain live
  (unexpired) updates only, so their sizes stay bounded by
  ``updates_per_round * update_lifetime`` regardless of run length.
  This is the ``sets`` backend, the reference oracle.
* :class:`WordPopulationStore` / :class:`BitsetUpdateStore` — the
  packed ``words`` backend: one dense bit matrix of shape
  ``(n_nodes, live_window)`` holding what each node has, stored as
  fixed-width 64-bit word rows owned by the simulator, plus one shared
  row of the live (announced, unexpired) columns.  A node's missing
  row is ``live & ~have``, so ``have | missing == live`` holds by
  construction.  One lightweight per-node view implements the
  :class:`UpdateStore` interface.  Because an update lives exactly
  ``update_lifetime`` rounds, the live id window is a sliding interval
  of at most ``updates_per_round * update_lifetime`` ids; column ``c``
  always holds update ``base + c``, so id order equals column order
  and the round phases become whole-population numpy sweeps (see the
  batched :class:`~repro.bargossip.simulator.InteractionEngine`
  dispatch).  Int row views expose each row as an arbitrary-precision
  bitmask for the per-pair packed planners.
* :class:`UpdateLedger` — global: which updates are currently live and
  when each expires, used to drive per-round expiry and the delivery
  metric ("fraction of updates received ... " in Figures 1-3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set

import numpy as np

from ..core.errors import SimulationError

__all__ = [
    "update_id",
    "creation_round",
    "UpdateStore",
    "BitsetUpdateStore",
    "WordPopulationStore",
    "UpdateLedger",
    "popcount",
    "top_bits",
    "bottom_bits",
    "iter_bits",
    "words_to_int",
    "int_to_words",
    "word_popcounts",
    "word_popcount_matrix",
    "word_rows_any",
    "lowest_word_bits",
    "truncate_word_rows",
    "WORD_BITS",
]


def update_id(round_created: int, index: int, updates_per_round: int) -> int:
    """The dense integer id of update ``index`` of round ``round_created``."""
    if not 0 <= index < updates_per_round:
        raise SimulationError(
            f"index {index} out of range for {updates_per_round} updates per round"
        )
    return round_created * updates_per_round + index


def creation_round(update: int, updates_per_round: int) -> int:
    """Round in which ``update`` was released."""
    return update // updates_per_round


class UpdateStore:
    """The live-update state of a single node.

    Invariants (enforced in tests):

    * ``have`` and ``missing`` are disjoint;
    * ``have | missing`` equals the set of currently live updates, for
      every node, at every round boundary.
    """

    __slots__ = ("have", "missing")

    def __init__(self) -> None:
        self.have: Set[int] = set()
        self.missing: Set[int] = set()

    def announce(self, update: int, holds: bool) -> None:
        """Register a newly released live update.

        ``holds`` is True when the broadcaster seeded the update to
        this node.
        """
        if holds:
            self.have.add(update)
        else:
            self.missing.add(update)

    def receive(self, update: int) -> bool:
        """Record receipt of ``update``; returns True if it was new.

        Receiving an update the node already holds is a no-op (it can
        happen when the ideal attacker broadcasts out of band).
        """
        if update in self.have:
            return False
        self.missing.discard(update)
        self.have.add(update)
        return True

    def receive_all(self, updates: Iterable[int]) -> int:
        """Receive many updates; returns how many were new."""
        new = 0
        for update in updates:
            if self.receive(update):
                new += 1
        return new

    def expire(self, update: int) -> bool:
        """Drop ``update`` at end of life; returns True iff it was held.

        The return value is exactly the "delivered" bit of the paper's
        metric: the node either got the update while it was live or
        missed it forever.
        """
        if update in self.have:
            self.have.discard(update)
            return True
        self.missing.discard(update)
        return False

    @property
    def is_satiated(self) -> bool:
        """True when the node is missing no live update.

        This is the satiation state of Section 3 instantiated for
        gossip: a node with nothing to collect has nothing to gain from
        any exchange.
        """
        return not self.missing

    def missing_older_than(self, cutoff_round: int, updates_per_round: int) -> List[int]:
        """Missing updates created strictly before ``cutoff_round``.

        Used by rational nodes to decide whether any missing update is
        "expiring relatively soon" and hence worth an optimistic push.
        Sorted oldest first (most urgent first).
        """
        old = [
            update
            for update in self.missing
            if creation_round(update, updates_per_round) < cutoff_round
        ]
        old.sort()
        return old

    def have_newer_than(self, cutoff_round: int, updates_per_round: int) -> List[int]:
        """Held updates created at or after ``cutoff_round`` (recent ones).

        These are the "recently released updates it has to offer" in an
        optimistic push.  Sorted newest first.
        """
        recent = [
            update
            for update in self.have
            if creation_round(update, updates_per_round) >= cutoff_round
        ]
        recent.sort(reverse=True)
        return recent

    def has_missing_older_than(self, cutoff_round: int, updates_per_round: int) -> bool:
        """Whether any missing update was created strictly before ``cutoff_round``."""
        return any(
            creation_round(update, updates_per_round) < cutoff_round
            for update in self.missing
        )

    def has_have_newer_than(self, cutoff_round: int, updates_per_round: int) -> bool:
        """Whether any held update was created at or after ``cutoff_round``."""
        return any(
            creation_round(update, updates_per_round) >= cutoff_round
            for update in self.have
        )


def _python_popcount(bits: int) -> int:
    """Pure-Python popcount: the pre-3.10 fallback behind :func:`popcount`."""
    return bin(bits).count("1")


#: Number of set bits; ``int.bit_count`` (one C call) on Python >= 3.10,
#: :func:`_python_popcount` otherwise.
popcount = (
    int.bit_count if hasattr(int, "bit_count") else _python_popcount
)


def top_bits(bits: int, count: int) -> int:
    """Mask of the ``count`` highest set bits of ``bits``."""
    out = 0
    for _ in range(count):
        if not bits:
            break
        highest = 1 << (bits.bit_length() - 1)
        out |= highest
        bits ^= highest
    return out


def bottom_bits(bits: int, count: int) -> int:
    """Mask of the ``count`` lowest set bits of ``bits``."""
    out = 0
    for _ in range(count):
        if not bits:
            break
        lowest = bits & -bits
        out |= lowest
        bits ^= lowest
    return out


def iter_bits(bits: int) -> Iterable[int]:
    """Yield the set bit positions of ``bits``, lowest first."""
    while bits:
        lowest = bits & -bits
        yield lowest.bit_length() - 1
        bits ^= lowest


class BitsetUpdateStore:
    """Per-node view into a :class:`WordPopulationStore`.

    Implements the :class:`UpdateStore` interface — ``have`` and
    ``missing`` materialize as real sets, so existing code (the
    attacker's ``dump_for``, the invariant tests) works unchanged —
    while the simulator's hot paths bypass the sets entirely and
    operate on the packed rows.

    The view writes the node's have row only.  ``missing`` is derived
    from the store's shared live row, so an update can only be
    announced, received or missed once its column is live
    (:meth:`WordPopulationStore.announce_fresh`), and it leaves every
    node's missing set together, when :meth:`WordPopulationStore.clear_mask`
    expires the column.
    """

    __slots__ = ("pool", "node_id")

    def __init__(self, pool: "WordPopulationStore", node_id: int) -> None:
        self.pool = pool
        self.node_id = node_id

    def _ids(self, bits: int) -> Set[int]:
        base = self.pool.base
        return {base + col for col in iter_bits(bits)}

    def _live_mask(self, updates: Iterable[int]) -> int:
        """Bitmask of ``updates``; raises unless every column is live."""
        mask = self.pool.mask_of(updates)
        dead = mask & ~self.pool.live_bits
        if dead:
            update = self.pool.base + dead.bit_length() - 1
            raise SimulationError(
                f"update {update} is not live: announce_fresh makes a column "
                "live for every node"
            )
        return mask

    @property
    def have(self) -> Set[int]:
        """The held live updates, materialized as a set."""
        return self._ids(self.pool.have_bits[self.node_id])

    @property
    def missing(self) -> Set[int]:
        """The missing live updates, materialized as a set."""
        return self._ids(self.pool.missing_bits[self.node_id])

    def announce(self, update: int, holds: bool) -> None:
        """Mark the live ``update`` held (``holds``) or missing."""
        bit = self._live_mask((update,))
        if holds:
            self.pool.have_bits[self.node_id] |= bit
        else:
            self.pool.have_bits[self.node_id] &= ~bit

    def receive(self, update: int) -> bool:
        bit = self._live_mask((update,))
        if self.pool.have_bits[self.node_id] & bit:
            return False
        self.pool.have_bits[self.node_id] |= bit
        return True

    def receive_all(self, updates: Iterable[int]) -> int:
        mask = self._live_mask(updates)
        if not mask:
            return 0
        new = popcount(mask & ~self.pool.have_bits[self.node_id])
        self.pool.have_bits[self.node_id] |= mask
        return new

    def expire(self, update: int) -> bool:
        """Drop ``update`` from this node's have row; True iff it was held.

        The column stays live (and so missing here) until the store
        expires it for every node with :meth:`WordPopulationStore.clear_mask`.
        """
        bit = 1 << self.pool.col_of(update)
        held = bool(self.pool.have_bits[self.node_id] & bit)
        self.pool.have_bits[self.node_id] &= ~bit
        return held

    @property
    def is_satiated(self) -> bool:
        """True when the node is missing no live update."""
        return not self.pool.missing_bits[self.node_id]

    def _col_below(self, cutoff_round: int) -> int:
        """Exclusive column bound for ids created before ``cutoff_round``."""
        bound = cutoff_round * self.pool.updates_per_round - self.pool.base
        return max(0, min(self.pool.capacity, bound))

    def missing_older_than(self, cutoff_round: int, updates_per_round: int) -> List[int]:
        """Missing updates created strictly before ``cutoff_round``, oldest first."""
        bound = self._col_below(cutoff_round)
        old = self.pool.missing_bits[self.node_id] & ((1 << bound) - 1)
        base = self.pool.base
        return [base + col for col in iter_bits(old)]

    def have_newer_than(self, cutoff_round: int, updates_per_round: int) -> List[int]:
        """Held updates created at or after ``cutoff_round``, newest first."""
        bound = self._col_below(cutoff_round)
        recent = self.pool.have_bits[self.node_id] >> bound
        base = self.pool.base
        newest_first = [base + bound + col for col in iter_bits(recent)]
        newest_first.reverse()
        return newest_first

    def has_missing_older_than(self, cutoff_round: int, updates_per_round: int) -> bool:
        """Whether any missing update was created strictly before ``cutoff_round``."""
        bound = self._col_below(cutoff_round)
        return bool(self.pool.missing_bits[self.node_id] & ((1 << bound) - 1))

    def has_have_newer_than(self, cutoff_round: int, updates_per_round: int) -> bool:
        """Whether any held update was created at or after ``cutoff_round``."""
        bound = self._col_below(cutoff_round)
        return bool(self.pool.have_bits[self.node_id] >> bound)


# ----------------------------------------------------------------------
# Fixed-width word-array backend
# ----------------------------------------------------------------------

#: Bits per storage word of the word-array backend.
WORD_BITS = 64

_WORD_BYTES = WORD_BITS // 8


def words_to_int(row: "np.ndarray") -> int:
    """One packed word row as an arbitrary-precision bitmask."""
    return int.from_bytes(row.tobytes(), "little")


def int_to_words(bits: int, n_words: int) -> "np.ndarray":
    """An arbitrary-precision bitmask as a packed word row."""
    return np.frombuffer(
        bits.to_bytes(n_words * _WORD_BYTES, "little"), dtype=np.uint64
    )


_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)
#: Set bits of every 16-bit value (the numpy < 2.0 popcount table).
_POP16 = (_POP8[:, None] + _POP8[None, :]).reshape(-1)


def _lut_word_bit_counts(words: "np.ndarray") -> "np.ndarray":
    """Per-word popcounts via a 16-bit lookup table (numpy < 2.0)."""
    words = np.asarray(words, dtype=np.uint64)
    halves = np.ascontiguousarray(words).view(np.uint16)
    return _POP16[halves].reshape(words.shape + (4,)).sum(
        axis=-1, dtype=np.uint8
    )


#: Per-word popcounts (``uint8``, same shape): ``np.bitwise_count`` on
#: numpy >= 2.0, the lookup table otherwise.
_word_bit_counts = (
    np.bitwise_count if hasattr(np, "bitwise_count") else _lut_word_bit_counts
)


def word_popcounts(words: "np.ndarray") -> "np.ndarray":
    """Per-row popcount of packed word rows (last axis summed).

    Summed one word column at a time: rows are only a few words wide,
    and a 1-D pass per column costs a fraction of one ``reduce`` over
    such a short last axis.
    """
    total = _word_bit_counts(words[..., 0]).astype(np.int64)
    for word in range(1, words.shape[-1]):
        total += _word_bit_counts(words[..., word])
    return total


def word_popcount_matrix(words: "np.ndarray") -> "np.ndarray":
    """Per-*word* popcounts of packed rows (no axis reduction)."""
    return _word_bit_counts(words).astype(np.int64)


def word_rows_any(words: "np.ndarray") -> "np.ndarray":
    """Whether each packed row has any set bit, one word column at a time."""
    acc = words[..., 0].copy()
    for word in range(1, words.shape[-1]):
        acc |= words[..., word]
    return acc != 0


_ONE = np.uint64(1)

#: (half-window width, mask of that many low bits) for the select's
#: halving steps, widest first; they narrow the window to one byte.
_SELECT_STEPS = tuple(
    (np.uint64(width), np.uint64((1 << width) - 1)) for width in (32, 16, 8)
)
_BYTE_MASK = np.uint64(0xFF)
#: Row stride of :data:`_LOWEST_IN_BYTE` (k = 0..8).
_BYTE_KS = 9
#: ``_LOWEST_IN_BYTE[byte * _BYTE_KS + j]`` is ``bottom_bits(byte, j)``:
#: the lowest ``j`` set bits of every byte value, a 256 x 9 table.
_LOWEST_IN_BYTE = np.array(
    [bottom_bits(byte, j) for byte in range(256) for j in range(_BYTE_KS)],
    dtype=np.uint64,
)


def lowest_word_bits(words: "np.ndarray", k: "np.ndarray") -> "np.ndarray":
    """Keep the lowest ``k[i]`` set bits of each ``uint64`` in ``words``.

    Broadword select: three halving steps (32/16/8 bits) narrow each
    word to the byte holding its k-th set bit — at each step the
    popcount of the low half of the current window says whether the
    k-th bit lies in it, or above it with that many fewer still to
    find.  One lookup into :data:`_LOWEST_IN_BYTE` then picks the bits
    still owed inside that byte, and every bit below the byte is kept
    whole.  The byte sits at bit 56 at most, so no shift reaches bit
    64, and all shift arithmetic stays ``uint64`` (on numpy < 2,
    ``uint64`` mixed with ``int64`` would promote to ``float64``).
    ``k`` must satisfy ``0 <= k <= popcount``; rows with ``k == 0``
    never leave byte 0, owe 0 there, and give 0.
    """
    words = np.asarray(words, dtype=np.uint64)
    remaining = np.array(k, dtype=np.int64)
    position = np.zeros(words.shape, dtype=np.uint64)
    # Masks multiply rather than np.where: measurably faster here.
    for width, low_mask in _SELECT_STEPS:
        low = word_popcount_matrix((words >> position) & low_mask)
        above = low < remaining
        position += above * width
        remaining -= low * above
    byte = ((words >> position) & _BYTE_MASK).astype(np.intp)
    owed = _LOWEST_IN_BYTE.take(byte * _BYTE_KS + remaining)
    return (words & ((_ONE << position) - _ONE)) | (owed << position)


def truncate_word_rows(
    selected: "np.ndarray",
    available: "np.ndarray",
    counts: "np.ndarray",
    n_available: "np.ndarray",
    prefer_newest: bool,
) -> None:
    """Overwrite ``selected`` rows whose transfer count is capped.

    The batched planners pass ``selected`` holding ``available`` (the
    common full-take case costs nothing); every row whose count falls
    short of its availability is re-picked with the exact top-k /
    bottom-k set-bit rule as one masked word sweep.  Rows are
    independent, so a planner stacks every direction of its sweep
    into one call: the cost per call is a fixed number of numpy
    dispatches, whatever its row count.  ``counts`` and
    ``n_available`` are integer arrays, one entry per row.  Per-word
    popcounts locate each capped row's *boundary word* — the word the
    k-th chosen bit lands in: walking the words from the kept end, a
    word survives whole while the running count stays below the
    target, and the boundary is the first word that reaches it.  Words
    past the boundary zero out, and the bits still owed inside each
    boundary word are resolved by one broadword select
    (:func:`lowest_word_bits`) over all capped rows at once: bottom-k
    keeps the lowest ``owed`` bits, top-k drops the lowest
    ``popcount - owed``.  Selection stays bit-identical to
    :func:`top_bits` / :func:`bottom_bits` (pinned by the parity tests
    against :func:`_truncate_word_rows_scalar`).

    ``selected`` may be ``available`` itself: the capped rows are
    gathered before anything is written back.
    """
    rows = (counts < n_available).nonzero()[0]
    if not len(rows):
        return
    avail = available.take(rows, axis=0)
    need = counts.take(rows).astype(np.int64, copy=False)
    per_word = word_popcount_matrix(avail)
    n_rows, n_words = avail.shape
    # Column by column from the kept end: row reductions over a
    # handful of words cost more than one 1-D pass per word.
    reached = np.zeros(n_rows, dtype=np.int64)
    outside = np.zeros(n_rows, dtype=np.int64)
    n_whole = np.zeros(n_rows, dtype=np.int64)
    whole_by_word = []
    for word in range(n_words - 1, -1, -1) if prefer_newest else range(n_words):
        popcounts = per_word[:, word]
        reached += popcounts
        whole = reached < need
        n_whole += whole
        outside += popcounts * whole
        whole_by_word.append((word, whole))
    boundary = n_words - 1 - n_whole if prefer_newest else n_whole
    # Bits still owed once every whole word is taken; resolved inside
    # the boundary word (0 <= owed <= popcount(boundary word)).
    owed = need - outside
    cells = np.arange(0, n_rows * n_words, n_words) + boundary
    flat = avail.reshape(-1)
    edge = flat.take(cells)
    if prefer_newest:
        dropped = per_word.reshape(-1).take(cells) - owed
        kept = edge ^ lowest_word_bits(edge, dropped)
    else:
        kept = lowest_word_bits(edge, owed)
    for word, whole in whole_by_word:
        avail[:, word] *= whole
    flat[cells] = kept
    selected[rows] = avail


def _truncate_word_rows_scalar(
    selected: "np.ndarray",
    available: "np.ndarray",
    counts: "np.ndarray",
    n_available: "np.ndarray",
    prefer_newest: bool,
) -> None:
    """Per-row oracle for :func:`truncate_word_rows` (parity tests).

    The original loop over arbitrary-precision row views; kept only so
    the vectorized sweep has an independently-simple reference.
    """
    take = top_bits if prefer_newest else bottom_bits
    n_words = available.shape[1]
    for row in np.flatnonzero(counts < n_available):
        count = int(counts[row])
        if count == 0:
            selected[row] = 0
        else:
            selected[row] = int_to_words(
                take(words_to_int(available[row]), count), n_words
            )


class _WordRows:
    """Int-compatible view over packed word rows.

    Exposes a ``(n_rows, n_words)`` uint64 array through a
    ``have_bits[i] -> int`` / ``have_bits[i] = int`` protocol, so every
    arbitrary-precision consumer — :class:`BitsetUpdateStore` views,
    the per-pair exchange/push planners — reads and writes one row as a
    Python int bitmask.  The hot paths bypass this view and sweep the
    underlying array directly.

    The view translates between logical bitmasks (bit 0 == window
    ``base``) and the store's physical layout, whose window floats at
    ``store.offset`` bits into each row under the ring scheme.
    """

    __slots__ = ("_words", "_n_bytes", "_store")

    def __init__(self, words: "np.ndarray", store: "WordPopulationStore") -> None:
        self._words = words
        self._n_bytes = words.shape[1] * _WORD_BYTES
        self._store = store

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, row: int) -> int:
        raw = int.from_bytes(self._words[row].tobytes(), "little")
        return raw >> self._store.offset

    def __setitem__(self, row: int, bits: int) -> None:
        self._words[row] = np.frombuffer(
            (bits << self._store.offset).to_bytes(self._n_bytes, "little"),
            dtype=np.uint64,
        )

    def __iter__(self) -> Iterable[int]:
        flat = self._words.tobytes()
        stride = self._n_bytes
        offset = self._store.offset
        for start in range(0, len(flat), stride):
            yield int.from_bytes(flat[start : start + stride], "little") >> offset


class _MissingRows:
    """Read-only int view of the derived missing rows: ``live & ~have``.

    Same ``missing_bits[i] -> int`` protocol as :class:`_WordRows`, for
    the per-node views; there is no missing buffer to write.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "WordPopulationStore") -> None:
        self._store = store

    def __getitem__(self, row: int) -> int:
        return self._store.live_bits & ~self._store.have_bits[row]


class WordPopulationStore:
    """Dense live-update state as fixed-width word rows.

    The packed population store (``ExecutionConfig.backend ==
    "words"``): column ``c`` of a row holds update ``base + c``, and
    each row is ``ceil((capacity + 63) / 64)`` 64-bit words, with the
    live window floating ``offset = base % 64`` bits into the row (the
    ring scheme of :meth:`advance_to`).  The store keeps one have row
    per node and a single shared ``live_words`` row of the announced,
    unexpired columns; a node's missing row is ``live & ~have``
    (:meth:`missing_rows`), never stored.  Every writer keeps ``have``
    inside ``live``, which the batched kernels rely on: what one node
    holds and another does not is exactly what the other misses.  The
    fixed layout is what enables whole-population numpy sweeps: window
    slide, broadcast, expiry scoring and the batched exchange/push
    phases are array operations over all rows at once.  Traces are
    bit-identical to the ``sets`` oracle.
    """

    def __init__(self, n_nodes: int, updates_per_round: int, lifetime: int) -> None:
        if n_nodes < 1:
            raise SimulationError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = n_nodes
        self.updates_per_round = updates_per_round
        self.lifetime = lifetime
        self.capacity = updates_per_round * lifetime
        self.base = 0
        self.full_mask = (1 << self.capacity) - 1
        # One slack word beyond ceil(capacity / 64): under the ring
        # scheme the live window floats up to 63 bits into the row
        # (``offset``), so a row must hold ``capacity + 63`` bits.
        self.words_per_row = (self.capacity + 2 * (WORD_BITS - 1)) // WORD_BITS
        #: Packed have rows, ``(n_nodes, words_per_row)`` uint64.
        self.have_words = np.zeros((n_nodes, self.words_per_row), dtype=np.uint64)
        #: The live (announced, unexpired) columns: one row for every node.
        self.live_words = np.zeros(self.words_per_row, dtype=np.uint64)
        #: Int-compatible row views for the per-pair planners.
        self.have_bits = _WordRows(self.have_words, self)
        self.missing_bits = _MissingRows(self)

    # -- Per-node views and int-bitmask helpers ------------------------

    def view(self, node_id: int) -> "BitsetUpdateStore":
        """The per-node :class:`UpdateStore`-compatible view."""
        return BitsetUpdateStore(self, node_id)

    @property
    def live_bits(self) -> int:
        """The live columns as a logical bitmask (bit 0 == ``base``)."""
        return words_to_int(self.live_words) >> self.offset

    def missing_rows(self, rows: "np.ndarray") -> "np.ndarray":
        """The packed missing rows of ``rows``: live columns each lacks."""
        missing = self.have_words.take(rows, axis=0)
        np.invert(missing, out=missing)
        missing &= self.live_words
        return missing

    def as_matrices(self) -> "np.ndarray":
        """The (have, missing) state as one stacked boolean array."""
        dense = np.zeros((2, self.n_nodes, self.capacity), dtype=bool)
        live = self.live_bits
        for node_id, have in enumerate(self.have_bits):
            for col in iter_bits(have):
                dense[0, node_id, col] = True
            for col in iter_bits(live & ~have):
                dense[1, node_id, col] = True
        return dense

    def col_of(self, update: int) -> int:
        """Column (bit position) holding ``update``; raises if out of window."""
        col = update - self.base
        if not 0 <= col < self.capacity:
            raise SimulationError(
                f"update {update} outside live window [{self.base}, "
                f"{self.base + self.capacity})"
            )
        return col

    def mask_of(self, updates: Iterable[int]) -> int:
        """Bitmask covering many updates (each validated)."""
        mask = 0
        for update in updates:
            mask |= 1 << self.col_of(update)
        return mask

    @property
    def offset(self) -> int:
        """Physical bit position of logical column 0 (ring scheme).

        A pure function of ``base``: update ``u`` always lives at
        physical bit ``u - WORD_BITS * (base // WORD_BITS)`` of its row.
        """
        return self.base % WORD_BITS

    def mask_words(self, mask: int) -> "np.ndarray":
        """An in-window (logical) bitmask as one packed word row."""
        return int_to_words(mask << self.offset, self.words_per_row)

    def advance_to(self, round_now: int) -> None:
        """Slide the window so round ``round_now``'s fresh ids fit.

        Ring/compaction scheme: rather than bit-shifting every word of
        every row each round, the window *floats* inside the row — bit
        0 of the buffer stays pinned to update ``64 * (base // 64)``
        and logical column 0 sits at bit ``offset``.  A slide then
        costs one masked AND over the leading word(s) to zero the
        expired columns, plus a whole-word left compaction only when
        the window crosses a 64-bit boundary (every
        ``64 / updates_per_round`` rounds at the paper config).  The
        recycled columns come back zeroed for the fresh release, and
        id order still equals bit order, which the top/bottom-k
        planners rely on.  The live row slides with the have rows.
        """
        new_base = max(0, round_now - self.lifetime + 1) * self.updates_per_round
        shift = new_base - self.base
        if shift <= 0:
            return
        if shift >= self.capacity:
            self.have_words[:] = 0
            self.live_words[:] = 0
            self.base = new_base
            return
        # Zero the expired columns: physical bits [offset, offset+shift).
        offset = self.offset
        drop = int_to_words(((1 << shift) - 1) << offset, self.words_per_row)
        last = (offset + shift - 1) // WORD_BITS
        keep = ~drop[: last + 1]
        self.have_words[:, : last + 1] &= keep
        self.live_words[: last + 1] &= keep
        # Compact away fully-expired leading words (one memmove; with
        # shift < capacity the surviving window always fits — see the
        # slack word in ``words_per_row``).
        whole = new_base // WORD_BITS - self.base // WORD_BITS
        if whole:
            n_words = self.words_per_row
            for rows in (self.have_words, self.live_words):
                rows[..., : n_words - whole] = rows[..., whole:]
                rows[..., n_words - whole :] = 0
        self.base = new_base

    def announce_fresh(self, first_col: int, count: int) -> None:
        """Make ``count`` fresh columns live: missing for every node."""
        mask = ((1 << count) - 1) << first_col
        self.live_words |= self.mask_words(mask)

    def seed(self, node_ids: Sequence[int], col) -> None:
        """Flip fresh (live) columns to held for the seeded nodes.

        ``col`` is one column for every node, or one per node: a whole
        round's seeds land in one write.  A node may be seeded several
        columns of one word, so the bits are OR-ed in unbuffered
        (``np.bitwise_or.at``), which keeps every one of them.
        """
        rows = np.asarray(node_ids, dtype=np.intp)
        word, bit = np.divmod(np.asarray(col, dtype=np.intp) + self.offset, WORD_BITS)
        np.bitwise_or.at(
            self.have_words, (rows, word), np.left_shift(_ONE, bit.astype(np.uint64))
        )

    def clear_mask(self, mask: int) -> None:
        """Expire the masked columns for every node (end-of-life)."""
        keep = ~self.mask_words(mask)
        self.have_words &= keep
        self.live_words &= keep

    def masked_have_popcounts(self, mask: int) -> "np.ndarray":
        """Per-node count of held updates under ``mask`` (expiry scoring)."""
        return word_popcounts(self.have_words & self.mask_words(mask))

    def memory_breakdown(self) -> Dict[str, int]:
        """Exact bytes of the packed rows: the have matrix plus the live row.

        The budget is the scaling headline: bytes here grow linearly
        with ``n_nodes`` and are independent of run length.
        """
        return {
            "word_row_bytes": (self.n_nodes + 1) * self.words_per_row * _WORD_BYTES
        }


@dataclass
class UpdateLedger:
    """Global live-update bookkeeping.

    Attributes
    ----------
    updates_per_round:
        Copied from the configuration; fixes the id arithmetic.
    lifetime:
        Rounds each update stays live.
    live:
        Ids of all currently live updates.
    expiring:
        ``expiring[r]`` lists the updates that expire at the end of
        round ``r``.
    """

    updates_per_round: int
    lifetime: int
    live: Set[int] = field(default_factory=set)
    expiring: Dict[int, List[int]] = field(default_factory=dict)

    def release(self, round_now: int) -> List[int]:
        """Create this round's fresh updates; returns their ids."""
        fresh = [
            update_id(round_now, index, self.updates_per_round)
            for index in range(self.updates_per_round)
        ]
        self.live.update(fresh)
        expiry_round = round_now + self.lifetime - 1
        self.expiring.setdefault(expiry_round, []).extend(fresh)
        return fresh

    def expire_due(self, round_now: int) -> List[int]:
        """Remove and return the updates expiring at end of ``round_now``."""
        due = self.expiring.pop(round_now, [])
        for update in due:
            if update not in self.live:
                raise SimulationError(f"update {update} expired twice")
            self.live.discard(update)
        return due

    @property
    def live_count(self) -> int:
        """Number of currently live updates."""
        return len(self.live)
