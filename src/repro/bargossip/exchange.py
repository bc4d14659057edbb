"""The balanced-exchange sub-protocol.

"In a balanced exchange, nodes exchange as many updates as possible on
a one-for-one basis."  Each side can only receive updates the other
holds and it misses; the transfer count each way is the minimum of the
two availabilities, further bounded by the per-exchange bandwidth cap.

Satiation-compatibility is *emergent* here, exactly as the paper
describes: a node that is missing nothing has nothing to trade for, so
the one-for-one rule makes the exchange size zero — the satiated node
provides no service without ever "refusing".

The Figure 3 defense relaxes strict balance: "nodes are willing to
give one more update than they receive, assuming they are receiving at
least one update."  :func:`plan_balanced_exchange` implements both
rules behind one flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from .updates import (
    UpdateStore,
    WordPopulationStore,
    bottom_bits,
    popcount,
    top_bits,
    truncate_word_rows,
    word_popcounts,
)

__all__ = [
    "ExchangePlan",
    "plan_balanced_exchange",
    "apply_exchange",
    "bitset_exchange",
    "batched_word_exchange",
    "batched_word_dump",
    "exchange_dump_limits",
]


@dataclass(frozen=True)
class ExchangePlan:
    """The outcome of negotiating one balanced exchange.

    ``to_initiator`` and ``to_responder`` are the update id lists each
    side will receive, in selection-priority order (see
    :func:`_select`): newest (highest id) first under the default
    ``prefer_newest=True``, oldest first otherwise.
    """

    to_initiator: Tuple[int, ...]
    to_responder: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Total updates moved in both directions."""
        return len(self.to_initiator) + len(self.to_responder)

    @property
    def imbalance(self) -> int:
        """Absolute difference between the two directions' counts."""
        return abs(len(self.to_initiator) - len(self.to_responder))


def _select(updates: List[int], count: int, prefer_newest: bool) -> Tuple[int, ...]:
    """Pick ``count`` updates by the configured priority.

    The returned tuple is in priority order — the most-preferred
    update first.  Newest-first (descending id) is the default and the
    rational choice: freshly released updates are the scarcest and
    hence the best future trade currency (the gossip analogue of
    BitTorrent's rarest-first), and near-expiry stragglers have a
    dedicated recovery channel in the optimistic push.  Oldest-first
    (ascending id, pure urgency order) is kept for ablations.
    """
    updates.sort(reverse=prefer_newest)
    return tuple(updates[:count])


def plan_balanced_exchange(
    initiator: UpdateStore,
    responder: UpdateStore,
    cap: int,
    unbalanced: bool = False,
    prefer_newest: bool = True,
) -> ExchangePlan:
    """Negotiate one balanced exchange between two correct nodes.

    Parameters
    ----------
    initiator, responder:
        The two nodes' live-update stores.
    cap:
        Per-direction bandwidth cap (updates).
    unbalanced:
        When True, apply the Figure 3 defense: each side may give one
        update more than it receives, provided it receives at least
        one; the cap rises to ``cap + 1`` for the extra update.
    prefer_newest:
        Selection priority when availability exceeds the transfer
        count; see :func:`_select`.

    Returns
    -------
    ExchangePlan
        Possibly empty (size 0) when either side has nothing the other
        needs — in particular whenever either side is satiated.
    """
    if cap <= 0:
        raise ConfigurationError(f"cap must be positive, got {cap}")
    available_to_initiator = list(responder.have & initiator.missing)
    available_to_responder = list(initiator.have & responder.missing)
    base = min(len(available_to_initiator), len(available_to_responder), cap)
    if base == 0:
        return ExchangePlan(to_initiator=(), to_responder=())
    if unbalanced:
        count_initiator = min(len(available_to_initiator), base + 1, cap + 1)
        count_responder = min(len(available_to_responder), base + 1, cap + 1)
    else:
        count_initiator = base
        count_responder = base
    return ExchangePlan(
        to_initiator=_select(available_to_initiator, count_initiator, prefer_newest),
        to_responder=_select(available_to_responder, count_responder, prefer_newest),
    )


def apply_exchange(
    initiator: UpdateStore, responder: UpdateStore, plan: ExchangePlan
) -> Tuple[int, int]:
    """Apply a negotiated exchange to both stores.

    Returns the number of *new* updates each side actually gained
    (which equals the plan sizes unless a store was mutated between
    planning and applying; the simulator never does that).
    """
    gained_initiator = initiator.receive_all(plan.to_initiator)
    gained_responder = responder.receive_all(plan.to_responder)
    return gained_initiator, gained_responder


def bitset_exchange(
    pool: WordPopulationStore,
    initiator: int,
    responder: int,
    cap: int,
    unbalanced: bool = False,
    prefer_newest: bool = True,
) -> Tuple[int, int]:
    """Fused plan + apply of one balanced exchange on packed int rows.

    Selects exactly the update ids :func:`plan_balanced_exchange` would
    (availability is the same set intersection, expressed as a packed
    row AND, and id order equals bit order), applies them in place, and
    returns ``(to_initiator_count, to_responder_count)``.  Fusing the
    two steps skips materializing id tuples — the simulator only needs
    the transfer counts for its service counters.  Every have row lies
    inside the live row, so what one end holds and the other lacks is
    exactly what the other misses.
    """
    have = pool.have_bits
    have_initiator = have[initiator]
    have_responder = have[responder]
    available_to_initiator = have_responder & ~have_initiator
    available_to_responder = have_initiator & ~have_responder
    if not available_to_initiator or not available_to_responder:
        return 0, 0
    n_initiator = popcount(available_to_initiator)
    n_responder = popcount(available_to_responder)
    base = min(n_initiator, n_responder, cap)
    if unbalanced:
        count_initiator = min(n_initiator, base + 1, cap + 1)
        count_responder = min(n_responder, base + 1, cap + 1)
    else:
        count_initiator = base
        count_responder = base
    take = top_bits if prefer_newest else bottom_bits
    selected_initiator = (
        available_to_initiator
        if count_initiator == n_initiator
        else take(available_to_initiator, count_initiator)
    )
    selected_responder = (
        available_to_responder
        if count_responder == n_responder
        else take(available_to_responder, count_responder)
    )
    have[initiator] = have_initiator | selected_initiator
    have[responder] = have_responder | selected_responder
    return count_initiator, count_responder


def batched_word_exchange(
    pool: WordPopulationStore,
    initiators: Sequence[int],
    responders: Sequence[int],
    cap: int,
    unbalanced: bool = False,
    prefer_newest: bool = True,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Many balanced exchanges in one word-array sweep.

    ``initiators[i]`` exchanges with ``responders[i]``; the pairs must
    be node-disjoint (the islands of a cell pass, or the pairs of one
    dependency wave, guarantee it), which is what makes the
    gather/scatter below safe.  Each pair's plan and application are
    exactly those of :func:`bitset_exchange`, so the trace is
    bit-identical — the sweep only replaces the per-pair Python
    dispatch with whole-phase numpy batches.

    Both directions run stacked: row ``i`` of the stack is what
    ``initiators[i]`` receives and row ``n + i`` what
    ``responders[i]`` receives (each row once, the pairs being
    node-disjoint), so the popcounts, the capped truncation and the
    write-back run once over both directions.  Both directions select
    from the pre-exchange rows, so stacking them is exact.

    Each end's have row is gathered once.  Every have row lies inside
    the store's live row, so a side's availability — the peer's have
    AND its own missing (``live & ~have``) — is the peer's have minus
    its own: the columns where the two rows differ, split by which end
    holds them.  No live-row AND is needed.

    The counts are planned over every pair, but only the pairs that
    move something (a positive count, hence a positive count both ways)
    are truncated and written back.  That is exact: a pair that moves
    nothing would write ``have | 0``, i.e. its rows unchanged.  Under
    the lotus-eater attack most pairs are such no-ops — a satiated node
    has nothing left to trade for.

    Returns the per-pair ``(to_initiator, to_responder)`` transfer
    counts.
    """
    if cap <= 0:
        raise ConfigurationError(f"cap must be positive, got {cap}")
    rows_i = np.asarray(initiators, dtype=np.intp)
    rows_r = np.asarray(responders, dtype=np.intp)
    n = len(rows_i)
    have = pool.have_words
    ends = np.concatenate((rows_i, rows_r))
    available = have.take(ends, axis=0)
    differ = available[:n] ^ available[n:]
    # Rows [:n] become what the initiators lack, then rows [n:] what
    # the responders lack: the two halves of ``differ``.
    np.bitwise_and(differ, available[n:], out=available[:n])
    np.bitwise_xor(differ, available[:n], out=available[n:])
    n_available = word_popcounts(available)
    base = np.minimum(np.minimum(n_available[:n], n_available[n:]), cap)
    both = np.concatenate((base, base))
    if unbalanced:
        counts = np.minimum(np.minimum(n_available, both + 1), cap + 1)
        counts[both == 0] = 0
    else:
        counts = both
    moving = base.nonzero()[0]
    if len(moving):
        moving = np.concatenate((moving, moving + n))
        selected = available.take(moving, axis=0)
        truncate_word_rows(
            selected, selected,
            counts.take(moving), n_available.take(moving), prefer_newest,
        )
        movers = ends.take(moving)
        have[movers] |= selected
    return counts[:n], counts[n:]


def exchange_dump_limits(
    config, obedient: "np.ndarray", capacity: int
) -> "np.ndarray":
    """Per-receiver cap on an attacker dump through the exchange channel.

    The exchange channel itself is uncapped (the coalition "dumps" the
    pooled haves, Section 5's lotus-eater move), so the limit is the
    window capacity — effectively unlimited — unless the Figure 3
    ``accept_cap`` defense applies, which only obedient receivers
    honor.
    """
    limits = np.full(len(obedient), capacity, dtype=np.int64)
    if config.accept_cap is not None:
        limits[obedient] = config.accept_cap
    return limits


def batched_word_dump(
    pool: WordPopulationStore,
    pool_words: "np.ndarray",
    receivers: "np.ndarray",
    limits: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Many attacker dumps in one masked word sweep.

    ``pool_words`` is the coalition's pooled-have row (one packed row
    covering every update any coalition member holds); each receiver
    gains the oldest ``limits[k]`` of the pooled updates it is missing
    — the exact ascending-id prefix
    :meth:`~repro.bargossip.attacker.AttackerCoalition.dump_for`
    selects per node.  Receivers must be pairwise distinct within one
    call (a cell pass's islands and a dependency wave's pairs are
    node-disjoint), which makes the scatter write-back exact.  Only
    receivers with a positive count are truncated and written back; a
    zero count would leave the rows unchanged.

    Returns ``(counts, selected)``: the per-receiver transfer count,
    and the selected word rows of the receivers that gain (``counts >
    0``), in receiver order — the report path materializes id tuples
    only for the few of those the reporting policy flags.
    """
    selected = pool.missing_rows(receivers)
    selected &= pool_words
    n_give = word_popcounts(selected)
    counts = np.minimum(n_give, limits)
    moving = counts.nonzero()[0]
    selected = selected.take(moving, axis=0)
    truncate_word_rows(
        selected, selected, counts.take(moving), n_give.take(moving),
        prefer_newest=False,
    )
    movers = receivers.take(moving)
    pool.have_words[movers] |= selected
    return counts, selected
