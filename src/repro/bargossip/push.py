"""The optimistic-push sub-protocol.

"In an optimistic push, the node initiating the push sends a list of
recently released updates it has to offer and a list of updates
expiring relatively soon it needs.  The other node can then receive a
limited number of the recent updates in exchange for older updates or
junk data."

Mechanics implemented here:

* the initiator offers its *recent* updates (created within
  ``push_recent_window`` rounds);
* the responder takes up to ``push_size`` offers it is missing;
* the responder pays with the same number of units: *old* updates the
  initiator asked for where it has them, junk data for the remainder
  (the junk is the "nonproductive work" of Section 4 that stops the
  push from being a pure free ride);
* if the responder needs none of the offers, the push transfers
  nothing — a fully satiated responder gains nothing and (rationally)
  declines, which is again satiation-compatibility emerging from the
  rules.

Whether a node *initiates* a push is a behaviour decision made in
``node.py``: rational nodes push only when they are missing old
updates ("if a node has no missing older updates, he has nothing to
gain by initiating an optimistic push and a rational node will not"),
obedient nodes push whenever they have something to offer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .config import GossipConfig
from .updates import (
    UpdateStore,
    WordPopulationStore,
    bottom_bits,
    popcount,
    truncate_word_rows,
    word_popcounts,
    word_rows_any,
)

__all__ = [
    "PushPlan",
    "plan_optimistic_push",
    "apply_push",
    "BitsetPushPlan",
    "bitset_plan_push",
    "bitset_apply_push",
    "push_window_words",
    "batched_push_eligibility",
    "batched_word_push",
    "push_dump_limits",
]


@dataclass(frozen=True)
class PushPlan:
    """The outcome of negotiating one optimistic push.

    Attributes
    ----------
    to_responder:
        Recent updates flowing initiator -> responder (the "push").
    to_initiator:
        Old needed updates flowing responder -> initiator.
    junk_units:
        Junk payloads the responder uploads to keep its payment equal
        to what it received.
    """

    to_responder: Tuple[int, ...]
    to_initiator: Tuple[int, ...]
    junk_units: int

    @property
    def size(self) -> int:
        """Useful updates moved in both directions."""
        return len(self.to_responder) + len(self.to_initiator)

    @property
    def happened(self) -> bool:
        """Whether the push transferred anything at all."""
        return bool(self.to_responder)


def plan_optimistic_push(
    initiator: UpdateStore,
    responder: UpdateStore,
    config: GossipConfig,
    round_now: int,
) -> PushPlan:
    """Negotiate one optimistic push between two correct nodes.

    The responder's payment is capped at what it received, so the
    initiator risks giving ``push_size`` recent updates for junk — the
    optimism that gives the sub-protocol its name, and the altruism
    channel the Figure 2 defense widens by raising ``push_size``.
    """
    recent_cutoff = round_now - config.push_recent_window + 1
    old_cutoff = round_now - config.push_age_threshold + 1
    offers = initiator.have_newer_than(recent_cutoff, config.updates_per_round)
    wanted_by_responder = [u for u in offers if u in responder.missing]
    to_responder = tuple(sorted(wanted_by_responder)[: config.push_size])
    if not to_responder:
        return PushPlan(to_responder=(), to_initiator=(), junk_units=0)
    requests = initiator.missing_older_than(old_cutoff, config.updates_per_round)
    payable = [u for u in requests if u in responder.have]
    to_initiator = tuple(payable[: len(to_responder)])
    junk_units = len(to_responder) - len(to_initiator)
    return PushPlan(
        to_responder=to_responder, to_initiator=to_initiator, junk_units=junk_units
    )


def apply_push(
    initiator: UpdateStore, responder: UpdateStore, plan: PushPlan
) -> Tuple[int, int]:
    """Apply a negotiated push; returns (initiator_gained, responder_gained)."""
    gained_responder = responder.receive_all(plan.to_responder)
    gained_initiator = initiator.receive_all(plan.to_initiator)
    return gained_initiator, gained_responder


class BitsetPushPlan:
    """A negotiated push on packed int rows, as bit masks.

    Planning and applying stay separate (unlike the fused exchange)
    because the responder's accept/decline decision sits between them;
    carrying masks instead of ids avoids any id materialization.
    """

    __slots__ = ("to_responder_mask", "to_initiator_mask", "responder_count", "initiator_count")

    def __init__(self, to_responder_mask: int, to_initiator_mask: int) -> None:
        self.to_responder_mask = to_responder_mask
        self.to_initiator_mask = to_initiator_mask
        self.responder_count = popcount(to_responder_mask)
        self.initiator_count = popcount(to_initiator_mask)

    @property
    def junk_units(self) -> int:
        return self.responder_count - self.initiator_count


_EMPTY_BITSET_PUSH = BitsetPushPlan(0, 0)


def _recent_offer_mask(pool, config: GossipConfig, round_now: int) -> int:
    """Columns offerable in a push (created within the recent window)."""
    u = pool.updates_per_round
    recent_lo = max(0, (round_now - config.push_recent_window + 1) * u - pool.base)
    return pool.full_mask >> recent_lo << recent_lo


def _old_need_mask(pool, config: GossipConfig, round_now: int) -> int:
    """Columns "expiring relatively soon" (before the age cutoff)."""
    u = pool.updates_per_round
    old_hi = max(0, (round_now - config.push_age_threshold + 1) * u - pool.base)
    return (1 << old_hi) - 1


def push_window_words(
    pool: WordPopulationStore, config: GossipConfig, round_now: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """This round's ``(recent, old)`` push-window columns as packed word rows.

    Built from the same two helpers the per-pair planner uses, so the
    batched word sweeps can never disagree with it on the windows.
    They hold while the window stands still, so a phase builds them
    once and hands them to every sweep.
    """
    return (
        pool.mask_words(_recent_offer_mask(pool, config, round_now)),
        pool.mask_words(_old_need_mask(pool, config, round_now)),
    )


def batched_push_eligibility(
    pool: WordPopulationStore,
    rows: "np.ndarray",
    obedient: "np.ndarray",
    windows: Tuple["np.ndarray", "np.ndarray"],
) -> "np.ndarray":
    """Which of ``rows`` would initiate an optimistic push, as one sweep.

    The vectorized ``GossipNode.wants_to_push`` over the word store:
    every node pushes when it misses an update old enough to be
    "expiring relatively soon"; an obedient node (per the ``obedient``
    mask, aligned with ``rows``) additionally pushes when it holds a
    recently released offer.  Callers pre-filter attackers and evicted
    nodes, exactly as the per-pair path's early returns do.
    ``windows`` is the round's :func:`push_window_words`, so the
    cutoffs are the per-pair planner's.
    """
    recent_words, old_words = windows
    held = pool.have_words.take(rows, axis=0)
    # A have row lies inside the live row, so a node misses an old
    # update exactly when its old held columns differ from the old live.
    old_held = held & old_words
    old_held ^= pool.live_words & old_words
    wants = word_rows_any(old_held)
    if obedient.any():
        held &= recent_words
        wants |= obedient & word_rows_any(held)
    return wants


def bitset_plan_push(
    pool: WordPopulationStore,
    initiator: int,
    responder: int,
    config: GossipConfig,
    round_now: int,
) -> BitsetPushPlan:
    """Negotiate one optimistic push on packed int rows.

    Selects exactly the ids :func:`plan_optimistic_push` would: the
    responder takes the ``push_size`` *oldest* wanted offers (the sets
    planner sorts the wanted offers ascending before truncating), and
    pays with the oldest payable requests.  The old-needs mask is only
    built once an offer survives — the common empty-offer case stays
    one mask allocation.
    """
    recent_mask = _recent_offer_mask(pool, config, round_now)
    have_initiator = pool.have_bits[initiator]
    have_responder = pool.have_bits[responder]
    # Have rows lie inside the live row: what one end holds and the
    # other lacks is exactly what the other misses.
    wanted = have_initiator & ~have_responder & recent_mask
    if not wanted:
        return _EMPTY_BITSET_PUSH
    to_responder = bottom_bits(wanted, config.push_size)
    if not to_responder:
        return _EMPTY_BITSET_PUSH
    old_mask = _old_need_mask(pool, config, round_now)
    payable = have_responder & ~have_initiator & old_mask
    to_initiator = bottom_bits(payable, popcount(to_responder))
    return BitsetPushPlan(to_responder, to_initiator)


def bitset_apply_push(
    pool: WordPopulationStore, initiator: int, responder: int, plan: BitsetPushPlan
) -> None:
    """Apply a negotiated packed push in place."""
    pool.have_bits[responder] |= plan.to_responder_mask
    pool.have_bits[initiator] |= plan.to_initiator_mask


def batched_word_push(
    pool: WordPopulationStore,
    initiators: Sequence[int],
    responders: Sequence[int],
    config: GossipConfig,
    windows: Tuple["np.ndarray", "np.ndarray"],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Many optimistic pushes in one word-array sweep.

    ``initiators[i]`` pushes to ``responders[i]``; pairs must be
    node-disjoint (the islands of a cell pass, or the pairs of one
    dependency wave) and pre-filtered to willing initiators and
    correct, non-evicted responders — the behaviour decisions stay
    with the caller, exactly where the per-pair path makes them.  Each
    pair's plan equals :func:`bitset_plan_push` and a responder
    accepts iff it gains at least one update, so applying here
    (transfers for pairs with a positive responder count) is the
    per-pair plan → accept → apply sequence, batched.

    Only the offers are sized over every pair.  The payment, the
    truncation and the write-back run on the accepted pairs alone: a
    declined push moves nothing either way (its payment is capped at
    the zero it received), so skipping its rows is exact.  The payment
    count depends only on the responder's count, never on which offer
    bits are kept, so both offers are sized first and truncated in one
    stacked call: row ``k`` is what the ``k``-th accepting responder
    receives, row ``m + k`` what its initiator receives.

    ``windows`` is the round's :func:`push_window_words`.  Returns the
    per-pair ``(to_responder, to_initiator)`` counts; the junk payment
    is their difference.
    """
    rows_i = np.asarray(initiators, dtype=np.intp)
    rows_r = np.asarray(responders, dtype=np.intp)
    recent_words, old_words = windows
    have = pool.have_words
    # Each end's have row, gathered once; have rows lie inside the live
    # row, so the columns where the two differ split into what the
    # responder misses (held by the initiator) and what the initiator
    # misses (held by the responder).
    to_responder = have.take(rows_i, axis=0)
    payable = have.take(rows_r, axis=0)
    payable ^= to_responder
    to_responder &= payable
    payable ^= to_responder
    to_responder &= recent_words
    n_wanted = word_popcounts(to_responder)
    responder_counts = np.minimum(n_wanted, config.push_size)
    initiator_counts = np.zeros_like(responder_counts)
    moving = responder_counts.nonzero()[0]
    if not len(moving):
        return responder_counts, initiator_counts
    m = len(moving)
    # Both ends of every accepted push, responders first.
    ends = np.concatenate((rows_r.take(moving), rows_i.take(moving)))
    selected = np.empty((2 * m, have.shape[1]), dtype=have.dtype)
    to_responder.take(moving, axis=0, out=selected[:m])
    to_initiator = selected[m:]
    payable.take(moving, axis=0, out=to_initiator)
    to_initiator &= old_words
    n_payable = word_popcounts(to_initiator)
    offered = responder_counts.take(moving)
    paid = np.minimum(n_payable, offered)
    initiator_counts[moving] = paid
    truncate_word_rows(
        selected, selected,
        np.concatenate((offered, paid)),
        np.concatenate((n_wanted.take(moving), n_payable)),
        prefer_newest=False,
    )
    have[ends] |= selected
    return responder_counts, initiator_counts


def push_dump_limits(config: GossipConfig, obedient: "np.ndarray") -> "np.ndarray":
    """Per-receiver cap on an attacker dump through the push channel.

    A dump riding the push channel is capped at ``push_size`` like any
    push payload; the Figure 3 ``accept_cap`` defense tightens that
    further for obedient receivers.  Mirrors the per-pair limit
    arithmetic of ``InteractionEngine.attacker_dump``.
    """
    limits = np.full(len(obedient), config.push_size, dtype=np.int64)
    if config.accept_cap is not None:
        limits[obedient] = min(config.push_size, config.accept_cap)
    return limits
