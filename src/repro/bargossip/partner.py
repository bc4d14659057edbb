"""Verifiable pseudorandom partner selection.

In BAR Gossip every node initiates each of the two sub-protocols
(balanced exchange, optimistic push) at most once per round "with a
pseudorandomly chosen partner (nodes have no control over who their
partner will be)".  The real protocol derives the partner from a
signed, verifiable PRNG seed; what the attack analysis needs from that
construction is only that

* partner choice is uniform over the other nodes, and
* no node — attacker included — can bias its own draws.

We model this with a central deterministic schedule: partners for all
(round, initiator, purpose) triples are drawn from a dedicated named
RNG stream in a fixed order, so the schedule is a pure function of the
root seed and no strategy can influence it.

Two schedules implement the contract:

* :class:`PartnerSchedule` — the reference construction: each
  initiator's partner is an independent uniform draw over the other
  nodes (a node may be chosen by several initiators in one round).
* :class:`~repro.bargossip.sharding.ShardedPartnerSchedule` — the
  4-node-cell pairing, a different partner model whose pairs are
  node-disjoint within each round.  It lives in ``sharding.py`` but
  shares the sliding-window semantics via :class:`RoundWindowSchedule`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

import numpy as np

from ..core.errors import ConfigurationError

__all__ = [
    "Purpose",
    "RoundWindowSchedule",
    "PartnerSchedule",
    "dependency_plan",
    "dependency_waves",
]


class Purpose(enum.Enum):
    """Which sub-protocol an initiation belongs to."""

    EXCHANGE = "exchange"
    PUSH = "push"


class RoundWindowSchedule:
    """Shared sliding-window bookkeeping for partner schedules.

    Draws are materialized round by round in ascending order and only a
    one-round look-back window is retained, so long runs stay O(1)
    memory.  The contract every subclass must preserve (pinned by the
    schedule test suites):

    * querying any (initiator, purpose) of a round is allowed in any
      order without affecting determinism;
    * after querying round ``r``, round ``r - 1`` is still available;
    * round ``r - 2`` and older raise :class:`ConfigurationError`;
    * :meth:`partners_for_round` returns exactly the array repeated
      :meth:`partner_of` calls would observe.

    Parameters
    ----------
    n_nodes:
        Population size; partners are drawn over the other
        ``n_nodes - 1`` nodes.
    rng:
        The dedicated generator partner draws consume.  Nothing else
        may draw from it, which keeps the schedule reproducible
        independent of other simulation randomness.
    """

    def __init__(self, n_nodes: int, rng: np.random.Generator) -> None:
        if n_nodes < 2:
            raise ConfigurationError(f"need at least 2 nodes, got {n_nodes}")
        self._n_nodes = n_nodes
        self._rng = rng
        self._cache: Dict[Tuple[int, Purpose], np.ndarray] = {}
        self._next_round_to_draw = 0

    @property
    def n_nodes(self) -> int:
        """Population size the schedule was built for."""
        return self._n_nodes

    def partner_of(self, round_now: int, initiator: int, purpose: Purpose) -> int:
        """The partner assigned to ``initiator`` for ``purpose`` in ``round_now``.

        Draws are materialized round by round in ascending order, so
        querying any (initiator, purpose) of a round is allowed in any
        order without affecting determinism.  Rounds must be consumed
        in non-decreasing order (no querying the past after advancing).
        """
        if not 0 <= initiator < self._n_nodes:
            raise ConfigurationError(
                f"initiator {initiator} out of range for {self._n_nodes} nodes"
            )
        return int(self.partners_for_round(round_now, purpose)[initiator])

    def partners_for_round(self, round_now: int, purpose: Purpose) -> np.ndarray:
        """All initiators' partners for one (round, purpose) at once.

        The hot round loop indexes this array directly instead of
        paying a dict lookup per initiator; the draws (and hence the
        schedule) are identical to repeated :meth:`partner_of` calls.
        The returned array is the schedule's own cache entry — treat it
        as read-only.
        """
        key = (round_now, purpose)
        if key not in self._cache:
            self._materialize_through(round_now)
        return self._cache[key]

    def _materialize_through(self, round_now: int) -> None:
        if round_now < self._next_round_to_draw - 1:
            raise ConfigurationError(
                f"round {round_now} precedes already-discarded draws"
            )
        while self._next_round_to_draw <= round_now:
            self._draw_round_entries(self._next_round_to_draw)
            self._next_round_to_draw += 1
        # Keep only a small sliding window so long runs stay O(1) memory.
        self._discard_before(round_now - 1)

    def _discard_before(self, cutoff_round: int) -> None:
        """Drop cached draws of rounds before ``cutoff_round``."""
        stale = [key for key in self._cache if key[0] < cutoff_round]
        for key in stale:
            del self._cache[key]

    def _draw_round_entries(self, round_now: int) -> None:
        """Fill the cache for one round (both purposes).  Subclass hook."""
        raise NotImplementedError


class PartnerSchedule(RoundWindowSchedule):
    """Deterministic per-round partner assignments for all nodes.

    The reference construction: one independent uniform draw per
    (round, initiator, purpose), avoiding self-selection.  A node may
    be the partner of several initiators in the same round.
    """

    def _draw_round_entries(self, round_now: int) -> None:
        for purpose in (Purpose.EXCHANGE, Purpose.PUSH):
            self._cache[(round_now, purpose)] = self._draw_round()

    def _draw_round(self) -> np.ndarray:
        """Uniform partners for all initiators, avoiding self-selection.

        Each initiator's partner is uniform over the other nodes: we
        draw from ``[0, n-2]`` and shift values at or above the
        initiator's own id up by one.
        """
        draws = self._rng.integers(0, self._n_nodes - 1, size=self._n_nodes)
        initiators = np.arange(self._n_nodes)
        return np.where(draws >= initiators, draws + 1, draws)


def dependency_plan(initiators, partners, mixed=None) -> Tuple[np.ndarray, np.ndarray]:
    """Cut an ordered list of directed interactions into dependency waves.

    Interaction ``k`` is ``initiators[k] -> partners[k]``, in schedule
    order; a self entry (``initiators[k] == partners[k]``) is an
    unpaired node and joins no wave.  Each interaction lands in the
    earliest wave after every earlier interaction that shares a node
    with it: ``wave = max(last[a], last[b])``, then
    ``last[a] = last[b] = wave + 1``.  So a wave's interactions are
    node-disjoint, and running the waves in order (each one in
    schedule order) is a linear extension of the sequential
    schedule's dependency order, hence the same trace whenever an
    interaction only touches its two nodes' state.

    ``mixed`` (one flag per interaction, default all False) splits
    each wave in two parts, unflagged first.  Returns ``(order,
    bounds)``: ``order`` lists the non-self interactions stably sorted
    by (wave, flag), so each part keeps schedule order, and part
    ``2 * w + flag`` of wave ``w`` is ``order[bounds[2 * w] :
    bounds[2 * w + 1]]`` (unflagged) and ``order[bounds[2 * w + 1] :
    bounds[2 * w + 2]]`` (flagged).  The peel is one plain pass over
    the list.
    """
    initiators = np.asarray(initiators, dtype=np.intp)
    partners = np.asarray(partners, dtype=np.intp)
    last = [0] * (int(max(initiators.max(initial=0), partners.max(initial=0))) + 1)
    levels = []
    for a, b in zip(initiators.tolist(), partners.tolist()):
        if a == b:
            levels.append(-1)
            continue
        wave = last[a] if last[a] >= last[b] else last[b]
        last[a] = last[b] = wave + 1
        levels.append(wave)
    keys = np.asarray(levels, dtype=np.intp) * 2
    if mixed is not None:
        keys += mixed
    # A stable sort keeps schedule order inside each part; the negative
    # (self) keys sort to the front and are dropped.
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(keys[keys >= 0], minlength=2 * max(last, default=0))
    order = order[len(keys) - int(sizes.sum()) :]
    return order, np.concatenate(([0], np.cumsum(sizes)))


def dependency_waves(initiators, partners) -> List[np.ndarray]:
    """The waves of :func:`dependency_plan`, one ascending index array each.

    Returns one array of indices into the inputs per wave (none for an
    empty or all-self list).
    """
    order, bounds = dependency_plan(initiators, partners)
    return [order[lo:hi] for lo, hi in zip(bounds[:-1:2], bounds[2::2])]
