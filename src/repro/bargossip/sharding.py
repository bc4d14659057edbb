"""The 4-node-cell partner pairing (``ExecutionConfig(shards=1)``).

The paper's :class:`~repro.bargossip.partner.PartnerSchedule` draws
each initiator's partner independently, so a node can serve several
initiators in one round and interactions chain through shared state.
:class:`ShardedPartnerSchedule` is a different partner model that
removes the chaining at the schedule level: each round draws one
seeded permutation of the population (a pure function of the root
seed — no node can bias its own draws), consecutive positions form
*cells* of four nodes, and both sub-protocols pair nodes within their
cell (exchange pairs ``(0,1)/(2,3)``, push pairs ``(0,2)/(1,3)``).
Every interaction of a round therefore touches exactly one cell, so
each phase's pairs are one node-disjoint wave: the words backend runs
it through ``InteractionEngine.run_phase`` in both directions, with no
dependency peel.  The per-round permutation keeps each node's
partner distribution uniform over the other nodes across rounds.

Results differ from the paper's schedule, which is why the cache
fingerprints the choice as ``pairing``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .partner import Purpose, RoundWindowSchedule

__all__ = [
    "CELL_SIZE",
    "cell_exchange_pairs",
    "cell_push_pairs",
    "ShardedPartnerSchedule",
]

#: Nodes per cell of the round permutation.  Four is the smallest cell
#: granting every node distinct exchange and push partners.
CELL_SIZE = 4

Cell = Tuple[int, ...]


def cell_exchange_pairs(cell: Cell) -> List[Tuple[int, int]]:
    """Balanced-exchange pairs within one cell (positions 0-1, 2-3).

    Tail cells shorter than :data:`CELL_SIZE` pair what they can; a
    lone unpaired node sits the phase out (its schedule entry points
    at itself and the round executor skips it).
    """
    return [
        (cell[index], cell[index + 1]) for index in range(0, len(cell) - 1, 2)
    ]


def cell_push_pairs(cell: Cell) -> List[Tuple[int, int]]:
    """Optimistic-push pairs within one cell (positions 0-2, 1-3).

    Full cells cross the exchange pairing so every node sees two
    distinct partners per round.  A 3-node tail pairs positions 0-2
    (1 sits out); a 2-node tail reuses its exchange pair — the one
    degenerate case where both purposes share a partner.
    """
    if len(cell) >= CELL_SIZE:
        return [(cell[0], cell[2]), (cell[1], cell[3])]
    if len(cell) == 3:
        return [(cell[0], cell[2])]
    if len(cell) == 2:
        return [(cell[0], cell[1])]
    return []


class ShardedPartnerSchedule(RoundWindowSchedule):
    """Permutation-pairing partner schedule: node-disjoint 4-node cells.

    Satisfies the :class:`~repro.bargossip.partner.RoundWindowSchedule`
    contract (same sliding window, same ``partner_of`` /
    ``partners_for_round`` semantics) while guaranteeing that each
    round's interaction graph decomposes into independent cells.  A
    node left unpaired for a purpose (the tail of a population not
    divisible by :data:`CELL_SIZE`) maps to itself; the executor skips
    such entries.
    """

    def __init__(self, n_nodes: int, rng: np.random.Generator) -> None:
        super().__init__(n_nodes, rng)
        self._cells: Dict[int, Tuple[Cell, ...]] = {}
        self._perms: Dict[int, np.ndarray] = {}

    def _perm_for_round(self, round_now: int) -> np.ndarray:
        """The round's raw permutation draw (window-checked)."""
        if round_now not in self._perms:
            self._materialize_through(round_now)
        return self._perms[round_now]

    def cells_for_round(self, round_now: int) -> Tuple[Cell, ...]:
        """The round's cells (tuples of node ids, permutation order).

        Built lazily from the raw permutation: the batched words path
        consumes :meth:`round_pairs` instead, so the O(n) Python tuple
        materialization only runs for the per-pair executors.
        """
        if round_now not in self._cells:
            permutation = self._perm_for_round(round_now).tolist()
            self._cells[round_now] = tuple(
                tuple(permutation[start : start + CELL_SIZE])
                for start in range(0, self._n_nodes, CELL_SIZE)
            )
        return self._cells[round_now]

    def round_pairs(self, round_now: int, purpose: Purpose) -> np.ndarray:
        """The round's interaction pairs for one purpose, as an (m, 2) array.

        Cells are contiguous ``CELL_SIZE`` blocks of the permutation, so
        the per-cell pairings of :func:`cell_exchange_pairs` /
        :func:`cell_push_pairs` are strided slices of the raw draw — no
        Python cell walk.  Pair *order* differs from the flattened cell
        walk (pushes list every cell's first pair before the second),
        which cannot change the trace: islands are node-disjoint, so
        any order within a directed pass applies the same per-island
        sequence.
        """
        perm = self._perm_for_round(round_now)
        n = self._n_nodes
        if purpose is Purpose.EXCHANGE:
            m = n - (n % 2)
            return np.column_stack((perm[0:m:2], perm[1:m:2]))
        m = n - (n % CELL_SIZE)
        parts = [
            np.column_stack((perm[0:m:4], perm[2:m:4])),
            np.column_stack((perm[1:m:4], perm[3:m:4])),
        ]
        tail = n - m
        if tail == 3:
            parts.append(np.asarray([[perm[m], perm[m + 2]]], dtype=perm.dtype))
        elif tail == 2:
            parts.append(np.asarray([[perm[m], perm[m + 1]]], dtype=perm.dtype))
        return np.concatenate(parts)

    def round_order(self, round_now: int) -> Tuple[int, ...]:
        """Canonical initiation order of the round: permutation order.

        Replaces the classic simulator's separate order draw: with
        cell-local interactions, any order that keeps each cell's
        positions in sequence yields the same trace, so the executor
        uses the permutation itself.
        """
        return tuple(
            node for cell in self.cells_for_round(round_now) for node in cell
        )

    def partners_for_round(self, round_now: int, purpose: Purpose):
        """Partner array derived lazily from the round's cells.

        The batched words path consumes :meth:`round_pairs`, so the
        O(n) full-population arrays are built on first request — the
        per-pair executors and direct schedule queries — instead of
        every round.  Window semantics are those of the cells: one
        round of look-back, older raises.
        """
        key = (round_now, purpose)
        if key not in self._cache:
            cells = self.cells_for_round(round_now)  # window-checked
            pairs_of = (
                cell_exchange_pairs
                if purpose is Purpose.EXCHANGE
                else cell_push_pairs
            )
            partners = np.arange(self._n_nodes)  # unpaired nodes sit out
            for cell in cells:
                for left, right in pairs_of(cell):
                    partners[left] = right
                    partners[right] = left
            self._cache[key] = partners
        return self._cache[key]

    def _draw_round_entries(self, round_now: int) -> None:
        self._perms[round_now] = self._rng.permutation(self._n_nodes)

    def _discard_before(self, cutoff_round: int) -> None:
        super()._discard_before(cutoff_round)
        for cache in (self._cells, self._perms):
            for stale in [r for r in cache if r < cutoff_round]:
                del cache[stale]
