"""Columnar per-node simulation state: struct-of-arrays population.

Before this module, every :class:`~repro.bargossip.node.GossipNode`
carried its own :class:`~repro.bargossip.node.ServiceCounters` object,
its group enum and its evicted flag — so each round paid O(n) Python
attribute updates even after the update *stores* had been vectorized.
:class:`Population` turns that per-node object graph into four flat
arrays owned by the simulation:

=================  ========================  =============================
column             dtype / shape             contents
=================  ========================  =============================
``counters``       int64 ``(n_nodes, 8)``,   the :data:`~repro.bargossip.
                   column-major              node.COUNTER_FIELDS` tallies
``group_codes``    int8 ``(n_nodes,)``       :data:`~repro.bargossip.
                                             node.GROUP_CODES`
``behavior_codes`` int8 ``(n_nodes,)``       :data:`~repro.bargossip.
                                             node.BEHAVIOR_CODES`
``evicted``        bool ``(n_nodes,)``       eviction flags
=================  ========================  =============================

Rows are node ids.  The simulator writes the role columns in one
vectorized pass at construction, and the ``words`` backend's round path
builds no node object: the batched sweeps, broadcast, rotation and the
post-run reductions all read and write the columns.  Node objects
survive as views built on demand (the same move the packed stores
already make for ``have``/``missing``): :class:`NodeViews` is the
read-only, id-indexed sequence behind ``simulator.nodes``, and builds
each :class:`~repro.bargossip.node.GossipNode` view the first time it
is indexed.  ``node.counters`` is a
:class:`~repro.bargossip.node.CounterColumnView` over one matrix row;
``node.group``/``node.evicted`` read and write the code arrays.  The
scalar ``sets`` oracle and the event schedule's per-pair path use the
views; the batched paths scatter-add whole waves into the matrix —
the pairs of one wave are node-disjoint, so plain fancy-index ``+=``
is exact.

The counters live in one ``(8, n_nodes)`` block, and ``counters`` is
its transposed view: the ``(n_nodes, 8)`` shape, row views and
reductions are unchanged, while each field's column
(``counters[:, CI_X]``) is contiguous.  The batched sweeps book one
field at a time (``counters[:, CI_X][rows] += v``), and a 1-D
scatter-add on a contiguous column costs a fraction of the same add
into a strided column of a row-major matrix.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from ..core.behaviors import Behavior
from .node import (
    BEHAVIOR_CODES,
    COUNTER_FIELDS,
    GROUP_CODES,
    CounterColumnView,
    GossipNode,
    TargetGroup,
)

__all__ = ["N_COUNTER_COLS", "NodeViews", "Population"]

#: Columns of the counters matrix (== len(COUNTER_FIELDS)).
N_COUNTER_COLS = len(COUNTER_FIELDS)

_BYZANTINE_CODE = BEHAVIOR_CODES[Behavior.BYZANTINE]
_OBEDIENT_CODE = BEHAVIOR_CODES[Behavior.OBEDIENT]
_ATTACKER_CODE = GROUP_CODES[TargetGroup.ATTACKER]
_SATIATED_CODE = GROUP_CODES[TargetGroup.SATIATED]


class Population:
    """Columnar per-node state for one population.

    Parameters
    ----------
    n_nodes:
        Rows of every column.
    """

    __slots__ = ("n_nodes", "counters", "group_codes", "behavior_codes", "evicted")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self.counters = np.zeros((N_COUNTER_COLS, n_nodes), dtype=np.int64).T
        self.group_codes = np.zeros(n_nodes, dtype=np.int8)
        self.behavior_codes = np.zeros(n_nodes, dtype=np.int8)
        self.evicted = np.zeros(n_nodes, dtype=bool)

    # -- views ---------------------------------------------------------

    def counters_view(self, row: int) -> CounterColumnView:
        """The :class:`ServiceCounters`-compatible view of one row."""
        return CounterColumnView(self, row)

    # -- role masks (vectorized eligibility) ---------------------------

    @property
    def byzantine_mask(self) -> "np.ndarray":
        """Per-row attacker membership (Byzantine behaviour)."""
        return self.behavior_codes == _BYZANTINE_CODE

    @property
    def obedient_mask(self) -> "np.ndarray":
        """Per-row obedience (the lever the defenses pull on)."""
        return self.behavior_codes == _OBEDIENT_CODE

    @property
    def correct_mask(self) -> "np.ndarray":
        """Per-row correctness: every node the attacker does not run."""
        return self.group_codes != _ATTACKER_CODE

    @property
    def satiated_mask(self) -> "np.ndarray":
        """Per-row membership of the attacker's satiated target group."""
        return self.group_codes == _SATIATED_CODE

    def group_masks(self) -> Dict[str, "np.ndarray"]:
        """The expiry-scoring masks: isolated / satiated / correct."""
        correct = self.correct_mask
        satiated = self.group_codes == _SATIATED_CODE
        return {
            "isolated": correct & ~satiated,
            "satiated": correct & satiated,
            "correct": correct,
        }

    # -- batched counter updates ---------------------------------------

    def add_counter_deltas(self, rows: "np.ndarray", deltas: "np.ndarray") -> None:
        """Fold sparse per-row deltas in (rows unique, deltas >= 0)."""
        if len(rows):
            self.counters[np.asarray(rows, dtype=np.intp)] += deltas

    # -- memory accounting ---------------------------------------------

    def memory_breakdown(self) -> "Dict[str, int]":
        """Bytes held per columnar component.

        ``counter_bytes`` covers the (n, 8) int64 tallies block;
        ``code_column_bytes`` covers the two int8 role columns and the
        eviction flags (3 bytes per node).
        """
        return {
            "counter_bytes": int(self.counters.nbytes),
            "code_column_bytes": int(
                self.group_codes.nbytes
                + self.behavior_codes.nbytes
                + self.evicted.nbytes
            ),
        }

    def __repr__(self) -> str:
        return f"Population(n_nodes={self.n_nodes})"


class NodeViews(Sequence):
    """The id-indexed node views of one population, built on demand.

    A read-only sequence of ``size`` nodes: ``views[i]`` calls
    ``factory(i)`` the first time and returns the same object after
    that, so per-view state (the ``sets`` oracle's update stores)
    persists.  Nothing is built until something indexes or iterates.
    """

    __slots__ = ("_size", "_factory", "_views", "_built")

    def __init__(self, size: int, factory: Callable[[int], GossipNode]) -> None:
        self._size = size
        self._factory = factory
        self._views: Optional[List[Optional[GossipNode]]] = None
        self._built = 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> GossipNode:
        index = operator.index(index)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"node index out of range for {self._size} nodes")
        views = self._views
        if views is None:
            views = self._views = [None] * self._size
        view = views[index]
        if view is None:
            view = views[index] = self._factory(index)
            self._built += 1
        return view

    def __iter__(self) -> Iterator[GossipNode]:
        if self._views is not None and self._built == self._size:
            return iter(self._views)
        return map(self.__getitem__, range(self._size))
