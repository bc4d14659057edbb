"""Gossip node state and behaviour decisions.

A :class:`GossipNode` bundles a node's live-update store with its BAR
behaviour class, the attack-assigned target group, per-node service
counters, and the two behaviour decisions the protocol leaves open:

* *whether to initiate an optimistic push* — rational nodes push only
  when missing old updates; obedient nodes push whenever they have
  recent updates to offer;
* *whether to respond to a push* — any correct node responds when it
  gains at least one update, declines otherwise (so a fully satiated
  node declines: it cannot gain).

Since the columnar :class:`~repro.bargossip.population.Population`
refactor, the per-node objects the simulator hands out are lightweight
*views*, built only when something asks for one: ``counters``,
``group``, ``evicted`` and the role flags read and write columns of the
simulation-owned arrays (mirroring how the packed stores already
materialize ``have``/``missing`` on access), while a standalone
``GossipNode(...)`` — as unit tests construct — keeps plain per-object
state.  Either way, all counter mutation flows through the single
:meth:`ServiceCounters.add` API so the columnar view intercepts every
write.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.behaviors import Behavior
from ..core.errors import SimulationError
from ..core.metrics import GROUP_CODE_ORDER
from .config import GossipConfig
from .updates import UpdateStore

__all__ = [
    "TargetGroup",
    "COUNTER_FIELDS",
    "COUNTER_INDEX",
    "COUNTER_MAX",
    "ServiceCounters",
    "CounterColumnView",
    "GossipNode",
    "GROUP_CODES",
    "GROUPS_BY_CODE",
    "BEHAVIOR_CODES",
    "BEHAVIORS_BY_CODE",
]


class TargetGroup(enum.Enum):
    """How the attacker classifies a node (paper Section 2).

    The attacker "divides the nodes into two groups": *satiated* nodes
    receive as much service as he can deliver; *isolated* nodes receive
    none.  His own nodes form the third class.  Figures 1-3 plot the
    delivery fraction of the isolated group.
    """

    ATTACKER = "attacker"
    SATIATED = "satiated"
    ISOLATED = "isolated"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The service-counter columns, in storage order.  This tuple *is* the
#: schema of the columnar counters matrix: column ``i`` of a
#: ``Population``'s ``(n_nodes, 8)`` counters view holds field
#: ``COUNTER_FIELDS[i]`` (stored column-major, so each field's column
#: is contiguous), and the batched sweeps' counter deltas use the same
#: order.
COUNTER_FIELDS: Tuple[str, ...] = (
    "updates_sent",
    "updates_received",
    "junk_sent",
    "junk_received",
    "exchanges_initiated",
    "exchanges_nonempty",
    "pushes_initiated",
    "pushes_nonempty",
)

#: Field name -> column index of the counters matrix.
COUNTER_INDEX: Dict[str, int] = {
    name: index for index, name in enumerate(COUNTER_FIELDS)
}

#: Largest value a counter column may hold.  The columns are int64; the
#: guard keeps silent two's-complement wraparound (numpy's overflow
#: behaviour) from ever corrupting a tally — any write beyond this
#: raises instead.
COUNTER_MAX = 2**63 - 1

#: Small integer codes for the columnar ``group`` / ``behavior``
#: arrays.  Derived from :data:`~repro.core.metrics.GROUP_CODE_ORDER`
#: (the enum values are exactly its names), so the expiry-scoring
#: reduction in ``core.metrics`` and the population columns can never
#: disagree on the encoding.
GROUPS_BY_CODE: Tuple[TargetGroup, ...] = tuple(
    TargetGroup(name) for name in GROUP_CODE_ORDER
)
GROUP_CODES: Dict[TargetGroup, int] = {
    group: code for code, group in enumerate(GROUPS_BY_CODE)
}
BEHAVIOR_CODES: Dict[Behavior, int] = {
    behavior: code for code, behavior in enumerate(Behavior)
}
BEHAVIORS_BY_CODE: Tuple[Behavior, ...] = tuple(Behavior)
_ATTACKER_CODE = GROUP_CODES[TargetGroup.ATTACKER]


def _check_counter_value(name: str, value: int) -> None:
    """The overflow/underflow guard shared by both counter backends."""
    if value < 0:
        raise SimulationError(
            f"counter {name} would go negative ({value}); deltas must be "
            "non-negative"
        )
    if value > COUNTER_MAX:
        raise SimulationError(
            f"counter {name} overflows the int64 column ({value} > "
            f"{COUNTER_MAX})"
        )


class _CounterProtocol:
    """The behaviour both counter implementations share.

    Subclasses provide per-field attributes and :meth:`add`; the
    ``record_*`` helpers and the value-equality contract (compare the
    eight tallies, accept any object exposing the same fields — a
    plain dataclass and a column view with equal tallies are equal)
    live here once, so the two implementations cannot drift.
    """

    __slots__ = ()

    def record_exchange(self, sent: int, received: int) -> None:
        """Book one interaction's useful-update transfer, both ways."""
        self.add(updates_sent=sent, updates_received=received)

    def record_nonempty_exchange(self, sent: int, received: int) -> None:
        """Book one balanced exchange that actually moved updates."""
        self.add(
            updates_sent=sent, updates_received=received, exchanges_nonempty=1
        )

    def as_tuple(self) -> Tuple[int, ...]:
        """The eight tallies in :data:`COUNTER_FIELDS` order."""
        return tuple(getattr(self, name) for name in COUNTER_FIELDS)

    def __eq__(self, other: object) -> bool:
        try:
            other_values = tuple(
                getattr(other, name) for name in COUNTER_FIELDS
            )
        except AttributeError:
            return NotImplemented
        return self.as_tuple() == other_values

    __hash__ = None  # mutable tallies; never used as dict keys


@dataclass(eq=False)
class ServiceCounters(_CounterProtocol):
    """Per-node tallies used by reports and the reporting defense.

    All mutation goes through :meth:`add` (and the ``record_*``
    helpers built on it) so the columnar
    :class:`CounterColumnView` can substitute array writes for
    attribute writes without any caller noticing.
    """

    updates_sent: int = 0
    updates_received: int = 0
    junk_sent: int = 0
    junk_received: int = 0
    exchanges_initiated: int = 0
    exchanges_nonempty: int = 0
    pushes_initiated: int = 0
    pushes_nonempty: int = 0

    def add(self, **deltas: int) -> None:
        """Bump counters by the given non-negative per-field deltas."""
        for name, amount in deltas.items():
            if name not in COUNTER_INDEX:
                raise SimulationError(f"unknown counter field {name!r}")
            value = getattr(self, name) + amount
            _check_counter_value(name, value)
            setattr(self, name, value)


class CounterColumnView(_CounterProtocol):
    """One node's :class:`ServiceCounters`, backed by counter columns.

    A view into row ``row`` of a columnar
    :class:`~repro.bargossip.population.Population`'s ``(n_nodes, 8)``
    int64 counters matrix.  Implements the complete
    :class:`ServiceCounters` protocol — per-field attributes (read and
    write), :meth:`add`, the ``record_*`` helpers, value equality — so
    every existing consumer (defenses, reports, parity tests) works
    unchanged, while the batched interaction paths bypass the view and
    scatter-add whole phases into the matrix directly.

    The view holds the owning population, not the matrix, and resolves
    the matrix at every access.
    """

    __slots__ = ("_population", "_row")

    def __init__(self, population, row: int) -> None:
        self._population = population
        self._row = row

    def add(self, **deltas: int) -> None:
        """Bump counters by the given non-negative per-field deltas."""
        counters = self._population.counters
        row = self._row
        index_of = COUNTER_INDEX
        for name, amount in deltas.items():
            index = index_of.get(name)
            if index is None:
                raise SimulationError(f"unknown counter field {name!r}")
            current = counters[row, index]
            # Guard before adding: arbitrary-precision comparison, so
            # an overflowing delta raises instead of wrapping int64.
            if amount < 0 or amount > COUNTER_MAX - current:
                _check_counter_value(name, int(current) + amount)
            counters[row, index] = current + amount

    def as_tuple(self) -> Tuple[int, ...]:
        return tuple(int(v) for v in self._population.counters[self._row])

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value}"
            for name, value in zip(COUNTER_FIELDS, self.as_tuple())
        )
        return f"CounterColumnView({fields})"


def _make_counter_property(index: int, name: str):
    def _get(self: CounterColumnView) -> int:
        return int(self._population.counters[self._row, index])

    def _set(self: CounterColumnView, value: int) -> None:
        _check_counter_value(name, value)
        self._population.counters[self._row, index] = value

    return property(_get, _set)


for _index, _name in enumerate(COUNTER_FIELDS):
    setattr(CounterColumnView, _name, _make_counter_property(_index, _name))
del _index, _name


class GossipNode:
    """One participant in the gossip system.

    Constructed either *standalone* (unit tests, ad-hoc experiments) —
    behaviour, group, counters and the evicted flag live on the object
    — or as a *population view* through :meth:`view`, in which case
    ``group``, ``evicted``, ``counters`` and the role flags read and
    write the simulation's columnar arrays at row ``node_id``, and the
    object is nothing but an id, a behaviour tag, and a store view.
    """

    __slots__ = (
        "node_id",
        "behavior",
        "store",
        "_population",
        "_group",
        "_counters",
        "_evicted",
    )

    def __init__(
        self,
        node_id: int,
        behavior: Behavior,
        group: TargetGroup,
        store: Optional[UpdateStore] = None,
        counters: Optional[ServiceCounters] = None,
        evicted: bool = False,
    ) -> None:
        self.node_id = node_id
        self.behavior = behavior
        self._population = None
        self._group = group
        self._counters = counters
        self._evicted = evicted
        self.store = store if store is not None else UpdateStore()

    @classmethod
    def view(
        cls, population, node_id: int, store: Optional[UpdateStore] = None
    ) -> "GossipNode":
        """The view of row ``node_id`` of ``population``.

        Reads the row's behaviour code once (behaviours never change)
        and writes nothing: the columns already hold the node's role.
        """
        behavior = BEHAVIORS_BY_CODE[population.behavior_codes[node_id]]
        node = cls(node_id, behavior, None, store=store)
        node._population = population
        return node

    # -- population-backed columns -------------------------------------

    @property
    def group(self) -> TargetGroup:
        if self._population is not None:
            return GROUPS_BY_CODE[self._population.group_codes[self.node_id]]
        return self._group

    @group.setter
    def group(self, value: TargetGroup) -> None:
        if self._population is not None:
            self._population.group_codes[self.node_id] = GROUP_CODES[value]
        else:
            self._group = value

    @property
    def counters(self):
        """The node's service counters (lazily materialized view)."""
        if self._counters is None:
            if self._population is not None:
                self._counters = CounterColumnView(self._population, self.node_id)
            else:
                self._counters = ServiceCounters()
        return self._counters

    @property
    def evicted(self) -> bool:
        if self._population is not None:
            return bool(self._population.evicted[self.node_id])
        return self._evicted

    @evicted.setter
    def evicted(self, value: bool) -> None:
        if self._population is not None:
            self._population.evicted[self.node_id] = value
        else:
            self._evicted = value

    # -- role flags ----------------------------------------------------

    @property
    def is_attacker(self) -> bool:
        """Whether this node is controlled by the attacker."""
        if self._population is not None:
            return bool(self._population.group_codes[self.node_id] == _ATTACKER_CODE)
        return self._group is TargetGroup.ATTACKER

    @property
    def is_correct(self) -> bool:
        """Whether this node runs the real protocol (possibly rationally)."""
        return not self.is_attacker

    @property
    def is_satiated(self) -> bool:
        """Whether the node currently misses no live update."""
        return self.store.is_satiated

    # -- behaviour decisions -------------------------------------------

    def wants_to_push(self, config: GossipConfig, round_now: int) -> bool:
        """Behaviour decision: initiate an optimistic push this round?

        Rational: only when some missing update is old enough to be
        "expiring relatively soon" — there is otherwise nothing to
        gain.  Obedient: whenever there is a recent update to offer
        (the recommended protocol's behaviour, followed even without
        personal gain).  Evicted and attacker nodes never push through
        this path (the attacker's pushes are driven by its strategy).
        """
        if self.evicted or self.is_attacker:
            return False
        old_cutoff = round_now - config.push_age_threshold + 1
        has_old_needs = self.store.has_missing_older_than(
            old_cutoff, config.updates_per_round
        )
        if self.behavior is Behavior.RATIONAL:
            return has_old_needs
        recent_cutoff = round_now - config.push_recent_window + 1
        has_offers = self.store.has_have_newer_than(
            recent_cutoff, config.updates_per_round
        )
        return has_old_needs or has_offers

    def responds_to_push(self, gain: int) -> bool:
        """Behaviour decision: accept an incoming push offer?

        A correct node accepts iff it gains at least one update.  This
        single rule covers both behaviours: obedient nodes follow the
        protocol (which says accept useful offers), and rational nodes
        accept exactly when profitable.  A satiated node can never gain
        and therefore always declines — the satiation-compatibility at
        the heart of the attack.
        """
        if self.evicted or self.is_attacker:
            return False
        return gain > 0

    def __repr__(self) -> str:
        return (
            f"GossipNode(node_id={self.node_id}, behavior={self.behavior}, "
            f"group={self.group}, evicted={self.evicted})"
        )
