"""The three attacks of Section 2: crash, ideal and trade lotus-eater.

The attacker controls a coalition of nodes and splits the rest of the
population into *satiated* targets (served as fast as possible) and
*isolated* targets (served nothing).  Following the paper, the
coalition aims to satiate 70% of the whole system, "including whatever
percentage he controls".

Strategies
----------
``CRASH``
    The baseline: attacker nodes do nothing at all.  Every interaction
    that lands on them silently fails.  ("He may simply have crashed or
    be a Byzantine node following the strategy of initiating but never
    completing exchanges.")
``IDEAL``
    Attacker nodes never trade; they forward every update they receive
    from the broadcaster to *all* satiated nodes instantly,
    out-of-band.  This "might be the case if the attacker can exploit
    the implementation of the protocol to send updates to nodes with
    whom he has not started an exchange."
``TRADE``
    Attacker nodes interact only through the protocol's pseudorandom
    pairings, but when paired with a satiated target they hand over
    *every* update the coalition holds that the target misses,
    demanding nothing back.  Paired with anyone else, they refuse.

All coalition members pool their knowledge (they are a single
colluding adversary), so "what the attacker has" is the union of what
the broadcaster seeded to any coalition node.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..core.errors import ConfigurationError

__all__ = ["AttackKind", "AttackerCoalition", "DEFAULT_SATIATE_FRACTION"]

#: The paper's choice: "the attacker attempts to satiate 70% of the
#: system (including whatever percentage he controls)".
DEFAULT_SATIATE_FRACTION = 0.7


class AttackKind(enum.Enum):
    """Which Section 2 attack the coalition mounts."""

    NONE = "none"
    CRASH = "crash"
    IDEAL = "ideal"
    TRADE = "trade"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class AttackerCoalition:
    """A colluding set of attacker nodes executing one attack strategy.

    Parameters
    ----------
    kind:
        The attack strategy.
    nodes:
        Ids of the coalition's nodes.
    satiated_targets:
        Ids of the correct nodes the coalition tries to satiate.  Read
        back as a frozen set; :meth:`retarget` is the one way to change
        it, and bumps :attr:`targets_version` so per-row caches built
        from the set know to rebuild.
    """

    def __init__(
        self,
        kind: AttackKind,
        nodes: Iterable[int] = (),
        satiated_targets: Iterable[int] = (),
    ) -> None:
        self.kind = kind
        self.nodes: Set[int] = set(nodes)
        self._satiated_targets: FrozenSet[int] = frozenset(satiated_targets)
        if self.nodes & self._satiated_targets:
            raise ConfigurationError(
                "attacker nodes cannot also be satiated targets: "
                f"{sorted(self.nodes & self._satiated_targets)}"
            )
        #: Bumped by every :meth:`retarget`; caches keyed on it rebuild
        #: exactly when the target set changes.
        self.targets_version: int = 0
        if kind is AttackKind.NONE and self.nodes:
            raise ConfigurationError("a NONE attack cannot control nodes")
        #: Union of live updates any coalition node received from the
        #: broadcaster (the coalition's pooled knowledge).
        self.pool: Set[int] = set()
        #: Updates the coalition has pushed out, for reporting.
        self.updates_served: int = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        kind: AttackKind,
        n_nodes: int,
        attacker_fraction: float,
        rng: np.random.Generator,
        satiate_fraction: float = DEFAULT_SATIATE_FRACTION,
    ) -> "AttackerCoalition":
        """Sample a coalition and its target split for a population.

        The coalition takes a uniformly random ``attacker_fraction`` of
        the node ids; satiated targets are a uniformly random subset of
        the remainder sized so that coalition + satiated together make
        up ``satiate_fraction`` of the system (clipped to the available
        correct nodes).  The crash attack designates no satiated
        targets — it serves nobody.
        """
        if not 0.0 <= attacker_fraction <= 1.0:
            raise ConfigurationError(
                f"attacker_fraction must be in [0, 1], got {attacker_fraction}"
            )
        if not 0.0 <= satiate_fraction <= 1.0:
            raise ConfigurationError(
                f"satiate_fraction must be in [0, 1], got {satiate_fraction}"
            )
        if kind is AttackKind.NONE or attacker_fraction == 0.0:
            return cls(AttackKind.NONE)
        n_attackers = int(round(attacker_fraction * n_nodes))
        n_attackers = min(max(n_attackers, 0), n_nodes)
        permutation = rng.permutation(n_nodes).tolist()
        attacker_nodes = permutation[:n_attackers]
        if kind is AttackKind.CRASH:
            satiated: List[int] = []
        else:
            want_satiated_total = int(round(satiate_fraction * n_nodes))
            n_satiated = max(0, want_satiated_total - n_attackers)
            n_satiated = min(n_satiated, n_nodes - n_attackers)
            satiated = permutation[n_attackers : n_attackers + n_satiated]
        return cls(kind, nodes=attacker_nodes, satiated_targets=satiated)

    # ------------------------------------------------------------------
    # Strategy queries used by the simulator
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether an attack is in effect at all."""
        return self.kind is not AttackKind.NONE and bool(self.nodes)

    def controls(self, node: int) -> bool:
        """Whether ``node`` belongs to the coalition."""
        return node in self.nodes

    @property
    def satiated_targets(self) -> FrozenSet[int]:
        """Ids of the correct nodes the coalition tries to satiate."""
        return self._satiated_targets

    def is_satiated_target(self, node: int) -> bool:
        """Whether ``node`` is in the group the attacker serves."""
        return node in self._satiated_targets

    def trades(self) -> bool:
        """Whether coalition nodes participate in protocol interactions.

        Only the trade attack works through the protocol; crash and
        ideal attackers never complete an interaction.
        """
        return self.kind is AttackKind.TRADE

    def broadcasts_out_of_band(self) -> bool:
        """Whether the coalition sends updates outside the protocol."""
        return self.kind is AttackKind.IDEAL

    # ------------------------------------------------------------------
    # State transitions driven by the simulator
    # ------------------------------------------------------------------

    def observe_seeding(self, node: int, updates: Sequence[int]) -> None:
        """Pool updates the broadcaster seeded to a coalition node."""
        if node in self.nodes:
            self.pool.update(updates)

    def dump_for(self, missing: Set[int], limit: Optional[int] = None) -> List[int]:
        """Pooled updates a satiated target is missing, oldest first.

        With ``limit=None`` this is the trade attack's "every update he
        has" transfer (possible in a balanced exchange, where message
        sizes are negotiated) and the ideal attack's out-of-band
        broadcast content.  The optimistic-push channel is
        receiver-bounded by the protocol, so dumps through it pass a
        ``limit`` (the push size).
        """
        give = sorted(self.pool & missing)
        if limit is not None:
            give = give[:limit]
        self.updates_served += len(give)
        return give

    def pool_mask(self, base: int, capacity: int) -> int:
        """The pooled haves as one logical bitmask over the live window.

        Bit ``c`` set means the coalition holds update ``base + c`` —
        the batched interaction paths intersect this one row against
        every receiver's missing row at once instead of materializing
        ``pool & missing`` sets per target.  Pool entries outside the
        window (none in steady state; :meth:`expire` runs each round)
        are dropped, which is exact: a receiver's missing row never
        holds out-of-window bits either.
        """
        mask = 0
        for update in self.pool:
            col = update - base
            if 0 <= col < capacity:
                mask |= 1 << col
        return mask

    def expire(self, updates: Sequence[int]) -> None:
        """Drop expired updates from the pooled knowledge."""
        for update in updates:
            self.pool.discard(update)

    def retarget(self, new_satiated: Iterable[int]) -> None:
        """Replace the satiated target set (the rotating attack).

        "By changing who is satiated over time, the attacker could
        even make the service intermittently unusable for all nodes."
        The simulator drives the rotation schedule (and restores a
        snapshot's targets through here after a crashed shared round);
        this swaps the set, validating disjointness from the coalition,
        and bumps :attr:`targets_version`.
        """
        new_set = frozenset(new_satiated)
        if new_set & self.nodes:
            raise ConfigurationError(
                "satiated targets cannot include coalition nodes: "
                f"{sorted(new_set & self.nodes)}"
            )
        self._satiated_targets = new_set
        self.targets_version += 1

    def evict(self, node: int) -> bool:
        """Remove an evicted node from the coalition; True if it was one."""
        if node in self.nodes:
            self.nodes.discard(node)
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"AttackerCoalition(kind={self.kind.value}, nodes={len(self.nodes)}, "
            f"satiated_targets={len(self.satiated_targets)}, pool={len(self.pool)})"
        )


def no_attack() -> AttackerCoalition:
    """A coalition representing the absence of any attack."""
    return AttackerCoalition(AttackKind.NONE)
