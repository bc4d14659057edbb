"""Configuration for the BAR Gossip simulator (paper Table 1).

The paper's experiments use the parameters of Table 1:

=====================  ======
Parameter              Value
=====================  ======
Number of Nodes        250
Updates per Round      10
Update Lifetime (rds)  10
Copies Seeded          12
Opt. Push Size (upd)   2
=====================  ======

plus the usability requirement that "nodes need to receive more than
93% of the updates for the stream to be usable".

Parameters the original (unreleased) simulator fixed internally are
exposed here as explicit knobs with documented defaults:

* ``exchange_cap`` — the per-direction bandwidth budget of one balanced
  exchange.  The original simulator models finite link bandwidth; we
  express it as a cap on updates moved per exchange.  The default (10,
  one round's worth of updates) calibrates the crash-attack baseline to
  the paper's qualitative behaviour.
* ``push_age_threshold`` — how old (in rounds) a missing update must be
  before a rational node considers it "expiring relatively soon" and
  initiates an optimistic push to recover it.
* ``push_recent_window`` — how recently created an update must be to
  count as "recently released" and hence offerable in a push.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..core.metrics import USABILITY_THRESHOLD

__all__ = ["GossipConfig"]


@dataclass(frozen=True)
class GossipConfig:
    """All parameters of one BAR Gossip simulation.

    Instances are immutable; use :meth:`replace` to derive variants
    (e.g. the Figure 2 configuration is ``paper().replace(push_size=10)``).
    """

    #: Total population, including any attacker-controlled nodes.
    n_nodes: int = 250
    #: New updates released by the broadcaster each round.
    updates_per_round: int = 10
    #: Rounds an update stays useful; it expires (and is counted
    #: delivered or missed) after this many rounds.
    update_lifetime: int = 10
    #: Distinct nodes each fresh update is seeded to by the broadcaster.
    copies_seeded: int = 12
    #: Maximum updates a responder may receive in one optimistic push
    #: (and, symmetrically, the cap on the useful updates returned).
    push_size: int = 2
    #: Per-direction cap on updates moved in one balanced exchange
    #: (models finite per-round link bandwidth).
    exchange_cap: int = 10
    #: A missing update older than this (rounds since creation) makes a
    #: rational node initiate an optimistic push to recover it.
    push_age_threshold: int = 5
    #: Updates created within this many rounds count as "recent" and
    #: may be offered in an optimistic push.
    push_recent_window: int = 3
    #: When True, nodes run the Figure 3 defense: in a balanced
    #: exchange they are willing to give one more update than they
    #: receive, provided they receive at least one.
    unbalanced_exchange: bool = False
    #: Exchange selection priority: newest-first (default; fresh
    #: updates are the scarcest and the best trade currency, the
    #: gossip analogue of rarest-first) versus oldest-first (pure
    #: urgency order, kept for ablations).
    exchange_prefer_newest: bool = True
    #: The Section 5 rate-limiting defense: when set, *obedient* nodes
    #: refuse to accept more than this many updates in any single
    #: interaction, capping how rapidly an attacker can satiate them.
    #: None disables the limit.  Rational nodes ignore it — excess
    #: service benefits them — so the defense needs obedience.
    accept_cap: "int" = None
    #: Fraction of the population that follows the protocol verbatim
    #: (initiates pushes even with nothing to gain).  The remainder of
    #: the non-Byzantine population is rational.
    obedient_fraction: float = 0.0
    #: Delivery fraction above which the stream is usable.
    usability_threshold: float = USABILITY_THRESHOLD

    @classmethod
    def paper(cls) -> "GossipConfig":
        """The exact Table 1 configuration."""
        return cls()

    @classmethod
    def small(cls) -> "GossipConfig":
        """A reduced configuration for fast tests (same structure)."""
        return cls(
            n_nodes=60,
            updates_per_round=4,
            update_lifetime=6,
            copies_seeded=5,
            push_size=2,
            exchange_cap=6,
            push_age_threshold=3,
            push_recent_window=2,
        )

    def replace(self, **changes) -> "GossipConfig":
        """A copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A plain-JSON representation (canonical cache/spec form)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GossipConfig":
        """Inverse of :meth:`to_dict`.

        Execution keys that moved to ``ExecutionConfig`` get the same
        pointed error as the constructor; other unknown keys are
        rejected outright.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known - set(_MOVED_TO_EXECUTION))
        if unknown:
            raise ConfigurationError(
                f"unknown GossipConfig keys: {unknown} (known: {sorted(known)})"
            )
        return cls(**payload)

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if self.updates_per_round <= 0:
            raise ConfigurationError(
                f"updates_per_round must be positive, got {self.updates_per_round}"
            )
        if self.update_lifetime <= 0:
            raise ConfigurationError(
                f"update_lifetime must be positive, got {self.update_lifetime}"
            )
        if not 0 < self.copies_seeded <= self.n_nodes:
            raise ConfigurationError(
                f"copies_seeded must be in (0, n_nodes], got {self.copies_seeded}"
            )
        if self.push_size < 0:
            raise ConfigurationError(f"push_size must be >= 0, got {self.push_size}")
        if self.exchange_cap <= 0:
            raise ConfigurationError(
                f"exchange_cap must be positive, got {self.exchange_cap}"
            )
        if not 0 < self.push_age_threshold <= self.update_lifetime:
            raise ConfigurationError(
                "push_age_threshold must be in (0, update_lifetime], got "
                f"{self.push_age_threshold}"
            )
        if not 0 < self.push_recent_window <= self.update_lifetime:
            raise ConfigurationError(
                "push_recent_window must be in (0, update_lifetime], got "
                f"{self.push_recent_window}"
            )
        if not 0.0 <= self.obedient_fraction <= 1.0:
            raise ConfigurationError(
                f"obedient_fraction must be in [0, 1], got {self.obedient_fraction}"
            )
        if not 0.0 < self.usability_threshold < 1.0:
            raise ConfigurationError(
                f"usability_threshold must be in (0, 1), got {self.usability_threshold}"
            )
        if self.accept_cap is not None and self.accept_cap < 1:
            raise ConfigurationError(
                f"accept_cap must be >= 1 or None, got {self.accept_cap}"
            )


# ``backend`` / ``shards`` used to live on GossipConfig and moved to
# ``repro.bargossip.scenario.ExecutionConfig`` in the Scenario API
# redesign.  Passing them here gets a pointed error
# instead of dataclass's generic TypeError, so old call sites read
# their own migration note.
_MOVED_TO_EXECUTION = ("backend", "shards")

_dataclass_init = GossipConfig.__init__


def _guarded_init(self, *args, **kwargs) -> None:
    moved = sorted(set(kwargs) & set(_MOVED_TO_EXECUTION))
    if moved:
        raise ConfigurationError(
            f"GossipConfig no longer owns {moved}: execution concerns moved "
            "to repro.bargossip.scenario.ExecutionConfig(backend=..., "
            "shards=..., jobs=...); pass it to "
            "run_experiment(scenario, execution=...) or "
            "GossipSimulator(config, execution=...)"
        )
    _dataclass_init(self, *args, **kwargs)


GossipConfig.__init__ = _guarded_init  # type: ignore[method-assign]
