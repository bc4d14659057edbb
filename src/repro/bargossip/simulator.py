"""The BAR Gossip round simulator and the single-experiment entry point.

One :class:`GossipSimulator` advances a population of
:class:`~repro.bargossip.node.GossipNode` through synchronous rounds:

1. the broadcaster releases this round's updates and seeds each to a
   random subset of nodes (Table 1: 12 copies);
2. the attacker acts out of band if its strategy allows (ideal attack);
3. every non-evicted node initiates one balanced exchange with its
   pseudorandomly assigned partner;
4. nodes that choose to initiate one optimistic push do so with a
   second pseudorandom partner;
5. excessive-service reports are processed (when the reporting defense
   is enabled) and offenders evicted;
6. updates reaching end of life expire and are scored delivered or
   missed per target group.

The headline metric — "fraction of updates received by isolated
nodes" — is accumulated in a :class:`~repro.core.metrics.DeliveryStats`
with groups ``"isolated"``, ``"satiated"`` and ``"correct"`` (the union
of both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .scenario import ExecutionConfig

from ..core.behaviors import Behavior
from ..core.engine import RoundSimulator
from ..core.errors import ConfigurationError, SimulationError
from ..core.metrics import DeliveryStats, tally_group_codes
from ..core.rng import RngStreams
from .attacker import AttackKind, AttackerCoalition
from .config import GossipConfig
from .defenses import EvictionAuthority, ReportingPolicy
from .events import (
    EventQueue,
    ExchangeDeliver,
    ExchangeSend,
    NodeJoin,
    NodeLeave,
    PartnerTimeout,
    PushDeliver,
    PushSend,
)
from .network import DeliveryTimeTracker, NetworkModel, NetworkStats
from .exchange import (
    apply_exchange,
    batched_word_dump,
    batched_word_exchange,
    bitset_exchange,
    exchange_dump_limits,
    plan_balanced_exchange,
)
from .messages import sign_receipt
from .node import (
    BEHAVIOR_CODES,
    COUNTER_INDEX,
    GROUP_CODES,
    GROUPS_BY_CODE,
    GossipNode,
    TargetGroup,
)
from .partner import PartnerSchedule, Purpose, dependency_plan
from .population import NodeViews, Population
from .push import (
    apply_push,
    batched_push_eligibility,
    batched_word_push,
    bitset_apply_push,
    bitset_plan_push,
    plan_optimistic_push,
    push_dump_limits,
    push_window_words,
)
from .sharding import ShardedPartnerSchedule
from .updates import (
    UpdateLedger,
    WordPopulationStore,
    creation_round,
    iter_bits,
    word_popcounts,
    words_to_int,
)

__all__ = [
    "InteractionEngine",
    "GossipSimulator",
    "GossipExperimentResult",
]

# Counter-matrix column indices, hoisted to module constants so the
# scatter-add hot paths skip the dict lookups.
CI_UPDATES_SENT = COUNTER_INDEX["updates_sent"]
CI_UPDATES_RECEIVED = COUNTER_INDEX["updates_received"]
CI_JUNK_SENT = COUNTER_INDEX["junk_sent"]
CI_JUNK_RECEIVED = COUNTER_INDEX["junk_received"]
CI_EXCHANGES_INITIATED = COUNTER_INDEX["exchanges_initiated"]
CI_EXCHANGES_NONEMPTY = COUNTER_INDEX["exchanges_nonempty"]
CI_PUSHES_INITIATED = COUNTER_INDEX["pushes_initiated"]
CI_PUSHES_NONEMPTY = COUNTER_INDEX["pushes_nonempty"]

_BYZANTINE_CODE = BEHAVIOR_CODES[Behavior.BYZANTINE]

#: Cache-block size, in pairs, of the batched wave sweeps (see
#: :meth:`InteractionEngine._pair_chunks`): each block's gathered word
#: rows stay cache-resident at million-node scale.  Any blocking is
#: trace-identical, because the pairs of one wave are node-disjoint.
PHASE_CHUNK_PAIRS = 32768


class _Phase(NamedTuple):
    """What every sweep of one phase shares, built once at phase start.

    Within a phase no role changes, the coalition's pool and target set
    hold, and the push windows stand still (they move only in
    broadcast, expiry and rotation).  The eviction column does change,
    so the sweeps read it themselves.
    """

    round_now: int
    #: Per-row attacker mask (Byzantine behaviour).
    byzantine: "np.ndarray"
    #: Per-row obedience mask.
    obedient: "np.ndarray"
    #: The coalition's pooled-have word row; None when it cannot dump.
    pool_words: Optional["np.ndarray"]
    #: The satiated-row mask; None when ``pool_words`` is.
    satiated: Optional["np.ndarray"]
    #: The round's ``(recent, old)`` push-window word rows (push phases).
    windows: Optional[Tuple["np.ndarray", "np.ndarray"]]


def _directions(rows, both_ways: bool):
    """The directed ``(initiators, partners)`` passes over pair rows.

    One pass a→b, plus b→a after it with ``both_ways``; none for an
    empty array.
    """
    if not len(rows):
        return ()
    forward = (rows[:, 0], rows[:, 1])
    return (forward, forward[::-1]) if both_ways else (forward,)


class InteractionEngine:
    """The exchange and push phases over one population.

    Owns no round structure of its own: callers hand it an initiation
    order and a partner assignment, and it applies the interactions to
    the nodes it was built over.  The simulator builds one engine over
    the full population (pool row index == node id).

    Parameters
    ----------
    nodes:
        The engine's node views, indexed by node id (a
        :class:`~repro.bargossip.population.NodeViews`); row ``i`` of
        ``pool`` and ``population`` belongs to node ``i``.  Only the
        scalar per-pair paths index it.
    config / attack / authority:
        As on :class:`GossipSimulator` (``authority`` may be None).
    pool:
        The packed word store on the words backend, or None on the sets
        backend.
    population:
        The columnar :class:`~repro.bargossip.population.
        Population` (row layout identical to ``pool``'s).  Required for
        the batched word paths, whose eligibility checks and counter
        updates run as array sweeps and scatter-adds over its columns;
        the scalar per-pair paths only need the node views.
    """

    def __init__(
        self,
        nodes: Sequence[GossipNode],
        config: GossipConfig,
        attack: AttackerCoalition,
        authority: Optional[EvictionAuthority],
        pool: Optional[WordPopulationStore] = None,
        population: Optional[Population] = None,
    ) -> None:
        self.nodes = nodes
        self.config = config
        self.attack = attack
        self.authority = authority
        self.pool = pool
        self.population = population
        #: Cache-block size (in pairs) for the batched wave sweeps; 0
        #: disables chunking.
        self.chunk_pairs = PHASE_CHUNK_PAIRS
        #: ``(targets_version, mask)`` of the last satiated-row mask built.
        self._satiated_rows: Optional[Tuple[int, np.ndarray]] = None

    def _rows_of_ids(self, ids: "np.ndarray") -> "np.ndarray":
        """Population/pool rows of an array of node ids: the ids themselves.

        Raises on an id outside the population, which would otherwise
        index a wrong row (negative) or fail deep inside a sweep.
        """
        outside = (ids < 0) | (ids >= self.population.n_nodes)
        if outside.any():
            raise SimulationError(
                f"node id {int(ids[outside][0])} not in this population"
            )
        return ids

    def _satiated_row_mask(self) -> "np.ndarray":
        """Per-row mask of the coalition's satiated targets.

        Built from the coalition's target id set — the same membership
        the scalar ``is_satiated_target`` gate consults — so the batched
        and scalar paths agree by construction.  Targets outside the
        population are dropped.
        Cached until the coalition's ``targets_version`` moves (every
        change to the target set goes through ``retarget``); callers
        only read the mask.
        """
        version = self.attack.targets_version
        if self._satiated_rows is not None and self._satiated_rows[0] == version:
            return self._satiated_rows[1]
        mask = np.zeros(self.population.n_nodes, dtype=bool)
        targets = self.attack.satiated_targets
        if targets:
            ids = np.fromiter(targets, dtype=np.intp, count=len(targets))
            mask[ids[(ids >= 0) & (ids < len(mask))]] = True
        self._satiated_rows = (version, mask)
        return mask

    def run_exchanges(self, round_now: int, order, partners) -> None:
        """One balanced-exchange phase.

        ``order`` iterates initiator ids (the round's permutation array
        itself on the words backend); ``partners`` maps initiator id
        to partner id (array or mapping).  A self-partner entry
        means the node sits this phase out (the cell pairing's
        unpaired tail); the reference schedule never produces one.

        On the words backend the phase runs as dependency waves
        (:meth:`run_phase` over :meth:`_phase_waves`; ``partners`` must
        be an array there); the sets backend walks the pairs one at a
        time, the reference the waves are pinned to.
        """
        if self.pool is not None:
            self.run_phase(
                round_now, self._phase_waves(order, partners), Purpose.EXCHANGE
            )
            return
        for initiator_id in order:
            partner_id = int(partners[initiator_id])
            if partner_id != initiator_id:  # self-partner: unpaired
                self._exchange_directed(round_now, initiator_id, partner_id)

    def _exchange_directed(
        self, round_now: int, initiator_id: int, partner_id: int
    ) -> None:
        """One directed exchange initiation (shared by all dispatchers)."""
        node_of = self.nodes
        initiator = node_of[initiator_id]
        if initiator.evicted:
            return
        if initiator.is_attacker and not self.attack.trades():
            return  # crash / ideal attackers never initiate
        partner = node_of[partner_id]
        if partner.evicted:
            return
        initiator.counters.add(exchanges_initiated=1)
        self.interact_exchange(round_now, initiator, partner)

    def _mixed_pairs(self, rows) -> "np.ndarray":
        """Which ``(m, 2)`` pair rows hold an attacker or evicted member.

        Clean pairs (two live correct nodes) run through the plain
        exchange/push sweeps; mixed pairs run through the masked
        dump/eviction sweeps (:meth:`_exchange_pass_mixed` /
        :meth:`_push_pass_mixed`).  A phase tags its pairs once, at its
        start, and that is exact: inside a phase only attacker rows are
        ever evicted (a flagged dump evicts its giver), and every pair
        holding an attacker is already mixed.
        """
        population = self.population
        special = population.byzantine_mask | population.evicted
        return special[rows[:, 0]] | special[rows[:, 1]]

    def _split_pair_rows(self, rows):
        """One node-disjoint wave as ``(clean_rows, mixed_rows)``.

        Both keep schedule order; see :meth:`_mixed_pairs`.
        """
        mixed = self._mixed_pairs(rows)
        # Row gathers by index: boolean-masking an (m, 2) array costs
        # several times more.
        return (
            rows.take((~mixed).nonzero()[0], axis=0),
            rows.take(mixed.nonzero()[0], axis=0),
        )

    def _pair_chunks(self, rows):
        """Cache-sized blocks of an ``(m, 2)`` pair-row array.

        Bit-exact, because a wave's pairs are node-disjoint (a chunk's
        state never feeds another chunk's plan).  A chunk run both ways
        (:meth:`run_phase`) finishes both directions before the next
        chunk starts, so its gathered word rows stay resident across
        its two directed passes.  ``chunk_pairs == 0`` disables
        chunking.
        """
        if self.chunk_pairs <= 0 or len(rows) <= self.chunk_pairs:
            if len(rows):
                yield rows
            return
        for start in range(0, len(rows), self.chunk_pairs):
            yield rows[start : start + self.chunk_pairs]

    def _attack_pool_words(self):
        """The coalition's pooled-have word row, or None when it cannot dump.

        One O(|pool|) mask build per phase (the pool holds at most
        ``capacity`` ids) replaces the per-target ``pool & missing``
        set intersections of the scalar path.
        """
        attack = self.attack
        if not attack.trades() or not attack.pool:
            return None
        mask = attack.pool_mask(self.pool.base, self.pool.capacity)
        if not mask:
            return None
        return self.pool.mask_words(mask)

    def _phase_constants(self, round_now: int, purpose) -> _Phase:
        """The :class:`_Phase` of a phase starting now."""
        population = self.population
        pool_words = self._attack_pool_words()
        return _Phase(
            round_now,
            population.byzantine_mask,
            population.obedient_mask,
            pool_words,
            self._satiated_row_mask() if pool_words is not None else None,
            None
            if purpose is Purpose.EXCHANGE
            else push_window_words(self.pool, self.config, round_now),
        )

    def _phase_waves(self, order, partners):
        """The phase's directed interactions, as ``(clean, mixed)`` row arrays per wave.

        Interactions are ``(initiator, partners[initiator])`` in
        ``order`` (``partners`` an id-indexed array, as the partner
        schedules produce); self-partner entries are dropped.  The
        phase is peeled once
        (:func:`~repro.bargossip.partner.dependency_plan`) with each
        interaction tagged clean or mixed once (:meth:`_mixed_pairs`),
        so every wave is two zero-copy slices of one sorted row array,
        each in schedule order.
        """
        initiators = np.asarray(order, dtype=np.intp)
        targets = np.asarray(partners, dtype=np.intp)[initiators]
        rows = self._rows_of_ids(np.stack([initiators, targets], axis=1))
        plan, bounds = dependency_plan(
            rows[:, 0], rows[:, 1], self._mixed_pairs(rows)
        )
        rows = rows.take(plan, axis=0)
        bounds = bounds.tolist()
        return [
            (rows[lo:mid], rows[mid:hi])
            for lo, mid, hi in zip(bounds[:-1:2], bounds[1::2], bounds[2::2])
        ]

    def run_phase(
        self, round_now: int, waves, purpose, both_ways: bool = False
    ) -> None:
        """One exchange or push phase on the words backend, wave by wave.

        ``waves`` iterates node-disjoint waves in schedule order, each
        a ``(clean_rows, mixed_rows)`` pair of ``(m, 2)`` arrays of
        ``(initiator, partner)`` rows, split at phase start
        (:meth:`_mixed_pairs`).  Clean pairs run through the plain word
        sweeps, pairs with an attacker or evicted member through the
        masked dump sweeps.  With ``both_ways`` each pair then
        initiates back (the cell pairing's undirected pairs): each
        cache block runs a→b and then b→a before the next block starts,
        so its gathered word rows stay resident, and the mixed rows do
        the same.  Bit-identical to the per-pair walk, because within
        a phase

        * an interaction only touches its two nodes' rows and counters;
        * the coalition's pool changes only in broadcast and expiry, so
          its word row (and the satiated-row mask) hold for the phase,
          as do the roles and the push windows (:class:`_Phase`);
        * eviction reports are keyed by the offender, a member of the
          pair, and the pair's own wave order is the schedule's;
        * ``updates_served`` is a sum.

        Each mixed pass reads the eviction column when it starts, so a
        wave sees every eviction an earlier wave made.
        """
        phase = self._phase_constants(round_now, purpose)
        exchange = purpose is Purpose.EXCHANGE
        initiated = self.population.counters[:, CI_EXCHANGES_INITIATED]
        for clean_rows, mixed_rows in waves:
            for block in self._pair_chunks(clean_rows):
                if not exchange:
                    for rows_i, rows_r in _directions(block, both_ways):
                        self._push_pass_batched(phase, rows_i, rows_r)
                    continue
                rows_i, rows_r = block[:, 0], block[:, 1]
                # Rows are pairwise disjoint within a pass, so fancy-index
                # += is an exact scatter-add.
                initiated[rows_i] += 1
                moved = self._exchange_apply_clean(rows_i, rows_r)
                if both_ways:
                    # When the other end initiates, the pair's two
                    # availabilities just swap sides, and the transfer
                    # size (the capped minimum of both) is symmetric in
                    # them: only the movers go again.
                    initiated[rows_r] += 1
                    self._exchange_apply_clean(rows_r[moved], rows_i[moved])
            for rows_i, rows_r in _directions(mixed_rows, both_ways):
                if exchange:
                    self._exchange_pass_mixed(phase, rows_i, rows_r)
                else:
                    self._push_pass_mixed(phase, rows_i, rows_r)

    def run_exchanges_batched(self, round_now: int, pairs) -> None:
        """One balanced-exchange phase over the cell pairing's pairs.

        ``pairs`` lists each cell's exchange pair once (undirected) and
        is one node-disjoint wave; both directions initiate, first the
        left node and then the right, as in the per-pair walk of the
        permutation order.
        """
        rows = self._rows_of_ids(np.asarray(pairs, dtype=np.intp).reshape(-1, 2))
        self.run_phase(
            round_now, (self._split_pair_rows(rows),), Purpose.EXCHANGE,
            both_ways=True,
        )

    def _exchange_apply_clean(self, rows_i, rows_r) -> "np.ndarray":
        """Apply one direction's correct-correct exchanges (no booking).

        Returns the indices (into ``rows_i``) of the pairs that moved.
        """
        config = self.config
        to_initiator, to_partner = batched_word_exchange(
            self.pool,
            rows_i,
            rows_r,
            cap=config.exchange_cap,
            unbalanced=config.unbalanced_exchange,
            prefer_newest=config.exchange_prefer_newest,
        )
        moved = ((to_initiator > 0) | (to_partner > 0)).nonzero()[0]
        if not len(moved):
            return moved
        counters = self.population.counters
        rows_i, rows_r = rows_i[moved], rows_r[moved]
        gained, given = to_initiator[moved], to_partner[moved]
        counters[:, CI_UPDATES_SENT][rows_i] += given
        counters[:, CI_UPDATES_RECEIVED][rows_i] += gained
        counters[:, CI_UPDATES_SENT][rows_r] += gained
        counters[:, CI_UPDATES_RECEIVED][rows_r] += given
        counters[:, CI_EXCHANGES_NONEMPTY][rows_i] += 1
        return moved

    def _exchange_pass_mixed(self, phase: _Phase, rows_i, rows_r) -> None:
        """One direction of the exchange phase over mixed islands.

        The scalar ``_exchange_directed`` → ``interact_exchange``
        decision tree as masked sweeps: islands with an evicted member
        drop out, live initiators book (crash/ideal attackers never
        initiate), attacker-correct islands become one coalition dump
        onto the satiated side, and both-attacker islands are no-ops
        (the coalition already pools knowledge).  Both-correct live
        islands cannot occur here — such an island is clean by
        definition of the split.  Eviction masks refresh between the
        two directed passes, exactly when the scalar order observes
        them: an eviction only ever hits the evicted node's own
        island, and each node sits in exactly one island per phase.
        """
        population = self.population
        byz = phase.byzantine
        evicted = population.evicted
        i_byz = byz[rows_i]
        r_byz = byz[rows_r]
        alive = ~(evicted[rows_i] | evicted[rows_r])
        book = alive if self.attack.trades() else (alive & ~i_byz)
        booked = rows_i.take(book.nonzero()[0])
        population.counters[:, CI_EXCHANGES_INITIATED][booked] += 1
        if phase.pool_words is None:
            return
        dumped = (alive & (i_byz ^ r_byz)).nonzero()[0]
        if not len(dumped):
            return
        givers = np.where(i_byz, rows_i, rows_r)[dumped]
        receivers = np.where(i_byz, rows_r, rows_i)[dumped]
        satiated = phase.satiated[receivers].nonzero()[0]
        if not len(satiated):
            return
        givers, receivers = givers.take(satiated), receivers.take(satiated)
        limits = exchange_dump_limits(
            self.config, phase.obedient[receivers], self.pool.capacity
        )
        self._apply_dump(phase, givers, receivers, limits, Purpose.EXCHANGE)

    def _apply_dump(
        self, phase: _Phase, givers, receivers, limits, purpose
    ) -> None:
        """Batched ``attacker_dump``: one masked word sweep per pass.

        ``receivers`` are already satiated-gated; ``givers`` are the
        attacker rows of the same islands (rows pairwise disjoint, so
        the scatter-adds are exact).  ``updates_served`` sums the
        per-receiver counts including zeros, matching the scalar
        ``dump_for`` accounting.  Reports materialize id tuples only
        for the rows the policy flags.
        """
        counts, selected = batched_word_dump(
            self.pool, phase.pool_words, receivers, limits
        )
        self.attack.updates_served += int(counts.sum())
        gave = counts.nonzero()[0]
        if not len(gave):
            return
        # ``selected`` holds exactly the receivers that gain, in order.
        givers, receivers, counts = givers[gave], receivers[gave], counts[gave]
        counters = self.population.counters
        counters[:, CI_UPDATES_RECEIVED][receivers] += counts
        counters[:, CI_UPDATES_SENT][givers] += counts
        authority = self.authority
        if authority is None:
            return
        flagged = (counts > authority.policy.excess_threshold) & (
            phase.obedient[receivers]
        )
        for k in flagged.nonzero()[0]:
            self._file_dump_report(
                phase.round_now, int(givers[k]), int(receivers[k]), selected[k],
                purpose,
            )

    def _file_dump_report(
        self, round_now: int, giver: int, receiver: int, selected_row, purpose,
    ) -> None:
        """Sign and file one flagged dump (the rare id-materializing path)."""
        pool = self.pool
        bits = words_to_int(selected_row) >> pool.offset
        base = pool.base
        receipt = sign_receipt(
            round_now,
            giver=giver,
            receiver=receiver,
            purpose=purpose,
            updates_given=tuple(base + col for col in iter_bits(bits)),
            updates_returned=(),
        )
        evicted_now = self.authority.file_report(receiver, receipt)
        if evicted_now:
            self.population.evicted[giver] = True
            self.attack.evict(giver)

    def interact_exchange(
        self, round_now: int, initiator: GossipNode, partner: GossipNode
    ) -> None:
        if initiator.is_attacker and partner.is_attacker:
            return  # the coalition already pools knowledge
        if initiator.is_attacker or partner.is_attacker:
            if not self.attack.trades():
                return  # crash / ideal attackers never complete exchanges
            attacker, other = (
                (initiator, partner) if initiator.is_attacker else (partner, initiator)
            )
            self.attacker_dump(round_now, attacker, other, Purpose.EXCHANGE)
            return
        if self.pool is not None:
            to_initiator, to_partner = bitset_exchange(
                self.pool,
                initiator.node_id,
                partner.node_id,
                cap=self.config.exchange_cap,
                unbalanced=self.config.unbalanced_exchange,
                prefer_newest=self.config.exchange_prefer_newest,
            )
            if to_initiator == 0 and to_partner == 0:
                return
            initiator.counters.record_nonempty_exchange(
                sent=to_partner, received=to_initiator
            )
            partner.counters.record_exchange(sent=to_initiator, received=to_partner)
            return
        plan = plan_balanced_exchange(
            initiator.store,
            partner.store,
            cap=self.config.exchange_cap,
            unbalanced=self.config.unbalanced_exchange,
            prefer_newest=self.config.exchange_prefer_newest,
        )
        if plan.size == 0:
            return
        apply_exchange(initiator.store, partner.store, plan)
        initiator.counters.record_nonempty_exchange(
            sent=len(plan.to_responder), received=len(plan.to_initiator)
        )
        partner.counters.record_exchange(
            sent=len(plan.to_initiator), received=len(plan.to_responder)
        )

    def attacker_dump(
        self,
        round_now: int,
        attacker: GossipNode,
        other: GossipNode,
        purpose: Purpose,
    ) -> None:
        """Trade attack: serve a satiated target as much as the channel allows.

        A balanced exchange negotiates its own message sizes, so the
        attacker can hand over everything it has.  The optimistic-push
        channel is bounded by the protocol (the receiver takes at most
        ``push_size`` updates), so dumps through it are capped.
        """
        if not self.attack.is_satiated_target(other.node_id):
            return
        limit = None if purpose is Purpose.EXCHANGE else self.config.push_size
        # The Section 5 rate-limiting defense: an obedient receiver
        # refuses service beyond the per-interaction cap, however much
        # the attacker offers.  Rational receivers happily take it all.
        if (
            self.config.accept_cap is not None
            and other.behavior is Behavior.OBEDIENT
        ):
            limit = (
                self.config.accept_cap
                if limit is None
                else min(limit, self.config.accept_cap)
            )
        give = self.attack.dump_for(other.store.missing, limit=limit)
        if not give:
            return
        other.store.receive_all(give)
        other.counters.add(updates_received=len(give))
        attacker.counters.add(updates_sent=len(give))
        self.maybe_report(round_now, attacker, other, purpose, give)

    def maybe_report(
        self,
        round_now: int,
        giver: GossipNode,
        beneficiary: GossipNode,
        purpose: Purpose,
        updates_given: List[int],
    ) -> None:
        """Reporting defense: obedient beneficiaries report excessive service."""
        if self.authority is None:
            return
        receipt = sign_receipt(
            round_now,
            giver=giver.node_id,
            receiver=beneficiary.node_id,
            purpose=purpose,
            updates_given=tuple(updates_given),
            updates_returned=(),
        )
        if not self.authority.policy.is_excessive(receipt):
            return
        if not self.authority.policy.beneficiary_reports(beneficiary.behavior):
            return
        evicted_now = self.authority.file_report(beneficiary.node_id, receipt)
        if evicted_now:
            giver.evicted = True
            self.attack.evict(giver.node_id)

    def run_pushes(self, round_now: int, order, partners) -> None:
        """One optimistic-push phase (same calling convention as exchanges)."""
        if self.pool is not None:
            self.run_phase(
                round_now, self._phase_waves(order, partners), Purpose.PUSH
            )
            return
        for initiator_id in order:
            partner_id = int(partners[initiator_id])
            if partner_id != initiator_id:  # self-partner: unpaired
                self._push_directed(round_now, initiator_id, partner_id)

    def _push_directed(
        self, round_now: int, initiator_id: int, partner_id: int
    ) -> None:
        """One directed push initiation (shared by all dispatchers)."""
        node_of = self.nodes
        initiator = node_of[initiator_id]
        if initiator.evicted:
            return
        if initiator.is_attacker:
            if not self.attack.trades():
                return
            partner = node_of[partner_id]
            if not partner.evicted and partner.is_correct:
                self.attacker_dump(round_now, initiator, partner, Purpose.PUSH)
            return
        if not initiator.wants_to_push(self.config, round_now):
            return
        partner = node_of[partner_id]
        if partner.evicted:
            return
        initiator.counters.add(pushes_initiated=1)
        if partner.is_attacker:
            # A push lands on the attacker: under the trade attack a
            # satiated initiator gets everything it asked for (and
            # more); everyone else gets silence.
            if self.attack.trades():
                self.attacker_dump(round_now, partner, initiator, Purpose.PUSH)
            return
        if self.pool is not None:
            self._push_bitset(round_now, initiator, partner)
            return
        plan = plan_optimistic_push(
            initiator.store, partner.store, self.config, round_now
        )
        if not partner.responds_to_push(len(plan.to_responder)):
            return
        apply_push(initiator.store, partner.store, plan)
        self._record_push(
            initiator,
            partner,
            to_responder=len(plan.to_responder),
            to_initiator=len(plan.to_initiator),
            junk_units=plan.junk_units,
        )

    def run_pushes_batched(self, round_now: int, pairs) -> None:
        """One optimistic-push phase over the cell pairing's pairs.

        Mirrors :meth:`run_exchanges_batched`; the second direction's
        willingness is evaluated after the first has been applied, as
        in the per-pair order.
        """
        rows = self._rows_of_ids(np.asarray(pairs, dtype=np.intp).reshape(-1, 2))
        self.run_phase(
            round_now, (self._split_pair_rows(rows),), Purpose.PUSH, both_ways=True
        )

    def _push_pass_mixed(self, phase: _Phase, rows_i, rows_r) -> None:
        """One direction of the push phase over mixed islands.

        The scalar ``_push_directed`` decision tree as masked sweeps.
        A live attacker initiator never books a push — under the trade
        attack it answers with a push-capped dump when its responder
        is a live correct satiated target.  A live correct initiator
        books when willing (the batched eligibility sweep) and its
        responder is live; a booked push landing on a trading attacker
        comes back as a reverse dump onto the initiator.  Both-correct
        live islands cannot occur here (they are clean by the split's
        definition), so no plain push transfer ever happens in this
        pass.
        """
        population = self.population
        byz = phase.byzantine
        obedient = phase.obedient
        evicted = population.evicted
        i_byz = byz[rows_i]
        r_byz = byz[rows_r]
        correct_i = (~i_byz & ~evicted[rows_i]).nonzero()[0]
        rows_ci = rows_i.take(correct_i)
        rows_cr = rows_r.take(correct_i)
        wants = batched_push_eligibility(
            self.pool, rows_ci, obedient[rows_ci], phase.windows
        )
        book = (wants & ~evicted[rows_cr]).nonzero()[0]
        rows_ci, rows_cr = rows_ci.take(book), rows_cr.take(book)
        population.counters[:, CI_PUSHES_INITIATED][rows_ci] += 1
        if phase.pool_words is None:
            return
        # Forward dumps (attacker initiator onto its correct responder),
        # then reverse dumps (a booked push landing on an attacker), as
        # one sweep.  Exact: the pairs are node-disjoint, so neither
        # dump touches a row the eligibility sweep or the other dump
        # reads, an eviction hits only its own giver, and the reports
        # keep their forward-then-reverse filing order.
        alive = ~(evicted[rows_i] | evicted[rows_r])
        forward = (alive & i_byz & ~r_byz).nonzero()[0]
        back = byz[rows_cr].nonzero()[0]
        givers = np.concatenate((rows_i.take(forward), rows_cr.take(back)))
        receivers = np.concatenate((rows_r.take(forward), rows_ci.take(back)))
        satiated = phase.satiated[receivers].nonzero()[0]
        if not len(satiated):
            return
        receivers = receivers.take(satiated)
        self._apply_dump(
            phase,
            givers.take(satiated),
            receivers,
            push_dump_limits(self.config, obedient[receivers]),
            Purpose.PUSH,
        )

    def _push_pass_batched(self, phase: _Phase, rows_i, rows_r) -> None:
        """One direction of the batched push phase.

        The willingness rule is ``GossipNode.wants_to_push`` evaluated
        as one masked array sweep over the population columns
        (:func:`~repro.bargossip.push.batched_push_eligibility`);
        counter updates for the eligible pairs land as scatter-adds on
        the counters matrix.
        """
        wants = batched_push_eligibility(
            self.pool, rows_i, phase.obedient[rows_i], phase.windows
        )
        willing = wants.nonzero()[0]
        if not len(willing):
            return
        rows_i, rows_r = rows_i[willing], rows_r[willing]
        responder_counts, initiator_counts = batched_word_push(
            self.pool, rows_i, rows_r, self.config, phase.windows
        )
        counters = self.population.counters
        counters[:, CI_PUSHES_INITIATED][rows_i] += 1
        applied = responder_counts.nonzero()[0]
        if not len(applied):
            return
        rows_i, rows_r = rows_i[applied], rows_r[applied]
        to_responder = responder_counts[applied]
        to_initiator = initiator_counts[applied]
        junk = to_responder - to_initiator
        counters[:, CI_PUSHES_NONEMPTY][rows_i] += 1
        counters[:, CI_UPDATES_SENT][rows_i] += to_responder
        counters[:, CI_UPDATES_RECEIVED][rows_i] += to_initiator
        counters[:, CI_UPDATES_SENT][rows_r] += to_initiator
        counters[:, CI_UPDATES_RECEIVED][rows_r] += to_responder
        counters[:, CI_JUNK_SENT][rows_r] += junk
        counters[:, CI_JUNK_RECEIVED][rows_i] += junk

    def _push_bitset(
        self, round_now: int, initiator: GossipNode, partner: GossipNode
    ) -> None:
        """One correct-correct optimistic push on packed int rows."""
        plan = bitset_plan_push(
            self.pool, initiator.node_id, partner.node_id, self.config, round_now
        )
        if not partner.responds_to_push(plan.responder_count):
            return
        bitset_apply_push(self.pool, initiator.node_id, partner.node_id, plan)
        self._record_push(
            initiator,
            partner,
            to_responder=plan.responder_count,
            to_initiator=plan.initiator_count,
            junk_units=plan.junk_units,
        )

    def _record_push(
        self,
        initiator: GossipNode,
        partner: GossipNode,
        to_responder: int,
        to_initiator: int,
        junk_units: int,
    ) -> None:
        """Book one applied push into both sides' service counters."""
        initiator.counters.add(
            pushes_nonempty=1,
            updates_sent=to_responder,
            updates_received=to_initiator,
            junk_received=junk_units,
        )
        partner.counters.add(
            updates_sent=to_initiator,
            updates_received=to_responder,
            junk_sent=junk_units,
        )


class GossipSimulator(RoundSimulator):
    """A complete BAR Gossip system under (possibly) attack.

    Parameters
    ----------
    config:
        Protocol and population parameters (Table 1 by default).
    attack:
        The attacker coalition; ``None`` means no attack.
    seed:
        Root seed; the whole trace is a deterministic function of it.
    reporting:
        When given, enables the Section 4 reporting defense with the
        given policy.
    measure_from_round:
        Updates created before this round are warm-up and excluded
        from delivery statistics.  Defaults to one update lifetime.
    rotate_targets_every:
        When set, the attacker re-draws its satiated target set every
        this many rounds — the paper's rotating variant that spreads
        intermittent starvation over the whole population.
    execution:
        The :class:`~repro.bargossip.scenario.ExecutionConfig` deciding
        the backend and phase blocking (never change results) and, via
        ``shards``, the partner model (0 = the paper's uniform draws,
        1 = the 4-node-cell pairing).
    network:
        The :class:`~repro.bargossip.network.NetworkModel` between the
        nodes; a non-ideal model requires ``schedule="event"``.
    schedule:
        ``"rounds"`` runs the paper's synchronous schedule;
        ``"event"`` replays the same protocol through the virtual-time
        event engine (bit-identical under the ideal network, pinned by
        the schedule-parity suite).
    delivery_threshold:
        The coverage fraction the event schedule's time-to-delivery
        metric waits for (default 90%).
    """

    def __init__(
        self,
        config: GossipConfig,
        attack: Optional[AttackerCoalition] = None,
        seed: int = 0,
        reporting: Optional[ReportingPolicy] = None,
        measure_from_round: Optional[int] = None,
        rotate_targets_every: Optional[int] = None,
        execution: Optional["ExecutionConfig"] = None,
        network: Optional[NetworkModel] = None,
        schedule: str = "rounds",
        delivery_threshold: float = 0.9,
    ) -> None:
        from .scenario import ExecutionConfig

        self.config = config
        self.execution = execution if execution is not None else ExecutionConfig()
        self.network = network if network is not None else NetworkModel.ideal()
        if schedule not in ("rounds", "event"):
            raise ConfigurationError(
                f"schedule must be 'rounds' or 'event', got {schedule!r}"
            )
        if schedule == "rounds" and not self.network.is_ideal:
            raise ConfigurationError(
                "a non-ideal NetworkModel (latency/loss/churn) requires "
                "schedule='event'"
            )
        if schedule == "event" and self.execution.shards:
            raise ConfigurationError(
                "schedule='event' runs the uniform partner draws; got "
                f"ExecutionConfig(shards={self.execution.shards})"
            )
        self.schedule = schedule
        self.attack = attack if attack is not None else AttackerCoalition(AttackKind.NONE)
        self._streams = RngStreams(seed)
        partner_rng = self._streams.get("partners")
        self._partners = (
            ShardedPartnerSchedule(config.n_nodes, partner_rng)
            if self.execution.shards
            else PartnerSchedule(config.n_nodes, partner_rng)
        )
        self._seeding_rng = self._streams.get("seeding")
        self._order_rng = self._streams.get("order")
        self._roles_rng = self._streams.get("roles")
        self.ledger = UpdateLedger(
            updates_per_round=config.updates_per_round, lifetime=config.update_lifetime
        )
        self.stats = DeliveryStats()
        self.authority = (
            EvictionAuthority(policy=reporting) if reporting is not None else None
        )
        self.measure_from_round = (
            config.update_lifetime if measure_from_round is None else measure_from_round
        )
        if rotate_targets_every is not None and rotate_targets_every < 1:
            raise ConfigurationError(
                f"rotate_targets_every must be >= 1 or None, got {rotate_targets_every}"
            )
        self.rotate_targets_every = rotate_targets_every
        self._rotation_rng = self._streams.get("rotation")
        #: The dense word-row population store on the words backend; None
        #: on the reference set backend.  Owned by the simulator: node
        #: stores are lightweight views into it.
        self._pool: Optional[WordPopulationStore] = (
            WordPopulationStore(
                config.n_nodes, config.updates_per_round, config.update_lifetime
            )
            if self.execution.backend == "words"
            else None
        )
        #: The columnar per-node state (counters matrix, group /
        #: behaviour codes, eviction flags) — every backend uses it;
        #: node objects are views into its columns.
        self.population = Population(config.n_nodes)
        self._assign_roles()
        #: The node views, indexed by node id and built on first access.
        self.nodes = NodeViews(config.n_nodes, self._make_node)
        # Per-node (delivered, missed) tallies over the measured window
        # (see the `per_node_delivered` property): plain lists on the
        # set backend (cheap scalar increments), arrays on the words
        # backend (batch accumulation in the vectorized expiry).  The
        # same split applies to the per-epoch window tallies.
        if self._pool is not None:
            self._delivered_by_node = np.zeros(config.n_nodes, dtype=np.int64)
            self._missed_by_node = np.zeros(config.n_nodes, dtype=np.int64)
            self._window_tallies: Optional[Dict[int, List[np.ndarray]]] = {}
            self._windows_by_node: Optional[Dict[int, Dict[int, List[int]]]] = None
        else:
            self._delivered_by_node = [0] * config.n_nodes
            self._missed_by_node = [0] * config.n_nodes
            self._window_tallies = None
            self._windows_by_node = {
                node_id: {} for node_id in range(config.n_nodes)
            }
        #: The full-population interaction engine: both partner models
        #: run their phases through it.
        self._engine = InteractionEngine(
            self.nodes,
            config,
            self.attack,
            self.authority,
            pool=self._pool,
            population=self.population,
        )
        #: Event-schedule state.  The network and churn RNGs are
        #: dedicated streams, so enabling the event engine (or any of
        #: the network model) never perturbs the protocol's own draws —
        #: the invariant behind the schedule-parity pin.
        if schedule == "event":
            self._events: Optional[EventQueue] = EventQueue()
            self._net_rng = self._streams.get("network")
            self._churn_rng = self._streams.get("churn")
            self._departed: Optional[np.ndarray] = np.zeros(
                config.n_nodes, dtype=bool
            )
            self.network_stats: Optional[NetworkStats] = NetworkStats()
            self._reach: Optional[DeliveryTimeTracker] = DeliveryTimeTracker(
                threshold=delivery_threshold
            )
            self._leave_armed = False
            self._join_armed = False
            self._event_round = 0
            self._handlers = {
                ExchangeSend: self._on_exchange_send,
                ExchangeDeliver: self._on_exchange_deliver,
                PushSend: self._on_push_send,
                PushDeliver: self._on_push_deliver,
                PartnerTimeout: self._on_partner_timeout,
                NodeLeave: self._on_node_leave,
                NodeJoin: self._on_node_join,
            }
        else:
            self._events = None
            self._departed = None
            self.network_stats = None
            self._reach = None
        self._round = 0

    # ------------------------------------------------------------------
    # Resource lifecycle
    # ------------------------------------------------------------------

    def memory_breakdown(self) -> Dict[str, int]:
        """Per-component bytes of the flat population state (words backend).

        The scaling budget: word rows (the have matrix plus the shared
        live row), the counters matrix, and the per-node role/eviction
        code columns.
        """
        if self._pool is None:
            raise SimulationError(
                "memory_breakdown requires the words backend, "
                f"got backend={self.execution.backend!r}"
            )
        store = self._pool.memory_breakdown()
        population = self.population.memory_breakdown()
        breakdown = {
            "word_row_bytes": store["word_row_bytes"],
            "counter_bytes": population["counter_bytes"],
            "code_column_bytes": population["code_column_bytes"],
        }
        breakdown["total_bytes"] = sum(breakdown.values())
        breakdown["bytes_per_node"] = breakdown["total_bytes"] // self.config.n_nodes
        return breakdown

    def close(self) -> None:
        """Nothing to release: every backend lives on the process heap.

        Kept for callers that release a simulator when they are done
        with it.
        """

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _assign_roles(self) -> None:
        """Write the group and behaviour columns from the coalition.

        Coalition members are Byzantine attackers; every other node is
        a satiated or isolated target, obedient with probability
        ``obedient_fraction``.  The obedience draws are one
        ``random(n_correct)`` call over the correct ids in ascending
        order, which yields the same doubles as one scalar draw per
        correct node.
        """
        n_nodes = self.config.n_nodes
        attackers = np.fromiter(self.attack.nodes, dtype=np.int64)
        targets = np.fromiter(self.attack.satiated_targets, dtype=np.int64)
        ids = np.concatenate((attackers, targets))
        bad = ids[(ids < 0) | (ids >= n_nodes)]
        if len(bad):
            raise ConfigurationError(
                f"attack references unknown nodes: {np.unique(bad).tolist()}"
            )
        population = self.population
        population.group_codes[:] = GROUP_CODES[TargetGroup.ISOLATED]
        population.group_codes[targets] = GROUP_CODES[TargetGroup.SATIATED]
        population.group_codes[attackers] = GROUP_CODES[TargetGroup.ATTACKER]
        correct = population.correct_mask
        obedient = (
            self._roles_rng.random(int(correct.sum()))
            < self.config.obedient_fraction
        )
        behavior = population.behavior_codes
        behavior[attackers] = BEHAVIOR_CODES[Behavior.BYZANTINE]
        behavior[correct] = np.where(
            obedient,
            BEHAVIOR_CODES[Behavior.OBEDIENT],
            BEHAVIOR_CODES[Behavior.RATIONAL],
        )

    def _make_node(self, node_id: int) -> GossipNode:
        """The view of node ``node_id`` (built once, by :attr:`nodes`)."""
        store = self._pool.view(node_id) if self._pool is not None else None
        return GossipNode.view(self.population, node_id, store)

    # ------------------------------------------------------------------
    # Per-node tally views (backend-independent API)
    # ------------------------------------------------------------------

    @property
    def per_node_delivered(self) -> List[int]:
        """Per-node delivered tallies over the measured window.

        The rotating attack is judged on this distribution (group
        labels lose meaning once targets move around).  On the set
        backend this is the live mutable list; the words backend
        materializes its accumulator array on access.
        """
        if isinstance(self._delivered_by_node, list):
            return self._delivered_by_node
        return self._delivered_by_node.tolist()

    @property
    def per_node_missed(self) -> List[int]:
        """Per-node missed tallies over the measured window."""
        if isinstance(self._missed_by_node, list):
            return self._missed_by_node
        return self._missed_by_node.tolist()

    @property
    def per_node_windows(self) -> Dict[int, Dict[int, List[int]]]:
        """Per-node tallies bucketed by streaming epoch.

        One update lifetime per window:
        ``{node: {window: [delivered, missed]}}``.  This is what
        exposes *intermittent* unusability under the rotating attack,
        which long-run averages hide.
        """
        if self._windows_by_node is not None:
            return self._windows_by_node
        windows: Dict[int, Dict[int, List[int]]] = {
            node_id: {} for node_id in range(self.config.n_nodes)
        }
        correct_ids = np.flatnonzero(self.population.correct_mask)
        for window, (delivered, missed) in sorted(self._window_tallies.items()):
            for node_id in correct_ids:
                windows[int(node_id)][window] = [
                    int(delivered[node_id]),
                    int(missed[node_id]),
                ]
        return windows

    # ------------------------------------------------------------------
    # RoundSimulator interface
    # ------------------------------------------------------------------

    @property
    def round(self) -> int:
        return self._round

    def step(self) -> None:
        if self.schedule == "event":
            self._step_event()
            return
        round_now = self._round
        self._maybe_rotate_targets(round_now)
        self._broadcast(round_now)
        self._attack_out_of_band()
        if self.execution.shards:
            self._step_cells(round_now)
        else:
            order = self._order_rng.permutation(self.config.n_nodes)
            if self._pool is None:
                # The sets oracle walks the order in Python: plain ints.
                order = order.tolist()
            self._engine.run_exchanges(
                round_now,
                order,
                self._partners.partners_for_round(round_now, Purpose.EXCHANGE),
            )
            self._engine.run_pushes(
                round_now,
                order,
                self._partners.partners_for_round(round_now, Purpose.PUSH),
            )
        self._expire(round_now)
        self._round += 1

    def _step_cells(self, round_now: int) -> None:
        """Exchange and push phases of one round on the cell pairing.

        On the words backend each phase's pairs are one node-disjoint
        wave, run both ways through :meth:`InteractionEngine.run_phase`;
        the sets oracle walks the pairs in canonical (permutation)
        order.  The shard-parity suite pins the two to bit-identical
        traces.
        """
        schedule = self._partners
        if self._pool is not None:
            self._engine.run_exchanges_batched(
                round_now, schedule.round_pairs(round_now, Purpose.EXCHANGE)
            )
            self._engine.run_pushes_batched(
                round_now, schedule.round_pairs(round_now, Purpose.PUSH)
            )
            return
        order = schedule.round_order(round_now)
        self._engine.run_exchanges(
            round_now,
            order,
            schedule.partners_for_round(round_now, Purpose.EXCHANGE),
        )
        self._engine.run_pushes(
            round_now,
            order,
            schedule.partners_for_round(round_now, Purpose.PUSH),
        )

    # ------------------------------------------------------------------
    # Event schedule (virtual time)
    # ------------------------------------------------------------------

    def _step_event(self) -> None:
        """One round on the virtual-time event engine.

        The round's broadcast, rotation and out-of-band attack happen
        at the round boundary exactly as in the classic schedule, and
        the initiation order and partner assignments are drawn from the
        *same* streams — the event layer only decides when (and
        whether) each interaction's delivery happens.  All sends are
        enqueued at the round-start time; with zero latency every
        delivery lands at the same timestamp and the queue's insertion
        order replays the classic order bit-exact.  Deliveries delayed
        past the round boundary stay queued and apply next round.
        """
        round_now = self._round
        network = self.network
        t_start = round_now * network.round_duration
        t_end = t_start + network.round_duration
        self._maybe_rotate_targets(round_now)
        fresh = self._broadcast(round_now)
        measured = [
            update
            for update in fresh
            if creation_round(update, self.config.updates_per_round)
            >= self.measure_from_round
        ]
        self._reach.release(measured, t_start)
        self._attack_out_of_band()
        self._arm_churn(t_start)
        order = self._order_rng.permutation(self.config.n_nodes).tolist()
        exchange_partners = self._partners.partners_for_round(
            round_now, Purpose.EXCHANGE
        )
        push_partners = self._partners.partners_for_round(round_now, Purpose.PUSH)
        events = self._events
        for initiator_id in order:
            partner_id = int(exchange_partners[initiator_id])
            if partner_id != initiator_id:  # self-partner: unpaired
                events.push(t_start, ExchangeSend(initiator_id, partner_id))
        for initiator_id in order:
            partner_id = int(push_partners[initiator_id])
            if partner_id != initiator_id:
                events.push(t_start, PushSend(initiator_id, partner_id))
        handlers = self._handlers
        self._event_round = round_now
        while events and events.peek_time() < t_end:
            time_now, event = events.pop()
            handlers[type(event)](time_now, event)
        self._sample_delivery_times(t_end)
        self._expire(round_now)
        # An update created at round c is live through round
        # c + lifetime - 1; whatever just expired leaves the tracker
        # as lost-to-the-network.
        lifetime = self.config.update_lifetime
        self._reach.expire_unreached(
            [
                update
                for update in self._reach.pending
                if creation_round(update, self.config.updates_per_round)
                + lifetime
                - 1
                <= round_now
            ]
        )
        self.network_stats.in_flight_at_end = len(events)
        self._round += 1

    def _transmit(
        self, time_now: float, initiator_id: int, partner_id: int, deliver_cls
    ) -> None:
        """Hand one message to the network: loss, then latency."""
        if self._departed[initiator_id]:
            return  # left before acting; nothing reaches the wire
        network = self.network
        stats = self.network_stats
        stats.messages_sent += 1
        # rng.random() is in [0, 1), so loss_rate=1.0 drops every
        # message and loss_rate=0.0 (guarded: no draw) drops none.
        if network.loss_rate > 0.0 and self._net_rng.random() < network.loss_rate:
            stats.messages_lost += 1
            return
        self._events.push(
            time_now + network.sample_latency(self._net_rng),
            deliver_cls(initiator_id, partner_id),
        )

    def _on_exchange_send(self, time_now: float, event: ExchangeSend) -> None:
        self._transmit(time_now, event.initiator, event.partner, ExchangeDeliver)

    def _on_push_send(self, time_now: float, event: PushSend) -> None:
        self._transmit(time_now, event.initiator, event.partner, PushDeliver)

    def _on_exchange_deliver(
        self, time_now: float, event: ExchangeDeliver
    ) -> None:
        if not self._deliverable(time_now, event):
            return
        self._engine._exchange_directed(
            self._event_round, event.initiator, event.partner
        )

    def _on_push_deliver(self, time_now: float, event: PushDeliver) -> None:
        if not self._deliverable(time_now, event):
            return
        self._engine._push_directed(
            self._event_round, event.initiator, event.partner
        )

    def _deliverable(self, time_now: float, event) -> bool:
        """Churn check at delivery time.

        A delivery to a departed partner starts the initiator's
        liveness timer (the initiator observes silence, it cannot
        *know* the partner left); a departed initiator aborts the
        interaction outright.  Neither books service counters — no
        interaction happened.
        """
        stats = self.network_stats
        if self._departed[event.partner]:
            stats.messages_to_departed += 1
            self._events.push(
                time_now + self.network.liveness_timeout,
                PartnerTimeout(event.initiator, event.partner),
            )
            return False
        if self._departed[event.initiator]:
            stats.aborted_by_churn += 1
            return False
        return True

    def _on_partner_timeout(
        self, time_now: float, event: PartnerTimeout
    ) -> None:
        # Detection, not assumption: the timeout only confirms a
        # departure if the partner is *still* gone when it fires; a
        # node that rejoined in the meantime answered the probe.
        if self._departed[event.partner]:
            self.network_stats.departures_detected += 1

    def _arm_churn(self, time_now: float) -> None:
        """Schedule the next leave/join from the aggregate Poisson rates.

        One pending event per direction; the waiting time is
        exponential with rate (per-node rate x eligible population),
        re-drawn whenever the eligible population changed (after every
        churn event and at each round start).  Zero rates draw nothing,
        so the churn stream stays untouched in ideal runs.
        """
        network = self.network
        if network.churn_leave_rate > 0.0 and not self._leave_armed:
            eligible = int(
                (
                    self.population.correct_mask
                    & ~self.population.evicted
                    & ~self._departed
                ).sum()
            )
            if eligible > 0:
                wait = self._churn_rng.exponential(
                    1.0 / (network.churn_leave_rate * eligible)
                )
                self._events.push(time_now + wait, NodeLeave())
                self._leave_armed = True
        if network.churn_join_rate > 0.0 and not self._join_armed:
            departed_count = int(self._departed.sum())
            if departed_count > 0:
                wait = self._churn_rng.exponential(
                    1.0 / (network.churn_join_rate * departed_count)
                )
                self._events.push(time_now + wait, NodeJoin())
                self._join_armed = True

    def _on_node_leave(self, time_now: float, event: NodeLeave) -> None:
        self._leave_armed = False
        candidates = np.flatnonzero(
            self.population.correct_mask
            & ~self.population.evicted
            & ~self._departed
        )
        if len(candidates):
            victim = int(candidates[self._churn_rng.integers(len(candidates))])
            self._departed[victim] = True
            self.network_stats.leaves += 1
        self._arm_churn(time_now)

    def _on_node_join(self, time_now: float, event: NodeJoin) -> None:
        self._join_armed = False
        candidates = np.flatnonzero(self._departed)
        if len(candidates):
            joiner = int(candidates[self._churn_rng.integers(len(candidates))])
            self._departed[joiner] = False
            self.network_stats.joins += 1
            self._bootstrap(joiner)
        self._arm_churn(time_now)

    def _bootstrap(self, joiner: int) -> None:
        """Re-seed a rejoining node's live-update state from one donor.

        A node that was gone missed announcements and deliveries alike;
        on rejoin it syncs against a random live correct node, gaining
        every live update the donor holds that it does not.  (The
        announcements themselves — which updates exist — are already in
        its store: the window advances globally.)
        """
        mask = (
            self.population.correct_mask
            & ~self.population.evicted
            & ~self._departed
        )
        mask[joiner] = False
        donors = np.flatnonzero(mask)
        if not len(donors):
            return
        donor = int(donors[self._churn_rng.integers(len(donors))])
        store = self.nodes[joiner].store
        donor_have = self.nodes[donor].store.have
        gained = [update for update in sorted(store.missing) if update in donor_have]
        if gained:
            store.receive_all(gained)
            self.network_stats.bootstrap_updates += len(gained)

    def _sample_delivery_times(self, time_now: float) -> None:
        """Round-boundary coverage sample for the time-to-x% metric."""
        reach = self._reach
        if not reach.pending:
            return
        alive = self.population.correct_mask & ~self.population.evicted
        alive &= ~self._departed
        total = int(alive.sum())
        if total == 0:
            return
        needed = reach.threshold * total
        if self._pool is not None:
            pool = self._pool
            for update in list(reach.pending):
                held_counts = pool.masked_have_popcounts(pool.mask_of([update]))
                if int(held_counts[alive].sum()) >= needed:
                    reach.mark_reached(update, time_now)
        else:
            alive_nodes = [self.nodes[int(i)] for i in np.flatnonzero(alive)]
            for update in list(reach.pending):
                held = sum(
                    1 for node in alive_nodes if update in node.store.have
                )
                if held >= needed:
                    reach.mark_reached(update, time_now)

    def delivery_time_summary(self) -> Optional[Dict[str, Optional[float]]]:
        """Virtual-time delivery metrics, or None on the rounds schedule."""
        return self._reach.summary() if self._reach is not None else None

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------

    def _maybe_rotate_targets(self, round_now: int) -> None:
        """Re-draw the satiated set on the rotation schedule."""
        if (
            self.rotate_targets_every is None
            or not self.attack.active
            or self.attack.kind is AttackKind.CRASH
            or round_now % self.rotate_targets_every != 0
        ):
            return
        group_codes = self.population.group_codes
        correct = np.flatnonzero(self.population.correct_mask)
        count = min(len(self.attack.satiated_targets), len(correct))
        if count == 0:
            return
        picks = self._rotation_rng.choice(len(correct), size=count, replace=False)
        new_targets = correct[picks]
        self.attack.retarget(new_targets.tolist())
        # The expiry-scoring masks read this column, so they follow.
        group_codes[correct] = GROUP_CODES[TargetGroup.ISOLATED]
        group_codes[new_targets] = GROUP_CODES[TargetGroup.SATIATED]

    def _broadcast(self, round_now: int) -> List[int]:
        """Release this round's updates and seed each to random nodes.

        Returns the fresh update ids.  Each update draws its seeded
        nodes in release order (the seeding stream's sequence); the
        words backend then writes every seed at once.  Under the event
        schedule a seed drawn for a departed node is skipped (the node
        is not there to receive it) — without churn the filter never
        fires, keeping the seeding stream parity-exact with the classic
        schedule.  The coalition pools every update a live member was
        seeded: the members are the Byzantine rows, less the evicted
        ones, which the coalition drops as it evicts them.
        """
        fresh = self.ledger.release(round_now)
        copies = self.config.copies_seeded
        seeded = np.array(
            [
                self._seeding_rng.choice(
                    self.config.n_nodes, size=copies, replace=False
                )
                for _ in fresh
            ],
            dtype=np.intp,
        ).reshape(len(fresh), copies)
        if self._departed is None:
            landed = np.ones(seeded.shape, dtype=bool)
        else:
            landed = ~self._departed[seeded]
            self.network_stats.seeds_to_departed += int(landed.size - landed.sum())
        pool = self._pool
        if pool is not None:
            pool.advance_to(round_now)
            first_col = fresh[0] - pool.base
            pool.announce_fresh(first_col, len(fresh))
            cols = np.arange(first_col, first_col + len(fresh))
            pool.seed(
                seeded[landed], np.broadcast_to(cols[:, None], seeded.shape)[landed]
            )
        else:
            for update, row, lands in zip(fresh, seeded.tolist(), landed.tolist()):
                seeded_set = {node for node, land in zip(row, lands) if land}
                for node in self.nodes:
                    node.store.announce(update, node.node_id in seeded_set)
        population = self.population
        members = (
            landed
            & ~population.evicted[seeded]
            & (population.behavior_codes[seeded] == _BYZANTINE_CODE)
        )
        self.attack.pool.update(
            fresh[k] for k in members.any(axis=1).nonzero()[0].tolist()
        )
        return fresh

    def _attack_out_of_band(self) -> None:
        """Ideal attack: broadcast the coalition's pool to all targets.

        On the words backend this is one masked word sweep over all
        target rows (pooled-have AND per-target missing), so the ideal
        attack stays off the per-node scalar path at scale; targets are
        independent receivers of a read-only pool, so the batch is
        order-exact against the per-target loop.
        """
        if not self.attack.broadcasts_out_of_band():
            return
        departed = self._departed
        pool = self._pool
        if pool is not None:
            # The engine's cached mask (row == node id here): rebuilt
            # only when the coalition retargets.
            satiated = self._engine._satiated_row_mask()
            if departed is not None:
                satiated = satiated & ~departed
            rows = satiated.nonzero()[0]
            if not len(rows):
                return
            mask = self.attack.pool_mask(pool.base, pool.capacity)
            give = pool.missing_rows(rows)
            give &= pool.mask_words(mask)
            counts = word_popcounts(give)
            pool.have_words[rows] |= give
            self.attack.updates_served += int(counts.sum())
            gained = counts > 0
            self.population.counters[:, CI_UPDATES_RECEIVED][rows[gained]] += counts[
                gained
            ]
            return
        for target in self.attack.satiated_targets:
            if departed is not None and departed[target]:
                continue  # not there to receive the out-of-band dump
            node = self.nodes[target]
            give = self.attack.dump_for(node.store.missing)
            node.store.receive_all(give)
            node.counters.updates_received += len(give)

    def _expire(self, round_now: int) -> None:
        due = self.ledger.expire_due(round_now)
        if not due:
            return
        self.attack.expire(due)
        if self._pool is not None:
            self._expire_packed(due)
            return
        tallies: Dict[str, List[int]] = {
            "isolated": [0, 0],
            "satiated": [0, 0],
            "correct": [0, 0],
        }
        delivered_by_node = self._delivered_by_node
        missed_by_node = self._missed_by_node
        windows_by_node = self._windows_by_node
        correct = self.population.correct_mask.tolist()
        satiated = self.population.satiated_mask.tolist()
        for update in due:
            created = creation_round(update, self.config.updates_per_round)
            measured = created >= self.measure_from_round
            window = created // self.config.update_lifetime
            for node in self.nodes:
                held = node.store.expire(update)
                node_id = node.node_id
                if not measured or not correct[node_id]:
                    continue
                if held:
                    delivered_by_node[node_id] += 1
                else:
                    missed_by_node[node_id] += 1
                bucket = windows_by_node[node_id].setdefault(window, [0, 0])
                bucket[0 if held else 1] += 1
                slot = 0 if held else 1
                tallies["correct"][slot] += 1
                tallies["satiated" if satiated[node_id] else "isolated"][slot] += 1
        for group, (delivered, missed) in tallies.items():
            if delivered or missed:
                self.stats.record(group, delivered, missed)

    def _expire_packed(self, due: List[int]) -> None:
        """Batched end-of-life scoring: one popcount per node per round.

        All updates expiring in one round share a creation round (they
        were released together), hence one measured flag and one epoch
        window — so the whole expiry reduces to masking each node's
        packed row and summing the per-group tallies in one pass.
        """
        pool = self._pool
        due_mask = pool.mask_of(due)
        created = creation_round(due[0], self.config.updates_per_round)
        if created >= self.measure_from_round:
            delivered_counts = pool.masked_have_popcounts(due_mask)
            due_each = len(due)
            # Dense adds over every row: an attacker row adds 0, which
            # beats gathering and scattering the correct rows.
            correct = self.population.correct_mask
            delivered = delivered_counts * correct
            missed = (due_each - delivered_counts) * correct
            self._delivered_by_node += delivered
            self._missed_by_node += missed
            window = created // self.config.update_lifetime
            tallies = self._window_tallies.get(window)
            if tallies is None:
                self._window_tallies[window] = [delivered, missed]
            else:
                tallies[0] += delivered
                tallies[1] += missed
            self.stats.record_groups(
                tally_group_codes(
                    delivered_counts, due_each, self.population.group_codes
                )
            )
        pool.clear_mask(due_mask)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------

    def delivery_fraction(self, group: str) -> Optional[float]:
        """Delivery fraction for ``group`` or None if nothing came due."""
        if self.stats.due(group) == 0:
            return None
        return self.stats.fraction(group)

    def per_node_fractions(self) -> Dict[int, float]:
        """Delivery fraction of every correct node with due updates."""
        delivered = np.asarray(self._delivered_by_node, dtype=np.int64)
        due = delivered + np.asarray(self._missed_by_node, dtype=np.int64)
        ids = np.flatnonzero(self.population.correct_mask & (due > 0))
        return dict(zip(ids.tolist(), (delivered[ids] / due[ids]).tolist()))

    def unusable_node_fraction(self, threshold: Optional[float] = None) -> float:
        """Fraction of correct nodes whose stream is not usable.

        The rotating attack's headline metric: under a fixed-target
        attack only the isolated minority suffers; under rotation the
        suffering is spread over (almost) everyone.
        """
        threshold = (
            self.config.usability_threshold if threshold is None else threshold
        )
        fractions = self.per_node_fractions()
        if not fractions:
            return 0.0
        unusable = sum(1 for value in fractions.values() if value <= threshold)
        return unusable / len(fractions)

    def intermittently_unusable_fraction(
        self, threshold: Optional[float] = None
    ) -> float:
        """Fraction of correct nodes with at least one unusable epoch.

        An epoch is one update lifetime's worth of the stream.  Under
        a fixed-target attack only the isolated minority ever has an
        unusable epoch; under the rotating attack "the service [is]
        intermittently unusable for all nodes" — nearly every node has
        some epoch in which it was the isolated one.
        """
        threshold = (
            self.config.usability_threshold if threshold is None else threshold
        )
        correct = self.population.correct_mask
        n_correct = int(correct.sum())
        if not n_correct:
            return 0.0
        if self._window_tallies is None:
            per_node_windows = self.per_node_windows
            hit = 0
            for node_id in np.flatnonzero(correct).tolist():
                for delivered, missed in per_node_windows[node_id].values():
                    due = delivered + missed
                    if due and delivered / due <= threshold:
                        hit += 1
                        break
            return hit / n_correct
        # Words backend: one array pass per epoch over the tallies, with
        # the same float test as the per-node walk above.
        unusable = np.zeros(self.config.n_nodes, dtype=bool)
        for delivered, missed in self._window_tallies.values():
            due = delivered + missed
            counted = due > 0
            fraction = np.divide(
                delivered, due, out=np.ones(len(due)), where=counted
            )
            unusable |= counted & (fraction <= threshold)
        return int(np.count_nonzero(unusable & correct)) / n_correct

    def group_sizes(self) -> Dict[str, int]:
        """Population of each target group."""
        counts = np.bincount(
            self.population.group_codes, minlength=len(GROUPS_BY_CODE)
        )
        return {
            group.value: count
            for group, count in zip(GROUPS_BY_CODE, counts.tolist())
        }


@dataclass(frozen=True)
class GossipExperimentResult:
    """Summary of one attack experiment (one point of a figure curve)."""

    attack: AttackKind
    attacker_fraction: float
    isolated_fraction: Optional[float]
    satiated_fraction: Optional[float]
    correct_fraction: Optional[float]
    pool_coverage: Optional[float]
    group_sizes: Dict[str, int]
    evicted_attackers: int
    #: Which schedule produced the run; the virtual-time fields below
    #: are None on the classic rounds schedule.
    schedule: str = "rounds"
    #: Total virtual time simulated (rounds x round_duration).
    virtual_time: Optional[float] = None
    #: Mean virtual time from an update's release until 90% of the
    #: live correct population holds it (over updates that got there).
    time_to_90_delivery: Optional[float] = None
    #: Fraction of measured updates that reached the 90% threshold
    #: before expiring (the rest were lost to churn/loss/latency).
    delivery_reached_fraction: Optional[float] = None
    #: :class:`~repro.bargossip.network.NetworkStats` as a dict.
    network_stats: Optional[Dict[str, int]] = None

    @property
    def usable_for_isolated(self) -> Optional[bool]:
        """Whether isolated nodes still receive a usable stream (93%)."""
        if self.isolated_fraction is None:
            return None
        return self.isolated_fraction > 0.93
