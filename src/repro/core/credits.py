"""Tit-for-tat credit ledger (§IV-B) and its reputation-hardened variant.

Each node ``u`` maintains a credit value for every other node ``v``,
proportional to how useful ``v``'s transmissions were to ``u``:

* a new metadata (or piece) matching one of ``u``'s queries earns the
  sender ``REQUESTED_METADATA_CREDIT`` (= 5, the paper's constant);
* a new but un-requested item earns the sender its popularity
  (a value in [0, 1]).

Senders then weigh candidate items by the *sum of the credits of the
nodes requesting* them, so contributing nodes receive their desired
items earlier. Duplicates earn nothing.

The plain scheme trusts every claim, which the adversarial strategies
(:mod:`repro.core.strategies`) exploit: exploiters inflate the
popularity they claim for unrequested deliveries, and polluters keep
earning credit between detections. :class:`ReputationCreditLedger`
hardens it with *first-hand* observations only (no gossip, so sybils
cannot launder reputation): every peer starts neutral, verified-useful
deliveries raise its reputation, failed signature/checksum
verifications and caught over-claims lower it, and the value decays
toward neutral over time so stale judgments fade. Requester weights
and the choking credit are scaled by the decayed reputation (that is
how low-reputation peers are discounted) and proven over-claims are
penalized instead of paid. The companion receiver-side defense lives
in the engine: a node under this policy remembers the URIs that
failed verification in its hands (``NodeState.rejected_uris``) and
refuses to be a transmission target for them again, ending the
repeat-broadcast tax a polluter's evergreen fakes otherwise levy on
every contact.

Both ledgers expose one interface (``now=0.0`` defaults keep the plain
ledger's call sites and results bitwise identical to pre-reputation
builds); :func:`make_ledger` picks the variant from
``SimulationConfig.credit_policy``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.types import NodeId

#: Credit for delivering a new item the receiver asked for (§IV-B).
REQUESTED_METADATA_CREDIT: float = 5.0

#: Selectable credit schemes (``SimulationConfig.credit_policy``).
CREDIT_POLICIES: Tuple[str, ...] = ("plain", "reputation")

#: Reputation constants. A peer starts neutral; each verified-useful
#: delivery moves it a ``GAIN`` fraction toward 1.0, each offence a
#: ``PENALTY`` fraction toward 0.0 (offences outpace recovery, so a
#: persistent polluter cannot wash its record by volume), and the
#: value half-lives back toward neutral so one-off judgments expire.
REPUTATION_NEUTRAL: float = 0.5
REPUTATION_GAIN: float = 0.1
REPUTATION_PENALTY: float = 0.5
REPUTATION_HALF_LIFE: float = 86_400.0  # one simulated day


class CreditLedger:
    """Per-node map ``peer -> credit`` with the paper's update rules.

    The ``now``/``claimed`` parameters exist so both credit policies
    share one call interface; the plain ledger ignores time, trusts
    claims, and never penalizes — exactly the paper's scheme.
    """

    policy = "plain"

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self._credits: Dict[NodeId, float] = defaultdict(float)

    def credit_of(self, peer: NodeId) -> float:
        """Current credit of ``peer`` (0.0 if never seen)."""
        return self._credits.get(peer, 0.0)

    def effective_credit(self, peer: NodeId, now: float = 0.0) -> float:
        """Credit as seen by the choking decision (plain: the credit)."""
        return self._credits.get(peer, 0.0)

    def reputation_of(self, peer: NodeId, now: float = 0.0) -> float:
        """Trust in ``peer``; the plain scheme trusts everyone fully."""
        return 1.0

    def reward_requested(self, sender: NodeId, now: float = 0.0) -> None:
        """Sender delivered a new item the owner had requested."""
        if sender == self.owner:
            return
        self._credits[sender] += REQUESTED_METADATA_CREDIT

    def reward_unrequested(
        self,
        sender: NodeId,
        popularity: float,
        now: float = 0.0,
        claimed: Optional[float] = None,
    ) -> None:
        """Sender delivered a new item the owner had not requested.

        ``popularity`` is the signed record value; ``claimed`` is what
        the sender asserted (an exploiter inflates it). The plain
        scheme has no way to notice the difference and pays the claim.
        """
        if sender == self.owner:
            return
        granted = popularity if claimed is None else claimed
        if not 0.0 <= granted <= 1.0:
            raise ValueError(f"popularity must be in [0,1], got {granted}")
        self._credits[sender] += granted

    def penalize(self, sender: NodeId, now: float = 0.0) -> None:
        """Sender was caught misbehaving; the plain scheme shrugs."""

    def weight_of_requesters(
        self, requesters: Iterable[NodeId], now: float = 0.0
    ) -> float:
        """Sum of the owner's credits for ``requesters`` (§IV-B rule).

        Summed in ascending node order: float addition is not
        associative, so a canonical order keeps the value independent
        of the requester set's iteration order.
        """
        return sum(self._credits.get(peer, 0.0) for peer in sorted(requesters))

    def as_mapping(self) -> Mapping[NodeId, float]:
        """Read-only snapshot of the ledger."""
        return dict(self._credits)

    def total_granted(self) -> float:
        """Sum of all credits the owner has granted."""
        return sum(self._credits.values())


class ReputationCreditLedger(CreditLedger):
    """Credit ledger augmented with decayed first-hand reputation.

    Reputation is a per-peer value in [0, 1], neutral 0.5 for
    strangers. It moves on *verified* observations only — a delivery
    that survived signature/checksum verification raises it, a caught
    offence (failed verification, popularity over-claim) lowers it —
    and decays exponentially toward neutral with
    :data:`REPUTATION_HALF_LIFE`, evaluated lazily at read time so no
    periodic sweep is needed. Requester weights are scaled by each
    requester's decayed reputation, :meth:`effective_credit` exposes
    the scaled credit for encrypted choking, and proven popularity
    over-claims are penalized instead of paid, so a low-reputation
    peer is discounted everywhere at once.
    """

    policy = "reputation"

    def __init__(self, owner: NodeId) -> None:
        super().__init__(owner)
        #: peer -> (reputation at last update, last update time)
        self._reputation: Dict[NodeId, Tuple[float, float]] = {}

    def reputation_of(self, peer: NodeId, now: float = 0.0) -> float:
        """Decayed trust in ``peer`` (neutral for strangers)."""
        entry = self._reputation.get(peer)
        if entry is None:
            return REPUTATION_NEUTRAL
        value, updated = entry
        if now > updated:
            decay = 0.5 ** ((now - updated) / REPUTATION_HALF_LIFE)
            value = REPUTATION_NEUTRAL + (value - REPUTATION_NEUTRAL) * decay
        return value

    def _observe(self, peer: NodeId, now: float, good: bool) -> None:
        value = self.reputation_of(peer, now)
        if good:
            value += REPUTATION_GAIN * (1.0 - value)
        else:
            value -= REPUTATION_PENALTY * value
        self._reputation[peer] = (value, now)

    def effective_credit(self, peer: NodeId, now: float = 0.0) -> float:
        """Credit scaled by decayed reputation (drives choking)."""
        return self._credits.get(peer, 0.0) * self.reputation_of(peer, now)

    def reward_requested(self, sender: NodeId, now: float = 0.0) -> None:
        # Verified-useful delivery: full §IV-B credit (deliberately NOT
        # scaled by reputation — honest strangers start neutral, and
        # taxing their bootstrap degrades the network the defense is
        # supposed to protect) plus a reputation gain.
        if sender == self.owner:
            return
        self._observe(sender, now, good=True)
        self._credits[sender] += REQUESTED_METADATA_CREDIT

    def reward_unrequested(
        self,
        sender: NodeId,
        popularity: float,
        now: float = 0.0,
        claimed: Optional[float] = None,
    ) -> None:
        if sender == self.owner:
            return
        if not 0.0 <= popularity <= 1.0:
            raise ValueError(f"popularity must be in [0,1], got {popularity}")
        if claimed is not None and claimed > popularity:
            # The claim exceeds the signed record's own popularity:
            # an over-claim the receiver can prove. Punish, pay nothing.
            self.penalize(sender, now)
            return
        self._observe(sender, now, good=True)
        self._credits[sender] += popularity

    def penalize(self, sender: NodeId, now: float = 0.0) -> None:
        """Caught offence: reputation drops, earned credit is docked."""
        if sender == self.owner:
            return
        self._observe(sender, now, good=False)
        credit = self._credits.get(sender, 0.0)
        if credit > 0.0:
            self._credits[sender] = credit * (1.0 - REPUTATION_PENALTY)

    def weight_of_requesters(
        self, requesters: Iterable[NodeId], now: float = 0.0
    ) -> float:
        """Requester credits weighted by decayed reputation.

        Low-reputation peers count for less, so items requested mainly
        by known offenders lose scheduling priority. Summed in
        ascending node order for the same reason as the plain ledger.
        """
        return sum(
            self._credits.get(peer, 0.0) * self.reputation_of(peer, now)
            for peer in sorted(requesters)
        )

    def reputations(self, now: float = 0.0) -> Mapping[NodeId, float]:
        """Snapshot of decayed reputations (observed peers only)."""
        return {peer: self.reputation_of(peer, now) for peer in self._reputation}


def make_ledger(policy: str, owner: NodeId) -> CreditLedger:
    """Construct the ledger variant named by ``policy``."""
    if policy == "plain":
        return CreditLedger(owner)
    if policy == "reputation":
        return ReputationCreditLedger(owner)
    raise ValueError(
        f"unknown credit policy {policy!r}; choose from {', '.join(CREDIT_POLICIES)}"
    )
