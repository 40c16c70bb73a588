"""Adversarial node strategies: the strategic threat surface (§IV-B).

The fault layer (:mod:`repro.faults`) stresses the *channel*; this
module stresses the *peers*. The paper's cooperative sharing scheme
rests on a tit-for-tat credit mechanism that assumes nodes honestly
report, relay and serve pieces — the related work ("Building Better
Incentives for Robustness in BitTorrent"; "Incentive-rewarding
mechanisms … heterogeneous DTNs") names the strategies that break that
assumption. Each is a :class:`Strategy` value plugged into
:class:`~repro.core.node.NodeState` and consulted by the
:class:`~repro.core.mbt.MobileBitTorrent` hooks:

* ``honest`` — the default; follows the protocol everywhere.
* ``free_rider`` — takes pieces but refuses every upload turn and
  carries nobody's queries (an *open* defector: peers can see it skip).
* ``under_reporter`` — hides its held records and pieces in the
  hello/metadata exchange, so it is never selected as a sender and
  even baits duplicate transmissions (a *covert* defector).
* ``polluter`` — the :mod:`repro.catalog.adversary` pirate wired into
  live contacts: seeded daily with keyword-identical fakes (full
  content, self-consistent checksums, no valid signature) which it
  serves enthusiastically through the normal candidate machinery.
* ``exploiter`` — games tit-for-tat by inflating the popularity it
  claims for unrequested deliveries, farming credit it did not earn
  (§IV-B rewards unrequested items by their popularity).

Determinism
-----------
An :class:`AdversaryPlan` is a frozen, picklable dataclass mirroring
:class:`~repro.faults.FaultPlan` and travels inside
:class:`~repro.sim.runner.SimulationConfig`, so it is part of a run's
identity for reproducibility. Strategy assignment draws from one
``random.Random`` seeded via SHA-256 from ``(plan.seed, run_seed)``;
strategies themselves are *pure* — every in-run decision is a
deterministic function of protocol state, so adversarial runs stay
bitwise reproducible. All strategy effects act on the shared
scheduler layer, after the candidate builders ran.

The all-zero plan (:meth:`AdversaryPlan.is_clean`) is the default and
is never instantiated into an :class:`AdversaryState`, so the honest
path stays bitwise identical to pre-adversary builds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.types import NodeId

__all__ = [
    "Strategy",
    "STRATEGIES",
    "STRATEGY_NAMES",
    "HONEST",
    "AdversaryPlan",
    "AdversaryState",
    "ADVERSARY_COUNTER_NAMES",
    "parse_mix",
]


@dataclass(frozen=True)
class Strategy:
    """One node behavior profile, consulted by the protocol engine.

    A strategy is pure configuration: every field is read at a
    deterministic point of contact processing, and the honest defaults
    leave the engine's behavior bitwise unchanged.
    """

    name: str
    #: Participates as a sender at all (free-riders refuse every turn).
    serves: bool = True
    #: Serves the expensive piece channel. Exploiters keep serving the
    #: cheap metadata channel (where their inflated claims farm credit)
    #: while refusing piece uploads — the classic upload-cheap,
    #: take-expensive attack on tit-for-tat.
    serves_pieces: bool = True
    #: Stores frequent contacts' queries under full MBT.
    carries_queries: bool = True
    #: Hides held records/pieces from the clique (under-reporting).
    hides_holdings: bool = False
    #: Seeded daily with the pirate's fake mirrors (pollution).
    pollutes: bool = False
    #: Popularity this node claims for unrequested deliveries
    #: (``None`` = the signed record value; the exploiter claims 1.0).
    inflated_claim: Optional[float] = None


HONEST = Strategy("honest")

#: Registry of every pluggable strategy, keyed by name.
STRATEGIES: Dict[str, Strategy] = {
    "honest": HONEST,
    "free_rider": Strategy("free_rider", serves=False, carries_queries=False),
    "under_reporter": Strategy("under_reporter", hides_holdings=True),
    "polluter": Strategy("polluter", pollutes=True),
    "exploiter": Strategy("exploiter", serves_pieces=False, inflated_claim=1.0),
}

STRATEGY_NAMES: Tuple[str, ...] = tuple(sorted(STRATEGIES))

#: Default mix: the full threat surface in equal parts.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("exploiter", 1.0),
    ("free_rider", 1.0),
    ("polluter", 1.0),
    ("under_reporter", 1.0),
)

#: Counter names an active adversary state reports (surfaced by the
#: runner as ``adversary.<name>`` in ``SimulationResult.counters``).
ADVERSARY_COUNTER_NAMES: Tuple[str, ...] = (
    "holdings_hidden",
    "turns_skipped",
    "rewards_inflated",
    "fakes_seeded",
    "fake_metadata_transmissions",
    "fake_piece_transmissions",
)


def _derive(*components: object) -> int:
    """Stable 64-bit stream seed from arbitrary components (SHA-256)."""
    digest = hashlib.sha256(repr(components).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def parse_mix(text: str) -> Tuple[Tuple[str, float], ...]:
    """Parse a CLI strategy mix: ``"free_rider=2,polluter"``.

    Each comma-separated entry is ``name`` (weight 1) or
    ``name=weight``. The result is sorted by name so equal mixes are
    equal plans regardless of spelling order.
    """
    entries: Dict[str, float] = {}
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        name, sep, weight_text = raw.partition("=")
        name = name.strip()
        if name not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}"
            )
        weight = float(weight_text) if sep else 1.0
        if name in entries:
            raise ValueError(f"strategy {name!r} listed twice in mix {text!r}")
        entries[name] = weight
    if not entries:
        raise ValueError(f"empty strategy mix {text!r}")
    return tuple(sorted(entries.items()))


@dataclass(frozen=True)
class AdversaryPlan:
    """Declarative, picklable description of the adversary population.

    Mirrors :class:`~repro.faults.FaultPlan`: the default plan
    (``fraction=0``) is clean and changes nothing; any other plan
    assigns ``fraction`` of the nodes a strategy drawn from ``mix``,
    using a dedicated SHA-256-derived stream so the pick perturbs no
    other randomness of the run.
    """

    #: Fraction of nodes that are adversarial (0 = clean plan).
    fraction: float = 0.0
    #: ``(strategy name, weight)`` pairs; weights need not sum to 1.
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    #: Fake mirrors seeded into each day's batch when the mix contains
    #: polluters (reuses :class:`~repro.catalog.adversary.FakeFileFactory`).
    polluter_fakes_per_day: int = 3
    #: Assignment-stream seed component (combined with the run seed).
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if not self.mix:
            raise ValueError("mix must name at least one strategy")
        for name, weight in self.mix:
            if name not in STRATEGIES:
                raise ValueError(
                    f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}"
                )
            if not weight > 0.0:
                raise ValueError(f"weight of {name!r} must be positive, got {weight}")
        if self.polluter_fakes_per_day < 0:
            raise ValueError("polluter_fakes_per_day must be non-negative")

    def is_clean(self) -> bool:
        """True when no node can ever be adversarial (the honest path)."""
        return self.fraction == 0.0  # detlint: ignore[DET004] plan identity: the literal default, not a computed float

    def normalized_mix(self) -> Tuple[Tuple[str, float], ...]:
        """The mix with weights normalized to sum to 1 (sorted by name)."""
        ordered = tuple(sorted(self.mix))
        total = sum(weight for __, weight in ordered)
        return tuple((name, weight / total) for name, weight in ordered)


class AdversaryState:
    """Executes an :class:`AdversaryPlan` for one simulation run.

    Holds the seed-derived per-node strategy assignment plus the
    ``adversary.*`` event counters the engine hooks bump. Construction
    is cheap; one state serves one run.
    """

    def __init__(
        self, plan: AdversaryPlan, nodes: Sequence[NodeId], run_seed: int
    ) -> None:
        self.plan = plan
        rng = random.Random(_derive("adversary", plan.seed, run_seed))
        population = sorted(nodes)
        count = min(len(population), round(plan.fraction * len(population)))
        chosen = sorted(rng.sample(population, count))
        names = tuple(name for name, __ in plan.normalized_mix())
        weights = tuple(weight for __, weight in plan.normalized_mix())
        self._assignments: Dict[NodeId, Strategy] = {}
        for node in chosen:
            name = rng.choices(names, weights=weights)[0]
            self._assignments[node] = STRATEGIES[name]
        self.counters: Dict[str, int] = {name: 0 for name in ADVERSARY_COUNTER_NAMES}
        #: Precomputed role sets for the engine's hot-path checks.
        self.hiders: FrozenSet[NodeId] = frozenset(
            node for node, s in self._assignments.items() if s.hides_holdings
        )
        self.polluters: FrozenSet[NodeId] = frozenset(
            node for node, s in self._assignments.items() if s.pollutes
        )
        #: Seed for the polluters' FakeFileFactory — its own derived
        #: stream so polluter fakes never collide with (or perturb) the
        #: legacy ``malicious_fraction`` pirate's randomness.
        self.polluter_factory_seed: int = _derive("polluter-fakes", plan.seed, run_seed)

    @property
    def nodes(self) -> FrozenSet[NodeId]:
        """Every node the plan made adversarial."""
        return frozenset(self._assignments)

    def strategy_of(self, node: NodeId) -> Strategy:
        """The node's assigned strategy (honest if unassigned)."""
        return self._assignments.get(node, HONEST)

    def assignments(self) -> Mapping[NodeId, Strategy]:
        """Read-only snapshot of the per-node assignment."""
        return dict(self._assignments)

    def nodes_by_strategy(self) -> Dict[str, int]:
        """Adversarial node count per strategy name (all names listed)."""
        out = {name: 0 for name in STRATEGY_NAMES if name != "honest"}
        for node in sorted(self._assignments):
            name = self._assignments[node].name
            out[name] = out.get(name, 0) + 1
        return out

    def count(self, name: str, increment: int = 1) -> None:
        """Bump an adversary counter (engine callback)."""
        self.counters[name] = self.counters.get(name, 0) + increment

    def claimed_popularity(self, sender: NodeId, popularity: float) -> float:
        """Popularity ``sender`` claims for an unrequested delivery.

        Honest senders claim the signed record value; exploiters claim
        their inflated constant (never less than the truth — a claim
        below the signed value would only lose them credit).
        """
        strategy = self._assignments.get(sender)
        if strategy is None or strategy.inflated_claim is None:
            return popularity
        claim = max(popularity, strategy.inflated_claim)
        if claim > popularity:
            self.count("rewards_inflated")
        return claim
