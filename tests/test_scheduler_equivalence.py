"""The lazy contact scheduler sends exactly what an eager one would.

``MobileBitTorrent._schedule`` builds only the requested candidates at
phase start and streams the un-requested tail from the clique view in
popularity order. :class:`_EagerEngine` below is the scheduler it
replaced, kept here as the specification: it builds every candidate
with ``build_*_candidates``, hides and screens them all, and ranks with
``min()`` (coordinator) or a per-turn heap over every held candidate
(cyclic). Random simulations run through both engines must attempt the
same transmissions in the same order (phase, instant, sender, URI,
piece index, targets, outcome and receivers) and end with the same
result fingerprint.

The pool's order is also checked directly on random cliques: its head
sorted by a rank key, followed by its tail, equals the reference
builders' candidates sorted by that key.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import replace
from typing import List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.metadata import PublisherRegistry
from repro.core import discovery, download
from repro.core.cliqueview import CliqueView
from repro.core.coordinator import cyclic_order
from repro.core.mbt import MobileBitTorrent, ProtocolVariant, SchedulingMode, _CandidatePool
from repro.core.strategies import AdversaryPlan
from repro.detlint.sanitizer import result_fingerprint
from repro.faults import FaultPlan
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.base import Contact, ContactTrace
from repro.types import DAY, NodeId

from test_indexed_contact_path import _build_clique


def _thaw_metadata(c: discovery.MetadataCandidate) -> discovery.ScheduledMetadata:
    return discovery.ScheduledMetadata(
        c.metadata, set(c.holders), set(c.own_requesters), set(c.proxy_requesters), set(c.missing)
    )


def _thaw_piece(c: download.PieceCandidate) -> download.ScheduledPiece:
    return download.ScheduledPiece(
        c.metadata, c.index, set(c.holders), set(c.requesters), set(c.missing)
    )


class _LiveList:
    """The sibling lookup ``_transmit_piece`` needs, over a plain list."""

    def __init__(self, candidates: List[download.ScheduledPiece]) -> None:
        self.candidates = candidates

    def of(self, uri):
        return [c for c in self.candidates if c.uri == uri]

    def changed(self, cand) -> None:
        pass


class _EagerEngine(MobileBitTorrent):
    """Build every candidate, then rank them all on every slot and turn."""

    def _run_metadata_phase(self, states, members, now, budget, view):
        if budget <= 0:
            return
        include_foreign = self._config.variant.distributes_queries
        raw = discovery.build_metadata_candidates(states, now, include_foreign, view)
        candidates = [_thaw_metadata(c) for c in raw]
        self.perf.count("meta_candidates", len(candidates))
        serving = frozenset(n for n in members if states[n].strategy.serves)

        def transmit(cand, sender):
            return self._transmit_metadata(states, members, cand, sender, now, view)

        self._eager_schedule(states, members, candidates, serving, budget, now, discovery, transmit)

    def _run_piece_phase(self, states, members, now, budget, view):
        if budget <= 0:
            return
        if view.refresh():
            self.perf.count("view_rebuilds")
        else:
            self.perf.count("view_reuses")
        candidates = [_thaw_piece(c) for c in download.build_piece_candidates(states, now, view)]
        self.perf.count("piece_candidates", len(candidates))
        serving = frozenset(
            n
            for n in members
            if states[n].strategy.serves and states[n].strategy.serves_pieces
        )
        siblings = _LiveList(candidates)

        def transmit(cand, sender):
            return self._transmit_piece(states, members, siblings, cand, sender, now)

        self._eager_schedule(states, members, candidates, serving, budget, now, download, transmit)

    def _eager_schedule(self, states, members, candidates, serving, budget, now, ranks, transmit):
        adversary = self._adversary
        if adversary is not None and adversary.hiders:
            for cand in candidates:
                for node in sorted(adversary.hiders & cand.holders):
                    cand.holders.discard(node)
                    cand.missing.add(node)
                    adversary.count("holdings_hidden")
        screeners = [
            (node, state.rejected_uris)
            for node, state in states.items()
            if state.credits.policy != "plain" and state.rejected_uris
        ]
        for cand in candidates:
            for node, rejected in screeners:
                if cand.metadata.uri in rejected:
                    cand.missing.discard(node)
        if not candidates:
            return
        if self._config.effective_scheduling() is SchedulingMode.COORDINATOR:
            rank = ranks.cooperative_rank_key
            for __ in range(budget):
                sendable = [
                    (rank(c), c)
                    for c in candidates
                    if c.missing and not serving.isdisjoint(c.holders)
                ]
                if not sendable:
                    return
                __, best = min(sendable)
                if not transmit(best, min(best.holders & serving)) or not best.missing:
                    candidates.remove(best)
            return
        rank_for = ranks.tit_for_tat_rank_key
        turns = itertools.cycle(cyclic_order(members))
        spent = idle_turns = 0
        while spent < budget and idle_turns < len(members):
            sender_id = next(turns)
            if sender_id not in serving:
                if adversary is not None:
                    adversary.count("turns_skipped")
                idle_turns += 1
                continue
            sender = states[sender_id]
            heap = [
                (rank_for(c, sender, now), c)
                for c in candidates
                if sender_id in c.holders and c.missing
            ]
            heapq.heapify(heap)
            sent = False
            while heap and not sent:
                __, cand = heapq.heappop(heap)
                sent = transmit(cand, sender_id)
                if not cand.missing:
                    candidates.remove(cand)
            if sent:
                spent += 1
                idle_turns = 0
            else:
                idle_turns += 1


def _run_logged(engine_class, trace, config):
    """Run one simulation; return its transmission log, fingerprint and result."""
    log = []
    transmit_metadata = MobileBitTorrent._transmit_metadata
    transmit_piece = MobileBitTorrent._transmit_piece

    def entry(phase, cand, sender, now, sent, targets, holders):
        index = getattr(cand, "index", -1)
        received = tuple(sorted(cand.holders - holders))
        return (phase, now, sender, cand.metadata.uri, index, targets, sent, received)

    def logged_metadata(self, states, members, cand, sender, now, view):
        targets, holders = tuple(sorted(cand.missing)), set(cand.holders)
        sent = transmit_metadata(self, states, members, cand, sender, now, view)
        log.append(entry("metadata", cand, sender, now, sent, targets, holders))
        return sent

    def logged_piece(self, states, members, pool, cand, sender, now):
        targets, holders = tuple(sorted(cand.missing)), set(cand.holders)
        sent = transmit_piece(self, states, members, pool, cand, sender, now)
        log.append(entry("piece", cand, sender, now, sent, targets, holders))
        return sent

    with mock.patch.object(MobileBitTorrent, "_transmit_metadata", logged_metadata), \
            mock.patch.object(MobileBitTorrent, "_transmit_piece", logged_piece), \
            mock.patch("repro.sim.runner.MobileBitTorrent", engine_class):
        result = Simulation(trace, config).run()
    return log, result_fingerprint(result), result


def _trace(seed: int) -> ContactTrace:
    """Two days of contacts among 5-9 nodes, cliques of 2-6."""
    rng = random.Random(seed)
    n_nodes = rng.randint(5, 9)
    contacts = []
    for _ in range(rng.randint(20, 45)):
        start = rng.uniform(0.0, 2 * DAY)
        size = rng.randint(2, min(6, n_nodes))
        members = frozenset(NodeId(i) for i in rng.sample(range(n_nodes), size))
        contacts.append(Contact(start, start + rng.uniform(30.0, 600.0), members))
    contacts.sort(key=lambda c: (c.start, c.end, sorted(c.members)))
    return ContactTrace(contacts, name="scheduler-equivalence")


@st.composite
def _configs(draw) -> SimulationConfig:
    """Every scheduler-relevant dimension, each drawn independently."""
    tit_for_tat = draw(st.booleans())
    polluted = draw(st.booleans())
    faulty = draw(st.booleans())
    hiders = draw(st.booleans())
    adversaries = AdversaryPlan()
    if hiders:
        adversaries = AdversaryPlan(
            fraction=0.4,
            mix=(("free_rider", 1.0), ("polluter", 1.0), ("under_reporter", 2.0)),
            seed=draw(st.integers(0, 99)),
        )
    elif polluted:
        adversaries = AdversaryPlan(
            fraction=0.4,
            mix=(("polluter", 1.0),),
            polluter_fakes_per_day=2,
            seed=draw(st.integers(0, 99)),
        )
    return SimulationConfig(
        internet_access_fraction=draw(st.sampled_from((0.2, 0.4))),
        files_per_day=draw(st.integers(4, 10)),
        ttl_days=draw(st.sampled_from((1.0, 3.0))),
        metadata_per_contact=draw(st.integers(1, 4)),
        files_per_contact=draw(st.integers(1, 4)),
        pieces_per_file=draw(st.sampled_from((1, 3, 6))),
        variant=draw(st.sampled_from(list(ProtocolVariant))),
        tit_for_tat=tit_for_tat,
        scheduling=draw(st.sampled_from((SchedulingMode.COORDINATOR, SchedulingMode.CYCLIC))),
        credit_policy=draw(st.sampled_from(("plain", "reputation"))),
        broadcast=draw(st.booleans()),
        encrypted_choking=tit_for_tat and draw(st.booleans()),
        metadata_capacity=draw(st.sampled_from((None, 4, 8))),
        selection_policy=draw(st.sampled_from(("all", "best"))),
        faults=FaultPlan(
            loss_rate=0.25, corruption_rate=0.2, seed=draw(st.integers(0, 99))
        ) if faulty else FaultPlan(),
        adversaries=adversaries,
        num_days=2,
        seed=draw(st.integers(0, 999)),
    )


class TestLazyEqualsEager:
    @settings(max_examples=200, deadline=None)
    @given(trace_seed=st.integers(0, 10_000), config=_configs())
    def test_same_transmissions_and_result(self, trace_seed, config):
        trace = _trace(trace_seed)
        lazy_log, lazy_fp, lazy = _run_logged(MobileBitTorrent, trace, config)
        eager_log, eager_fp, eager = _run_logged(_EagerEngine, trace, config)
        assert lazy_log == eager_log
        assert lazy_fp == eager_fp
        assert lazy.extra.get("adversary.holdings_hidden") == eager.extra.get(
            "adversary.holdings_hidden"
        )
        # The lazy engine builds no more candidates than the eager one.
        for key in ("perf.meta_candidates", "perf.piece_candidates"):
            assert lazy.extra.get(key, 0) <= eager.extra.get(key, 0)

    def test_seeded_case_per_mode(self):
        """One fixed multi-piece case under each scheduling mode."""
        config = SimulationConfig(
            files_per_day=8, pieces_per_file=3, num_days=2, seed=5,
            metadata_per_contact=4, files_per_contact=4,
        )
        for scheduling in SchedulingMode:
            trace = _trace(11)
            case = replace(config, scheduling=scheduling)
            lazy_log, lazy_fp, __ = _run_logged(MobileBitTorrent, trace, case)
            eager_log, eager_fp, __ = _run_logged(_EagerEngine, trace, case)
            assert lazy_log and lazy_log == eager_log
            assert lazy_fp == eager_fp


def _head_then_tail_coordinator(pool: _CandidatePool, view: CliqueView, rank):
    head = sorted((c for c in pool.head if c.missing), key=rank)
    tail = [
        c
        for uri in view.popularity_order()
        for c in pool.of(uri)
        if not c.requested and c.missing
    ]
    return head + tail


class TestPoolOrder:
    """Head by rank key, then the tail, equals the sorted reference."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), include_foreign=st.booleans())
    def test_metadata_order(self, seed, include_foreign):
        states = _build_clique(PublisherRegistry(master_seed=42), seed)
        now = 5.0 if seed % 2 else 50.0
        reference = discovery.build_metadata_candidates_reference(states, now, include_foreign)

        def pool():
            view = CliqueView(states, now)
            return view, _CandidatePool(
                discovery.MetadataBuilder(states, now, include_foreign, view), None
            )

        self._check(discovery, reference, pool, states, now)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_piece_order(self, seed):
        states = _build_clique(PublisherRegistry(master_seed=42), seed)
        now = 5.0 if seed % 2 else 50.0
        reference = download.build_piece_candidates_reference(states, now)

        def pool():
            view = CliqueView(states, now)
            return view, _CandidatePool(download.PieceBuilder(states, now, view), None)

        self._check(download, reference, pool, states, now)

    @staticmethod
    def _check(ranks, reference, make_pool, states, now):
        coop = ranks.cooperative_rank_key
        view, pool = make_pool()
        lazy = [c.freeze() for c in _head_then_tail_coordinator(pool, view, coop)]
        assert lazy == sorted(reference, key=coop)
        for node, sender in states.items():
            def tft(c, sender=sender):
                return ranks.tit_for_tat_rank_key(c, sender, now)

            # A fresh pool per sender: the tail walk builds on the way.
            __, pool = make_pool()
            head = sorted((c for c in pool.head if node in c.holders), key=tft)
            lazy = [c.freeze() for c in head + list(pool.tail(node))]
            held = [c for c in reference if node in c.holders]
            assert lazy == sorted(held, key=tft)
