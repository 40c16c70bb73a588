"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Sequence

import pytest

from repro.catalog.files import piece_checksums
from repro.catalog.metadata import Metadata, PublisherRegistry, sign_metadata
from repro.catalog.query import Query
from repro.core.node import NodeState
from repro.core.strategies import STRATEGIES
from repro.traces.base import Contact, ContactTrace
from repro.types import DAY, NodeId, Uri


@pytest.fixture
def registry() -> PublisherRegistry:
    reg = PublisherRegistry(master_seed=42)
    reg.register("fox")
    reg.register("abc")
    return reg


def make_metadata(
    registry: PublisherRegistry,
    uri: str = "dtn://fox/f000001",
    name: str = "news island finale s01e01",
    publisher: str = "fox",
    num_pieces: int = 1,
    popularity: float = 0.5,
    created_at: float = 0.0,
    ttl: float = 3 * DAY,
    signed: bool = True,
) -> Metadata:
    """Build a (by default signed) metadata record for tests."""
    record = Metadata(
        uri=Uri(uri),
        name=name,
        publisher=publisher,
        description=f"{name} — presented by {publisher.upper()}.",
        checksums=piece_checksums(Uri(uri), num_pieces),
        size_bytes=num_pieces * 256 * 1024,
        created_at=created_at,
        ttl=ttl,
        popularity=popularity,
    )
    if signed:
        registry.register(publisher)
        record = sign_metadata(record, registry)
    return record


def make_query(
    node: int,
    target_uri: str,
    tokens: Iterable[str],
    created_at: float = 0.0,
    expires_at: float = 3 * DAY,
) -> Query:
    return Query(
        node=NodeId(node),
        tokens=frozenset(tokens),
        target_uri=Uri(target_uri),
        created_at=created_at,
        expires_at=expires_at,
    )


def make_node(
    registry: PublisherRegistry,
    node: int = 0,
    internet_access: bool = False,
    selfish: bool = False,
    metadata_capacity: Optional[int] = None,
) -> NodeState:
    return NodeState(
        node=NodeId(node),
        registry=registry,
        internet_access=internet_access,
        strategy=STRATEGIES["free_rider"] if selfish else None,
        metadata_capacity=metadata_capacity,
    )


def pair_contact(start: float, end: float, u: int, v: int) -> Contact:
    return Contact(start, end, frozenset({NodeId(u), NodeId(v)}))


def clique_contact(start: float, end: float, members: Sequence[int]) -> Contact:
    return Contact(start, end, frozenset(NodeId(m) for m in members))


def tiny_trace() -> ContactTrace:
    """Three nodes, a handful of contacts over two days."""
    contacts = [
        pair_contact(100.0, 200.0, 0, 1),
        pair_contact(300.0, 350.0, 1, 2),
        clique_contact(50_000.0, 51_000.0, [0, 1, 2]),
        pair_contact(DAY + 500.0, DAY + 600.0, 0, 2),
        pair_contact(DAY + 700.0, DAY + 900.0, 0, 1),
    ]
    return ContactTrace(contacts, name="tiny")


def random_symmetric_graph(
    num_nodes: int, edge_prob: float, seed: int
) -> Dict[NodeId, set]:
    """Random undirected graph as an adjacency dict (for clique tests)."""
    rng = random.Random(seed)
    graph: Dict[NodeId, set] = {NodeId(i): set() for i in range(num_nodes)}
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_prob:
                graph[NodeId(i)].add(NodeId(j))
                graph[NodeId(j)].add(NodeId(i))
    return graph
