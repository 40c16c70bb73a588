#!/usr/bin/env python
"""Wire-protocol walkthrough: two devices, real frames, one contact.

The other examples drive the omniscient simulator; this one shows the
deployable runtime frame by frame. Alice (Internet access) has
downloaded a file; Bob wants it. They meet once: hellos are exchanged,
Alice learns Bob's query from his hello, advertises the metadata, Bob's
refreshed hello requests the file, and the piece arrives — every step
as serialized bytes over an emulated broadcast radio.

Run:  python examples/wire_protocol_demo.py
"""

from __future__ import annotations

from repro.catalog.files import piece_payload
from repro.catalog.metadata import PublisherRegistry, metadata_for_file
from repro.catalog.files import FileDescriptor, PIECE_SIZE
from repro.core.mbt import ProtocolConfig
from repro.core.node import NodeState
from repro.runtime import DTNNode, EmulatedRadio, decode_frame
from repro.runtime.node import codec
from repro.sim.metrics import MetricsCollector
from repro.catalog.query import Query
from repro.types import DAY, NodeId, Uri


def show(direction: str, data: bytes) -> None:
    frame = decode_frame(data)
    print(f"  {direction}  {frame.frame_type.value.upper():>8}  "
          f"{len(data):>5} bytes  from node {frame.sender}")


def main() -> None:
    registry = PublisherRegistry(master_seed=1)
    registry.register("fox")
    descriptor = FileDescriptor(
        uri=Uri("dtn://fox/f000001"),
        title_tokens=("news", "island", "finale", "s01e01"),
        publisher="fox",
        size_bytes=PIECE_SIZE,
        popularity=0.4,
        created_at=0.0,
        ttl=3 * DAY,
    )
    record = metadata_for_file(descriptor, "News Island finale.", registry)

    config = ProtocolConfig()
    metrics = MetricsCollector()
    alice = DTNNode(
        NodeState(NodeId(1), registry, internet_access=True), config, metrics
    )
    bob = DTNNode(NodeState(NodeId(2), registry), config, metrics)

    # Alice got the file from the Internet; Bob's user typed a query.
    alice.state.accept_metadata(record, now=0.0)
    alice.state.accept_piece(
        record.uri, 0, piece_payload(record.uri, 0), record.checksums[0]
    )
    query = Query(
        node=NodeId(2), tokens=frozenset({"island", "s01e01"}),
        target_uri=record.uri, created_at=0.0, expires_at=3 * DAY,
    )
    bob.state.add_own_query(query)
    metrics.register_query(query, access_node=False)

    # The buses meet: one broadcast domain.
    print("Contact opens — hello handshake:")
    radio = EmulatedRadio()
    clique = frozenset({alice.node_id, bob.node_id})
    now = 100.0
    for device in (alice, bob):
        device.begin_contact(clique)
    radio.join(alice.node_id, lambda s, d: alice.on_frame(s, d, now))
    radio.join(bob.node_id, lambda s, d: bob.on_frame(s, d, now))
    for device in (alice, bob):
        hello = device.hello_bytes(now)
        show("->", hello)
        radio.broadcast(device.node_id, hello)

    print("\nDiscovery phase — Alice heard Bob's query tokens "
          f"{[sorted(t) for t in alice.peers[bob.node_id].query_tokens]}:")
    proposal = alice.propose_metadata(now)
    assert proposal is not None
    frame = alice.metadata_frame_for(proposal[1], now)
    show("->", frame)
    radio.broadcast(alice.node_id, frame)
    alice.mark_clique_received(proposal[1])

    print("\nRe-beacon — Bob's hello now requests the file:")
    hello = bob.hello_bytes(now + 1.0)
    show("->", hello)
    radio.broadcast(bob.node_id, hello)
    print(f"  Alice sees Bob downloading: "
          f"{sorted(alice.peers[bob.node_id].downloading)}")

    print("\nDownload phase — the requested piece goes on the air:")
    piece = alice.propose_piece(now + 1.0)
    assert piece is not None
    frame = alice.piece_frame_for(piece[1], piece[2], now + 1.0)
    show("->", frame)
    radio.broadcast(alice.node_id, frame)

    delivered = metrics.records[0]
    print(
        f"\nBob verified the checksum and completed the file: "
        f"delivered={delivered.file_delivered} "
        f"({radio.frames_sent} frames, {radio.bytes_sent} bytes on air)"
    )


if __name__ == "__main__":
    main()
