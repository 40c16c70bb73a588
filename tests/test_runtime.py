"""Tests for the wire-level runtime: codec, radio, node, harness."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.files import piece_payload
from repro.catalog.metadata import PublisherRegistry
from repro.core import discovery, download
from repro.core.mbt import ProtocolConfig, ProtocolVariant, SchedulingMode
from repro.core.strategies import AdversaryPlan
from repro.faults import FaultPlan
from repro.runtime import codec
from repro.runtime.codec import CodecError, FrameType
from repro.runtime.harness import RuntimeConfig, RuntimeHarness
from repro.runtime.node import DTNNode
from repro.runtime.radio import EmulatedRadio
from repro.sim.engine import SimulationError
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import Simulation, SimulationConfig
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.nus import NUSConfig, generate_nus_trace
from repro.types import NodeId

from conftest import make_metadata, make_node, make_query
from test_indexed_contact_path import _build_clique
from test_scheduler_equivalence import _trace


class TestCodec:
    def test_hello_round_trip(self):
        data = codec.build_hello(
            sender=NodeId(3),
            sent_at=12.5,
            heard=(1, 2),
            query_tokens=(("island", "news"),),
            downloading=("dtn://fox/a",),
            held_uris=("dtn://fox/a", "dtn://fox/b"),
            have={"dtn://fox/a": (0, 2)},
            carried_query_tokens=(("drama",),),
        )
        frame = codec.decode_frame(data)
        assert frame.frame_type is FrameType.HELLO
        assert frame.sender == 3
        assert frame.sent_at == 12.5
        assert frame.field("heard") == [1, 2]
        assert frame.field("have") == {"dtn://fox/a": [0, 2]}
        assert frame.field("carried_query_tokens") == [["drama"]]

    def test_metadata_round_trip(self, registry):
        record = make_metadata(registry, num_pieces=2)
        data = codec.build_metadata_frame(NodeId(1), 5.0, record)
        frame = codec.decode_frame(data)
        rebuilt = codec.metadata_from_fields(frame.field("record"))
        assert rebuilt == record  # full equality including signature

    def test_piece_round_trip(self, registry):
        record = make_metadata(registry)
        payload = piece_payload(record.uri, 0)
        data = codec.build_piece_frame(NodeId(1), 5.0, record, 0, payload)
        frame = codec.decode_frame(data)
        assert codec.piece_payload_from_frame(frame) == payload
        assert frame.field("index") == 0

    def test_truncated_frame_rejected(self, registry):
        record = make_metadata(registry)
        data = codec.build_metadata_frame(NodeId(1), 5.0, record)
        with pytest.raises(CodecError):
            codec.decode_frame(data[:-3])

    def test_bit_flip_rejected(self, registry):
        record = make_metadata(registry)
        data = bytearray(codec.build_metadata_frame(NodeId(1), 5.0, record))
        data[20] ^= 0xFF
        with pytest.raises(CodecError):
            codec.decode_frame(bytes(data))

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError, match="magic"):
            codec.decode_frame(b"XXXX" + b"\x00" * 20)

    def test_too_short_rejected(self):
        with pytest.raises(CodecError, match="short"):
            codec.decode_frame(b"MB")

    def test_unknown_type_rejected(self):
        # Craft a frame with an invalid type by editing the body.
        import binascii
        import json
        import struct

        body = json.dumps(
            {"type": "warp", "sender": 1, "sent_at": 0.0},
            separators=(",", ":"), sort_keys=True,
        ).encode()
        crc = binascii.crc32(body) & 0xFFFFFFFF
        forged = struct.pack(">4sII", b"MBT1", len(body), crc) + body
        with pytest.raises(CodecError, match="unknown frame type"):
            codec.decode_frame(forged)

    def test_bad_metadata_fields_rejected(self):
        with pytest.raises(CodecError):
            codec.metadata_from_fields({"uri": "x"})


class TestRadio:
    def test_broadcast_reaches_all_other_members(self):
        radio = EmulatedRadio()
        received = {1: [], 2: [], 3: []}
        for node in (1, 2, 3):
            radio.join(NodeId(node), lambda s, d, n=node: received[n].append((s, d)))
        count = radio.broadcast(NodeId(1), b"frame")
        assert count == 2
        assert received[1] == []
        assert received[2] == [(1, b"frame")]
        assert received[3] == [(1, b"frame")]

    def test_sender_must_be_member(self):
        radio = EmulatedRadio()
        with pytest.raises(ValueError):
            radio.broadcast(NodeId(9), b"x")

    def test_leave_stops_reception(self):
        radio = EmulatedRadio()
        got = []
        radio.join(NodeId(1), lambda s, d: got.append(d))
        radio.join(NodeId(2), lambda s, d: None)
        radio.leave(NodeId(1))
        radio.broadcast(NodeId(2), b"x")
        assert got == []

    def test_byte_accounting(self):
        radio = EmulatedRadio()
        radio.join(NodeId(1), lambda s, d: None)
        radio.join(NodeId(2), lambda s, d: None)
        radio.broadcast(NodeId(1), b"12345")
        assert radio.frames_sent == 1
        assert radio.bytes_sent == 5
        assert radio.deliveries == 1

    def test_fault_hook_can_corrupt(self):
        radio = EmulatedRadio()
        got = []
        radio.join(NodeId(1), lambda s, d: None)
        radio.join(NodeId(2), lambda s, d: got.append(d))
        radio.fault_hook = lambda s, d: d[:-1] + b"?"
        radio.broadcast(NodeId(1), b"hello")
        assert got == [b"hell?"]

    def test_fault_hook_can_drop(self):
        radio = EmulatedRadio()
        got = []
        radio.join(NodeId(1), lambda s, d: None)
        radio.join(NodeId(2), lambda s, d: got.append(d))
        radio.fault_hook = lambda s, d: None
        radio.broadcast(NodeId(1), b"hello")
        assert got == []


@pytest.fixture
def device_pair(registry):
    config = ProtocolConfig()
    a = DTNNode(make_node(registry, node=0), config, MetricsCollector())
    b = DTNNode(make_node(registry, node=1), config, MetricsCollector())
    return a, b


def handshake(a: DTNNode, b: DTNNode, now: float = 0.0) -> None:
    clique = frozenset({a.node_id, b.node_id})
    a.begin_contact(clique)
    b.begin_contact(clique)
    b.on_frame(a.node_id, a.hello_bytes(now), now)
    a.on_frame(b.node_id, b.hello_bytes(now), now)


class TestDTNNode:
    def test_hello_teaches_peer_state(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry, name="news island s01e01")
        a.state.accept_metadata(record, 0.0)
        a.state.add_own_query(make_query(0, record.uri, ["island"]))
        handshake(a, b)
        assert record.uri in b.peers[NodeId(0)].held
        assert frozenset({"island"}) in b.peers[NodeId(0)].query_tokens
        assert record.uri in b.peers[NodeId(0)].downloading

    def test_hello_requests_are_remembered(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry, name="news island s01e01")
        b.state.accept_metadata(record, 0.0)
        b.state.add_own_query(make_query(1, record.uri, ["island"]))
        handshake(a, b)
        assert a.state.top_peer_requests(0.0, 3600.0) == [record.uri]
        assert b.state.top_peer_requests(0.0, 3600.0) == []

    def test_metadata_flows_after_handshake(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry)
        a.state.accept_metadata(record, 0.0)
        handshake(a, b)
        proposal = a.propose_metadata(0.0)
        assert proposal is not None
        b.on_frame(a.node_id, a.metadata_frame_for(proposal[1], 0.0), 0.0)
        assert record.uri in b.state.metadata

    def test_no_retransmission_of_held_records(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry)
        a.state.accept_metadata(record, 0.0)
        b.state.accept_metadata(record, 0.0)
        handshake(a, b)
        assert a.propose_metadata(0.0) is None

    def test_requested_piece_prioritized(self, registry, device_pair):
        a, b = device_pair
        wanted = make_metadata(registry, uri="dtn://fox/want",
                               name="news island s01e01", popularity=0.01)
        noise = make_metadata(registry, uri="dtn://fox/noise",
                              name="drama desert s01e02", popularity=0.99)
        for record in (wanted, noise):
            a.state.accept_metadata(record, 0.0)
            payload = piece_payload(record.uri, 0)
            a.state.accept_piece(record.uri, 0, payload, record.checksums[0])
        b.state.accept_metadata(wanted, 0.0)
        b.state.add_own_query(make_query(1, wanted.uri, ["island"]))
        handshake(a, b)
        proposal = a.propose_piece(0.0)
        assert proposal is not None
        assert proposal[1] == wanted.uri

    def test_rebeacon_refreshes_requests(self, registry, device_pair):
        a, b = device_pair
        wanted = make_metadata(registry, uri="dtn://fox/want",
                               name="news island s01e01", popularity=0.01)
        noise = make_metadata(registry, uri="dtn://fox/noise",
                              name="drama desert s01e02", popularity=0.99)
        for record in (wanted, noise):
            a.state.accept_metadata(record, 0.0)
            payload = piece_payload(record.uri, 0)
            a.state.accept_piece(record.uri, 0, payload, record.checksums[0])
        b.state.accept_metadata(wanted, 0.0)
        handshake(a, b)
        assert a.propose_piece(0.0)[1] == noise.uri
        b.state.add_own_query(make_query(1, wanted.uri, ["island"]))
        a.on_frame(b.node_id, b.hello_bytes(0.0), 0.0)
        assert a.propose_piece(0.0)[1] == wanted.uri

    def test_received_record_makes_held_pieces_sendable(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry, name="news island s01e01", num_pieces=2)
        other = make_metadata(registry, uri="dtn://fox/other",
                              name="drama desert s01e02", popularity=0.99)
        a.state.accept_metadata(other, 0.0)
        for holder, rec, index in ((a, other, 0), (a, record, 1), (b, record, 0)):
            payload = piece_payload(rec.uri, index)
            holder.state.accept_piece(rec.uri, index, payload, rec.checksums[index])
        b.state.accept_metadata(record, 0.0)
        b.state.add_own_query(make_query(1, record.uri, ["island"]))
        handshake(a, b)
        assert a.propose_piece(0.0)[1] == other.uri  # a lacks the record
        a.on_frame(b.node_id, b.piece_frame_for(record.uri, 0, 0.0), 0.0)
        assert a.propose_piece(0.0)[1:] == (record.uri, 1)

    def test_back_to_back_contacts_at_one_instant(self, registry):
        config = ProtocolConfig()
        a, b, c = (DTNNode(make_node(registry, node=i), config) for i in range(3))
        record = make_metadata(registry)
        a.state.accept_metadata(record, 0.0)
        c.state.accept_metadata(record, 0.0)
        handshake(a, c)
        handshake(a, b)
        assert a.propose_metadata(0.0)[1] == record.uri
        handshake(a, c)
        assert a.propose_metadata(0.0) is None

    def test_piece_completion_recorded(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry, name="news island s01e01")
        a.state.accept_metadata(record, 0.0)
        payload = piece_payload(record.uri, 0)
        a.state.accept_piece(record.uri, 0, payload, record.checksums[0])
        query = make_query(1, record.uri, ["island"])
        b.state.add_own_query(query)
        b.metrics.register_query(query, access_node=False)
        handshake(a, b)
        proposal = a.propose_piece(0.0)
        assert proposal is not None
        b.on_frame(a.node_id, a.piece_frame_for(proposal[1], proposal[2], 0.0), 0.0)
        assert b.metrics.records[0].file_delivered

    def test_corrupt_frame_counted_and_ignored(self, registry, device_pair):
        a, b = device_pair
        b.on_frame(a.node_id, b"garbage-bytes", 0.0)
        assert b.frames_dropped == 1
        assert b.frames_received == 0

    @pytest.mark.parametrize(
        "key, value",
        [("held_uris", None), ("carried_query_tokens", None), ("have", [1])],
    )
    def test_malformed_hello_counted_and_ignored(self, registry, device_pair, key, value):
        a, b = device_pair
        record = make_metadata(registry)
        a.state.accept_metadata(record, 0.0)
        handshake(a, b)
        facts = b.peers[a.node_id]
        heard = dict(b.state.neighbor_last_heard)
        a.state.add_own_query(make_query(0, record.uri, ["island"]))
        body = dict(codec.decode_frame(a.hello_bytes(5.0)).body)
        for envelope in ("type", "sender", "sent_at"):
            del body[envelope]
        if value is None:  # the key is missing
            del body[key]
        else:  # the key has the wrong type
            body[key] = value
        b.on_frame(a.node_id, codec.encode_frame(FrameType.HELLO, a.node_id, 5.0, body), 5.0)
        assert b.frames_dropped == 1
        assert b.peers[a.node_id] is facts
        assert record.uri in facts.held and facts.query_tokens == ()
        assert b.state.neighbor_last_heard == heard

    @pytest.mark.parametrize("index", ["x", [0]])
    def test_malformed_piece_index_counted_and_ignored(self, registry, device_pair, index):
        a, b = device_pair
        record = make_metadata(registry)
        body = {
            "record": codec.metadata_to_fields(record),
            "index": index,
            "payload_b64": "",
        }
        b.on_frame(a.node_id, codec.encode_frame(FrameType.PIECE, a.node_id, 0.0, body), 0.0)
        assert b.frames_dropped == 1
        assert record.uri not in b.state.metadata

    def test_selfish_node_proposes_nothing(self, registry):
        config = ProtocolConfig()
        node = DTNNode(make_node(registry, node=0, selfish=True), config)
        record = make_metadata(registry)
        node.state.accept_metadata(record, 0.0)
        assert node.propose_metadata(0.0) is None
        assert node.propose_piece(0.0) is None

    def test_broadcast_inference_updates_all_peer_views(self, registry):
        config = ProtocolConfig()
        devices = [DTNNode(make_node(registry, node=i), config) for i in range(3)]
        record = make_metadata(registry)
        devices[0].state.accept_metadata(record, 0.0)
        clique = frozenset(NodeId(i) for i in range(3))
        for d in devices:
            d.begin_contact(clique)
        for receiver in devices[1:]:
            for sender in devices:
                if sender is not receiver:
                    receiver.on_frame(sender.node_id, sender.hello_bytes(0.0), 0.0)
        frame = devices[0].metadata_frame_for(record.uri, 0.0)
        devices[1].on_frame(NodeId(0), frame, 0.0)
        # Node 1 infers node 2 also received the broadcast.
        assert record.uri in devices[1].peers[NodeId(2)].held


def _beacon(devices, now):
    """Every device hears every other device's hello."""
    hellos = [(node, device.hello_bytes(now)) for node, device in devices.items()]
    for node, device in devices.items():
        for sender, hello in hellos:
            if sender != node:
                device.on_frame(sender, hello, now)


def _heard_devices(states, variant, now):
    """One device per state in one contact, each having heard every hello."""
    config = ProtocolConfig(variant=variant)
    devices = {node: DTNNode(state, config) for node, state in states.items()}
    for device in devices.values():
        device.begin_contact(frozenset(states))
    _beacon(devices, now)
    return devices


@contextmanager
def _rebuild_checked():
    """Check every proposal against one made from a freshly built view.

    Frames and hellos patch a device's proposal view between proposals;
    the patched view must propose what a rebuilt one does.
    """
    proposals = []

    def check(propose):
        def wrapper(device, now):
            patched = propose(device, now)
            device._view = None
            assert propose(device, now) == patched
            proposals.append(patched)
            return patched

        return wrapper

    with mock.patch.object(DTNNode, "propose_metadata", check(DTNNode.propose_metadata)), \
            mock.patch.object(DTNNode, "propose_piece", check(DTNNode.propose_piece)):
        yield proposals


class TestProposalEquivalence:
    """A device proposes what the shared builders and rank keys pick."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), include_foreign=st.booleans())
    def test_proposals_are_the_builders_best(self, seed, include_foreign):
        states = _build_clique(PublisherRegistry(master_seed=42), seed)
        now = 5.0 if seed % 2 else 50.0
        variant = ProtocolVariant.MBT if include_foreign else ProtocolVariant.MBT_Q
        devices = _heard_devices(states, variant, now)
        metadata = discovery.build_metadata_candidates(states, now, include_foreign)
        pieces = download.build_piece_candidates(states, now)
        for node, device in devices.items():
            rank = discovery.cooperative_rank_key
            best = min((c for c in metadata if node in c.holders), key=rank, default=None)
            expected = None if best is None else (rank(best), best.metadata.uri)
            assert device.propose_metadata(now) == expected
            rank = download.cooperative_rank_key
            best = min((c for c in pieces if node in c.holders), key=rank, default=None)
            expected = None if best is None else (rank(best), best.uri, best.index)
            assert device.propose_piece(now) == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), include_foreign=st.booleans())
    def test_patched_view_on_random_cliques(self, seed, include_foreign):
        """Two rounds of both phases in coordinated slots over frames,
        a hello round after each phase."""
        states = _build_clique(PublisherRegistry(master_seed=42), seed)
        now = 5.0 if seed % 2 else 50.0
        variant = ProtocolVariant.MBT if include_foreign else ProtocolVariant.MBT_Q
        devices = _heard_devices(states, variant, now)
        with _rebuild_checked():
            for propose in ("propose_metadata", "propose_piece") * 2:
                for __ in range(6):
                    offers = [
                        (proposal, node)
                        for node in sorted(devices)
                        if (proposal := getattr(devices[node], propose)(now)) is not None
                    ]
                    if not offers:
                        break
                    proposal, sender = min(offers)
                    device = devices[sender]
                    uri, index = proposal[1], (proposal[2:] or (None,))[0]
                    if index is None:
                        frame = device.metadata_frame_for(uri, now)
                    else:
                        frame = device.piece_frame_for(uri, index, now)
                    for node, other in devices.items():
                        if node != sender:
                            other.on_frame(sender, frame, now)
                    device.mark_clique_received(uri, index)
                _beacon(devices, now)

    @settings(max_examples=30, deadline=None)
    @given(
        trace_seed=st.integers(0, 10_000),
        variant=st.sampled_from(list(ProtocolVariant)),
        scheduling=st.sampled_from(list(SchedulingMode)),
        pieces_per_file=st.sampled_from((1, 3)),
        metadata_capacity=st.sampled_from((None, 4)),
    )
    def test_patched_view_in_harness_runs(
        self, trace_seed, variant, scheduling, pieces_per_file, metadata_capacity
    ):
        config = SimulationConfig(
            files_per_day=8, num_days=2, seed=trace_seed % 97,
            metadata_per_contact=3, files_per_contact=3, variant=variant,
            scheduling=scheduling, pieces_per_file=pieces_per_file,
            metadata_capacity=metadata_capacity,
        )
        with _rebuild_checked() as proposals:
            RuntimeHarness(_trace(trace_seed), config).run()
        assert any(proposal is not None for proposal in proposals)


class TestHarnessEquivalence:
    def test_matches_simulator_on_dieselnet(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=14, num_days=5), seed=3
        )
        config = SimulationConfig(seed=3, files_per_day=20)
        sim = Simulation(trace, config).run()
        runtime = RuntimeHarness(trace, config).run()
        assert abs(runtime.file_delivery_ratio - sim.file_delivery_ratio) < 0.08
        assert abs(
            runtime.metadata_delivery_ratio - sim.metadata_delivery_ratio
        ) < 0.08

    def test_matches_simulator_on_nus_cliques(self):
        trace = generate_nus_trace(
            NUSConfig(num_students=30, num_courses=6, num_days=5), seed=3
        )
        config = SimulationConfig(
            seed=3, files_per_day=20, frequent_contact_max_gap_days=1.0
        )
        sim = Simulation(trace, config).run()
        runtime = RuntimeHarness(trace, config).run()
        assert abs(runtime.file_delivery_ratio - sim.file_delivery_ratio) < 0.08

    def test_cyclic_mode_matches_cyclic_simulator(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=14, num_days=5), seed=3
        )
        config = SimulationConfig(
            seed=3, files_per_day=20, scheduling=SchedulingMode.CYCLIC
        )
        sim = Simulation(trace, config).run()
        runtime = RuntimeHarness(trace, config).run()
        assert abs(runtime.file_delivery_ratio - sim.file_delivery_ratio) < 0.08

    def test_variant_ordering_preserved_over_the_wire(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=14, num_days=5), seed=3
        )
        results = {}
        for variant in ProtocolVariant:
            config = SimulationConfig(seed=3, files_per_day=30, variant=variant)
            results[variant] = RuntimeHarness(trace, config).run()
        assert (
            results[ProtocolVariant.MBT].metadata_delivery_ratio
            >= results[ProtocolVariant.MBT_QM].metadata_delivery_ratio
        )
        assert (
            results[ProtocolVariant.MBT].file_delivery_ratio
            >= results[ProtocolVariant.MBT_QM].file_delivery_ratio - 0.02
        )

    def test_radio_accounting_exposed(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=10, num_days=3), seed=1
        )
        result = RuntimeHarness(trace, SimulationConfig(seed=1, files_per_day=10)).run()
        assert result.extra["radio_frames"] > 0
        assert result.extra["radio_bytes"] > result.extra["radio_frames"]

    def test_transmission_counters_count_radio_sends(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=10, num_days=3), seed=1
        )
        harness = RuntimeHarness(trace, SimulationConfig(seed=1, files_per_day=10))
        result = harness.run()
        stats = [device.state.stats for device in harness.devices.values()]
        metadata_sent = sum(s.metadata_sent for s in stats)
        pieces_sent = sum(s.pieces_sent for s in stats)
        assert metadata_sent > 0 and pieces_sent > 0
        assert result.extra["metadata_transmissions"] == metadata_sent
        assert result.extra["piece_transmissions"] == pieces_sent
        assert harness.engine.counters.metadata_transmissions == metadata_sent
        assert harness.engine.counters.piece_transmissions == pieces_sent
        counters = result.counters
        assert counters["contacts_processed"] == counters["cliques_processed"] > 0
        assert 0 < counters["contact_batches"] <= counters["contacts_processed"]
        assert counters["hello_exchanges"] >= 2 * counters["contacts_processed"]

    def test_corrupted_radio_degrades_but_never_corrupts_state(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=12, num_days=4), seed=1
        )
        config = SimulationConfig(seed=1, files_per_day=20)
        clean = RuntimeHarness(trace, config).run()

        counter = {"n": 0}

        def flip_every_second_frame(sender, data: bytes):
            counter["n"] += 1
            if counter["n"] % 2 == 0:
                corrupted = bytearray(data)
                corrupted[len(corrupted) // 2] ^= 0xFF
                return bytes(corrupted)
            return data

        noisy_harness = RuntimeHarness(
            trace, config, RuntimeConfig(fault_hook=flip_every_second_frame)
        )
        noisy = noisy_harness.run()
        # Heavy corruption costs delivery but every surviving delivery
        # passed CRC + signature + checksum: the state is never poisoned.
        assert noisy.file_delivery_ratio <= clean.file_delivery_ratio
        dropped = sum(d.frames_dropped for d in noisy_harness.devices.values())
        assert dropped > 0

    def test_lossy_radio_only_slows_delivery(self):
        trace = generate_dieselnet_trace(
            DieselNetConfig(num_buses=12, num_days=4), seed=1
        )
        config = SimulationConfig(seed=1, files_per_day=20)
        counter = {"n": 0}

        def drop_every_third_frame(sender, data: bytes):
            counter["n"] += 1
            return None if counter["n"] % 3 == 0 else data

        lossy = RuntimeHarness(
            trace, config, RuntimeConfig(fault_hook=drop_every_third_frame)
        ).run()
        clean = RuntimeHarness(trace, config).run()
        assert lossy.file_delivery_ratio <= clean.file_delivery_ratio
        assert 0.0 <= lossy.file_delivery_ratio <= 1.0


@pytest.fixture(scope="module")
def small_diesel():
    return generate_dieselnet_trace(DieselNetConfig(num_buses=8, num_days=3), seed=0)


class TestHarnessConfig:
    """The harness refuses config it does not model instead of ignoring it."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"faults": FaultPlan(loss_rate=0.5, churn_rate=0.2)},
            {"adversaries": AdversaryPlan(fraction=0.5)},
            {"credit_policy": "reputation"},
            {"selection_policy": "best"},
            {"encrypted_choking": True},
            {"broadcast": False},
            {"profile": True},
        ],
        ids=lambda overrides: "+".join(sorted(overrides)),
    )
    def test_unsupported_field_rejected(self, small_diesel, overrides):
        config = SimulationConfig(seed=0, **overrides)
        with pytest.raises(ValueError) as info:
            RuntimeHarness(small_diesel, config)
        for name in overrides:
            assert name in str(info.value)

    def test_free_rider_plan_sends_no_data_frame(self, small_diesel):
        sent = set()

        def record(sender, data):
            sent.add((sender, codec.decode_frame(data).frame_type))
            return data

        plan = AdversaryPlan(fraction=0.25, mix=(("free_rider", 1.0),))
        harness = RuntimeHarness(
            small_diesel,
            SimulationConfig(seed=0, adversaries=plan),
            RuntimeConfig(fault_hook=record),
        )
        harness.run()
        riders = harness.adversary_nodes
        assert riders
        rider_types = {kind for sender, kind in sent if sender in riders}
        assert rider_types == {FrameType.HELLO}
        assert any(
            kind is not FrameType.HELLO and sender not in riders
            for sender, kind in sent
        )

    def test_mbt_qm_sends_no_metadata_frame(self, small_diesel):
        sent = []

        def record(sender, data):
            sent.append(codec.decode_frame(data).frame_type)
            return data

        config = SimulationConfig(seed=0, variant=ProtocolVariant.MBT_QM)
        result = RuntimeHarness(small_diesel, config, RuntimeConfig(fault_hook=record)).run()
        assert FrameType.PIECE in sent
        assert FrameType.METADATA not in sent
        assert result.extra["metadata_transmissions"] == 0

    def test_plan_with_polluters_rejected(self, small_diesel):
        plan = AdversaryPlan(
            fraction=0.4, mix=(("free_rider", 1.0), ("polluter", 1.0))
        )
        with pytest.raises(ValueError, match="adversaries"):
            RuntimeHarness(small_diesel, SimulationConfig(seed=0, adversaries=plan))

    def test_max_events_honoured(self, small_diesel):
        harness = RuntimeHarness(small_diesel, SimulationConfig(seed=0, max_events=1))
        with pytest.raises(SimulationError, match="event budget"):
            harness.run()
