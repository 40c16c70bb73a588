"""Tests for the wire-level runtime: codec, radio, node, harness."""

from __future__ import annotations

import pytest

from repro.catalog.files import piece_payload
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
        assert record.uri in b.peer_held[NodeId(0)]
        assert frozenset({"island"}) in b.peer_query_tokens[NodeId(0)]
        assert record.uri in b.peer_downloading[NodeId(0)]

    def test_metadata_flows_after_handshake(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry)
        a.state.accept_metadata(record, 0.0)
        handshake(a, b)
        clique = frozenset({NodeId(0), NodeId(1)})
        frame = a.next_metadata_frame(0.0, clique)
        assert frame is not None
        b.on_frame(a.node_id, frame, 0.0)
        assert record.uri in b.state.metadata

    def test_no_retransmission_of_held_records(self, registry, device_pair):
        a, b = device_pair
        record = make_metadata(registry)
        a.state.accept_metadata(record, 0.0)
        b.state.accept_metadata(record, 0.0)
        handshake(a, b)
        clique = frozenset({NodeId(0), NodeId(1)})
        assert a.next_metadata_frame(0.0, clique) is None

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
        clique = frozenset({NodeId(0), NodeId(1)})
        proposal = a.propose_piece(0.0, clique)
        assert proposal is not None
        assert proposal[1] == wanted.uri

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
        clique = frozenset({NodeId(0), NodeId(1)})
        frame = a.next_piece_frame(0.0, clique)
        assert frame is not None
        b.on_frame(a.node_id, frame, 0.0)
        assert b.metrics.records[0].file_delivered

    def test_corrupt_frame_counted_and_ignored(self, registry, device_pair):
        a, b = device_pair
        b.on_frame(a.node_id, b"garbage-bytes", 0.0)
        assert b.frames_dropped == 1
        assert b.frames_received == 0

    def test_selfish_node_proposes_nothing(self, registry):
        config = ProtocolConfig()
        node = DTNNode(make_node(registry, node=0, selfish=True), config)
        record = make_metadata(registry)
        node.state.accept_metadata(record, 0.0)
        clique = frozenset({NodeId(0), NodeId(1)})
        assert node.propose_metadata(0.0, clique) is None
        assert node.propose_piece(0.0, clique) is None

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
        assert record.uri in devices[1].peer_held[NodeId(2)]


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
            {"malicious_fraction": 0.5, "fake_files_per_day": 5},
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

    def test_max_events_honoured(self, small_diesel):
        harness = RuntimeHarness(small_diesel, SimulationConfig(seed=0, max_events=1))
        with pytest.raises(SimulationError, match="event budget"):
            harness.run()
