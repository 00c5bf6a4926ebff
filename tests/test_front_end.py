"""The per-packet front end: flow identity once per flow, block reads, O(1) in-order path.

Three fast paths replaced per-packet work — the fused, flow-interning
:func:`repro.capture.decode_frame`, the :class:`repro.capture.pcap.PcapBlockReader`
behind both pcap readers, and the in-order early return of
:meth:`repro.proto.TcpReassembler.feed` — and the code they replaced lives on
in ``tests/conftest.py`` as the reference.  This file holds them to it:

* differential tests aimed at each new path (every truncation of generated
  frames; seed-driven hostile TCP wire, packet by packet and across a
  checkpoint; flow-table roll-over under a shrunken bound);
* counting tests that lock "once per flow, not once per packet" without a
  clock;
* the hostile-length cases of the container readers, under a lowered
  address-space limit, where only a typed error may escape.
"""

from __future__ import annotations

import asyncio
import io
import json
import pickle
import random
import struct
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.backend import get_backend
from repro.capture import (
    LINKTYPE_ETHERNET,
    LINKTYPE_LINUX_SLL,
    LINKTYPE_RAW,
    CaptureError,
    CaptureRecord,
    decode_frame,
    encode_frame,
    load_packets,
    read_capture,
    write_packets,
    write_pcap,
    write_pcapng,
)
from repro.capture import frames, pcap, replay
from repro.capture.pcap import CaptureFile
from repro.proto import TcpReassembler
from repro.rulesets import generate_snort_like_ruleset
from repro.streaming import FlowTable, ScanService, StreamScanner
from repro.streaming.flow import FlowEntry, FlowKey
from repro.streaming.ingest import PcapTailSource
from repro.traffic.packet import FiveTuple, Packet
from tests.conftest import (
    ReferenceReassembler,
    assert_equivalent_events,
    equivalence_workload,
    reference_decode_frame,
    reference_load_packets,
    renumbered,
)

FIN, SYN, RST, ACK = 0x01, 0x02, 0x04, 0x10


# ----------------------------------------------------------------------
# decode: generated frames, every truncation, against the reference
# ----------------------------------------------------------------------
#: One thing wrong per generated frame (or nothing): a frame with a single
#: defect reaches the one check that defect is for, with every other layer
#: honest — five independent coin flips would almost never line up.  The
#: tests run every fault by name, so none depends on how a strategy samples.
FAULTS = [
    None,
    "ethertype", "linktype", "ip_version", "ihl_small", "ihl_large",
    "total_len_small", "total_len_in_options", "total_len_short", "total_len_long",
    "fragment_mf", "fragment_offset", "payload_len_short", "payload_len_long",
    "v6_fragment", "data_offset_small", "data_offset_large", "udp_length_small",
    "udp_length_header_only", "udp_length_long",
]
#: faults that only one IP version's packet can carry
IPV4_FAULTS = {"ihl_small", "ihl_large", "total_len_small", "total_len_in_options",
               "total_len_short", "total_len_long", "fragment_mf", "fragment_offset"}
IPV6_FAULTS = {"payload_len_short", "payload_len_long", "v6_fragment"}


def aligned_options(draw, min_size: int = 0) -> bytes:
    return draw(st.binary(min_size=min_size, max_size=40).map(lambda b: b[: len(b) // 4 * 4]))


def transport(draw, fault):
    """``(protocol number, segment bytes)`` for TCP with options, UDP or ICMP."""
    kind = draw(st.sampled_from(["tcp", "udp", "icmp"]))
    if fault and fault.startswith(("udp", "data_offset")):
        kind = "udp" if fault.startswith("udp") else "tcp"
    if kind == "icmp":
        return 1, b"\x08\x00" + draw(st.binary(max_size=12))
    ports = struct.pack("!HH", draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)))
    payload = draw(st.binary(max_size=24))
    if kind == "udp":
        length = {
            "udp_length_small": 7,
            "udp_length_header_only": 8,  # honest header, payload outside it
            "udp_length_long": 9 + len(payload),
        }.get(fault, 8 + len(payload))
        return 17, ports + struct.pack("!HH", length, 0) + payload
    options = aligned_options(draw)
    words = {"data_offset_small": 4, "data_offset_large": 15}.get(
        fault, 5 + len(options) // 4
    )
    return 6, ports + struct.pack(
        "!IIBBHHH", draw(st.integers(0, 0xFFFFFFFF)), 0, words << 4,
        draw(st.integers(0, 0xFF)), 0xFFFF, 0, 0,
    ) + options + payload


def ipv4_packet(draw, fault) -> bytes:
    protocol, segment = transport(draw, fault)
    options = aligned_options(draw, min_size=4 if fault == "total_len_in_options" else 0)
    ihl = {"ihl_small": 4, "ihl_large": 15}.get(fault, 5 + len(options) // 4)
    honest = 20 + len(options) + len(segment)
    total_len = {
        "total_len_small": 19,
        "total_len_in_options": 20 + len(options) - 4,
        "total_len_short": honest - 1,
        "total_len_long": honest + 1,
    }.get(fault, honest)
    fragment = {"fragment_mf": 0x2000, "fragment_offset": 0x0001}.get(fault, 0x4000)
    version = draw(st.sampled_from([6, 0])) if fault == "ip_version" else 4
    return struct.pack(
        "!BBHHHBBH4s4s",
        version << 4 | ihl, 0, total_len, 0, fragment, 64, protocol, 0,
        draw(st.binary(min_size=4, max_size=4)), draw(st.binary(min_size=4, max_size=4)),
    ) + options + segment + draw(st.binary(max_size=6))  # link padding


def ipv6_packet(draw, fault) -> bytes:
    protocol, segment = transport(draw, fault)
    kinds = ["hop", "route", "dest", "atomic"]
    chain = draw(st.lists(st.sampled_from(kinds), max_size=3))
    if fault == "v6_fragment":
        chain.insert(draw(st.integers(0, len(chain))), "frag")
    number = {"hop": 0, "route": 43, "dest": 60, "atomic": 44, "frag": 44}
    body = b""
    following = [number[kind] for kind in chain[1:]] + [protocol]
    for kind, next_header in zip(chain, following):
        if kind in ("atomic", "frag"):
            offset_flags = 0 if kind == "atomic" else draw(st.sampled_from([1, 8, 0xFFF8]))
            body += struct.pack("!BBHI", next_header, 0, offset_flags, 7)
        else:
            units = draw(st.integers(0, 2))
            body += bytes([next_header, units]) + bytes(6 + 8 * units)
    first = number[chain[0]] if chain else protocol
    body += segment
    payload_len = {
        "payload_len_short": draw(st.integers(0, max(0, len(body) - 1))),
        "payload_len_long": len(body) + 1,
    }.get(fault, len(body))
    version = 4 if fault == "ip_version" else 6
    return struct.pack("!IHBB", version << 28, payload_len, first, 64) + draw(
        st.binary(min_size=32, max_size=32)
    ) + body + draw(st.binary(max_size=6))


@st.composite
def wire_frames(draw, fault=None):
    """``(linktype, frame)``: one generated frame under one link encapsulation."""
    version = 4 if fault in IPV4_FAULTS else 6 if fault in IPV6_FAULTS else draw(
        st.sampled_from([4, 6])
    )
    packet = ipv4_packet(draw, fault) if version == 4 else ipv6_packet(draw, fault)
    ethertype = 0x0800 if version == 4 else 0x86DD
    if fault == "ethertype":  # ARP, or the other IP version's type
        ethertype = draw(st.sampled_from([0x0806, 0x0800 ^ 0x86DD ^ ethertype]))
    link = draw(st.sampled_from(["eth", "vlan1", "vlan2", "sll", "raw"]))
    if link == "raw":
        return LINKTYPE_RAW, packet
    if link == "sll":
        return LINKTYPE_LINUX_SLL, bytes(14) + struct.pack("!H", ethertype) + packet
    tags = {"eth": 0, "vlan1": 1, "vlan2": 2}[link]
    frame = bytes(12) + b"".join(
        struct.pack("!HH", 0x8100, 100 + tag) for tag in range(tags)
    ) + struct.pack("!H", ethertype) + packet
    return (147 if fault == "linktype" else LINKTYPE_ETHERNET), frame


class TestDecodeAgainstReference:
    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_truncation_decodes_like_the_reference(self, fault, data):
        linktype, frame = data.draw(wire_frames(fault))
        for length in range(len(frame) + 1):
            data = frame[:length]
            assert decode_frame(data, linktype) == reference_decode_frame(data, linktype), (
                linktype, length, frame.hex()
            )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.sampled_from(FAULTS).flatmap(wire_frames), min_size=1, max_size=12),
        st.integers(0, 2**31),
    )
    def test_replay_statistics_match_the_reference(self, generated, seed):
        rng = random.Random(seed)
        linktype = generated[0][0]
        records = []
        for _, frame in generated:
            records.append(CaptureRecord(data=frame))
            records.append(CaptureRecord(data=frame[: rng.randrange(len(frame) + 1)]))
        capture = CaptureFile(linktype=linktype, records=records)
        packets, stats = load_packets(capture, first_packet_id=5)
        expected_packets, expected_stats = reference_load_packets(capture, first_packet_id=5)
        assert packets == expected_packets
        assert stats == expected_stats

    def test_strict_names_the_same_frame(self):
        capture = CaptureFile(
            linktype=LINKTYPE_ETHERNET,
            records=[
                CaptureRecord(encode_frame(FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, "tcp"), b"ok")),
                CaptureRecord(b"\x00" * 13),
            ],
        )
        with pytest.raises(CaptureError, match=r"frame 1 cannot be decoded \(truncated\)"):
            load_packets(capture, strict=True)
        with pytest.raises(CaptureError, match=r"frame 1 cannot be decoded \(truncated\)"):
            reference_load_packets(capture, strict=True)

    @pytest.mark.parametrize("linktype", [LINKTYPE_ETHERNET, LINKTYPE_RAW, LINKTYPE_LINUX_SLL])
    def test_a_known_flow_decodes_to_an_equal_header(self, linktype):
        """Interned or not, the header is equal to a freshly built one — and
        a frame of another flow sharing addresses or ports is not confused
        with it."""
        headers = [
            FiveTuple("10.0.0.1", "10.0.0.2", 1000, 80, "tcp"),
            FiveTuple("10.0.0.1", "10.0.0.2", 1000, 80, "udp"),
            FiveTuple("10.0.0.1", "10.0.0.2", 80, 1000, "tcp"),
            FiveTuple("10.0.0.2", "10.0.0.1", 1000, 80, "tcp"),
            FiveTuple("::a00:1", "::a00:2", 1000, 80, "tcp"),
        ]
        for _ in range(2):  # second round: every flow is known
            for header in headers:
                frame, _ = decode_frame(encode_frame(header, b"payload", linktype), linktype)
                assert frame.header == header and frame.payload == b"payload"


# ----------------------------------------------------------------------
# reassembly: seed-driven hostile wire, packet by packet, against the reference
# ----------------------------------------------------------------------
def seg(payload, seq, flags, header, packet_id=0):
    return Packet(payload=payload, header=header, packet_id=packet_id,
                  tcp_seq=seq, tcp_flags=flags)


def hostile_wire(seed: int, flows: int = 6):
    """Interleaved flows, each disturbed by a random stack of wire pathologies."""
    rng = random.Random(seed)
    per_flow = []
    for index in range(flows):
        kind = rng.choice(["syn", "syn", "syn", "synless", "seqless", "zeroseq", "udp"])
        header = FiveTuple(
            f"10.9.{index // 200}.{index % 200 + 1}", "10.9.255.1",
            30000 + index, 80, "udp" if kind == "udp" else "tcp",
        )
        stream = bytes(rng.randrange(256) for _ in range(rng.randrange(30, 260)))
        # ISNs near 2**32 make the stream cross the wraparound
        isn = rng.choice([rng.randrange(1, 2**32), 2**32 - rng.randrange(1, 60)])
        cuts = sorted(rng.sample(range(1, len(stream)), rng.randrange(2, 12)))
        pieces = [(a, stream[a:b]) for a, b in zip([0] + cuts, cuts + [len(stream)])]
        if kind in ("seqless", "udp"):
            per_flow.append([seg(data, None, None, header) for _, data in pieces])
            continue
        base = 0 if kind == "zeroseq" else (isn + 1) % 2**32
        data = [[offset, piece, ACK] for offset, piece in pieces]
        modes = ["reorder", "retransmit", "overlap", "conflict"]
        for mode in rng.sample(modes, rng.randrange(0, 4)):
            if mode == "reorder":
                rng.shuffle(data)
            elif mode == "retransmit":
                for item in rng.sample(data, min(3, len(data))):
                    data.insert(rng.randrange(len(data) + 1), list(item))
            elif mode == "overlap":  # re-send a tail together with the next bytes
                for _ in range(3):
                    a = rng.randrange(len(stream) - 1)
                    b = min(len(stream), a + rng.randrange(1, 40))
                    data.insert(rng.randrange(len(data) + 1), [a, stream[a:b], ACK])
            else:  # the same range with different bytes: the policies disagree
                a = rng.randrange(len(stream) - 1)
                b = min(len(stream), a + rng.randrange(1, 30))
                data.insert(rng.randrange(len(data) + 1), [a, bytes(b - a), ACK])
        if rng.random() < 0.6:  # FIN on whichever segment ends the stream
            for item in data:
                if item[0] + len(item[1]) == len(stream):
                    item[2] |= FIN
        packets = [seg(piece, (base + offset) % 2**32, flags, header)
                   for offset, piece, flags in data]
        if kind == "syn":
            syn_payload = b"" if rng.random() < 0.8 else b"early"
            packets.insert(0 if rng.random() < 0.8 else rng.randrange(len(packets)),
                           seg(syn_payload, isn, SYN, header))
        if rng.random() < 0.3:
            packets.insert(rng.randrange(len(packets) + 1), seg(b"", base, ACK, header))
        if rng.random() < 0.3:
            packets.insert(rng.randrange(len(packets) + 1), seg(b"", base, FIN | ACK, header))
        if rng.random() < 0.25:
            packets.insert(rng.randrange(1, len(packets) + 1), seg(b"", base, RST, header))
        if rng.random() < 0.2:
            packets.insert(rng.randrange(len(packets) + 1), seg(b"noseq", None, ACK, header))
        per_flow.append(packets)
    wire = []
    while any(per_flow):
        flow = rng.choice([packets for packets in per_flow if packets])
        wire.append(flow.pop(0))
    return renumbered(wire)


def view(packets):
    return [(p.payload, p.header, p.packet_id, p.tcp_seq) for p in packets]


def assert_same_state(ours: TcpReassembler, reference: TcpReassembler):
    assert vars(ours.stats) == vars(reference.stats)
    assert ours.buffered_bytes == reference.buffered_bytes
    assert ours.checkpoint() == reference.checkpoint()


REASSEMBLER_SHAPES = [
    {},
    {"overlap_policy": "last"},
    {"max_flows": 2},
    {"max_flow_bytes": 48, "max_flow_segments": 3},
    {"overlap_policy": "last", "max_flows": 2, "max_flow_bytes": 64},
]


class TestReassemblyAgainstReference:
    @pytest.mark.parametrize("shape", REASSEMBLER_SHAPES, ids=repr)
    @pytest.mark.parametrize("seed", range(12))
    def test_packet_by_packet(self, seed, shape):
        """One-packet batches: emitted packets, statistics and the whole
        checkpoint agree after every single arrival."""
        ours, reference = TcpReassembler(**shape), ReferenceReassembler(**shape)
        for packet in hostile_wire(seed):
            assert view(ours.process([packet])) == view(reference.process([packet]))
            assert_same_state(ours, reference)
        assert view(ours.flush_all()) == view(reference.flush_all())
        assert_same_state(ours, reference)

    @pytest.mark.parametrize("shape", REASSEMBLER_SHAPES, ids=repr)
    @pytest.mark.parametrize("seed", range(12, 20))
    def test_one_batch_and_across_a_checkpoint(self, seed, shape):
        wire = hostile_wire(seed, flows=8)
        reference = ReferenceReassembler(**shape)
        expected = view(reference.process(wire) + reference.flush_all())

        whole = TcpReassembler(**shape)
        assert view(whole.process(wire) + whole.flush_all()) == expected
        assert_same_state(whole, reference)

        cut = len(wire) // 2
        first = TcpReassembler(**shape)
        head = first.process(wire[:cut])
        restored = TcpReassembler.restore(json.loads(json.dumps(first.checkpoint())))
        tail = restored.process(wire[cut:]) + restored.flush_all()
        assert view(head + tail) == expected
        assert restored.checkpoint() == reference.checkpoint()

    @pytest.mark.parametrize("policy", ["first", "last"])
    @pytest.mark.parametrize("segments", [128, 131])
    def test_reversed_flood_matches_at_every_step(self, policy, segments):
        """A sequence-gap flood — every segment lands *before* everything
        buffered — keeps the incremental ``buffered_bytes`` and the one-slice
        drain equal to the re-summing reference; 131 segments cross the
        128-segment cap and force a hole flush on the way."""
        header = FiveTuple("10.0.0.1", "10.0.0.2", 40000, 80, "tcp")
        isn = 2**32 - 300  # the flood crosses the wraparound
        wire = [seg(b"", isn, SYN, header)]
        for index in reversed(range(segments)):
            wire.append(seg(bytes([index % 251]) * 7, (isn + 1 + 7 * index) % 2**32, ACK, header))
        ours = TcpReassembler(overlap_policy=policy)
        reference = ReferenceReassembler(overlap_policy=policy)
        for packet in renumbered(wire):
            assert view(ours.feed(packet)) == view(reference.feed(packet))
            assert_same_state(ours, reference)
        # what arrives behind a forced flush is behind the delivery point
        assert ours.stats.hole_flushes == (1 if segments > 128 else 0)
        assert ours.stats.packets_out + ours.stats.retransmits == segments
        assert ours.buffered_bytes == 0


# ----------------------------------------------------------------------
# interning: bounded tables, equal-not-identical keys
# ----------------------------------------------------------------------
@pytest.fixture
def small_intern_bound(monkeypatch):
    monkeypatch.setattr(frames, "FLOW_INTERN_BOUND", 16)
    frames._FLOWS.clear()
    yield 16
    frames._FLOWS.clear()


def many_flow_packets(flows: int, rounds: int, pattern: bytes):
    packets = []
    for round_index in range(rounds):
        for flow in range(flows):
            header = FiveTuple(f"10.1.{flow // 250}.{flow % 250 + 1}", "10.2.0.1",
                               20000 + flow, 80, "tcp")
            half = len(pattern) // 2
            payload = (b"....", pattern[:half], pattern[half:] + b"....")[round_index % 3]
            packets.append(Packet(payload=payload, header=header))
    return renumbered(packets)


class TestFlowInterning:
    def test_table_rolls_over_and_events_do_not_change(
        self, small_intern_bound, monkeypatch, tmp_path
    ):
        """3x the bound of distinct 5-tuples, each split across segments that
        sit either side of a roll-over: same events and statistics as the
        per-frame reference decoder, and the table never exceeds its bound."""
        ruleset = generate_snort_like_ruleset(40, seed=3)
        pattern = max(ruleset.patterns, key=len)
        path = tmp_path / "many.pcap"
        write_packets(str(path), many_flow_packets(3 * small_intern_bound, 3, pattern))
        config = {
            "mode": "stream",
            "rules": {"kind": "synthetic", "size": 40, "seed": 3},
            "engine": {"backend": "dense", "shards": 3, "reassemble": True},
            "source": {"kind": "pcap", "path": str(path)},
        }
        sizes = []
        real_intern = frames._intern_flow

        def watching(protocol, wire):
            header = real_intern(protocol, wire)
            sizes.append(len(frames._FLOWS))
            return header

        monkeypatch.setattr(frames, "_intern_flow", watching)
        with Session.from_config(config) as session:
            run = session.run()
        assert len(sizes) > 3 * small_intern_bound  # rolled over: flows re-resolved
        assert max(sizes) <= small_intern_bound
        assert len(run.events) >= 3 * small_intern_bound  # every split pattern found

        monkeypatch.setattr(replay, "decode_frame", reference_decode_frame)
        with Session.from_config(config) as session:
            expected = session.run()
        assert run.events == expected.events
        assert run.stats == expected.stats
        assert run.scan_result.shards == expected.scan_result.shards

    def test_session_payload_bytes_is_the_decoders_count(self, tmp_path):
        """``stats()["payload_bytes"]`` of a pcap source comes from
        ``ReplayStats``, not from a second walk over the packets — with
        skipped frames in the capture, so no other counter coincides."""
        header = FiveTuple("10.0.0.1", "10.0.0.2", 1234, 80, "tcp")
        records = [CaptureRecord(encode_frame(header, b"x" * size)) for size in (3, 50, 700)]
        records.insert(1, CaptureRecord(b"\x00" * 9))  # truncated: skipped
        path = tmp_path / "some.pcap"
        write_pcap(str(path), records)
        config = {
            "mode": "stream",
            "rules": {"kind": "synthetic", "size": 40, "seed": 3},
            "engine": {"backend": "dense"},
            "source": {"kind": "pcap", "path": str(path)},
        }
        with Session.from_config(config) as session:
            stats = session.run().stats
            assert stats["payload_bytes"] == 753 == sum(len(p.payload) for p in session.packets)
            assert stats["capture"] == {"frames": 4, "decoded": 3, "skipped": {"truncated": 1}}

    def test_keys_are_equal_not_identical(self, small_intern_bound):
        header = FiveTuple("10.0.0.1", "10.0.0.2", 1234, 80, "tcp")
        frame = encode_frame(header, b"data")
        interned = FlowKey.from_header(decode_frame(frame)[0].header)
        assert decode_frame(frame)[0].header.flow_key is interned  # carried, not re-derived

        program = get_backend("dense").compile([b"needle"])
        table = FlowTable(8)
        table.insert(FlowEntry(key=interned, states=program.initial_scan_states()))
        service = ScanService(program, num_shards=5)
        travelled = {
            "pickle": pickle.loads(pickle.dumps(interned)),
            "coerced": FlowKey.coerced(*interned.as_tuple()),
            "checkpoint": FlowTable.restore(
                json.loads(json.dumps(table.checkpoint()))
            ).keys()[0],
            "fresh header": FlowKey.from_header(FiveTuple(*interned.as_tuple())),
        }
        frames._FLOWS.clear()  # a roll-over between two frames of the flow
        travelled["after roll-over"] = FlowKey.from_header(decode_frame(frame)[0].header)
        for how, key in travelled.items():
            assert key is not interned, how
            assert key == interned and hash(key) == hash(interned), how
            assert table.peek(key) is table.peek(interned), how
            assert service.shard_for(key) == service.shard_for(interned), how
        # the hash cache never travels: string hashes are salted per process
        assert b"_hash" not in pickle.dumps(interned)
        assert pickle.loads(pickle.dumps(header)) == header

    def test_workers_see_the_same_events_across_a_roll_over(self, small_intern_bound):
        ruleset, packets = equivalence_workload(num_rules=40, flows=40, num_packets=3, seed=21)
        reference = assert_equivalent_events(
            ruleset, packets, backends=("dense",), worker_counts=(None, 2),
            sources=("memory", "pcap"), num_shards=3,
        )
        assert reference.events


# ----------------------------------------------------------------------
# a checkpoint the parent commit wrote
# ----------------------------------------------------------------------
#: ``Session.checkpoint()`` of the commit before the front-end rewrite, taken
#: two thirds into :func:`golden_wire`: flow 1 is parked mid-pattern in the
#: automaton, every flow has holes buffered and the sequence numbers have
#: just wrapped.  Flow identity is restored from it by value.
PARENT_CHECKPOINT = (
    '{"service":{"num_shards":2,"shards":[{"capacity":4096,"flows":[{"key":["10.0.0.1",'
    '"10.0.1.1",4000,80,"tcp"],"states":[[10,65,79,14]],"lower_states":null,"packets":2,'
    '"matched":[],"matched_lower":[],"alerted":[]},{"key":["10.0.0.2","10.0.1.1",4001,80,'
    '"tcp"],"states":[[0,32,114,14]],"lower_states":null,"packets":2,"matched":[],'
    '"matched_lower":[],"alerted":[]}]},{"capacity":4096,"flows":[]}]},'
    '"reassembly":{"overlap_policy":"first","max_flows":1024,"max_flow_bytes":65536,'
    '"max_flow_segments":128,"next_packet_id":4,"flows":[{"key":["10.0.0.3","10.0.1.1",'
    '4002,80,"tcp"],"mode":"seq","next_off":0,"seq_at_next":4294967289,"holes":[[7,'
    '"41597878787878"],[21,"787369676e6174"],[35,"494c5041594c4f"]],"fin_off":null,'
    '"delivered":false},{"key":["10.0.0.1","10.0.1.1",4000,80,"tcp"],"mode":"seq",'
    '"next_off":14,"seq_at_next":5,"holes":[[21,"636f6e642d7369"],[35,"2e2e2e2e"]],'
    '"fin_off":null,"delivered":true},{"key":["10.0.0.2","10.0.1.1",4001,80,"tcp"],'
    '"mode":"seq","next_off":14,"seq_at_next":6,"holes":[[21,"652062656e6967"],[35,'
    '"722e2e2e2e"]],"fin_off":null,"delivered":true}]}}'
)


def golden_wire():
    streams = [
        b"....EVILPAYLOAD....second-signature....",
        b"benign filler and more benign filler....",
        b"xxEVILPAYxxxxxxxxxxxxxsignaturexxEVILPAYLOAD",
    ]
    per_flow = []
    for flow, stream in enumerate(streams):
        header = FiveTuple(f"10.0.0.{flow + 1}", "10.0.1.1", 4000 + flow, 80, "tcp")
        isn = 2**32 - 10 + flow
        cuts = list(range(0, len(stream), 7))
        per_flow.append([seg(b"", isn, SYN, header)] + [
            seg(stream[offset:offset + 7], (isn + 1 + offset) % 2**32, ACK, header)
            for offset in cuts[1::2] + cuts[0::2]  # odd pieces first: holes at the cut
        ])
    wire = []
    while any(per_flow):
        wire.extend(packets.pop(0) for packets in per_flow if packets)
    return renumbered(wire)


def test_a_parent_checkpoint_restores_and_continues():
    config = {
        "mode": "stream",
        "rules": {"kind": "specs", "rules": [{"content": "EVILPAYLOAD", "sid": 1},
                                             {"content": "signature", "sid": 2}]},
        "engine": {"backend": "dense", "shards": 2, "reassemble": True},
        "source": {"kind": "packets", "packets": []},
    }
    wire = golden_wire()
    cut = 2 * len(wire) // 3
    with Session.from_config(config) as session:
        assert session.scan(wire[:cut]).events == []
        # the format is unchanged: this commit writes the same bytes
        assert json.dumps(session.checkpoint(), separators=(",", ":")) == PARENT_CHECKPOINT
    with Session.from_config(config) as session:
        session.restore(json.loads(PARENT_CHECKPOINT))
        events = session.scan(wire[cut:]).events
        assert session.flush_reassembly() is None
    assert [(e.flow.as_tuple(), e.packet_id, e.end_offset, e.string_number) for e in events] == [
        (("10.0.0.1", "10.0.1.1", 4000, 80, "tcp"), 6, 15, 0),
        (("10.0.0.1", "10.0.1.1", 4000, 80, "tcp"), 12, 35, 1),
        (("10.0.0.3", "10.0.1.1", 4002, 80, "tcp"), 16, 31, 1),
        (("10.0.0.3", "10.0.1.1", 4002, 80, "tcp"), 18, 44, 0),
    ]


# ----------------------------------------------------------------------
# the property, locked without a clock
# ----------------------------------------------------------------------
class TestOncePerFlow:
    def test_identity_is_resolved_once_per_flow(self, monkeypatch):
        flows, rounds = 64, 32
        packets = []
        for round_index in range(rounds):
            for flow in range(flows):
                header = FiveTuple(f"10.3.0.{flow + 1}", "10.3.1.1", 10000 + flow, 443, "tcp")
                packets.append(Packet(payload=b"x" * 40, header=header,
                                      tcp_seq=1 + 40 * round_index, tcp_flags=ACK))
        buffer = io.BytesIO()
        write_packets(buffer, renumbered(packets))
        buffer.seek(0)

        built, coerced = [], []

        class CountingFiveTuple(FiveTuple):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        real_coerced = FlowKey.coerced.__func__

        def counting_coerced(cls, *fields):
            coerced.append(fields)
            return real_coerced(cls, *fields)

        monkeypatch.setattr(frames, "FiveTuple", CountingFiveTuple)
        monkeypatch.setattr(FlowKey, "coerced", classmethod(counting_coerced))
        frames._FLOWS.clear()
        try:
            decoded, stats = load_packets(buffer)
            program = get_backend("dense").compile([b"needle"])
            result = ScanService(program, num_shards=4).scan(TcpReassembler().process(decoded))
        finally:
            frames._FLOWS.clear()  # drop the counting subclass instances
        assert stats.decoded == result.packets == flows * rounds
        assert len(built) == flows
        assert len(coerced) == flows

    def test_in_order_segments_never_enter_the_hole_buffer(self, monkeypatch):
        def forbidden(self, state, offset, data):
            raise AssertionError("an in-order segment reached _insert")

        monkeypatch.setattr(TcpReassembler, "_insert", forbidden)
        monkeypatch.setattr(TcpReassembler, "_drain", forbidden)
        header = FiveTuple("10.0.0.1", "10.0.0.2", 40000, 80, "tcp")
        isn = 2**32 - 20_000  # wraps mid-stream
        wire = [seg(b"", isn, SYN, header)]
        for index in range(1000):
            wire.append(seg(b"y" * 50, (isn + 1 + 50 * index) % 2**32,
                            ACK | (FIN if index == 999 else 0), header))
        # retransmits that overlap the delivered prefix are trimmed, not buffered
        wire.insert(500, seg(b"y" * 80, (isn + 1 + 50 * 497) % 2**32, ACK, header))
        reassembler = TcpReassembler()
        out = reassembler.process(renumbered(wire))
        assert b"".join(p.payload for p in out) == b"y" * 50_000
        assert len(reassembler) == 0  # the FIN retired the flow
        assert reassembler.stats.reordered == 0

    def test_a_hit_free_batch_does_no_per_segment_work(self, monkeypatch):
        calls = []
        real = StreamScanner._attribute

        def counting(self, key, *rest):
            calls.append(key)
            return real(self, key, *rest)

        monkeypatch.setattr(StreamScanner, "_attribute", counting)
        program = get_backend("dense").compile([b"needle", b"haystack"])
        scanner = StreamScanner(program, FlowTable(1024))
        keys = [FlowKey("10.0.0.1", "10.0.0.2", 1000 + flow, 80, "tcp") for flow in range(256)]
        items = [(key, b"nothing to see " * 3, 8 * index + round_index)
                 for round_index in range(8) for index, key in enumerate(keys)]
        hits, evictions = scanner.scan_batch(items)
        assert calls == [] and evictions == [] and hits == {}
        assert (scanner.stats.segments, scanner.stats.bytes_scanned) == (2048, 2048 * 45)

        # one flow with a hit split across its segments: exactly one call
        items[5] = (keys[5], b"....need", 5)
        items[5 + 256] = (keys[5], b"le....", 5 + 256)
        hits, _ = StreamScanner(program, FlowTable(1024)).scan_batch(items)
        assert calls == [keys[5]]
        assert {index: len(events) for index, events in hits.items()} == {5 + 256: 1}

    def test_a_capture_is_read_in_blocks(self):
        class CountingReader(io.BytesIO):
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                assert 0 < size <= pcap.READ_BLOCK
                return super().read(size)

        buffer = io.BytesIO()
        write_pcap(buffer, (CaptureRecord(data=bytes([index % 256]) * 60, ts_ns=index)
                            for index in range(10_000)))
        handle = CountingReader(buffer.getvalue())
        capture = read_capture(handle)
        assert len(capture) == 10_000
        assert capture.records[9_999].data == bytes([9_999 % 256]) * 60
        # whole blocks, plus the 4-byte magic sniff, the last partial block
        # and the empty read that ends the file — 10 000 records, 14 reads
        assert handle.reads <= len(buffer.getvalue()) // pcap.READ_BLOCK + 3


# ----------------------------------------------------------------------
# hostile lengths: compared with the bytes present, never allocated from
# ----------------------------------------------------------------------
PCAP_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
#: 24-byte global header + a record header claiming ~4 GiB + ten bytes: 50 bytes
HOSTILE_PCAP = PCAP_HEADER + struct.pack("<IIII", 0, 0, 0xFFFFFF00, 0xFFFFFF00) + b"0123456789"


def hostile_pcapng() -> bytes:
    buffer = io.BytesIO()
    write_pcapng(buffer, [CaptureRecord(data=b"ok")])
    blocks = buffer.getvalue()
    # an Enhanced Packet Block whose total length claims ~4 GiB
    return blocks + struct.pack("<II", 6, 0xFFFFFF00) + b"0123456789"


def run_tail(path, follow):
    source = PcapTailSource(str(path), follow=follow, poll_interval=0.01)
    emitted = []
    asyncio.run(asyncio.wait_for(source.run(lambda *segment: emitted.append(segment)), 5))
    return emitted


class TestHostileLengths:
    def test_oversized_record_is_rejected_by_index(self):
        assert len(HOSTILE_PCAP) == 50
        with pytest.raises(CaptureError, match=r"record 0 claims 4294967040"):
            read_capture(io.BytesIO(HOSTILE_PCAP))
        good = struct.pack("<IIII", 0, 0, 3, 3) + b"abc"
        with pytest.raises(CaptureError, match=r"record 2 claims"):
            read_capture(io.BytesIO(PCAP_HEADER + good + good + HOSTILE_PCAP[24:]))

    def test_limit_is_the_larger_of_snaplen_and_libpcaps_maximum(self):
        def capture(snaplen, size):
            header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 1)
            return io.BytesIO(header + struct.pack("<IIII", 0, 0, size, size) + bytes(size))

        assert len(read_capture(capture(64, pcap.MAX_SNAPLEN)).records[0].data) == pcap.MAX_SNAPLEN
        with pytest.raises(CaptureError, match="snap length limit"):
            read_capture(capture(64, pcap.MAX_SNAPLEN + 1))
        big = 2 * pcap.MAX_SNAPLEN  # a file that declares a larger snap length may use it
        assert len(read_capture(capture(big, big)).records[0].data) == big

    def test_record_longer_than_the_file_is_named(self):
        cut = PCAP_HEADER + struct.pack("<IIII", 0, 0, 3, 3) + b"abc" + struct.pack(
            "<IIII", 0, 0, 1000, 1000) + b"only this much"
        with pytest.raises(CaptureError, match=r"truncated capture: pcap record 1 is cut short"):
            read_capture(io.BytesIO(cut))
        with pytest.raises(CaptureError, match="truncated capture: short read in pcap global"):
            read_capture(io.BytesIO(PCAP_HEADER[:11]))

    def test_pcapng_block_longer_than_the_file_is_named(self):
        with pytest.raises(CaptureError, match=r"truncated capture: short read in pcapng block 3"):
            read_capture(io.BytesIO(hostile_pcapng()))
        shb = struct.pack("<III", 0x0A0D0D0A, 8, 0x1A2B3C4D)
        with pytest.raises(CaptureError, match="bad pcapng section header length 8"):
            read_capture(io.BytesIO(shb))

    @pytest.mark.parametrize("follow", [False, True])
    def test_tail_reader_rejects_instead_of_waiting(self, tmp_path, follow):
        path = tmp_path / "hostile.pcap"
        path.write_bytes(HOSTILE_PCAP)
        with pytest.raises(CaptureError, match=r"record 0 claims .*hostile\.pcap"):
            run_tail(path, follow)

    def test_tail_reader_edge_files(self, tmp_path):
        empty = tmp_path / "empty.pcap"
        empty.write_bytes(b"")
        with pytest.raises(CaptureError, match="empty capture file"):
            run_tail(empty, follow=False)
        header_only = tmp_path / "header.pcap"
        header_only.write_bytes(PCAP_HEADER)
        assert run_tail(header_only, follow=False) == []

    def test_only_typed_errors_escape_under_a_memory_limit(self, tmp_path):
        """The four readers in one child process whose address space is
        capped at 1 GiB: sizing a buffer from the 4 GiB length would be a
        ``MemoryError`` there (and a wait for ever in ``follow`` mode)."""
        (tmp_path / "hostile.pcap").write_bytes(HOSTILE_PCAP)
        (tmp_path / "hostile.pcapng").write_bytes(hostile_pcapng())
        script = textwrap.dedent(
            """
            import asyncio, resource, sys
            from repro.capture import CaptureError, read_capture
            from repro.streaming.ingest import PcapTailSource

            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            directory = sys.argv[1]

            def tail(follow):
                source = PcapTailSource(directory + "/hostile.pcap", follow=follow,
                                        poll_interval=0.01)
                asyncio.run(asyncio.wait_for(source.run(lambda *segment: None), 20))

            cases = {
                "pcap": lambda: read_capture(directory + "/hostile.pcap"),
                "pcapng": lambda: read_capture(directory + "/hostile.pcapng"),
                "tail": lambda: tail(False),
                "tail-follow": lambda: tail(True),
            }
            for name, case in cases.items():
                try:
                    case()
                    print(name, "no error")
                except CaptureError:
                    print(name, "CaptureError")
                except BaseException as exc:
                    print(name, type(exc).__name__)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "src", "PATH": ""},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:4] == [
            "pcap CaptureError", "pcapng CaptureError",
            "tail CaptureError", "tail-follow CaptureError",
        ]
