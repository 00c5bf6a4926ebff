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
from repro.backend import ScanState, get_backend
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
from repro.traffic import MANGLE_MODES, TrafficGenerator
from repro.traffic.packet import FiveTuple, Packet
from tests.conftest import (
    ReferencePacket,
    ReferenceReassembler,
    assert_equivalent_events,
    equivalence_workload,
    reference_decode_fields,
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
# three decode routes: the streamed file, the parsed container, the reference
# ----------------------------------------------------------------------
ROUTE_HEADERS = [
    FiveTuple("10.0.0.1", "10.0.0.2", 1000, 80, "tcp"),
    FiveTuple("10.0.0.3", "10.0.0.4", 53, 5353, "udp"),
    FiveTuple("2001:db8::1", "2001:db8::2", 443, 1024, "tcp"),
]
#: where the IP header starts under each link type the routes are run on
#: (802.1Q frames add four bytes per tag)
IP_OFFSET = {"ethernet": 14, "vlan": 14, "sll": 16, "raw": 0, "unknown": 14}
LINKTYPE = {"ethernet": LINKTYPE_ETHERNET, "vlan": LINKTYPE_ETHERNET,
            "sll": LINKTYPE_LINUX_SLL, "raw": LINKTYPE_RAW, "unknown": 147}


def route_frames(link: str, count: int = 3000):
    """``count`` frames under ``link``, one of every skip reason among them
    (an unknown link type skips them all as ``"link"``)."""
    encode_as = LINKTYPE_ETHERNET if link in ("vlan", "unknown") else LINKTYPE[link]
    wire, ips = [], []
    for index in range(count):
        frame = encode_frame(ROUTE_HEADERS[index % 3], bytes([index % 251]) * (index % 9 * 7),
                             encode_as, seq=index * 11, flags=0x18 | index % 2)
        ip = IP_OFFSET[link]
        if link == "vlan":  # one or two 802.1Q tags
            tags = 1 + index % 2
            frame = frame[:12] + struct.pack("!HH", 0x8100, 7) * tags + frame[12:]
            ip += 4 * tags
        wire.append(bytearray(frame))
        ips.append(ip)
    v4 = [index for index in range(count) if index % 3 != 2]  # the IPv4 frames
    fragment, transport, network, truncated = v4[1200], v4[1300], v4[1500], v4[1900]
    wire[fragment][ips[fragment] + 6:ips[fragment] + 8] = struct.pack("!H", 0x2000)  # MF
    wire[transport][ips[transport] + 9] = 1  # ICMP
    if link == "raw":
        wire[network][0] = 0x55  # neither IPv4 nor IPv6
    else:
        wire[network][ips[network] - 2:ips[network]] = struct.pack("!H", 0x0806)  # ARP
    wire[truncated] = wire[truncated][: ips[truncated] + 10]
    return [bytes(frame) for frame in wire]


def pcap_file(wire, linktype: int, endian: str = "<", nanosecond: bool = False) -> bytes:
    """A classic pcap in either byte order, timestamps in µs or ns."""
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)]
    for index, frame in enumerate(wire):
        out.append(struct.pack(endian + "IIII", 1_700_000_000 + index, 999 * index,
                                len(frame), len(frame) + index % 2) + frame)
    return b"".join(out)


def decode_routes(path, strict: bool = False):
    """Streamed ``load_packets(path)``, ``load_packets(read_capture(path))``
    and the reference decoder: ``(packets, stats)`` or the error message."""

    def attempt(load):
        try:
            return load()
        except CaptureError as exc:
            return f"CaptureError: {exc}"

    def parsed(loader):
        return lambda: loader(read_capture(str(path)), first_packet_id=3, strict=strict)

    return [
        attempt(lambda: load_packets(str(path), first_packet_id=3, strict=strict)),
        attempt(parsed(load_packets)),
        attempt(parsed(reference_load_packets)),
    ]


class TestDecodeRoutes:
    @pytest.mark.parametrize("link", ["ethernet", "vlan", "sll", "raw", "unknown"])
    @pytest.mark.parametrize("endian, nanosecond", [("<", False), (">", True), (">", False)])
    def test_routes_agree(self, tmp_path, link, endian, nanosecond):
        path = tmp_path / "routes.pcap"
        path.write_bytes(pcap_file(route_frames(link), LINKTYPE[link], endian, nanosecond))
        assert path.stat().st_size > 3 * pcap.READ_BLOCK  # records cross blocks
        streamed, parsed, reference = decode_routes(path)
        assert streamed == parsed == reference
        packets, stats = streamed
        if link == "unknown":
            assert stats.skipped == {"link": 3000} and packets == []
        else:
            assert stats.skipped == {"fragment": 1, "transport": 1, "network": 1, "truncated": 1}
            assert stats.decoded == len(packets) == 2996 and packets[0].packet_id == 3
            assert {packet.tcp_flags for packet in packets} == {0x18, 0x19, None}

    def test_pcapng_takes_the_same_decode_body(self, tmp_path):
        path = tmp_path / "routes.pcapng"
        write_pcapng(str(path), [CaptureRecord(frame) for frame in route_frames("ethernet")])
        streamed, parsed, reference = decode_routes(path)
        assert streamed == parsed == reference
        assert streamed[1].skipped_total == 4

    @pytest.mark.parametrize("link", ["ethernet", "vlan", "sll", "raw"])
    def test_strict_names_the_same_frame(self, tmp_path, link):
        path = tmp_path / "strict.pcap"
        path.write_bytes(pcap_file(route_frames(link), LINKTYPE[link]))
        messages = decode_routes(path, strict=True)
        assert len(set(messages)) == 1
        # frame 1800 of 3000: blocks before it were decoded and handed out
        assert messages[0] == "CaptureError: frame 1800 cannot be decoded (fragment)"

    def test_containers_cut_short_or_oversized_fail_alike(self, tmp_path):
        whole = pcap_file(route_frames("ethernet"), LINKTYPE_ETHERNET)
        path = tmp_path / "bad.pcap"
        path.write_bytes(whole[:-5])
        messages = decode_routes(path)
        assert len(set(messages)) == 1
        assert "truncated capture: pcap record 2999 is cut short" in messages[0]

        at = len(pcap_file(route_frames("ethernet")[:2000], LINKTYPE_ETHERNET))
        oversized = struct.pack("<IIII", 0, 0, 2**31, 2**31)
        path.write_bytes(whole[:at] + oversized + whole[at:])
        messages = decode_routes(path)
        assert len(set(messages)) == 1
        assert "pcap record 2000 claims 2147483648 captured bytes" in messages[0]


# ----------------------------------------------------------------------
# the packet record against the dataclass it replaced
# ----------------------------------------------------------------------
PACKET_CASES = [
    dict(payload=b"x"),
    dict(payload=b"x", injected_sids=[]),
    dict(payload=b"x", packet_id=1),
    dict(payload=b"abc", header=FiveTuple("10.0.0.1", "10.0.0.2", 1, 2, "tcp"),
         packet_id=7, injected_sids=[1, 2], tcp_seq=5, tcp_flags=0x18),
    dict(payload=b"abc", header=FiveTuple("10.0.0.1", "10.0.0.2", 1, 2, "tcp"),
         packet_id=7, injected_sids=[1, 2], tcp_seq=5, tcp_flags=0x19),
    dict(payload=b"", tcp_seq=0),
]


class TestPacketRecord:
    def test_equality_repr_and_hashing_match_the_dataclass(self):
        for one in PACKET_CASES:
            ours, theirs = Packet(**one), ReferencePacket(**one)
            assert repr(ours) == repr(theirs).replace("ReferencePacket(", "Packet(", 1)
            assert ours != theirs and ours != tuple(one.values())
            for other in PACKET_CASES:
                assert (ours == Packet(**other)) == (theirs == ReferencePacket(**other))
                assert (ours != Packet(**other)) == (theirs != ReferencePacket(**other))
            for packet in (ours, theirs):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(packet)
        positional = (b"p", ROUTE_HEADERS[0], 4, [9], 12, 2)
        assert Packet(*positional) == Packet(**dict(zip(
            ("payload", "header", "packet_id", "injected_sids", "tcp_seq", "tcp_flags"),
            positional,
        )))
        assert repr(Packet(*positional)) == repr(ReferencePacket(*positional)).replace(
            "ReferencePacket(", "Packet(", 1
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for one in PACKET_CASES:
            ours = pickle.loads(pickle.dumps(Packet(**one), protocol))
            theirs = pickle.loads(pickle.dumps(ReferencePacket(**one), protocol))
            assert type(ours) is Packet and ours == Packet(**one)
            assert repr(ours) == repr(theirs).replace("ReferencePacket(", "Packet(", 1)

    def test_default_packets_never_share_a_list(self):
        first, second = Packet(b"a"), Packet(b"b")
        first.injected_sids.append(1)
        assert second.injected_sids == [] and first.injected_sids == [1]
        assert first.injected_sids is not second.injected_sids
        assert Packet(b"c").injected_sids is not Packet(b"c").injected_sids
        sids = [4]
        owned = Packet(b"d", injected_sids=sids)
        assert owned.injected_sids is sids  # as given, like the dataclass
        owned.injected_sids = [5]
        assert owned.injected_sids == [5] and sids == [4]
        assert not hasattr(owned, "__dict__")


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

    @pytest.mark.parametrize("policy", ["first", "last"])
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_mangled_flows(self, seed, policy):
        """The generator's three mangle modes, mixed per flow and topped with
        re-sends whose bytes disagree: packet by packet, then flushed, the
        same packets, statistics and checkpoint as the reference."""
        wire = mangled_wire(seed)
        ours = TcpReassembler(overlap_policy=policy)
        reference = ReferenceReassembler(overlap_policy=policy)
        for packet in wire:
            assert view(ours.process([packet])) == view(reference.process([packet]))
            assert_same_state(ours, reference)
        assert view(ours.flush_all()) == view(reference.flush_all())
        assert_same_state(ours, reference)
        assert ours.stats.reordered and ours.stats.overlap_bytes  # not vacuous


def mangled_wire(seed: int, flows: int = 12):
    """Generated flows, each mangled by a seed-chosen mode, interleaved, plus
    re-sends of delivered or buffered ranges with other bytes."""
    rng = random.Random(seed)
    generator = TrafficGenerator(MANGLE_RULES, seed=seed)
    mangled = [
        generator.mangle(flow, mode=rng.choice(MANGLE_MODES), overlap_bytes=rng.randint(1, 12))
        for flow in generator.flows(flows, num_packets=rng.randint(3, 8), segment_bytes=24)
    ]
    wire = TrafficGenerator.interleave(mangled)
    for _ in range(flows):
        victim = rng.choice([packet for packet in wire if packet.payload])
        cut = rng.randrange(len(victim.payload))
        wire.insert(rng.randrange(len(wire) + 1), seg(
            bytes(len(victim.payload) - cut), (victim.tcp_seq + cut) % 2**32, ACK, victim.header,
        ))
    return renumbered(wire)


MANGLE_RULES = generate_snort_like_ruleset(30, seed=8)


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
            "engine": {"backend": "dense", "reassemble": True},
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

        monkeypatch.setattr(replay, "decode_fields", reference_decode_fields)
        with Session.from_config(config) as session:
            expected = session.run()
        assert run.events == expected.events
        assert run.stats == expected.stats

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
        interned = decode_frame(frame)[0].header
        assert FlowKey.from_header(interned) is interned  # the header is its own key

        table = FlowTable(8)
        table.admit([interned], lambda key: FlowEntry(key=key, state=ScanState()))
        travelled = {
            "pickle": pickle.loads(pickle.dumps(interned)),
            "canonicalised": FlowKey(
                interned.src_ip, interned.dst_ip, float(interned.src_port),
                str(interned.dst_port), interned.protocol,
            ),
            "checkpoint": FlowTable.restore(
                json.loads(json.dumps(table.checkpoint()))
            ).entries()[0].key,
            "fresh header": FlowKey.from_header(FiveTuple(*interned.as_tuple())),
        }
        frames._FLOWS.clear()  # a roll-over between two frames of the flow
        travelled["after roll-over"] = FlowKey.from_header(decode_frame(frame)[0].header)
        for how, key in travelled.items():
            assert key is not interned, how
            assert key == interned and hash(key) == hash(interned), how
            assert table.peek(key) is table.peek(interned), how
        # the hash cache never travels: string hashes are salted per process
        assert b"_hash" not in pickle.dumps(interned)
        assert pickle.loads(pickle.dumps(header)) == header

    def test_memory_and_replay_see_the_same_events_across_a_roll_over(
        self, small_intern_bound
    ):
        ruleset, packets = equivalence_workload(num_rules=40, flows=40, num_packets=3, seed=21)
        reference = assert_equivalent_events(
            ruleset, packets, backends=("dense",), sources=("memory", "pcap"),
        )
        assert reference.events


# ----------------------------------------------------------------------
# a stored checkpoint
# ----------------------------------------------------------------------
#: ``Session.checkpoint()`` taken two thirds into :func:`golden_wire`: flow 1
#: is parked mid-pattern in the automaton, every flow has holes buffered and
#: the sequence numbers have just wrapped.  Flow identity is restored from it
#: by value.
STORED_CHECKPOINT = (
    '{"service":{"capacity":4096,"flows":[{"key":["10.0.0.1",'
    '"10.0.1.1",4000,80,"tcp"],"states":[[10,65,79,14]],"lower_states":null,"packets":2,'
    '"matched":[],"matched_lower":[],"alerted":[]},{"key":["10.0.0.2","10.0.1.1",4001,80,'
    '"tcp"],"states":[[0,32,114,14]],"lower_states":null,"packets":2,"matched":[],'
    '"matched_lower":[],"alerted":[]}]},'
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

#: What this commit writes at that point: a flow carries its registers alone
#: (the ``packets``, ``matched``, ``matched_lower`` and ``alerted`` keys of
#: :data:`STORED_CHECKPOINT` are read past on restore).
WRITTEN_CHECKPOINT = (
    '{"service":{"capacity":4096,"flows":[{"key":["10.0.0.1","10.0.1.1",4000,80,"tcp"],'
    '"states":[[10,65,79,14]],"lower_states":null},{"key":["10.0.0.2","10.0.1.1",4001,80,'
    '"tcp"],"states":[[0,32,114,14]],"lower_states":null}]},'
    + STORED_CHECKPOINT[STORED_CHECKPOINT.index('"reassembly":'):]
)

#: The same point as written while stream mode split its flows over two
#: tables (``shards: 2``; the second one empty).
TWO_TABLE_CHECKPOINT = (
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


def test_a_stored_checkpoint_restores_and_continues():
    config = {
        "mode": "stream",
        "rules": {"kind": "specs", "rules": [{"content": "EVILPAYLOAD", "sid": 1},
                                             {"content": "signature", "sid": 2}]},
        "engine": {"backend": "dense", "reassemble": True},
        "source": {"kind": "packets", "packets": []},
    }
    wire = golden_wire()
    cut = 2 * len(wire) // 3
    with Session.from_config(config) as session:
        assert session.scan(wire[:cut]).events == []
        # the format is pinned: this commit writes these bytes
        assert json.dumps(session.checkpoint(), separators=(",", ":")) == WRITTEN_CHECKPOINT
    with Session.from_config(config) as session:
        with pytest.raises(ValueError, match="checkpoint holds 2 flow tables"):
            session.restore(json.loads(TWO_TABLE_CHECKPOINT))
    for stored in (STORED_CHECKPOINT, WRITTEN_CHECKPOINT):
        with Session.from_config(config) as session:
            session.restore(json.loads(stored))
            events = session.scan(wire[cut:]).events
            assert session.flush() is None
        assert [
            (e.flow.as_tuple(), e.packet_id, e.end_offset, e.string_number) for e in events
        ] == [
            (("10.0.0.1", "10.0.1.1", 4000, 80, "tcp"), 6, 15, 0),
            (("10.0.0.1", "10.0.1.1", 4000, 80, "tcp"), 12, 35, 1),
            (("10.0.0.3", "10.0.1.1", 4002, 80, "tcp"), 16, 31, 1),
            (("10.0.0.3", "10.0.1.1", 4002, 80, "tcp"), 18, 44, 0),
        ]


def test_a_restored_session_keeps_its_configured_reassembly_bounds():
    """The checkpoint's reassembler bounds never override the session's:
    ``reassembly_flows``, ``overlap_policy`` and ``reassembly_bytes`` stay
    the configured ones, as the scan service keeps its ``flow_capacity``,
    and the least recently used flow that does not fit is dropped and
    counted."""
    config = {
        "mode": "stream",
        "rules": {"kind": "specs", "rules": [{"content": "EVILPAYLOAD", "sid": 1}]},
        "engine": {"backend": "dense", "reassemble": True},
        "source": {"kind": "packets", "packets": []},
    }
    wire = golden_wire()
    with Session.from_config(config) as session:
        session.scan(wire[: 2 * len(wire) // 3])
        saved = json.loads(json.dumps(session.checkpoint()))
    flows = [tuple(flow["key"]) for flow in saved["reassembly"]["flows"]]
    assert len(flows) == 3 and saved["reassembly"]["overlap_policy"] == "first"

    bounded = {"reassembly_flows": 2, "overlap_policy": "last", "reassembly_bytes": 4096}
    with Session.from_config({**config, "engine": {**config["engine"], **bounded}}) as session:
        session.restore(saved)
        reassembler = session.reassembler
        assert (
            reassembler.max_flows, reassembler.overlap_policy, reassembler.max_flow_bytes
        ) == (2, "last", 4096)
        assert reassembler.stats.restore_dropped == 1
        assert [key.as_tuple() for key in reassembler._flows] == flows[1:]


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

        built, derived = [], []

        class CountingFiveTuple(FiveTuple):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        real_from_header = FlowKey.from_header

        def counting_from_header(header):
            derived.append(header)
            return real_from_header(header)

        monkeypatch.setattr(frames, "FiveTuple", CountingFiveTuple)
        monkeypatch.setattr(FlowKey, "from_header", staticmethod(counting_from_header))
        frames._FLOWS.clear()
        try:
            decoded, stats = load_packets(buffer)
            program = get_backend("dense").compile([b"needle"])
            result = ScanService(program).scan(TcpReassembler().process(decoded))
        finally:
            frames._FLOWS.clear()  # drop the counting subclass instances
        assert stats.decoded == result.packets == flows * rounds
        assert len(built) == flows
        assert len(derived) == 0  # the header is the key: nothing derives one

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

    @pytest.mark.parametrize("policy", ["first", "last"])
    def test_a_segment_ahead_of_a_waiting_hole_skips_the_hole_buffer(self, monkeypatch, policy):
        """Only what lands beyond the delivery point, or overlaps the first
        buffered piece, is inserted; an in-order segment that ends at or
        before it is delivered directly and then drains what it joined."""
        inserted = []
        real_insert = TcpReassembler._insert

        def counting(self, state, offset, data):
            inserted.append((offset, len(data)))
            return real_insert(self, state, offset, data)

        monkeypatch.setattr(TcpReassembler, "_insert", counting)
        header = FiveTuple("10.0.0.1", "10.0.0.2", 40000, 80, "tcp")
        isn = 2**32 - 50  # the stream wraps
        stream = bytes(range(200))

        def at(start, end, flags=ACK):
            return seg(stream[start:end], (isn + 1 + start) % 2**32, flags, header)

        wire = renumbered([
            seg(b"", isn, SYN, header),
            at(100, 140), at(160, 200, ACK | FIN),  # two holes wait
            at(0, 20), at(20, 60),                   # in order, ahead of both
            at(60, 100),                             # ends at the hole: drains 100-140
            at(130, 150),                            # overlaps the delivered point: trimmed
            at(150, 165),                            # overlaps the second hole: inserted
        ])
        reassembler = TcpReassembler(overlap_policy=policy)
        out = reassembler.process(wire)
        assert inserted == [(100, 40), (160, 40), (150, 15)]
        assert b"".join(packet.payload for packet in out) == stream
        assert len(reassembler) == 0  # the FIN retired the flow
        reference = ReferenceReassembler(overlap_policy=policy)
        assert view(out) == view(reference.process(wire))
        assert_same_state(reassembler, reference)

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
        hits, evictions, _ = scanner.scan_batch(items)
        assert calls == [] and evictions == [] and hits == {}
        assert (scanner.stats.segments, scanner.stats.bytes_scanned) == (2048, 2048 * 45)

        # one flow with a hit split across its segments: exactly one call
        items[5] = (keys[5], b"....need", 5)
        items[5 + 256] = (keys[5], b"le....", 5 + 256)
        hits, _, _ = StreamScanner(program, FlowTable(1024)).scan_batch(items)
        assert calls == [keys[5]]
        assert {index: len(events) for index, events in hits.items()} == {5 + 256: 1}

    def test_one_object_per_packet_through_a_session(self, monkeypatch, tmp_path):
        """A 10 000-frame capture through ``Session.run()``: no
        ``CaptureRecord`` and no ``DecodedFrame`` is built, and every
        ``Packet`` is either a decoded frame or a reassembled segment."""
        header = FiveTuple("10.4.0.1", "10.4.1.1", 20000, 80, "tcp")
        wire = [seg(b"", 99, SYN, header)] + [
            seg(b"z" * 30, 100 + 30 * index, ACK, header) for index in range(9_999)
        ]
        wire[500], wire[501] = wire[501], wire[500]  # one segment waits behind a hole
        path = tmp_path / "ten_thousand.pcap"
        write_packets(str(path), renumbered(wire))
        config = {
            "mode": "stream",
            "rules": {"kind": "specs", "rules": [{"content": "zzzz", "sid": 1}]},
            "engine": {"backend": "dense", "reassemble": True},
            "source": {"kind": "pcap", "path": str(path)},
        }
        built = {CaptureRecord: 0, frames.DecodedFrame: 0, Packet: 0}
        for cls in built:
            def counting(self, *args, real=cls.__init__, cls=cls, **kwargs):
                built[cls] += 1
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        with Session.from_config(config) as session:
            run = session.run()
            counts = dict(built)
            assert run.stats["capture"]["decoded"] == 10_000
            assert run.stats["reassembly"]["reordered"] == 1
            emitted = run.stats["reassembly"]["packets_out"]
            assert counts == {CaptureRecord: 0, frames.DecodedFrame: 0, Packet: 10_000 + emitted}
            # the container is still there for whoever asks
            assert (session.capture.fmt, len(session.capture)) == ("pcap", 10_000)

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
