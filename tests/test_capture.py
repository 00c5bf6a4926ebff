"""Tests for the pcap capture/replay subsystem.

The headline contract (ISSUE 4 acceptance): a capture written by
``repro.capture``, re-read and replayed through any scan front-end, yields
**byte-identical** events/alerts to scanning the same segments in memory —
across container formats and matcher backends.
"""

from __future__ import annotations

import io
import struct

import pytest

from repro.backend import get_backend
from repro.capture import (
    LINKTYPE_ETHERNET,
    LINKTYPE_LINUX_SLL,
    LINKTYPE_RAW,
    CaptureError,
    CaptureRecord,
    FrameEncodeError,
    decode_frame,
    encode_frame,
    load_packets,
    read_capture,
    replay_ids,
    replay_stream,
    write_packets,
    write_pcap,
    write_pcapng,
)
from repro.ids.classifier import HeaderPattern
from repro.ids.pipeline import IDSRule, IntrusionDetectionSystem
from repro.rulesets import generate_snort_like_ruleset
from repro.streaming import StreamScanner
from repro.traffic.generator import TrafficGenerator
from repro.traffic.packet import FiveTuple, Packet
from tests.conftest import ReferenceStreamScanner, assert_equivalent_events, renumbered


@pytest.fixture(scope="module")
def ruleset():
    return generate_snort_like_ruleset(60, seed=11)


@pytest.fixture(scope="module")
def workload(ruleset):
    """Interleaved multi-packet flows, one boundary-split pattern each."""
    generator = TrafficGenerator(ruleset, seed=12)
    flows = generator.flows(8, num_packets=4, split_patterns=1, whole_patterns=1)
    return flows, TrafficGenerator.interleave(flows)


@pytest.fixture(scope="module", params=["pcap", "pcapng"])
def capture_bytes(request, workload):
    _, packets = workload
    buffer = io.BytesIO()
    assert write_packets(buffer, packets, fmt=request.param) == len(packets)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# container round-trips
# ----------------------------------------------------------------------
class TestPcapContainer:
    def test_roundtrip_microsecond(self):
        records = [
            CaptureRecord(data=b"\x01\x02\x03", ts_ns=1_700_000_000_123_456_000),
            CaptureRecord(data=b"", ts_ns=0),
        ]
        buffer = io.BytesIO()
        assert write_pcap(buffer, records, linktype=LINKTYPE_RAW) == 2
        buffer.seek(0)
        capture = read_capture(buffer)
        assert capture.fmt == "pcap" and not capture.nanosecond
        assert capture.linktype == LINKTYPE_RAW
        assert [r.data for r in capture.records] == [b"\x01\x02\x03", b""]
        assert capture.records[0].ts_ns == 1_700_000_000_123_456_000

    def test_roundtrip_nanosecond(self):
        records = [CaptureRecord(data=b"x", ts_ns=7_000_000_123)]
        buffer = io.BytesIO()
        write_pcap(buffer, records, nanosecond=True)
        buffer.seek(0)
        capture = read_capture(buffer)
        assert capture.nanosecond
        assert capture.records[0].ts_ns == 7_000_000_123

    def test_big_endian_pcap_is_read(self):
        # hand-built: BE magic, one 4-byte record
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 10, 20, 4, 4) + b"abcd"
        capture = read_capture(io.BytesIO(header + record))
        assert capture.linktype == 1
        assert capture.records[0].data == b"abcd"
        assert capture.records[0].ts_ns == 10 * 1_000_000_000 + 20_000

    def test_truncated_record_raises(self):
        buffer = io.BytesIO()
        write_pcap(buffer, [CaptureRecord(data=b"abcdef")])
        with pytest.raises(CaptureError, match="truncated"):
            read_capture(io.BytesIO(buffer.getvalue()[:-3]))

    def test_garbage_magic_raises(self):
        with pytest.raises(CaptureError, match="not a pcap"):
            read_capture(io.BytesIO(b"GIF89a notacapture"))

    def test_snaplen_truncation_is_visible(self):
        record = CaptureRecord(data=b"abc", orig_len=1500)
        buffer = io.BytesIO()
        write_pcap(buffer, [record])
        buffer.seek(0)
        got = read_capture(buffer).records[0]
        assert got.truncated and got.wire_length == 1500 and got.data == b"abc"


class TestPcapngContainer:
    def test_roundtrip_preserves_nanoseconds(self):
        records = [CaptureRecord(data=b"abcde", ts_ns=1_234_567_891_234_567_891)]
        buffer = io.BytesIO()
        assert write_pcapng(buffer, records, linktype=LINKTYPE_ETHERNET) == 1
        buffer.seek(0)
        capture = read_capture(buffer)
        assert capture.fmt == "pcapng"
        assert capture.linktype == LINKTYPE_ETHERNET
        assert capture.records[0].ts_ns == 1_234_567_891_234_567_891

    def test_unknown_blocks_are_skipped(self):
        buffer = io.BytesIO()
        write_pcapng(buffer, [CaptureRecord(data=b"hi")])
        # splice an Interface Statistics Block (type 5) before the EPB
        data = buffer.getvalue()
        isb = struct.pack("<III", 5, 20, 0) + b"\x00\x00\x00\x00" + struct.pack("<I", 20)
        shb_idb_end = 28 + 32  # SHB (28 bytes) + IDB (32 bytes with tsresol)
        patched = data[:shb_idb_end] + isb + data[shb_idb_end:]
        capture = read_capture(io.BytesIO(patched))
        assert [r.data for r in capture.records] == [b"hi"]

    def test_simple_packet_block(self):
        shb = struct.pack("<IIIHHq", 0x0A0D0D0A, 28, 0x1A2B3C4D, 1, 0, -1) + struct.pack("<I", 28)
        idb = struct.pack("<IIHHI", 1, 20, LINKTYPE_RAW, 0, 0) + struct.pack("<I", 20)
        spb = struct.pack("<III", 3, 20, 3) + b"xyz\x00" + struct.pack("<I", 20)
        capture = read_capture(io.BytesIO(shb + idb + spb))
        assert capture.records[0].data == b"xyz"
        assert not capture.records[0].truncated

    @pytest.mark.parametrize("tsresol, ticks, expected_ns", [
        (b"\x0c", 5_000_000, 5_000),            # picoseconds: 10^-12
        (b"\x89", 512, 1_000_000_000),          # power of two: 2^-9 units
        (b"", 7, 7_000),                        # absent option: microseconds
    ])
    def test_tsresol_conversion_is_exact(self, tsresol, ticks, expected_ns):
        option = (
            struct.pack("<HH", 9, len(tsresol)) + tsresol + b"\x00" * (-len(tsresol) % 4)
            if tsresol else b""
        )
        idb_body = struct.pack("<HHI", LINKTYPE_RAW, 0, 0) + option
        idb = struct.pack("<II", 1, len(idb_body) + 12) + idb_body + struct.pack(
            "<I", len(idb_body) + 12
        )
        shb = struct.pack("<IIIHHq", 0x0A0D0D0A, 28, 0x1A2B3C4D, 1, 0, -1) + struct.pack("<I", 28)
        epb_body = struct.pack("<IIIII", 0, ticks >> 32, ticks & 0xFFFFFFFF, 2, 2) + b"hi\x00\x00"
        epb = struct.pack("<II", 6, len(epb_body) + 12) + epb_body + struct.pack(
            "<I", len(epb_body) + 12
        )
        capture = read_capture(io.BytesIO(shb + idb + epb))
        assert capture.records[0].ts_ns == expected_ns

    def test_packet_before_interface_raises(self):
        shb = struct.pack("<IIIHHq", 0x0A0D0D0A, 28, 0x1A2B3C4D, 1, 0, -1) + struct.pack("<I", 28)
        spb = struct.pack("<III", 3, 20, 3) + b"xyz\x00" + struct.pack("<I", 20)
        with pytest.raises(CaptureError, match="interface"):
            read_capture(io.BytesIO(shb + spb))

    def test_short_block_body_raises_capture_error(self):
        # an IDB whose declared length leaves no room for its fixed fields
        # must fail as CaptureError, never as a bare struct.error
        shb = struct.pack("<IIIHHq", 0x0A0D0D0A, 28, 0x1A2B3C4D, 1, 0, -1) + struct.pack("<I", 28)
        idb = struct.pack("<III", 1, 12, 12)
        with pytest.raises(CaptureError, match="truncated"):
            read_capture(io.BytesIO(shb + idb))


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    HEADERS = [
        FiveTuple("10.1.2.3", "192.168.0.9", 49152, 80, "tcp"),
        FiveTuple("10.1.2.3", "192.168.0.9", 1024, 53, "udp"),
        FiveTuple("2001:db8::1", "2001:db8::2", 443, 65535, "tcp"),
        FiveTuple("2001:db8::1", "2001:db8::2", 7, 7, "udp"),
    ]

    @pytest.mark.parametrize("linktype", [LINKTYPE_ETHERNET, LINKTYPE_RAW, LINKTYPE_LINUX_SLL])
    def test_encode_decode_roundtrip(self, linktype):
        for header in self.HEADERS:
            frame, reason = decode_frame(
                encode_frame(header, b"payload \x00\xff bytes", linktype), linktype
            )
            assert reason is None
            assert frame.header == header
            assert frame.payload == b"payload \x00\xff bytes"

    def test_empty_payload_roundtrip(self):
        frame, _ = decode_frame(encode_frame(self.HEADERS[0], b""))
        assert frame.payload == b""

    def test_vlan_tagged_ethernet_is_decoded(self):
        raw = encode_frame(self.HEADERS[0], b"tagged")
        tagged = raw[:12] + struct.pack("!HH", 0x8100, 42) + raw[12:]
        frame, reason = decode_frame(tagged)
        assert reason is None and frame.payload == b"tagged"

    def test_arp_frame_skipped_as_network(self):
        arp = b"\xff" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
        frame, reason = decode_frame(arp)
        assert frame is None and reason == "network"

    def test_icmp_skipped_as_transport(self):
        frame = bytearray(encode_frame(self.HEADERS[0], b"x"))
        frame[14 + 9] = 1  # ICMP protocol number
        decoded, reason = decode_frame(bytes(frame))
        assert decoded is None and reason == "transport"

    def test_short_frame_skipped_as_truncated(self):
        assert decode_frame(b"\x00" * 10) == (None, "truncated")

    def test_snaplen_cut_ip_header_skipped_as_truncated(self):
        # a snaplen-limited capture cuts inside the IP header: the skip
        # reason must say "truncated", not masquerade as non-IP traffic
        frame = encode_frame(self.HEADERS[0], b"x")
        assert decode_frame(frame[:20]) == (None, "truncated")
        frame6 = encode_frame(self.HEADERS[2], b"x")
        assert decode_frame(frame6[:30]) == (None, "truncated")

    @pytest.mark.parametrize("flags_fragment", [
        0x2010,  # MF + offset 16: non-first fragment
        0x2000,  # MF + offset 0: first fragment — payload is partial
        0x0010,  # offset 16, last fragment
    ])
    def test_ipv4_fragments_skipped(self, flags_fragment):
        frame = bytearray(encode_frame(self.HEADERS[1], b"x"))
        frame[14 + 6:14 + 8] = struct.pack("!H", flags_fragment)
        decoded, reason = decode_frame(bytes(frame))
        assert decoded is None and reason == "fragment"

    def test_unknown_linktype_skipped_as_link(self):
        assert decode_frame(b"\x00" * 64, linktype=147) == (None, "link")

    def test_ip_checksum_is_valid(self):
        def ones_sum(data):
            total = sum(struct.unpack(f"!{len(data) // 2}H", data))
            while total >> 16:
                total = (total & 0xFFFF) + (total >> 16)
            return total

        frame = encode_frame(self.HEADERS[0], b"check me")
        assert ones_sum(frame[14:34]) == 0xFFFF  # IPv4 header verifies
        pseudo = frame[26:34] + struct.pack("!BBH", 0, 6, len(frame) - 34)
        assert ones_sum(pseudo + frame[34:] + b"\x00" * (len(frame) % 2)) == 0xFFFF

    def test_unsupported_protocol_rejected(self):
        with pytest.raises(FrameEncodeError, match="protocol"):
            encode_frame(FiveTuple("1.2.3.4", "5.6.7.8", 1, 2, "icmp"), b"x")

    @pytest.mark.parametrize("header", [HEADERS[0], HEADERS[3]])
    def test_oversized_payload_rejected(self, header):
        # 16-bit IP length fields: a jumbo payload must fail loudly, not
        # crash struct.pack deep inside the encoder
        with pytest.raises(FrameEncodeError, match="does not fit"):
            encode_frame(header, b"x" * 70_000)
        assert decode_frame(encode_frame(header, b"x" * 60_000))[1] is None

    def test_mixed_address_families_rejected(self):
        with pytest.raises(FrameEncodeError, match="mixed"):
            encode_frame(FiveTuple("1.2.3.4", "2001:db8::1", 1, 2, "tcp"), b"x")

    def test_headerless_packet_rejected(self):
        with pytest.raises(FrameEncodeError, match="header"):
            write_packets(io.BytesIO(), [Packet(payload=b"x")])


# ----------------------------------------------------------------------
# replay equivalence — the acceptance criterion
# ----------------------------------------------------------------------
class TestReplayEquivalence:
    BACKENDS = ("dtp", "dense")

    def _program(self, ruleset, backend):
        return get_backend(backend).compile(ruleset)

    def test_loaded_packets_match_originals(self, workload, capture_bytes):
        _, packets = workload
        loaded, stats = load_packets(io.BytesIO(capture_bytes))
        assert stats.decoded == len(packets) and not stats.skipped
        assert stats.payload_bytes == sum(len(p.payload) for p in packets)
        for original, roundtripped in zip(renumbered(packets), loaded):
            assert roundtripped.header == original.header
            assert roundtripped.payload == original.payload
            assert roundtripped.packet_id == original.packet_id

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_scanner_events_identical(self, ruleset, workload, capture_bytes, backend):
        _, packets = workload
        program = self._program(ruleset, backend)
        one_by_one = ReferenceStreamScanner(program)
        in_memory = [event for p in renumbered(packets) for event in one_by_one.scan_packet(p)]
        replayed = replay_stream(io.BytesIO(capture_bytes), StreamScanner(program))
        assert replayed == in_memory
        assert len(replayed) > 0

    @pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
    def test_service_events_identical_across_frontends_and_sources(
        self, ruleset, workload, fmt
    ):
        """{dtp, dense} × {memory, replay} through the shared differential
        harness, for both container formats."""
        flows, packets = workload
        reference = assert_equivalent_events(
            ruleset,
            packets,
            backends=self.BACKENDS,
            sources=("memory", "pcap"),
            capture_fmt=fmt,
        )
        # every deliberately split pattern is found on the replay path too
        sid_of = {index: rule.sid for index, rule in enumerate(ruleset)}
        streamed = {sid_of[event.string_number] for event in reference.events}
        assert {sid for flow in flows for sid in flow.split_sids} <= streamed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ids_alerts_identical(self, ruleset, workload, capture_bytes, backend):
        _, packets = workload
        rules = [
            IDSRule(sid=rule.sid, header=HeaderPattern(), contents=(rule.pattern,))
            for rule in ruleset
        ]
        expected = IntrusionDetectionSystem(rules, backend=backend).scan_flow(
            renumbered(packets)
        )
        ids = IntrusionDetectionSystem(rules, backend=backend)
        alerts = replay_ids(io.BytesIO(capture_bytes), ids)
        assert alerts == expected
        assert len(alerts) >= 8  # one split pattern per flow at minimum

    def test_export_pcap_accepts_flows_or_packets(self, workload, tmp_path):
        flows, packets = workload
        from_flows = tmp_path / "flows.pcap"
        from_packets = tmp_path / "packets.pcap"
        assert TrafficGenerator.export_pcap(from_flows, flows) == len(packets)
        assert TrafficGenerator.export_pcap(from_packets, packets) == len(packets)
        assert from_flows.read_bytes() == from_packets.read_bytes()

    def test_strict_load_raises_on_undecodable_frame(self):
        buffer = io.BytesIO()
        arp = b"\xff" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
        write_pcap(buffer, [CaptureRecord(data=arp)])
        buffer.seek(0)
        with pytest.raises(CaptureError, match="network"):
            load_packets(buffer, strict=True)

    def test_lenient_load_counts_skips(self, workload):
        _, packets = workload
        buffer = io.BytesIO()
        arp = b"\xff" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
        records = [CaptureRecord(data=encode_frame(p.header, p.payload)) for p in packets[:3]]
        records.insert(1, CaptureRecord(data=arp))
        write_pcap(buffer, records)
        buffer.seek(0)
        loaded, stats = load_packets(buffer)
        assert stats.frames == 4 and stats.decoded == 3
        assert stats.skipped == {"network": 1}
        # ids stay dense over the skipped frame
        assert [p.packet_id for p in loaded] == [0, 1, 2]
