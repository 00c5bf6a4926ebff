"""The repro.proto subsystem: TCP reassembly, HTTP normalization, sticky buffers.

Three layers under test:

* :class:`repro.proto.TcpReassembler` — the documented stream-ordering
  semantics (anchoring, wraparound, overlap policies, bounded holes,
  SYN/FIN/RST, fallback, checkpoint/restore), pinned case by case;
* :class:`repro.proto.HttpStream` — incremental request normalization
  (percent-decoding, header canonicalisation, body framing, caps) and its
  segmentation-independence;
* the sticky-buffer rule grammar and confirm-stage evaluation
  (``http_uri`` / ``http_header``), including the RS011/RS012 lint codes;

plus the differential gates: adversarially mangled flows, reassembled, must
scan byte-identically across every backend × source combination,
and the whole pipeline must catch splits that per-packet and no-reassembly
scans provably miss.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from tests.conftest import assert_equivalent_events, equivalence_workload, renumbered
from repro.capture.replay import load_packets, write_packets
from repro.proto import (
    HTTP_BUFFERS,
    HttpStream,
    TcpReassembler,
    percent_decode,
    reassemble_packets,
)
from repro.proto.reassembly import _seq_delta
from repro.rulesets.generator import generate_snort_like_ruleset
from repro.rulesets.parser import STICKY_BUFFERS, RuleParseError, parse_rule
from repro.streaming.flow import FlowTable
from repro.traffic.generator import MANGLE_MODES, TrafficGenerator
from repro.traffic.packet import FiveTuple, Packet

FIN, SYN, RST, ACK = 0x01, 0x02, 0x04, 0x10


def tcp_header(src_port: int = 40000) -> FiveTuple:
    return FiveTuple("10.0.0.1", "10.0.0.2", src_port, 80, "tcp")


def seg(
    payload: bytes,
    seq: int | None,
    flags: int | None = ACK,
    header: FiveTuple | None = None,
    packet_id: int = 0,
) -> Packet:
    return Packet(
        payload=payload,
        header=header or tcp_header(),
        packet_id=packet_id,
        tcp_seq=seq,
        tcp_flags=flags,
    )


def stream_of(packets) -> bytes:
    return b"".join(p.payload for p in packets)


def wire_flow(stream: bytes, isn: int, chunk: int, header=None):
    """SYN plus in-order data segments of ``chunk`` bytes each."""
    header = header or tcp_header()
    packets = [seg(b"", isn, SYN, header)]
    for offset in range(0, len(stream), chunk):
        packets.append(
            seg(stream[offset:offset + chunk], (isn + 1 + offset) % 2**32, ACK, header)
        )
    return packets


# ----------------------------------------------------------------------
# sequence arithmetic
# ----------------------------------------------------------------------
class TestSeqDelta:
    def test_plain_distances(self):
        assert _seq_delta(105, 100) == 5
        assert _seq_delta(100, 105) == -5
        assert _seq_delta(7, 7) == 0

    def test_wraparound_is_shortest_path(self):
        assert _seq_delta(3, 2**32 - 2) == 5
        assert _seq_delta(2**32 - 2, 3) == -5


# ----------------------------------------------------------------------
# the reassembler proper
# ----------------------------------------------------------------------
class TestInOrderFlows:
    def test_in_order_flow_passes_through_with_boundaries(self):
        r = TcpReassembler()
        out = r.process(wire_flow(b"aaabbbccc", isn=500, chunk=3))
        assert [p.payload for p in out] == [b"aaa", b"bbb", b"ccc"]
        assert [p.packet_id for p in out] == [0, 1, 2]
        assert r.stats.reordered == 0
        assert r.stats.retransmits == 0

    def test_non_tcp_packets_pass_through(self):
        r = TcpReassembler()
        udp = FiveTuple("10.0.0.1", "10.0.0.2", 53, 53, "udp")
        out = r.process([Packet(b"query", udp, 7), Packet(b"noheader")])
        assert [p.payload for p in out] == [b"query", b"noheader"]
        assert r.stats.passthrough == 2

    def test_emission_ids_are_sequential_across_flows(self):
        r = TcpReassembler(first_packet_id=10)
        a = wire_flow(b"xxxx", isn=1, chunk=2, header=tcp_header(1111))
        b = wire_flow(b"yyyy", isn=900, chunk=2, header=tcp_header(2222))
        out = r.process([a[0], b[0], a[1], b[1], a[2], b[2]])
        assert [p.packet_id for p in out] == [10, 11, 12, 13]


class TestReordering:
    @pytest.mark.parametrize("trial", range(10))
    def test_shuffled_data_segments_reassemble(self, trial):
        rng = random.Random(400 + trial)
        stream = bytes(rng.randrange(256) for _ in range(200))
        packets = wire_flow(stream, isn=rng.randrange(1, 2**32), chunk=17)
        data = packets[1:]
        rng.shuffle(data)
        out, stats = reassemble_packets([packets[0]] + data)
        assert stream_of(out) == stream
        assert stats.packets_out == len(out)

    def test_wraparound_at_2_32(self):
        isn = 2**32 - 8  # data crosses the seq horizon mid-flow
        packets = wire_flow(b"0123456789abcdef", isn=isn, chunk=4)
        data = packets[1:]
        data.reverse()
        out, _ = reassemble_packets([packets[0]] + data)
        assert stream_of(out) == b"0123456789abcdef"

    def test_synless_flow_anchors_at_first_arrival(self):
        r = TcpReassembler()
        out = r.process([seg(b"head", 1000), seg(b"tail", 1004)])
        assert stream_of(out) == b"headtail"

    def test_synless_out_of_order_start_is_best_effort(self):
        # without a SYN the first data segment anchors (and is scanned
        # immediately); earlier bytes arriving later are behind the final
        # stream start and are dropped, not re-ordered in front of it
        r = TcpReassembler()
        out = r.process([seg(b"tail", 1004), seg(b"head", 1000)])
        out += r.flush_all()
        assert stream_of(out) == b"tail"
        assert r.stats.retransmits == 1

    def test_anchor_moves_backward_before_first_delivery(self):
        # a keepalive anchors the flow high; data below arrives before any
        # byte reached the scanner, so the stream start migrates back
        r = TcpReassembler()
        assert r.process([seg(b"", 1010)]) == []  # keepalive creates the flow
        out = r.process([seg(b"head", 1000), seg(b"tail", 1004)])
        assert stream_of(out) == b"headtail"

    def test_backward_reanchor_stops_once_delivered(self):
        r = TcpReassembler()
        out = r.process([seg(b"mid", 1000)])  # anchors and delivers at 1000
        assert stream_of(out) == b"mid"
        # earlier bytes arrive late: the anchor is final, they are history
        out = r.process([seg(b"early", 995)])
        assert out == []
        assert r.stats.retransmits == 1

    def test_seqless_segment_inside_seq_flow_delivers_at_point(self):
        r = TcpReassembler()
        out = r.process(wire_flow(b"ab", isn=50, chunk=2))
        out += r.process([seg(b"cd", None)])
        assert stream_of(out) == b"abcd"


class TestRetransmitsAndOverlap:
    def test_exact_retransmit_is_dropped(self):
        r = TcpReassembler()
        packets = wire_flow(b"abcdef", isn=30, chunk=3)
        out = r.process(packets + [packets[1]])
        assert stream_of(out) == b"abcdef"
        assert r.stats.retransmits == 1

    @pytest.mark.parametrize(
        "policy,expected", [("first", b"PRE EVILxxx"), ("last", b"PRE EVILSIG")]
    )
    def test_overlap_policy_on_buffered_bytes(self, policy, expected):
        # both overlapping segments wait behind a hole, so the policy (not
        # delivery finality) decides; "last" rewrites the tail into EVILSIG
        r = TcpReassembler(overlap_policy=policy)
        out = r.process(
            [
                seg(b"", 100, SYN),
                seg(b"EVILxxx", 105),   # stream [4, 11)
                seg(b"SIG", 109),       # stream [8, 11), overlaps
                seg(b"PRE ", 101),      # fills the hole, drains everything
            ]
        )
        assert stream_of(out) == expected
        assert r.stats.overlap_bytes == 3

    def test_retransmit_with_different_payload(self):
        first = TcpReassembler(overlap_policy="first")
        last = TcpReassembler(overlap_policy="last")
        arrivals = [
            seg(b"", 10, SYN),
            seg(b"attack", 15),    # buffered behind the hole at [0, 4)
            seg(b"ATTACK", 15),    # same range, different bytes
            seg(b"head", 11),
        ]
        assert stream_of(first.process(arrivals)) == b"headattack"
        assert stream_of(last.process(arrivals)) == b"headATTACK"

    def test_delivered_bytes_are_final_under_both_policies(self):
        for policy in ("first", "last"):
            r = TcpReassembler(overlap_policy=policy)
            out = r.process(wire_flow(b"good", isn=60, chunk=4))
            out += r.process([seg(b"EVIL", 61)])  # rewrite attempt, post-scan
            assert stream_of(out) == b"good", policy


class TestFlagsAndLifecycle:
    def test_keepalive_segments_vanish(self):
        r = TcpReassembler()
        r.process(wire_flow(b"data", isn=70, chunk=4))
        assert r.process([seg(b"", 71)]) == []
        assert r.stats.keepalives == 1

    def test_fin_retires_the_flow(self):
        r = TcpReassembler()
        packets = wire_flow(b"bye", isn=80, chunk=3)
        packets[-1].tcp_flags = ACK | FIN
        r.process(packets)
        assert r.active_flows == 0

    def test_fin_waits_for_the_hole_to_fill(self):
        r = TcpReassembler()
        out = r.process([seg(b"", 90, SYN), seg(b"late", 95, ACK | FIN)])
        assert out == [] and r.active_flows == 1
        out = r.process([seg(b"earl", 91)])
        assert stream_of(out) == b"earllate"
        assert r.active_flows == 0

    def test_rst_discards_buffered_data(self):
        r = TcpReassembler()
        r.process([seg(b"", 10, SYN), seg(b"parked", 20)])
        assert r.buffered_bytes == 6
        assert r.process([seg(b"", 25, RST)]) == []
        assert r.active_flows == 0
        assert r.stats.reset_flows == 1
        assert r.stats.reset_bytes == 6  # the parked bytes are counted, not lost

    def test_zero_seq_without_syn_falls_back_to_arrival_order(self):
        r = TcpReassembler()
        out = r.process([seg(b"one", 0, None), seg(b"two", 0, None)])
        assert [p.payload for p in out] == [b"one", b"two"]
        assert r.stats.fallback_flows == 1
        assert r.stats.passthrough == 2


class TestBoundedBuffers:
    def test_byte_cap_flushes_the_flow_skipping_gaps(self):
        r = TcpReassembler(max_flow_bytes=8)
        out = r.process(
            [
                seg(b"", 0, SYN),
                seg(b"bbbb", 11),   # hole at [0, 10)
                seg(b"cccccc", 21),  # second hole; 10 buffered bytes > 8
            ]
        )
        assert stream_of(out) == b"bbbbcccccc"
        assert r.stats.hole_flushes == 1
        # the flow keeps going from its new delivery point
        out = r.process([seg(b"dd", 27)])
        assert stream_of(out) == b"dd"

    def test_segment_cap_flushes_the_flow(self):
        r = TcpReassembler(max_flow_segments=2)
        out = r.process(
            [seg(b"", 0, SYN), seg(b"x", 5), seg(b"y", 9), seg(b"z", 13)]
        )
        assert stream_of(out) == b"xyz"
        assert r.stats.hole_flushes == 1

    def test_lru_eviction_flushes_the_oldest_flow(self):
        r = TcpReassembler(flows=FlowTable(1))
        first = tcp_header(1111)
        second = tcp_header(2222)
        r.process([seg(b"", 10, SYN, first), seg(b"parked", 20, ACK, first)])
        out = r.process([seg(b"", 50, SYN, second)])
        assert stream_of(out) == b"parked"  # evicted flow flushed on the way out
        assert r.stats.evicted_flows == 1
        assert r.active_flows == 1

    def test_flush_all_delivers_everything_parked(self):
        r = TcpReassembler()
        assert r.process([seg(b"", 10, SYN), seg(b"wait", 16)]) == []
        assert stream_of(r.flush_all()) == b"wait"
        assert r.buffered_bytes == 0


class TestCheckpointRestore:
    def test_round_trip_mid_hole_equals_uninterrupted(self):
        rng = random.Random(77)
        stream = bytes(rng.randrange(256) for _ in range(120))
        packets = wire_flow(stream, isn=1_000_000, chunk=10)
        arrivals = [packets[0]] + packets[1:]
        rng.shuffle(arrivals)
        cut = len(arrivals) // 2

        plain = TcpReassembler()
        expected = plain.process(arrivals) + plain.flush_all()

        r = TcpReassembler()
        head = r.process(arrivals[:cut])
        data = json.loads(json.dumps(r.checkpoint()))  # full JSON round trip
        restored = TcpReassembler.restore(data)
        tail = restored.process(arrivals[cut:]) + restored.flush_all()
        got = head + tail
        assert [(p.packet_id, p.payload) for p in got] == [
            (p.packet_id, p.payload) for p in expected
        ]

    def test_restore_into_smaller_capacity_drops_lru_head(self):
        r = TcpReassembler()
        for port in (1111, 2222, 3333):
            r.process([seg(b"", 10, SYN, tcp_header(port)),
                       seg(b"hole", 20, ACK, tcp_header(port))])
        restored = TcpReassembler.restore(r.checkpoint(), capacity=2)
        assert restored.active_flows == 2
        assert restored.flows.stats.restore_dropped == 1

    def test_restore_can_override_overlap_policy(self):
        r = TcpReassembler(overlap_policy="first")
        restored = TcpReassembler.restore(r.checkpoint(), overlap_policy="last")
        assert restored.overlap_policy == "last"

    @pytest.mark.parametrize(
        "broken, reason",
        [
            ({"mode": "bogus"}, "mode 'bogus'"),
            ({"seq_at_next": 2**40}, "seq_at_next 1099511627776"),
            ({"seq_at_next": -1}, "seq_at_next -1"),
            ({"holes": [[10, "6161"], [3, "62"]]}, "hole at 3 .*sorted"),
            ({"holes": [[3, "62"], [3, "6363"]]}, "hole at 3 .*disjoint"),
            ({"holes": [[3, "not hex"]]}, "unreadable"),
            ({"mode": "bogus", "seq_at_next": 2**40, "next_off": -5,
              "holes": [[10, "6161"], [3, "62"], [3, "6363"]]}, "mode 'bogus'"),
        ],
        ids=["mode", "seq-40-bit", "seq-negative", "unsorted", "overlapping", "hex", "all"],
    )
    def test_a_sequencer_it_could_not_resume_is_refused_by_flow(self, broken, reason):
        """A checkpointed sequencer whose mode, sequence number or hole
        buffer the reassembler could not resume from is a ``ValueError``
        naming the flow, as a bad key or scan state is: before, it was
        taken, then emitted a row at ``tcp_seq`` 2**40 and delivered offset
        10 before offset 3, and offset 3 twice."""
        r = TcpReassembler()
        r.process([seg(b"", 10, SYN), seg(b"later", 20)])
        data = json.loads(json.dumps(r.checkpoint()))
        data["flows"][0]["sequencer"].update(broken)
        with pytest.raises(ValueError, match=reason) as refused:
            TcpReassembler.restore(data)
        assert f"flow {tcp_header().as_tuple()} sequencer" in str(refused.value)

    def test_every_sequencer_it_writes_restores(self):
        """What the reassembler writes itself still restores: a stream start
        moved back before the SYN's anchor (``next_off`` below 0) and a
        seq-less segment delivered past a buffered piece (a hole behind
        ``next_off``)."""
        r = TcpReassembler()
        r.process([seg(b"", 100, SYN), seg(b"abcde", 90), seg(b"zz", 120)])
        behind = json.loads(json.dumps(r.checkpoint()))
        assert behind["flows"][0]["sequencer"]["next_off"] == -6
        r.process([seg(b"x" * 30, None)])
        passed = json.loads(json.dumps(r.checkpoint()))
        sequencer = passed["flows"][0]["sequencer"]
        assert sequencer["holes"][0][0] <= sequencer["next_off"]
        for data in (behind, passed):
            restored = TcpReassembler.restore(data)
            assert json.loads(json.dumps(restored.checkpoint())) == data

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TcpReassembler(overlap_policy="newest")
        with pytest.raises(ValueError):
            TcpReassembler(flows=FlowTable(0))
        with pytest.raises(ValueError):
            TcpReassembler(max_flow_bytes=0)


# ----------------------------------------------------------------------
# adversarial wire rendering
# ----------------------------------------------------------------------
class TestMangle:
    @pytest.mark.parametrize("mode", MANGLE_MODES)
    def test_mangled_flow_reassembles_to_the_original_stream(self, mode):
        ruleset = generate_snort_like_ruleset(40, seed=2010)
        gen = TrafficGenerator(ruleset, seed=9)
        for _ in range(10):
            flow = gen.flow(num_packets=4, split_patterns=1, segment_bytes=80)
            mangled = gen.mangle(flow, mode=mode)
            out, _ = reassemble_packets(mangled.packets)
            assert stream_of(out) == flow.payload
            assert all(p.header.protocol == "tcp" for p in mangled.packets)
            assert mangled.packets[0].tcp_flags == SYN
            assert mangled.split_sids == flow.split_sids

    def test_reorder_and_retransmit_preserve_segment_boundaries(self):
        ruleset = generate_snort_like_ruleset(30, seed=3)
        gen = TrafficGenerator(ruleset, seed=4)
        for mode in ("reorder", "retransmit"):
            flow = gen.flow(num_packets=4, split_patterns=1, segment_bytes=64)
            out, _ = reassemble_packets(gen.mangle(flow, mode=mode).packets)
            assert [p.payload for p in out] == [
                p.payload for p in flow.packets if p.payload
            ]

    def test_mangle_rejects_unknown_mode_and_bad_overlap(self):
        gen = TrafficGenerator(generate_snort_like_ruleset(10, seed=1), seed=2)
        flow = gen.flow(num_packets=2, split_patterns=0)
        with pytest.raises(ValueError):
            gen.mangle(flow, mode="teleport")
        with pytest.raises(ValueError):
            gen.mangle(flow, mode="overlap-split", overlap_bytes=0)


# ----------------------------------------------------------------------
# capture round trip of sequence state
# ----------------------------------------------------------------------
class TestCaptureSeqRoundTrip:
    def test_explicit_seq_and_flags_survive_pcap(self):
        packets = [
            seg(b"", 7000, SYN),
            seg(b"late", 7005, ACK | FIN),
            seg(b"earl", 7001, ACK),
        ]
        buffer = io.BytesIO()
        write_packets(buffer, packets)
        buffer.seek(0)
        replayed, _ = load_packets(buffer)
        assert [(p.tcp_seq, p.tcp_flags & (SYN | FIN)) for p in replayed] == [
            (7000, SYN), (7005, FIN), (7001, 0)
        ]
        out, _ = reassemble_packets(replayed)
        assert stream_of(out) == b"earllate"

    def test_autoseq_captures_are_valid_reassembler_input(self):
        header = tcp_header()
        packets = [Packet(b"abc", header, 0), Packet(b"def", header, 1)]
        buffer = io.BytesIO()
        write_packets(buffer, packets)
        buffer.seek(0)
        replayed, _ = load_packets(buffer)
        assert [p.tcp_seq for p in replayed] == [1, 4]  # monotone per flow
        out, stats = reassemble_packets(replayed)
        assert stream_of(out) == b"abcdef"
        assert stats.fallback_flows == 0


# ----------------------------------------------------------------------
# differential equivalence on mangled workloads
# ----------------------------------------------------------------------
class TestMangledEquivalence:
    @pytest.mark.parametrize("mode", MANGLE_MODES)
    def test_reassembled_mangled_flows_scan_identically_everywhere(self, mode):
        ruleset = generate_snort_like_ruleset(40, seed=5)
        gen = TrafficGenerator(ruleset, seed=6)
        flows = gen.flows(4, num_packets=3, split_patterns=1, segment_bytes=60)
        wire = TrafficGenerator.interleave(
            [gen.mangle(flow, mode=mode) for flow in flows]
        )
        reassembled, stats = reassemble_packets(wire)
        assert b"".join(sorted(p.payload for p in reassembled)) is not None
        reference = assert_equivalent_events(ruleset, reassembled)
        found = {
            ruleset[event.string_number].sid for event in reference.events
        }
        for flow in flows:
            for sid in flow.split_sids:
                assert sid in found, f"{mode}: split sid {sid} lost"
        assert stats.segments_in == len(wire)

    def test_reordered_flow_evades_per_packet_and_no_reassembly_scans(self):
        ruleset, _ = equivalence_workload()
        gen = TrafficGenerator(ruleset, seed=8)
        flow = gen.flow(num_packets=3, split_patterns=1, segment_bytes=50)
        mangled = gen.mangle(flow, mode="reorder")
        from tests.conftest import build_program
        from repro.streaming import ScanService

        program = build_program(ruleset, "dtp")
        sid_of = {i: rule.sid for i, rule in enumerate(ruleset)}
        # stateful scan of the mangled wire order, without reassembly
        with ScanService(program) as service:
            raw_events = service.scan(renumbered(mangled.packets)).events
        raw_sids = {sid_of[e.string_number] for e in raw_events}
        # with reassembly the split pattern is back
        reassembled, _ = reassemble_packets(mangled.packets)
        with ScanService(program) as service:
            fixed_events = service.scan(reassembled).events
        fixed_sids = {sid_of[e.string_number] for e in fixed_events}
        for sid in flow.split_sids:
            assert sid in fixed_sids
        assert set(flow.split_sids) - raw_sids, (
            "the mangled wire order should hide at least one split pattern"
        )


class TestSessionIntegration:
    def _pcap_of(self, packets, tmp_path):
        path = tmp_path / "wire.pcap"
        write_packets(str(path), packets)
        return str(path)

    def _config(self, path, **engine_kwargs):
        from repro.api import EngineSpec, PipelineConfig, RulesSpec, SourceSpec

        return PipelineConfig(
            mode="stream",
            source=SourceSpec(kind="pcap", path=path),
            rules=RulesSpec(kind="synthetic", size=40, seed=5),
            engine=EngineSpec(backend="dtp", **engine_kwargs),
        )

    def test_session_run_reassembles_pcap_sources(self, tmp_path):
        from repro.api import Session

        ruleset = generate_snort_like_ruleset(40, seed=5)
        gen = TrafficGenerator(ruleset, seed=6)
        flows = gen.flows(3, num_packets=3, split_patterns=1, segment_bytes=60)
        wire = TrafficGenerator.interleave(
            [gen.mangle(flow, mode="reorder") for flow in flows]
        )
        path = self._pcap_of(wire, tmp_path)

        with Session(self._config(path, reassemble=True)) as session:
            run = session.run()
            stats = session.stats()["reassembly"]
        sid_of = {i: rule.sid for i, rule in enumerate(ruleset)}
        found = {sid_of[e.string_number] for e in run.events}
        for flow in flows:
            for sid in flow.split_sids:
                assert sid in found
        assert stats["segments_in"] == len(wire)

        with Session(self._config(path)) as session:  # reassembly off
            baseline = session.run()
            assert "reassembly" not in session.stats()
        lost = {
            sid for flow in flows for sid in flow.split_sids
        } - {sid_of[e.string_number] for e in baseline.events}
        assert lost, "mangled wire should hide split patterns without reassembly"

    def test_session_checkpoint_envelope_carries_reassembly(self, tmp_path):
        from repro.api import Session

        gen = TrafficGenerator(generate_snort_like_ruleset(10, seed=5), seed=6)
        flow = gen.mangle(gen.flow(num_packets=3, split_patterns=0), fin=False)
        path = self._pcap_of(flow.packets, tmp_path)
        with Session(self._config(path, reassemble=True)) as session:
            session.scan(flow.packets[:2])
            data = json.loads(json.dumps(session.checkpoint()))
            # one table: the sequencer rides in the flow's record
            assert set(data) == {"capacity", "flows", "next_packet_id"}
            assert [set(record) >= {"states", "sequencer"} for record in data["flows"]] == [True]
        with Session(self._config(path, reassemble=True)) as session:
            session.restore(data)
            assert session.reassembler.active_flows <= 1
            assert json.loads(json.dumps(session.checkpoint())) == data
        # plain sessions keep the bare table
        with Session(self._config(path)) as session:
            assert "next_packet_id" not in session.checkpoint()

    def test_overlap_policy_decides_detection(self, tmp_path):
        from repro.api import (
            ContentRule,
            EngineSpec,
            PipelineConfig,
            RulesSpec,
            Session,
            SourceSpec,
        )

        wire = [
            seg(b"", 100, SYN),
            seg(b"EVILxxx", 105),
            seg(b"SIG", 109),
            seg(b"PRE ", 101),
        ]
        path = self._pcap_of(wire, tmp_path)
        rules = RulesSpec(kind="specs", rules=(ContentRule(content="EVILSIG"),))

        def events(**engine_kwargs):
            config = PipelineConfig(
                mode="stream",
                source=SourceSpec(kind="pcap", path=path),
                rules=rules,
                engine=EngineSpec(backend="dtp", **engine_kwargs),
            )
            with Session(config) as session:
                return session.run().events

        assert events(reassemble=True, overlap_policy="last")
        assert not events(reassemble=True, overlap_policy="first")
        assert not events()  # no reassembly: never contiguous


# ----------------------------------------------------------------------
# HTTP normalization
# ----------------------------------------------------------------------
REQUEST = (
    b"GET /%63%6d%64.exe?x=1 HTTP/1.1\r\n"
    b"Host:   example.com\r\n"
    b"User-Agent: bad  actor\r\n"
    b"\r\n"
)


class TestHttpStream:
    def test_uri_is_percent_decoded(self):
        stream = HttpStream()
        stream.feed(REQUEST)
        assert stream.uri == b"/cmd.exe?x=1\n"
        assert stream.is_http

    def test_headers_are_normalized(self):
        stream = HttpStream()
        stream.feed(REQUEST)
        assert b"Host: example.com\r\n" in stream.headers
        assert b"User-Agent: bad actor\r\n" in stream.headers

    def test_byte_at_a_time_equals_one_shot(self):
        whole = HttpStream()
        whole.feed(REQUEST)
        dribble = HttpStream()
        for index in range(len(REQUEST)):
            dribble.feed(REQUEST[index:index + 1])
        assert dribble.uri == whole.uri
        assert dribble.headers == whole.headers

    def test_non_http_flow_freezes_empty(self):
        stream = HttpStream()
        assert stream.feed(b"\x16\x03\x01 TLS client hello") is False
        assert not stream.is_http
        assert stream.uri == b"" and stream.headers == b""
        stream.feed(REQUEST)  # opaque is terminal
        assert stream.uri == b""

    def test_content_length_body_is_skipped_between_requests(self):
        stream = HttpStream()
        stream.feed(
            b"POST /a HTTP/1.1\r\nContent-Length: 6\r\n\r\n"
            b"GET /*"  # body bytes that must not be parsed
            b"GET /b HTTP/1.1\r\n\r\n"
        )
        assert stream.uri == b"/a\n/b\n"
        assert stream.requests == 2

    def test_chunked_body_ends_parsing_conservatively(self):
        stream = HttpStream()
        stream.feed(
            b"POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n"
            b"GET /after HTTP/1.1\r\n\r\n"
        )
        assert stream.uri == b"/up\n"  # nothing after the unframeable body

    def test_oversized_line_freezes_the_flow(self):
        stream = HttpStream()
        stream.feed(b"GET /" + b"a" * 5000)
        assert stream.feed(b" HTTP/1.1\r\n\r\n") is False
        assert not stream.is_http

    def test_checkpoint_round_trips_mid_request(self):
        cut = len(REQUEST) // 2
        stream = HttpStream()
        stream.feed(REQUEST[:cut])
        restored = HttpStream.from_dict(json.loads(json.dumps(stream.as_dict())))
        restored.feed(REQUEST[cut:])
        whole = HttpStream()
        whole.feed(REQUEST)
        assert restored.uri == whole.uri
        assert restored.headers == whole.headers

    def test_lowered_view_follows_the_buffer_across_feeds_and_restore(self):
        """The lower-cased view is kept per buffer and only extended; it is
        not state, so a restored stream rebuilds it on first use."""
        cut = len(REQUEST) // 2
        stream = HttpStream()
        for piece in (REQUEST[:cut], REQUEST[cut:], REQUEST.replace(b"GET", b"POST")):
            stream.feed(piece)
            for name in ("http_uri", "http_header"):
                assert stream.buffer(name, lowered=True) == stream.buffer(name).lower()
        assert stream.buffer("http_header", lowered=True) != stream.headers
        saved = json.loads(json.dumps(stream.as_dict()))
        assert not any("lower" in key for key in saved)
        restored = HttpStream.from_dict(saved)
        assert restored.buffer("http_header", lowered=True) == stream.headers.lower()

    def test_buffer_name_validation(self):
        stream = HttpStream()
        stream.feed(REQUEST)
        assert stream.buffer("http_uri") == stream.uri
        assert stream.buffer("http_header") == stream.headers
        with pytest.raises(ValueError):
            stream.buffer("http_cookie")

    def test_percent_decode_keeps_malformed_escapes(self):
        assert percent_decode(b"/%41%zz%4") == b"/A%zz%4"
        assert percent_decode(b"plain") == b"plain"


# ----------------------------------------------------------------------
# sticky-buffer grammar and evaluation
# ----------------------------------------------------------------------
class TestStickyGrammar:
    def test_parser_and_http_agree_on_buffer_names(self):
        # the parser keeps a local copy to avoid a circular import; this
        # test is the contract that the two stay identical
        assert STICKY_BUFFERS == HTTP_BUFFERS

    def test_sticky_contents_leave_the_prefilter(self):
        spec = parse_rule(
            'alert tcp any any -> any 80 (content:"GET"; '
            'content:"/cmd.exe"; http_uri; sid:1;)'
        )
        assert [c.pattern for c in spec.contents] == [b"GET", b"/cmd.exe"]
        assert spec.contents[1].buffer == "http_uri"
        assert spec.predicate.scan_patterns() == [b"GET"]

    @pytest.mark.parametrize(
        "options,fragment",
        [
            ('content:"a"; http_uri:1', "takes no value"),
            ("http_uri", "before any content"),
            ('content:"a"; http_uri; http_uri', "duplicate"),
            ('content:"a"; http_uri; http_header', "one buffer"),
            ('content:"a"; offset:2; http_uri', "raw-stream offsets"),
            ('content:"a"; http_uri; depth:5', "raw-stream offsets"),
            ('content:"a"; http_uri; content:"b"; distance:1', "cannot cross"),
        ],
    )
    def test_grammar_rejections(self, options, fragment):
        with pytest.raises(RuleParseError, match=fragment):
            parse_rule(f"alert ip any any -> any any ({options}; sid:9;)")

    def test_lint_classifies_sticky_errors(self, tmp_path):
        from repro.check import lint_rule_file

        path = tmp_path / "sticky.rules"
        path.write_text(
            'alert ip any any -> any any (content:"a"; offset:2; http_uri; sid:1;)\n'
            'alert ip any any -> any any '
            '(content:"a"; http_uri; content:"b"; within:4; sid:2;)\n'
            'alert ip any any -> any any (content:"ok"; content:"u"; http_uri; sid:3;)\n'
        )
        report = lint_rule_file(str(path))
        codes = sorted(d.code for d in report.diagnostics)
        assert codes == ["RS011", "RS012"]

    def test_lint_does_not_dedupe_sticky_against_raw(self, tmp_path):
        from repro.check import lint_rule_file

        path = tmp_path / "dup.rules"
        path.write_text(
            'alert ip any any -> any any (content:"same"; sid:1;)\n'
            'alert ip any any -> any any (content:"x"; content:"same"; http_uri; sid:2;)\n'
        )
        report = lint_rule_file(str(path))
        assert not [d for d in report.diagnostics if d.code == "RS001"]


HTTP_FLOW = (
    b"GET /%63%6d%64.exe HTTP/1.1\r\n"
    b"Host: evil.example\r\n"
    b"\r\n"
)


def sticky_ids(lines, **kwargs):
    from repro.ids import IntrusionDetectionSystem
    from repro.rulesets import parse_rules

    return IntrusionDetectionSystem.from_specs(parse_rules(lines), **kwargs)


def http_packets(payloads, header=None):
    header = header or tcp_header()
    return [
        Packet(payload, header, index) for index, payload in enumerate(payloads)
    ]


class TestStickyEvaluation:
    def test_http_uri_matches_the_decoded_target(self):
        ids = sticky_ids(
            ['alert tcp any any -> any any (content:"GET"; '
             'content:"/cmd.exe"; http_uri; sid:10;)']
        )
        alerts = ids.scan_flow(http_packets([HTTP_FLOW])) + ids.finish()
        assert [a.sid for a in alerts] == [10]

    def test_raw_scan_misses_the_encoded_uri(self):
        ids = sticky_ids(
            ['alert tcp any any -> any any (content:"/cmd.exe"; sid:11;)']
        )
        assert ids.scan_flow(http_packets([HTTP_FLOW])) + ids.finish() == []

    def test_http_header_matches_normalized_lines(self):
        ids = sticky_ids(
            ['alert tcp any any -> any any (content:"GET"; '
             'content:"Host: evil.example"; http_header; sid:12;)']
        )
        alerts = ids.scan_flow(http_packets([HTTP_FLOW])) + ids.finish()
        assert [a.sid for a in alerts] == [12]

    def test_sticky_survives_segment_splits(self):
        # the URI is cut mid-escape across TCP segments: only stream-order
        # incremental normalization can put %63 back together
        cut = HTTP_FLOW.index(b"%6d") + 1
        ids = sticky_ids(
            ['alert tcp any any -> any any (content:"GET"; '
             'content:"/cmd.exe"; http_uri; sid:13;)']
        )
        alerts = ids.scan_flow(
            http_packets([HTTP_FLOW[:cut], HTTP_FLOW[cut:]])
        ) + ids.finish()
        assert [a.sid for a in alerts] == [13]

    def test_pure_sticky_rule_fires_without_raw_contents(self):
        ids = sticky_ids(
            ['alert tcp any any -> any any (content:"/cmd.exe"; http_uri; sid:14;)']
        )
        alerts = ids.scan_flow(http_packets([HTTP_FLOW])) + ids.finish()
        assert [a.sid for a in alerts] == [14]

    def test_positive_sticky_fails_on_non_http_flows(self):
        ids = sticky_ids(
            ['alert tcp any any -> any any (content:"GET"; '
             'content:"/x"; http_uri; sid:15;)']
        )
        packets = http_packets([b"GET not actually http"])
        assert ids.scan_flow(packets) + ids.finish() == []

    def test_negated_sticky_decided_at_flow_end(self):
        lines = ['alert tcp any any -> any any (content:"GET"; '
                 'content:!"/safe"; http_uri; sid:16;)']
        hit = sticky_ids(lines)
        alerts = hit.scan_flow(http_packets([HTTP_FLOW])) + hit.finish()
        assert [a.sid for a in alerts] == [16]

        safe = sticky_ids(lines)
        flow = b"GET /safe HTTP/1.1\r\nHost: a\r\n\r\n"
        assert safe.scan_flow(http_packets([flow])) + safe.finish() == []

    def test_nocase_sticky_lowercases_both_sides(self):
        ids = sticky_ids(
            ['alert tcp any any -> any any (content:"GET"; '
             'content:"/CMD.EXE"; http_uri; nocase; sid:17;)']
        )
        alerts = ids.scan_flow(http_packets([HTTP_FLOW])) + ids.finish()
        assert [a.sid for a in alerts] == [17]

    def test_sticky_state_survives_ids_checkpoint(self):
        lines = ['alert tcp any any -> any any (content:"GET"; '
                 'content:"/cmd.exe"; http_uri; sid:18;)']
        cut = HTTP_FLOW.index(b"%6d") + 1
        packets = http_packets([HTTP_FLOW[:cut], HTTP_FLOW[cut:]])

        ids = sticky_ids(lines)
        ids.scan_flow(packets[:1])
        data = json.loads(json.dumps(ids.checkpoint()))
        resumed = sticky_ids(lines)
        resumed.restore(data)
        alerts = resumed.scan_flow(packets[1:]) + resumed.finish()
        assert [a.sid for a in alerts] == [18]

    def test_sticky_and_reassembly_compose_end_to_end(self, tmp_path):
        # the full tentpole: mangled wire order + an escaped URI; only
        # reassembly feeding normalization catches the rule
        from repro.api import EngineSpec, PipelineConfig, RulesSpec, Session, SourceSpec

        rules = tmp_path / "http.rules"
        rules.write_text(
            'alert tcp any any -> any any (content:"GET"; '
            'content:"/cmd.exe"; http_uri; sid:20;)\n'
        )
        cut = HTTP_FLOW.index(b"%6d") + 1
        isn = 9000
        wire = [
            seg(b"", isn, SYN),
            seg(HTTP_FLOW[cut:], (isn + 1 + cut) % 2**32, ACK | FIN),  # tail first
            seg(HTTP_FLOW[:cut], isn + 1, ACK),
        ]
        path = tmp_path / "http.pcap"
        write_packets(str(path), wire)

        def alerts(reassemble):
            config = PipelineConfig(
                mode="ids",
                source=SourceSpec(kind="pcap", path=str(path)),
                rules=RulesSpec(kind="file", path=str(rules)),
                engine=EngineSpec(backend="dtp", reassemble=reassemble),
            )
            with Session(config) as session:
                return [a.sid for a in session.run().alerts]

        assert alerts(True) == [20]
        assert alerts(False) == []


# ----------------------------------------------------------------------
# one flow table: sequencers ride on the scan engine's entries
# ----------------------------------------------------------------------
def motivation_wire(ending: int):
    """A sends, B starts ``EVIL``, A ends (FIN with data, or a bare RST),
    C arrives, B finishes ``PAYLOAD`` — five segments, three flows."""
    a, b, c = tcp_header(1), tcp_header(2), tcp_header(3)
    last_of_a = seg(b"aaaa", 104, ACK | FIN, a) if ending == FIN else seg(b"", 104, RST, a)
    return [
        seg(b"aaaa", 100, ACK, a),
        seg(b"xxEVIL", 200, ACK, b),
        last_of_a,
        seg(b"cccc", 300, ACK, c),
        seg(b"PAYLOAD", 206, ACK, b),
    ]


def two_slot_session():
    from repro.api import Session

    return Session.from_config({
        "mode": "stream",
        "rules": {"kind": "specs", "rules": [{"content": "EVILPAYLOAD", "sid": 1}]},
        "engine": {"backend": "dense", "reassemble": True, "flow_capacity": 2},
        "source": {"kind": "packets", "packets": []},
    })


class TestOneFlowTable:
    @pytest.mark.parametrize("ending", [FIN, RST], ids=["fin", "rst"])
    @pytest.mark.parametrize("batched", [True, False], ids=["one-batch", "per-packet"])
    def test_a_closed_flow_frees_its_slot_for_the_next_arrival(self, batched, ending):
        """Two slots, three flows: A's close frees its slot, so C takes it and
        B keeps its registers across ``EVIL|PAYLOAD`` — in one batch or one
        packet per batch (the slot is free for the very next arrival)."""
        wire = renumbered(motivation_wire(ending))
        with two_slot_session() as session:
            batches = [wire] if batched else [[packet] for packet in wire]
            events = [event for batch in batches for event in session.scan(batch).events]
            assert session.flush() is None
            service = session.stats()["service"]
        assert [(e.flow, e.end_offset) for e in events] == [(tcp_header(2), 13)]
        assert (service["released_flows"], service["evicted_flows"]) == (1, 0)

    def test_a_mangled_capture_leaves_an_empty_table(self):
        """Every flow of a SYN+FIN mangled capture closes, so every flow
        leaves the table (counted as released, none evicted)."""
        from repro.api import EngineSpec, PipelineConfig, RulesSpec, Session, SourceSpec

        gen = TrafficGenerator(generate_snort_like_ruleset(40, seed=5), seed=6)
        flows = gen.flows(12, num_packets=4, split_patterns=1, segment_bytes=60)
        wire = TrafficGenerator.interleave(
            [gen.mangle(flow, mode=MANGLE_MODES[i % len(MANGLE_MODES)]) for i, flow in enumerate(flows)]
        )
        config = PipelineConfig(
            mode="stream",
            source=SourceSpec(kind="packets", packets=tuple(renumbered(wire))),
            rules=RulesSpec(kind="synthetic", size=40, seed=5),
            engine=EngineSpec(backend="dense", reassemble=True),
        )
        with Session.from_config(config) as session:
            session.run()
            assert len(session.service.flows) == 0
            stats = session.stats()["service"]
        assert (stats["released_flows"], stats["evicted_flows"]) == (12, 0)

    def test_a_flow_that_closes_and_reopens_in_one_batch_starts_a_new_entry(self):
        """A flow leaves the table at its close, wherever the batch ends: a
        later segment of it starts a new entry in one batch as in two."""
        closing = [seg(b"", 10, SYN), seg(b"bye", 11, ACK | FIN)]
        again = [seg(b"", 500, SYN), seg(b"hi", 501)]
        r = TcpReassembler()
        out = r.process(closing + again)
        assert stream_of(out) == b"byehi"
        assert out.entry[0] is not out.entry[1]
        assert out.departures == [(1, out.entry[0])]
        one_batch = (r.active_flows, r.flows.stats.created, r.flows.stats.released)
        r = TcpReassembler()
        r.process(closing)
        assert r.active_flows == 0 and r.flows.stats.released == 1
        assert stream_of(r.process(again)) == b"hi"
        assert (r.active_flows, r.flows.stats.created, r.flows.stats.released) == one_batch == (1, 2, 1)

    @pytest.mark.parametrize("mode", ["stream", "ids"])
    def test_a_retransmit_after_the_close_gives_the_same_verdicts_however_batched(self, mode):
        """B's final data+FIN segment comes again after B closed: the copy
        starts B afresh, so it is scanned (and alerted) as a new flow — the
        same in one batch, one packet per batch or any cut between."""
        from repro.api import Session

        a, b = tcp_header(1), tcp_header(2)
        wire = renumbered([
            seg(b"xxEVIL", 200, ACK, b),
            seg(b"PAYLOAD", 206, ACK | FIN, b),
            seg(b"aaaa", 100, ACK, a),
            seg(b"PAYLOAD", 206, ACK | FIN, b),
        ])
        rules = [{"content": "EVILPAYLOAD", "sid": 1}, {"content": "PAYLOAD", "sid": 2}]

        def verdicts(size):
            with Session.from_config({
                "mode": mode,
                "rules": {"kind": "specs", "rules": rules},
                "engine": {"backend": "dense", "reassemble": True},
                "source": {"kind": "packets", "packets": []},
            }) as session:
                events, alerts = [], []
                for at in range(0, len(wire), size):
                    result = session.scan(wire[at:at + size])
                    events += [(e.flow.src_port, e.end_offset, e.string_number) for e in result.events]
                    alerts += [(alert.packet_id, alert.sid) for alert in result.alerts]
                end = session.flush()
                if end is not None:
                    alerts += [(alert.packet_id, alert.sid) for alert in end.alerts]
                return events, alerts, session.stats()["service"]["released_flows"]

        expected = verdicts(1)
        if mode == "stream":
            assert expected[0] == [(2, 13, 0), (2, 13, 1), (2, 7, 1)]
        else:
            assert expected[1] == [(1, 1), (1, 2), (3, 2)]
        assert expected[2] == 2
        for size in (2, 3, len(wire)):
            assert verdicts(size) == expected

    @pytest.mark.parametrize("mode", ["stream", "ids"])
    def test_a_dropped_session_frees_its_engine_without_the_collector(self, mode):
        """The reassembler holds the service's table, not the service: a
        session dropped after a reassembled scan frees its engine (and the
        compiled program in it) at once, not at a later collection."""
        import gc
        import weakref

        from repro.api import Session

        session = Session.from_config({
            "mode": mode,
            "rules": {"kind": "specs", "rules": [{"content": "EVILPAYLOAD", "sid": 1}]},
            "engine": {"backend": "dense", "reassemble": True},
            "source": {"kind": "packets", "packets": []},
        })
        session.scan(renumbered(motivation_wire(FIN)))
        session.flush()
        engine, program = weakref.ref(session.service), weakref.ref(session.service.program)
        gc.collect()
        gc.disable()
        try:
            session.close()
            del session
            assert engine() is None and program() is None
        finally:
            gc.enable()

    def test_reset_bytes_count_what_an_rst_discards(self):
        r = TcpReassembler()
        r.process([seg(b"", 10, SYN), seg(b"parked", 20), seg(b"more", 40)])
        assert r.buffered_bytes == 10
        r.process([seg(b"", 50, RST)])
        assert (r.stats.reset_flows, r.stats.reset_bytes, r.buffered_bytes) == (1, 10, 0)

    def test_released_flows_reach_the_cli_summary(self, tmp_path, capsys):
        from repro.cli import main

        gen = TrafficGenerator(generate_snort_like_ruleset(40, seed=5), seed=6)
        flows = gen.flows(3, num_packets=3, split_patterns=1, segment_bytes=60)
        path = tmp_path / "fin.pcap"
        TrafficGenerator.export_pcap(
            str(path), renumbered(TrafficGenerator.interleave([gen.mangle(f) for f in flows]))
        )
        assert main(["scan-pcap", str(path), "--size", "40", "--seed", "5", "--reassemble"]) == 0
        out = capsys.readouterr().out
        assert "evicted flows             : 0" in out
        assert "released flows            : 3" in out

    def test_reassembly_flows_only_names_the_flow_capacity(self):
        from repro.api import ConfigError, EngineSpec

        same = EngineSpec.from_dict({"reassemble": True, "reassembly_flows": 4096})
        assert same == EngineSpec(reassemble=True)
        assert EngineSpec.from_dict({"flow_capacity": 8, "reassembly_flows": 8}).flow_capacity == 8
        with pytest.raises(ConfigError, match="reassembly_flows"):
            EngineSpec.from_dict({"flow_capacity": 8, "reassembly_flows": 1024})
        assert "reassembly_flows" not in EngineSpec(flow_capacity=8).to_dict()
