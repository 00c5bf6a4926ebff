"""Property tests pinning the batched streaming hot path.

The scan service feeds whole batches through
:meth:`repro.streaming.StreamScanner.scan_batch`, which concatenates
consecutive same-flow segments and crosses into the backend once per batch.
These tests hold that fast path to the per-segment contract from five
directions:

* **boundary splits** — every pattern, split at every offset across 2 and 3
  segment boundaries, must match identically one-shot vs streamed vs batched
  (the ScanState tail-carry property under the new code path);
* **lane cuts** — the dense and dtp backends take a whole batch as one
  ``scan_many`` call and cut it into lanes; with tiny lanes forced,
  interleaved flows split at every offset must still equal the plain DFA,
  flow by flow;
* **statistics parity** — the batched path must report byte-identical
  :class:`ScannerStatistics` and :class:`FlowTableStatistics` counters, and
  leave the identical LRU recency order, as segment-at-a-time scanning;
* **eviction pressure** — a batch that evicts must produce the same events,
  eviction records and restart behaviour the serial path shows, over any
  interleaving, capacity and batch split;
* **one crossing per batch** — a service calls ``scan_many`` once per
  batch, under eviction pressure too, and segments of any size (0 B to
  1 MiB) batch exactly as they scan one at a time.

Segment-at-a-time scanning is ``tests/conftest.py``'s
:class:`ReferenceStreamScanner`: the per-segment loop as it was before the
flow table admitted whole batches, so the batched path is never compared
with itself.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.core import DTPAutomaton
from repro.rulesets import RuleSet, generate_snort_like_ruleset
from repro.streaming import (
    FlowKey,
    FlowTable,
    ScanService,
    StreamScanner,
)
from repro.streaming.service import event_order
from repro.traffic import Packet, TrafficGenerator
from tests.conftest import (
    ReferenceFlowTable,
    ReferenceStreamScanner,
    assert_equivalent_alerts,
    assert_equivalent_events,
    block_automaton,
    equivalence_workload,
    random_predicate_rules,
    random_text,
    reference_service,
    reference_submit,
)

BACKENDS = ("dense", "dtp")


def make_key(n: int = 0) -> FlowKey:
    return FlowKey(f"10.1.0.{n}", "192.168.9.9", 41000 + n, 80, "tcp")


def make_header(n: int = 0):
    from repro.traffic import FiveTuple

    return FiveTuple(f"10.1.0.{n}", "192.168.9.9", 41000 + n, 80, "tcp")


def segment_events(scanner: ReferenceStreamScanner, key: FlowKey, segments):
    events = []
    for packet_id, segment in enumerate(segments):
        events.extend(scanner.scan_segment(key, segment, packet_id))
    return [(e.end_offset, e.string_number) for e in events]


def batch_events(scanner: StreamScanner, key: FlowKey, segments):
    hits, evictions = scanner.scan_batch(
        [(key, segment, packet_id) for packet_id, segment in enumerate(segments)]
    )
    assert evictions == []
    return [(e.end_offset, e.string_number) for events in hits.values() for e in events]


#: Segment at a time through the reference, and one batch through ours.
SCANNERS = ((segment_events, ReferenceStreamScanner), (batch_events, StreamScanner))


def per_item(hits, count: int):
    """``scan_batch``'s hits as one event list per item, the shape
    segment-at-a-time scanning returns."""
    assert all(hits.values()), "hits holds only segments that matched"
    return [hits.get(index, []) for index in range(count)]


# ----------------------------------------------------------------------
# every pattern, every split offset, 2 and 3 segments
# ----------------------------------------------------------------------
class TestBoundarySplits:
    @pytest.fixture(scope="class", params=BACKENDS)
    def compiled(self, request):
        rng = __import__("random").Random(2026)
        patterns = [rule.pattern for rule in generate_snort_like_ruleset(10, seed=33)]
        patterns += [b"he", b"she", b"hers", b"aBcDeF"]
        payloads = []
        for pattern in patterns:
            body = bytearray(random_text(rng, 8) + pattern + random_text(rng, 8))
            payloads.append(bytes(body))
        return get_backend(request.param).compile(patterns), payloads

    def test_two_segment_split_at_every_offset(self, compiled):
        program, payloads = compiled
        for flow_n, payload in enumerate(payloads):
            expected = program.scan(payload)
            assert expected, "every payload embeds its pattern"
            for cut in range(1, len(payload)):
                segments = [payload[:cut], payload[cut:]]
                for events_of, scanner_type in SCANNERS:
                    scanner = scanner_type(program)
                    got = events_of(scanner, make_key(flow_n), segments)
                    assert got == expected, (
                        f"pattern #{flow_n} split at {cut} via {events_of.__name__}"
                    )

    def test_three_segment_splits_across_the_pattern(self, compiled):
        """Both boundaries land inside the embedded pattern, the regime where
        the tail-carry state does all the work."""
        program, payloads = compiled
        for flow_n, payload in enumerate(payloads):
            expected = program.scan(payload)
            lo, hi = 8, len(payload) - 8  # the embedded pattern's span
            for first in range(lo + 1, hi):
                for second in range(first + 1, hi):
                    segments = [payload[:first], payload[first:second], payload[second:]]
                    for events_of, scanner_type in SCANNERS:
                        scanner = scanner_type(program)
                        got = events_of(scanner, make_key(flow_n), segments)
                        assert got == expected, (
                            f"pattern #{flow_n} split at ({first}, {second}) "
                            f"via {events_of.__name__}"
                        )


# ----------------------------------------------------------------------
# the dense lane kernel under scan_batch: many flows, one backend crossing
# ----------------------------------------------------------------------
class TestLaneKernelBatches:
    """scan_batch hands the dense backend one job per flow (two under
    ``track_nocase``); with the kernel forced onto tiny lanes every flow's
    pattern crosses a lane cut, and neighbouring flows share tiles, so a
    leak across a job boundary would surface as an event on the wrong flow.
    The reference is the plain DFA backend scanned segment by segment."""

    PATTERNS = [b"he", b"she", b"hers", b"aBcDeF", b"abcdef", b"ef"]
    compile = staticmethod(get_backend("dense").compile)

    @pytest.fixture
    def short_lanes(self, force_short_lanes):
        program = self.compile(self.PATTERNS)
        force_short_lanes(program, lanes_per_tile=4)
        return program

    @staticmethod
    def events_of(per_item):
        return [
            [(e.flow, e.packet_id, e.end_offset, e.string_number, e.lowered) for e in item]
            for item in per_item
        ]

    @pytest.mark.parametrize("track_nocase", (False, True))
    def test_interleaved_flows_split_at_every_offset(self, short_lanes, track_nocase):
        reference_program = get_backend("ac").compile(self.PATTERNS)
        body = b"..ushers..aBcDeF..ABCDEF.."
        calls = []
        scan_many = short_lanes.scan_many
        for cut in range(len(body) + 1):
            # flow n is the body rotated by n, split at `cut`; the first
            # batch interleaves two segments of every flow, the second
            # resumes every flow mid-stream (carried state at a job's first
            # byte)
            streams = [body[n:] + body[:n] for n in range(5)]
            items = [(make_key(n), stream[:cut // 2], n) for n, stream in enumerate(streams)]
            items += [
                (make_key(n), stream[cut // 2:cut], 5 + n) for n, stream in enumerate(streams)
            ]
            tail = [(make_key(n), stream[cut:], 10 + n) for n, stream in enumerate(streams)]
            reference = ReferenceStreamScanner(reference_program, track_nocase=track_nocase)
            expected = [reference.scan_segment(*item) for item in items + tail]

            batched = StreamScanner(short_lanes, track_nocase=track_nocase)
            batched._scan_many = lambda jobs: calls.append(len(jobs)) or scan_many(jobs)
            first = per_item(batched.scan_batch(items)[0], len(items))
            second = per_item(batched.scan_batch(tail)[0], len(tail))
            assert self.events_of(first + second) == self.events_of(expected), cut
            assert dataclasses.asdict(batched.stats) == dataclasses.asdict(reference.stats)
            for key in reference.flows.keys():
                assert batched.flows.peek(key).state == reference.flows.peek(key).state
                assert (
                    batched.flows.peek(key).lower_state
                    == reference.flows.peek(key).lower_state
                )
        # one backend crossing per batch: raw jobs, plus the lowered views
        assert set(calls) == {10 if track_nocase else 5}

    def test_one_flow_many_segments_is_one_job(self, short_lanes):
        reference_program = get_backend("ac").compile(self.PATTERNS)
        stream = b"xshersxabcdefx" * 6
        segments = [stream[i:i + 5] for i in range(0, len(stream), 5)]
        expected = segment_events(ReferenceStreamScanner(reference_program), make_key(), segments)
        assert expected
        assert batch_events(StreamScanner(short_lanes), make_key(), segments) == expected
        assert segment_events(ReferenceStreamScanner(short_lanes), make_key(), segments) == expected


class TestDtpLaneKernelBatches(TestLaneKernelBatches):
    """The same batches through the DTP kernel, whose per-flow state also
    carries the two history bytes (compared against the ``ac`` backend's,
    which maintains them byte by byte)."""

    compile = staticmethod(DTPAutomaton.from_patterns)


class TestAcceleratorLaneKernelBatches:
    """... and through the two blocks of a device program, which in hardware
    scan the same flows side by side: one scanner per automaton of a
    block's strings, each carrying its own flow states, equal to the same
    automaton walked segment by segment; the blocks' events, mapped to
    string numbers, are the ``ac`` reference's segment for segment."""

    events_of = staticmethod(TestLaneKernelBatches.events_of)

    @pytest.fixture
    def short_lanes(self, force_short_lanes):
        from repro.core import compile_ruleset
        from repro.fpga import STRATIX_III

        program = compile_ruleset(
            RuleSet.from_patterns(TestLaneKernelBatches.PATTERNS), STRATIX_III,
            blocks_per_group=2,
        )
        assert len(program.blocks) == 2
        automata = [(block, block_automaton(block)) for block in program.blocks]
        for _, automaton in automata:
            force_short_lanes(automaton, lanes_per_tile=8)
        return automata

    @pytest.mark.parametrize("track_nocase", (False, True))
    def test_interleaved_flows_split_at_every_offset(self, short_lanes, track_nocase):
        reference_program = get_backend("ac").compile(TestLaneKernelBatches.PATTERNS)
        body = b"..ushers..aBcDeF..ABCDEF.."
        for cut in range(len(body) + 1):
            streams = [body[n:] + body[:n] for n in range(5)]
            items = [(make_key(n), stream[:cut], n) for n, stream in enumerate(streams)]
            tail = [(make_key(n), stream[cut:], 5 + n) for n, stream in enumerate(streams)]
            whole = ReferenceStreamScanner(reference_program, track_nocase=track_nocase)
            expected = self.events_of([whole.scan_segment(*item) for item in items + tail])
            merged = [[] for _ in expected]
            for block, program in short_lanes:
                reference = ReferenceStreamScanner(program, track_nocase=track_nocase)
                reference._scan_many = lambda jobs, program=program: [  # byte at a time
                    program._scan_scalar(states, chunk) for states, chunk in jobs
                ]
                walked = [reference.scan_segment(*item) for item in items + tail]
                batched = StreamScanner(program, track_nocase=track_nocase)
                first = per_item(batched.scan_batch(items)[0], len(items))
                second = per_item(batched.scan_batch(tail)[0], len(tail))
                found = self.events_of(first + second)
                assert any(found) and found == self.events_of(walked), cut
                assert dataclasses.asdict(batched.stats) == dataclasses.asdict(reference.stats)
                for key in reference.flows.keys():
                    assert batched.flows.peek(key).state == reference.flows.peek(key).state
                    assert (
                        batched.flows.peek(key).lower_state
                        == reference.flows.peek(key).lower_state
                    )
                for segment, events in zip(merged, found):
                    segment.extend(
                        (flow, packet, end, block.string_numbers[number], lowered)
                        for flow, packet, end, number, lowered in events
                    )
            assert any(expected)
            assert [sorted(segment) for segment in merged] == [
                sorted(segment) for segment in expected
            ], cut


def test_forced_short_lanes_hold_the_differential_harness(force_short_lanes):
    """``assert_equivalent_events`` with both kernels on tiny lanes: the
    dtp automaton and the dense table, in-memory and replayed
    from a capture, byte-identical events, batch totals and gauges."""
    from tests.conftest import assert_equivalent_events, build_program, equivalence_workload

    ruleset, packets = equivalence_workload(num_rules=30, flows=7, num_packets=4, seed=19)
    lane_len = force_short_lanes(build_program(ruleset, "dtp"), lanes_per_tile=8)
    assert lane_len == force_short_lanes(build_program(ruleset, "dense"), lanes_per_tile=8)
    reference = assert_equivalent_events(
        ruleset, packets, backends=("dtp", "dense", "ac"), track_nocase=True,
    )
    assert reference.events, "boundary-split flows should produce events"
    assert sum(len(p.payload) for p in packets) > 20 * lane_len


# ----------------------------------------------------------------------
# statistics parity: batched == per-segment, to the counter
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def drift_ruleset() -> RuleSet:
    return generate_snort_like_ruleset(30, seed=91)


@pytest.fixture(scope="module")
def drift_workload(drift_ruleset):
    generator = TrafficGenerator(drift_ruleset, seed=92)
    flows = generator.flows(9, num_packets=5, split_patterns=1, segment_bytes=70)
    return TrafficGenerator.interleave(flows)


class TestStatisticsParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("track_nocase", (False, True))
    def test_scanner_counters_and_lru_order_identical(
        self, drift_ruleset, drift_workload, backend, track_nocase
    ):
        program = get_backend(backend).compile(drift_ruleset.patterns)
        reference = ReferenceStreamScanner(program, track_nocase=track_nocase)
        batched = StreamScanner(program, track_nocase=track_nocase)

        items = [
            (StreamScanner.flow_key(p), p.payload, p.packet_id)
            for p in drift_workload
        ]
        expected = [reference.scan_segment(*item) for item in items]
        hits, evictions = batched.scan_batch(items)

        assert per_item(hits, len(items)) == expected
        assert evictions == []
        assert dataclasses.asdict(batched.stats) == dataclasses.asdict(reference.stats)
        assert dataclasses.asdict(batched.flows.stats) == dataclasses.asdict(
            reference.flows.stats
        )
        # identical recency order → identical future eviction decisions
        assert batched.flows.keys() == reference.flows.keys()
        for key in reference.flows.keys():
            ours, theirs = batched.flows.peek(key), reference.flows.peek(key)
            assert ours.state == theirs.state
            assert ours.lower_state == theirs.lower_state
        assert batched.flows.checkpoint() == reference.flows.checkpoint()

    def test_service_stats_identical_to_per_packet_submit(
        self, drift_ruleset, drift_workload
    ):
        """ScanService.scan (batched) vs the reference ``submit`` (per
        segment): same events, same stats() dict."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        batched_service = ScanService(program)
        submit_service = reference_service(program)

        result = batched_service.scan(drift_workload)
        submitted = []
        for packet in drift_workload:
            submitted.extend(reference_submit(submit_service, packet))

        assert sorted(
            result.events, key=lambda e: (e.packet_id, e.end_offset, e.string_number)
        ) == sorted(
            submitted, key=lambda e: (e.packet_id, e.end_offset, e.string_number)
        )
        assert batched_service.stats() == submit_service.stats()
        ours, theirs = batched_service.scanner, submit_service.scanner
        assert dataclasses.asdict(ours.stats) == dataclasses.asdict(theirs.stats)
        assert dataclasses.asdict(ours.flows.stats) == dataclasses.asdict(theirs.flows.stats)


# ----------------------------------------------------------------------
# eviction pressure: exact events, exact records
# ----------------------------------------------------------------------
class TestEvictionPressure:
    @staticmethod
    def build_items(num_flows: int, segments: int):
        rng = __import__("random").Random(17)
        items = []
        for seg in range(segments):
            for flow in range(num_flows):
                items.append((make_key(flow), random_text(rng, 40), seg))
        return items

    @pytest.mark.parametrize("capacity", (1, 2, 3))
    def test_fallback_matches_per_segment_loop(self, drift_ruleset, capacity):
        """Under eviction pressure scan_batch must behave exactly like the
        per-segment loop — events, counters, eviction records with the
        per-item positions the IDS correlates on."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        items = self.build_items(num_flows=4, segments=3)

        reference = ReferenceStreamScanner(program, ReferenceFlowTable(capacity))
        expected_evictions = []
        position = 0

        def record(entry):
            expected_evictions.append((position, entry.key))

        reference.flows.on_evict = record
        expected = []
        for position, item in enumerate(items):
            expected.append(reference.scan_segment(*item))
        reference.flows.on_evict = None

        batched = StreamScanner(program, FlowTable(capacity))
        hits, evictions = batched.scan_batch(items)

        assert per_item(hits, len(items)) == expected
        assert evictions == expected_evictions
        assert evictions, "the workload must actually evict"
        assert dataclasses.asdict(batched.stats) == dataclasses.asdict(reference.stats)
        assert dataclasses.asdict(batched.flows.stats) == dataclasses.asdict(
            reference.flows.stats
        )
        assert batched.flows.keys() == reference.flows.keys()

    def test_exactly_full_table_stays_on_the_fast_path(self, drift_ruleset):
        """A batch that fills the table to exactly its capacity does not
        evict (no eviction records, no evicted counter)."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        items = self.build_items(num_flows=4, segments=2)
        scanner = StreamScanner(program, FlowTable(capacity=4))
        _, evictions = scanner.scan_batch(items)
        assert evictions == []
        assert scanner.flows.stats.evicted == 0
        assert len(scanner.flows) == 4

        # ...and the next batch introducing a fifth flow evicts the LRU one
        extra = [(make_key(9), b"overflow-segment", 0)]
        _, second_evictions = scanner.scan_batch(extra)
        assert second_evictions == [(0, make_key(0))]
        assert scanner.flows.stats.evicted == 1

    def test_service_level_eviction_equivalence(self, drift_ruleset):
        """End to end: a capacity-1 service reports identical events
        and eviction counters whether batched or per-packet."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        packets = []
        for seg in range(3):
            for flow in range(5):
                packets.append(
                    Packet(
                        payload=b"x" * 30 + bytes([65 + flow]) * 10,
                        header=make_header(flow),
                        packet_id=seg,
                    )
                )
        batched = ScanService(program, flow_capacity=1)
        per_packet = reference_service(program, flow_capacity=1)
        result = batched.scan(packets)
        for packet in packets:
            reference_submit(per_packet, packet)
        assert batched.stats() == per_packet.stats()
        assert batched.evicted_flows > 0
        assert result.packets == len(packets)


# ----------------------------------------------------------------------
# one backend crossing per batch
# ----------------------------------------------------------------------
def count_crossings(monkeypatch, program) -> list:
    """Wrap ``program.scan_many`` — before any scanner captures it — so each
    backend crossing records its job count."""
    calls = []
    scan_many = program.scan_many
    monkeypatch.setattr(
        program, "scan_many", lambda jobs: calls.append(len(jobs)) or scan_many(jobs)
    )
    return calls


def segment_at_a_time(service, packets):
    """What one batched ``scan_annotated`` must equal: every packet
    ``submit``-ted on its own (one ``scan_segment`` each) through a
    :func:`reference_service`.

    Returns the canonical events (gathered in arrival order, then stably
    sorted), the events by arrival index and the ``(arrival, key)``
    evictions.
    """
    flows = service.scanner.flows
    found, hits, evictions = [], {}, []
    arrival = 0
    flows.on_evict = lambda entry: evictions.append((arrival, entry.key))
    for arrival, packet in enumerate(packets):
        events = reference_submit(service, packet)
        if events:
            hits[arrival] = events
            found.extend(events)
    flows.on_evict = None
    return sorted(found, key=event_order), hits, evictions


def assert_same_state(batched: ScanService, reference: ScanService) -> None:
    """Gauges, the scanner's counters, LRU order and checkpoint, equal."""
    assert batched.stats() == reference.stats()
    ours, theirs = batched.scanner, reference.scanner
    assert dataclasses.asdict(ours.stats) == dataclasses.asdict(theirs.stats)
    assert dataclasses.asdict(ours.flows.stats) == dataclasses.asdict(theirs.flows.stats)
    assert ours.flows.keys() == theirs.flows.keys()
    assert batched.checkpoint() == reference.checkpoint()


@pytest.fixture(scope="module")
def crossing_batches(drift_ruleset):
    """Two batches: interleaved boundary-split flows, plus *twins* — six
    flows carrying one stream under equal packet ids, so their events tie on
    the whole canonical sort key and only the pre-sort (arrival) order tells
    them apart.  The second batch resumes every flow."""
    generator = TrafficGenerator(drift_ruleset, seed=93)
    flows = generator.flows(12, num_packets=4, split_patterns=1, segment_bytes=70)
    packets = TrafficGenerator.interleave(flows)
    pattern = drift_ruleset.patterns[0]
    stream = b"..." + pattern + b"..." + pattern.upper() + b"..."
    first_cut = 3 + len(pattern) // 2
    second_cut = 6 + len(pattern) + len(pattern) // 2
    pieces = [stream[:first_cut], stream[first_cut:second_cut], stream[second_cut:]]
    twins = [
        [Packet(payload=piece, header=make_header(200 + twin), packet_id=5000 + round_index)
         for twin in range(6)]
        for round_index, piece in enumerate(pieces)
    ]
    half = len(packets) // 2
    return packets[:half] + twins[0], packets[half:] + twins[1] + twins[2]


class TestOneCrossingPerBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("track_nocase", (False, True))
    def test_serial_batch_is_one_crossing_equal_to_segment_at_a_time(
        self, monkeypatch, drift_ruleset, crossing_batches, backend, track_nocase
    ):
        program = get_backend(backend).compile(drift_ruleset.patterns)
        calls = count_crossings(monkeypatch, program)
        batched = ScanService(program, track_nocase=track_nocase)
        reference = reference_service(program, track_nocase=track_nocase)
        sort_keys = []
        for annotated, batch in zip((False, True), crossing_batches):
            if annotated:
                result, hits, evictions, keys = batched.scan_annotated(batch)
            else:
                result = batched.scan(batch)
            flows = len({StreamScanner.flow_key(packet) for packet in batch})
            assert calls == [2 * flows if track_nocase else flows]

            events, expected_hits, expected_evictions = segment_at_a_time(reference, batch)
            del calls[:]  # the reference crosses once per segment
            assert result.events == events
            assert result.packets == len(batch)
            assert result.bytes_scanned == sum(len(packet.payload) for packet in batch)
            if annotated:
                assert hits == expected_hits
                assert evictions == expected_evictions == []
                assert keys == [StreamScanner.flow_key(packet) for packet in batch]
                assert list(hits) == sorted(hits)  # the pre-sort order: arrival
            assert_same_state(batched, reference)
            sort_keys += map(event_order, result.events)
        assert len(sort_keys) > len(set(sort_keys)), "the twins must tie on the sort key"

    def test_a_table_under_eviction_pressure_steps_out_segment_by_segment(
        self, monkeypatch, drift_ruleset
    ):
        """Three flows in two slots, round robin: every segment evicts, so
        every segment is a flow incarnation of its own — nine jobs, still
        one crossing — with the per-segment evictions."""
        program = get_backend("dense").compile(drift_ruleset.patterns)
        calls = count_crossings(monkeypatch, program)
        batched = ScanService(program, flow_capacity=2)
        reference = reference_service(program, flow_capacity=2)
        headers = [make_header(n) for n in range(3)]
        pattern = drift_ruleset.patterns[0]
        cut = 2 + len(pattern) // 2
        stream = b"<<" + pattern + b">>"
        packets = [
            Packet(payload=piece, header=header, packet_id=round_index)
            for round_index, piece in enumerate((stream[:cut], stream[cut:], b"tail"))
            for header in headers
        ]
        result, hits, evictions, _ = batched.scan_annotated(packets)
        assert calls == [9]

        events, expected_hits, expected_evictions = segment_at_a_time(reference, packets)
        assert evictions == expected_evictions and evictions
        assert hits == expected_hits
        assert result.events == events
        assert_same_state(batched, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("track_nocase", (False, True))
    def test_a_batch_under_eviction_is_one_crossing(
        self, monkeypatch, drift_ruleset, backend, track_nocase
    ):
        """Three flows of three segments each, one flow after the other, in
        two slots: the third flow evicts the first.  Segment at a time that
        is nine crossings; the batch is one, a job per flow (two under
        ``track_nocase``), with the same eviction record and events."""
        program = get_backend(backend).compile(drift_ruleset.patterns)
        calls = count_crossings(monkeypatch, program)
        batched = ScanService(program, flow_capacity=2, track_nocase=track_nocase)
        reference = reference_service(program, flow_capacity=2, track_nocase=track_nocase)
        pattern = drift_ruleset.patterns[0]
        stream = b"<<" + pattern + b">>"
        cuts = (0, 2 + len(pattern) // 3, 2 + 2 * len(pattern) // 3, len(stream))
        packets = [
            Packet(payload=stream[lo:hi], header=make_header(flow), packet_id=3 * flow + piece)
            for flow in range(3)
            for piece, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ]
        result, hits, evictions, _ = batched.scan_annotated(packets)
        assert calls == [6 if track_nocase else 3]

        events, expected_hits, expected_evictions = segment_at_a_time(reference, packets)
        assert len(calls) == 1 + 9
        assert evictions == expected_evictions == [(6, make_key(0))]
        assert hits == expected_hits and list(hits) == list(expected_hits)
        assert result.events == events
        assert [event.flow for event in events] == [make_key(n) for n in range(3)]
        assert_same_state(batched, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_oversized_segments_batch_equal_to_segment_at_a_time(
        self, drift_ruleset, backend
    ):
        """Flows of 4 KiB and 64 KiB segments, far past an MTU, with a rule
        string split across their boundaries: one batch, one crossing, the
        per-segment events and state."""
        program = get_backend(backend).compile(drift_ruleset.patterns)
        generator = TrafficGenerator(drift_ruleset, seed=47)
        packets = TrafficGenerator.interleave(
            generator.flows(2, num_packets=3, split_patterns=1, segment_bytes=4096)
            + generator.flows(2, num_packets=3, split_patterns=1, segment_bytes=65536)
        )
        batched, reference = ScanService(program), reference_service(program)
        result, hits, evictions, _ = batched.scan_annotated(packets)
        events, expected_hits, expected_evictions = segment_at_a_time(reference, packets)
        assert result.events == events and hits == expected_hits
        assert evictions == expected_evictions == []
        assert_same_state(batched, reference)
        assert batched.cross_segment_matches > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", (0, 1, 1500, 65536, 1 << 20))
    def test_payload_of_any_size_batch_equal_to_segment_at_a_time(self, backend, size):
        """No segment size is special: a payload of 0 B to 1 MiB batches as
        it scans alone, and a signature split across it and the next
        segment still matches at its flow-absolute offset."""
        pattern = b"EVILPAYLOADSIGNATURE"
        program = get_backend(backend).compile([pattern, b"lowercasesignature"])
        filler = b"x" * size
        if size >= len(pattern):
            filler = filler[: size - len(pattern)] + pattern
        packets = [
            Packet(payload=filler + pattern[:9], header=make_header(9), packet_id=0),
            Packet(payload=pattern[9:], header=make_header(9), packet_id=1),
        ]
        batched, reference = ScanService(program), reference_service(program)
        result, hits, _, _ = batched.scan_annotated(packets)
        events, expected_hits, _ = segment_at_a_time(reference, packets)
        assert result.events == events and hits == expected_hits
        assert_same_state(batched, reference)
        assert len(events) == 1 + (size >= len(pattern))
        assert events[-1].end_offset == size + len(pattern)


# ----------------------------------------------------------------------
# any interleaving, any capacity, any batch split
# ----------------------------------------------------------------------
#: Short, overlapping strings, one of them mixed-case, and the pieces the
#: random segments are spliced from: they hit often, and across segment
#: boundaries.
DIFFERENTIAL_PATTERNS = [b"he", b"she", b"his", b"hers", b"aBc", b"cabca"]
FRAGMENTS = [b"h", b"e", b"s", b"he", b"hi", b"rs", b"aBc", b"ABC", b"cab", b"ca", b"x"]


@pytest.fixture(scope="module")
def differential_programs():
    return {
        backend: get_backend(backend).compile(DIFFERENTIAL_PATTERNS) for backend in BACKENDS
    }


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    backend=st.sampled_from(BACKENDS),
    capacity=st.integers(1, 6),
    track_nocase=st.sampled_from((False, True, frozenset({4}))),
    segments=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.lists(st.sampled_from(FRAGMENTS), max_size=5).map(b"".join),
        ),
        max_size=40,
    ),
    cuts=st.lists(st.integers(1, 39), max_size=4),
)
def test_scan_batch_equals_the_per_segment_reference(
    differential_programs, backend, capacity, track_nocase, segments, cuts
):
    """Random interleavings of up to eight flows through tables of one to
    six slots, cut into random batches: every batch's hits (in arrival
    order) and eviction records, and at the end the scanner and table
    counters, the LRU order and the checkpoint, equal the per-segment
    reference's."""
    program = differential_programs[backend]
    batched = StreamScanner(program, FlowTable(capacity), track_nocase=track_nocase)
    reference = ReferenceStreamScanner(
        program, ReferenceFlowTable(capacity), track_nocase=track_nocase
    )
    items = [(make_key(flow), payload, index) for index, (flow, payload) in enumerate(segments)]
    bounds = sorted({0, len(items), *(cut for cut in cuts if cut < len(items))})
    for lo, hi in zip(bounds, bounds[1:]):
        hits, evictions = batched.scan_batch(items[lo:hi])
        expected_hits, expected_evictions = reference.scan_batch(items[lo:hi])
        assert list(hits.items()) == list(expected_hits.items())
        assert evictions == expected_evictions
    assert dataclasses.asdict(batched.stats) == dataclasses.asdict(reference.stats)
    assert dataclasses.asdict(batched.flows.stats) == dataclasses.asdict(reference.flows.stats)
    assert batched.flows.keys() == reference.flows.keys()
    assert batched.flows.checkpoint() == reference.flows.checkpoint()


def test_equivalent_events_with_nocase_tracking():
    """Backends x {memory, pcap}, lowered views included."""
    ruleset, packets = equivalence_workload(num_rules=30, flows=9, num_packets=4, seed=23)
    reference = assert_equivalent_events(ruleset, packets, track_nocase=True)
    assert reference.events


def test_equivalent_alerts_on_random_predicates():
    ruleset = generate_snort_like_ruleset(24, seed=11)
    generator = TrafficGenerator(ruleset, seed=12)
    packets = TrafficGenerator.interleave(
        generator.flows(16, num_packets=3, split_patterns=1, whole_patterns=2)
    )
    specs = random_predicate_rules(ruleset, seed=11, num_rules=48)
    expected = assert_equivalent_alerts(specs, packets)
    assert len(expected) >= 16, "workload barely alerts"
