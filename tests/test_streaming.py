"""Tests for the streaming flow-scan subsystem.

The regression these pin down is the subsystem's reason to exist: a rule
string split across consecutive packets of one flow is invisible to the
per-packet scan path but must be found by the stateful flow scan.
"""

import ast
import dataclasses
import inspect
import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.backend import get_backend
from repro.core import DTPAutomaton, ScanState, compile_ruleset
from repro.fpga import STRATIX_III
from repro.hardware import StringMatchingBlock
from repro.ids import HeaderPattern, IDSRule, IntrusionDetectionSystem
from repro.rulesets import RuleSet
from repro.streaming import (
    FlowEntry,
    FlowKey,
    FlowTable,
    FlowTableStatistics,
    ScanService,
    StreamScanner,
)
from repro.streaming.scanner import SegmentBatch
from repro.streaming.service import event_order
from repro.traffic import FiveTuple, Packet, TrafficGenerator
from repro.traffic.packet import FLOW_FIELDS
from tests.conftest import (
    ReferenceStreamScanner,
    eviction_keys,
    flow_keys,
    reference_service,
    reference_submit,
)

#: The worked example of Figures 1 and 2 (mirrors tests/conftest.py).
PAPER_EXAMPLE_PATTERNS = [b"he", b"she", b"his", b"hers"]


def make_key(n: int = 0) -> FlowKey:
    return FlowKey(f"10.0.0.{n}", "192.168.0.1", 40000 + n, 80, "tcp")


def make_header(n: int = 0) -> FiveTuple:
    return FiveTuple(f"10.0.0.{n}", "192.168.0.1", 40000 + n, 80, "tcp")


def fresh_entry(key: FlowKey) -> FlowEntry:
    return FlowEntry(key=key, state=ScanState())


def scan_one(scanner: StreamScanner, key: FlowKey, payload: bytes, packet_id: int = 0):
    """``payload`` as the next segment of flow ``key``: a batch of one."""
    hits, _, _ = scanner.scan_batch([(key, payload, packet_id)])
    return hits.get(0, [])


def scan_in_order(scanner: StreamScanner, packets):
    """One batch of ``packets``; its events in arrival order."""
    hits, _, _ = scanner.scan_batch(SegmentBatch.from_packets(packets))
    return [event for events in hits.values() for event in events]


@pytest.fixture(scope="module")
def crafted_ruleset() -> RuleSet:
    """Patterns that cannot occur by accident in ASCII background traffic."""
    ruleset = RuleSet(name="crafted")
    ruleset.add_pattern(b"EVILPAYLOADSIGNATURE")
    ruleset.add_pattern(b"XMALICIOUSSHELLCODEX")
    ruleset.add_pattern(b"QQBACKDOORBEACONQQ")
    return ruleset


@pytest.fixture(scope="module")
def crafted_program(crafted_ruleset):
    return get_backend("dtp").compile(crafted_ruleset)


# ----------------------------------------------------------------------
# resumable scanning at the automaton level
# ----------------------------------------------------------------------
class TestScanFrom:
    def test_scan_state_round_trip(self):
        state = ScanState(state=5, prev1=104, prev2=None, offset=17)
        assert ScanState.from_tuple(state.as_tuple()) == state

    def test_chunked_scan_equals_whole_buffer(self, example_dtp, rng):
        data = b"xxhisxx" + b"ushers" + bytes(rng.randrange(97, 123) for _ in range(400))
        whole = example_dtp.match(data)

        for chunk_size in (1, 2, 3, 7, 64):
            state = ScanState()
            chunked = []
            for start in range(0, len(data), chunk_size):
                matches, state = example_dtp.scan_chunk(state, data[start:start + chunk_size])
                chunked.extend(matches)
            assert chunked == whole, f"chunk_size={chunk_size}"
            assert state.offset == len(data)

    def test_scan_from_offsets_are_stream_absolute(self):
        dtp = DTPAutomaton.from_patterns([b"abcd"])
        first, state = dtp.scan_chunk(ScanState(), b"xxab")
        assert first == []
        second, state = dtp.scan_chunk(state, b"cdab")
        assert second == [(6, 0)]  # match ends at stream offset 6
        assert state.offset == 8

    def test_per_packet_match_resets_history(self):
        dtp = DTPAutomaton.from_patterns([b"abcd"])
        assert dtp.match(b"ab") == [] and dtp.match(b"cd") == []

    def test_program_scan_from_resumes_across_chunks(self, small_dtp, small_ruleset, rng):
        patterns = [rule.pattern for rule in small_ruleset]
        stream = b"".join(
            bytes(rng.randrange(0, 256) for _ in range(50))
            + patterns[rng.randrange(len(patterns))]
            for _ in range(12)
        )
        whole = small_dtp.match(stream)
        states = ScanState()
        chunked = []
        position = 0
        while position < len(stream):
            size = rng.randint(1, 100)
            matches, states = small_dtp.scan_chunk(states, stream[position:position + size])
            chunked.extend(matches)
            position += size
        assert sorted(chunked) == sorted(whole)

    def test_program_scan_from_validates_state_count(self, small_dtp):
        """A flow resumes from one scan state: a checkpointed flow of two
        is refused where it enters the program's service, at restore."""
        service = ScanService(small_dtp)
        service.scan([Packet(payload=b"x", header=make_header(1), packet_id=0)])
        snapshot = json.loads(json.dumps(service.checkpoint()))
        snapshot["flows"][0]["states"] *= 2
        with pytest.raises(ValueError, match="2 states"):
            ScanService(small_dtp).restore(snapshot)


# ----------------------------------------------------------------------
# flow table
# ----------------------------------------------------------------------
class TestFlowTable:
    @staticmethod
    def entry(n: int) -> FlowEntry:
        return FlowEntry(key=make_key(n), state=ScanState())

    def test_lru_eviction_order(self):
        table = FlowTable(capacity=2)
        table.admit([make_key(1), make_key(2)], fresh_entry)
        # flow 1 arrives again first, so flow 2 is the LRU victim of flow 3
        admitted, evictions = table.admit([make_key(1), make_key(3)], fresh_entry)
        assert [(entry.key, indexes) for entry, indexes in admitted] == [
            (make_key(1), [0]), (make_key(3), [1]),
        ]
        assert len(table) == 2
        assert eviction_keys(evictions) == [(1, make_key(2))]
        assert make_key(1) in table and make_key(3) in table
        assert table.stats.evicted == 1

    def test_a_flow_evicted_within_a_batch_is_admitted_twice(self):
        """Flow 1, pushed out by flow 2 in a one-slot table, comes back as
        a second, fresh entry: two incarnations, each with its segments."""
        table = FlowTable(capacity=1)
        keys = [make_key(1), make_key(1), make_key(2), make_key(1)]
        admitted, evictions = table.admit(keys, fresh_entry)
        assert [(entry.key, indexes) for entry, indexes in admitted] == [
            (make_key(1), [0, 1]), (make_key(2), [2]), (make_key(1), [3]),
        ]
        assert admitted[0][0] is not admitted[2][0]
        assert eviction_keys(evictions) == [(2, make_key(1)), (3, make_key(2))]
        assert flow_keys(table) == [make_key(1)] and table.peek(make_key(1)) is admitted[2][0]
        assert (table.stats.created, table.stats.evicted) == (3, 2)

    def test_admit_is_the_only_lru_walk(self):
        """Only ``admit`` reorders or evicts (``move_to_end``, ``popitem``);
        the per-segment calls, the constructor's ``on_evict`` hook and the
        per-flow sets nothing read are gone."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(FlowTable)))
        walkers = {
            method.name
            for method in tree.body[0].body
            if isinstance(method, ast.FunctionDef) and any(
                isinstance(node, ast.Attribute) and node.attr in {"move_to_end", "popitem"}
                for node in ast.walk(method)
            )
        }
        assert walkers == {"admit"}
        assert not {"lookup", "touch", "get_or_create", "insert"} & set(vars(FlowTable))
        assert list(inspect.signature(FlowTable).parameters) == ["capacity"]
        assert FlowEntry.__slots__ == ("key", "state", "lower_state", "record")

    def test_evicted_flow_restarts_fresh(self, crafted_program, crafted_ruleset):
        scanner = StreamScanner(crafted_program, FlowTable(capacity=1))
        pattern = crafted_ruleset[0].pattern
        scan_one(scanner, make_key(1), pattern[:8])
        # flow 2 pushes flow 1 out of the single-entry table
        scan_one(scanner, make_key(2), b"unrelated")
        matches = scan_one(scanner, make_key(1), pattern[8:])
        assert matches == []  # the head fragment was forgotten with the state
        assert scanner.flows.stats.evicted == 2

    def test_lookup_miss_and_remove(self):
        """A miss creates nothing, and nothing removes a flow by key: a flow
        leaves a live table only as one of ``admit``'s evictions, with the
        record a higher layer hung off its entry."""
        table = FlowTable(capacity=1)
        assert table.peek(make_key(9)) is None
        assert (len(table), table.stats.created) == (0, 0)
        table.admit([make_key(1)], fresh_entry)
        first = table.peek(make_key(1))
        first.record = "flow 1's confirm record"
        assert not {"remove", "clear", "pop", "discard"} & set(dir(table))
        assert not {"close_flow", "active_flows"} & set(dir(StreamScanner))
        _, evictions = table.admit([make_key(2)], fresh_entry)
        assert evictions == [(0, first)] and first.record == "flow 1's confirm record"
        assert flow_keys(table) == [make_key(2)] and table.peek(make_key(2)).record is None
        assert table.stats.evicted == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlowTable(capacity=0)

    def test_peek_does_not_touch_recency_or_create(self):
        table = FlowTable(capacity=2)
        table.admit([make_key(1), make_key(2)], fresh_entry)
        assert table.peek(make_key(1)).key == make_key(1)
        assert table.peek(make_key(9)) is None
        assert flow_keys(table) == [make_key(1), make_key(2)]  # recency untouched
        assert table.stats.created == 2  # a miss creates nothing
        table.admit([make_key(3)], fresh_entry)  # flow 1 is still the LRU victim
        assert make_key(1) not in table

    def test_restore_respects_capacity_override(self):
        table = FlowTable(capacity=8)
        table.admit([make_key(n) for n in range(4)], fresh_entry)
        restored = FlowTable.restore(table.checkpoint(), capacity=2)
        assert restored.capacity == 2 and len(restored) == 2
        # the most recently used flows survive
        assert make_key(2) in restored and make_key(3) in restored

    def test_checkpoint_restore_round_trip(self):
        table = FlowTable(capacity=8)
        entry = self.entry(1)
        entry.state = ScanState(state=3, prev1=104, prev2=101, offset=42)
        table.admit([entry.key], lambda key: entry)
        snapshot = table.checkpoint()
        assert list(snapshot["flows"][0]) == ["key", "states", "lower_states"]
        restored = FlowTable.restore(snapshot)
        assert restored.capacity == 8
        back = restored.peek(make_key(1))
        assert back.state == entry.state and back.lower_state is None
        # the per-flow counters and sets older checkpoints carry are read past
        snapshot["flows"][0].update(packets=3, matched=[7], matched_lower=[], alerted=[99])
        assert FlowTable.restore(snapshot).checkpoint() == table.checkpoint()

    @pytest.mark.parametrize("view", ("states", "lower_states"))
    @pytest.mark.parametrize("count", (0, 2))
    def test_a_flow_of_other_than_one_scan_state_is_refused_by_name(self, view, count):
        """Every program is one automaton: a checkpoint whose flow carries
        per-block states (a multi-block device program's, before the one
        automaton) fails at restore, naming the flow, not mid-scan."""
        table = FlowTable(capacity=8)
        entry = self.entry(5)
        entry.lower_state = ScanState()
        table.admit([entry.key], lambda key: entry)
        snapshot = json.loads(json.dumps(table.checkpoint()))
        snapshot["flows"][0][view] = [ScanState(offset=9).as_tuple()] * count
        with pytest.raises(ValueError, match=rf"{view}.*one scan state") as refused:
            FlowTable.restore(snapshot)
        assert repr(make_key(5).as_tuple()) in str(refused.value)
        snapshot["flows"][0][view] = [ScanState(offset=9).as_tuple()]
        restored = FlowTable.restore(snapshot).peek(make_key(5))
        assert getattr(restored, view[:-1]) == ScanState(offset=9)


# ----------------------------------------------------------------------
# FlowKey type coercion on restore
# ----------------------------------------------------------------------
class TestFlowKeyCoercion:
    def test_coerced_constructor_canonicalises_types(self):
        key = FlowKey("10.0.0.1", "192.168.0.1", 40001.0, 80.0, "tcp")
        assert key == make_key(1)
        assert isinstance(key.src_port, int) and isinstance(key.dst_port, int)
        assert key.encode() == make_key(1).encode()

    def test_from_header_coerces_port_types(self):
        header = FiveTuple("10.0.0.1", "192.168.0.1", 40001.0, 80.0, "tcp")
        assert FlowKey.from_header(header) == make_key(1)

    def test_from_dict_coerces_float_ports(self):
        entry = FlowEntry(key=make_key(2), state=ScanState())
        data = entry.as_dict()
        data["key"][2] = float(data["key"][2])  # what a JSON writer may emit
        data["key"][3] = float(data["key"][3])
        restored = FlowEntry.from_dict(data)
        assert restored.key == make_key(2)
        assert restored.key.encode() == make_key(2).encode()

    def test_float_port_checkpoint_resumes_flow(self, crafted_program, crafted_ruleset):
        """The regression proper: a float-port checkpoint used to produce a
        key encoding ``"80.0"``, so the restored flow never resumed."""
        pattern = crafted_ruleset[0].pattern
        header = make_header(3)
        service = ScanService(crafted_program)
        assert service.scan([Packet(payload=pattern[:9], header=header, packet_id=0)]).events == []

        snapshot = json.loads(json.dumps(service.checkpoint()))
        for flow in snapshot["flows"]:
            flow["key"][2] = float(flow["key"][2])
            flow["key"][3] = float(flow["key"][3])

        resumed = ScanService(crafted_program)
        resumed.restore(snapshot)
        assert flow_keys(resumed.scanner.flows) == [FlowKey.from_header(header)]
        matches = resumed.scan([Packet(payload=pattern[9:], header=header, packet_id=1)]).events
        assert [m.string_number for m in matches] == [0]


def flow_identities_and_cache_writes(sources):
    """Over ``(name, source)`` pairs: every class declaring the five flow
    fields with ``int`` ports (a flow identity, not a rule's port pattern),
    and every place code assigns a ``flow_key`` attribute — an attribute
    target, a class-level name, or a ``setattr``-style call naming it."""
    identities, writes = [], []
    for name, source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                declared = {
                    item.target.id: ast.unparse(item.annotation)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
                ports = (declared.get("src_port"), declared.get("dst_port"))
                if set(FLOW_FIELDS) <= declared.keys() and ports == ("int", "int"):
                    identities.append(f"{name}:{node.name}")
                assigned = [
                    target.id
                    for item in node.body
                    if isinstance(item, ast.Assign)
                    for target in item.targets
                    if isinstance(target, ast.Name)
                ]
                if "flow_key" in declared or "flow_key" in assigned:
                    writes.append(f"{name}:{node.name}.flow_key")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                if any(getattr(target, "attr", None) == "flow_key" for target in targets):
                    writes.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Call) and any(
                isinstance(arg, ast.Constant) and arg.value == "flow_key" for arg in node.args
            ):
                writes.append(f"{name}:{node.lineno}")
    return identities, sorted(writes)


def test_the_header_is_the_one_flow_identity():
    """A packet's header is its flow key: ``FiveTuple`` is the only class
    under ``src/repro`` declaring a flow's five fields, ``FlowKey`` is
    another name for it, and nothing derives a key and caches it back onto
    the header."""
    root = Path(repro.__file__).parent
    identities, writes = flow_identities_and_cache_writes(
        (path.relative_to(root).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    )
    assert identities == ["traffic/packet.py:FiveTuple"]
    assert writes == []
    assert FlowKey is FiveTuple and repro.FlowKey is FiveTuple
    header = make_header(1)
    assert FlowKey.from_header(header) is header
    assert StreamScanner.flow_key(Packet(payload=b"x", header=header)) is header
    # the shapes the guard is for: the second record and the header's cache
    old = textwrap.dedent('''\
        class FlowKey:
            src_ip: str
            dst_ip: str
            src_port: int
            dst_port: int
            protocol: str

        class FiveTuple:
            flow_key: ClassVar[Optional[Any]] = None

        class Header:
            flow_key = None

        def from_header(header):
            object.__setattr__(header, "flow_key", key)
            header.flow_key = key
    ''')
    assert flow_identities_and_cache_writes([("old.py", old)]) == (
        ["old.py:FlowKey"],
        ["old.py:15", "old.py:16", "old.py:FiveTuple.flow_key", "old.py:Header.flow_key"],
    )


# ----------------------------------------------------------------------
# flow-table statistics accounting
# ----------------------------------------------------------------------
class TestFlowTableAccounting:
    def test_counters_are_the_ones_something_reads(self):
        """Creations, evictions and restore drops; lookups are not counted."""
        assert [f.name for f in dataclasses.fields(FlowTableStatistics)] == [
            "created", "evicted", "restore_dropped",
        ]

    def test_insert_overwrite_does_not_count_as_created(self):
        """Admitting a live flow again refreshes it; it is not a new flow."""
        table = FlowTable(capacity=4)
        table.admit([make_key(1), make_key(1)], fresh_entry)
        table.admit([make_key(1)], fresh_entry)
        assert len(table) == 1
        assert table.stats.created == 1
        table.admit([make_key(2)], fresh_entry)
        assert table.stats.created == 2

    def test_restore_counts_created(self):
        table = FlowTable(capacity=8)
        table.admit([make_key(n) for n in range(3)], fresh_entry)
        restored = FlowTable.restore(table.checkpoint())
        assert restored.stats.created == 3
        assert restored.stats.evicted == 0
        assert restored.stats.restore_dropped == 0

    def test_restore_overflow_counts_drops_and_invokes_on_evict(self):
        table = FlowTable(capacity=8)
        table.admit([make_key(n) for n in range(5)], fresh_entry)
        dropped = []
        restored = FlowTable.restore(
            table.checkpoint(), capacity=2, on_evict=dropped.append
        )
        assert len(restored) == 2
        assert restored.stats.restore_dropped == 3
        assert restored.stats.created == 2
        assert restored.stats.evicted == 0  # drops are not LRU evictions
        # the LRU head was dropped, oldest first, and handed to on_evict
        assert [e.key for e in dropped] == [make_key(0), make_key(1), make_key(2)]
        assert make_key(3) in restored and make_key(4) in restored


# ----------------------------------------------------------------------
# cross-packet matching (the tentpole regression)
# ----------------------------------------------------------------------
class TestCrossPacketMatching:
    @pytest.mark.parametrize("cut", [1, 5, 10, 19])
    def test_two_segment_split(self, crafted_program, crafted_ruleset, cut):
        pattern = crafted_ruleset[0].pattern
        segments = [b"padding " + pattern[:cut], pattern[cut:] + b" trailer"]
        header = make_header(1)
        packets = [
            Packet(payload=payload, header=header, packet_id=i)
            for i, payload in enumerate(segments)
        ]
        # per-packet scanning misses the split pattern...
        for packet in packets:
            assert crafted_program.match(packet.payload) == []
        # ...stateful scanning finds it, at the reassembled-stream offset
        scanner = StreamScanner(crafted_program)
        matches = scan_in_order(scanner, packets)
        assert [m.string_number for m in matches] == [0]
        assert matches[0].end_offset == len(b"padding ") + len(pattern)
        assert scanner.stats.cross_segment_matches == 1

    def test_three_segment_split(self, crafted_program, crafted_ruleset):
        pattern = crafted_ruleset[1].pattern
        segments = [b"aa " + pattern[:4], pattern[4:11], pattern[11:] + b" zz"]
        header = make_header(2)
        packets = [
            Packet(payload=payload, header=header, packet_id=i)
            for i, payload in enumerate(segments)
        ]
        for packet in packets:
            assert crafted_program.match(packet.payload) == []
        matches = scan_in_order(StreamScanner(crafted_program), packets)
        assert [m.string_number for m in matches] == [1]

    def test_byte_at_a_time_flow(self, crafted_program, crafted_ruleset):
        """The pathological segmentation: every packet carries one byte."""
        pattern = crafted_ruleset[2].pattern
        header = make_header(3)
        packets = [
            Packet(payload=bytes([byte]), header=header, packet_id=i)
            for i, byte in enumerate(pattern)
        ]
        matches = scan_in_order(StreamScanner(crafted_program), packets)
        assert [(m.string_number, m.end_offset) for m in matches] == [(2, len(pattern))]

    def test_nocase_view_reports_lowercase_occurrence_once(self):
        """An already-lowercase occurrence matches in both views; one event."""
        ruleset = RuleSet(name="lower")
        ruleset.add_pattern(b"lowercasesignature")
        program = get_backend("dtp").compile(ruleset)
        scanner = StreamScanner(program, track_nocase=True)
        matches = scan_one(scanner, make_key(1), b"xx lowercasesignature yy")
        assert len(matches) == 1 and not matches[0].lowered
        # a genuinely mixed-case occurrence is still caught, via the lowered view
        mixed = scan_one(scanner, make_key(2), b"LowerCaseSignature")
        assert len(mixed) == 1 and mixed[0].lowered

    def test_lowered_view_rebuilt_at_stream_offset(self):
        """A checkpoint without nocase state, restored under a nocase scanner,
        regains case-insensitive matching with flow-absolute offsets."""
        ruleset = RuleSet(name="lower2")
        ruleset.add_pattern(b"lowercasesignature")
        program = get_backend("dtp").compile(ruleset)
        plain = StreamScanner(program, track_nocase=False)
        scan_one(plain, make_key(1), b"0123456789")  # 10 bytes of prologue
        snapshot = plain.flows.checkpoint()

        nocase = StreamScanner(program, track_nocase=True)
        nocase.flows = FlowTable.restore(snapshot)
        matches = scan_one(nocase, make_key(1), b"xx LowerCaseSignature")
        assert [m.lowered for m in matches] == [True]
        assert matches[0].end_offset == 10 + len(b"xx LowerCaseSignature")
        # an already-lowercase hit is still reported once, not per view
        again = scan_one(nocase, make_key(1), b" lowercasesignature")
        assert len(again) == 1 and not again[0].lowered

    def test_independent_flows_do_not_share_state(self, crafted_program, crafted_ruleset):
        """Fragments from different flows must never combine into a match."""
        pattern = crafted_ruleset[0].pattern
        scanner = StreamScanner(crafted_program)
        scan_one(scanner, make_key(1), pattern[:10])
        assert scan_one(scanner, make_key(2), pattern[10:]) == []
        # while the real continuation still completes
        assert scan_one(scanner, make_key(1), pattern[10:]) != []


# ----------------------------------------------------------------------
# scan service
# ----------------------------------------------------------------------
class TestScanService:
    def test_interleaved_flows_all_detected(self, small_dtp, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=31)
        flows = generator.flows(
            10, num_packets=4, split_patterns=1, segment_bytes=120
        )
        packets = TrafficGenerator.interleave(flows)
        service = ScanService(small_dtp)
        result = service.scan(packets)
        sid_of = {index: rule.sid for index, rule in enumerate(small_ruleset)}
        for flow in flows:
            key = StreamScanner.flow_key(flow.packets[0])
            streamed = {sid_of[e.string_number] for e in result.events_for_flow(key)}
            assert set(flow.split_sids) <= streamed
        assert result.packets == len(packets)
        assert result.bytes_scanned == sum(len(p.payload) for p in packets)
        assert service.active_flows == 10
        assert service.cross_segment_matches >= 10

    def test_submit_single_packet(self, crafted_program, crafted_ruleset):
        service = ScanService(crafted_program)
        pattern = crafted_ruleset[0].pattern
        header = make_header(4)
        first = service.scan([Packet(payload=pattern[:6], header=header, packet_id=0)]).events
        second = service.scan([Packet(payload=pattern[6:], header=header, packet_id=1)]).events
        assert first == [] and [m.string_number for m in second] == [0]

    def test_evicted_flows_is_a_lifetime_counter(self, crafted_program):
        service = ScanService(crafted_program, flow_capacity=1)
        service.scan(
            [Packet(payload=b"a", header=make_header(n), packet_id=n) for n in range(3)]
        )
        assert service.evicted_flows == 2
        # a quiet second batch adds nothing and takes nothing back
        service.scan([Packet(payload=b"b", header=make_header(2), packet_id=9)])
        assert service.stats()["evicted_flows"] == 2

    def test_capacity_two_evicts_the_least_recently_used_flow(self, crafted_program):
        """One LRU table for every flow: the third flow pushes out whichever
        flow was scanned least recently, wherever its key hashes."""
        service = ScanService(crafted_program, flow_capacity=2)
        scan = [
            Packet(payload=b"x", header=make_header(n), packet_id=index)
            for index, n in enumerate((1, 2, 1))
        ]
        service.scan(scan)  # flow 2 is now the least recently used
        service.scan([Packet(payload=b"y", header=make_header(3), packet_id=3)])
        assert flow_keys(service.scanner.flows) == [make_key(1), make_key(3)]
        assert service.stats() == {
            "active_flows": 2, "evicted_flows": 1, "cross_segment_matches": 0,
        }

    def test_checkpoint_restore_resumes_mid_flow(self, crafted_program, crafted_ruleset):
        pattern = crafted_ruleset[0].pattern
        header = make_header(5)
        service = ScanService(crafted_program)
        assert service.scan([Packet(payload=pattern[:9], header=header, packet_id=0)]).events == []

        snapshot = service.checkpoint()
        assert snapshot == service.scanner.flows.checkpoint()  # no envelope
        resumed = ScanService(crafted_program)
        resumed.restore(snapshot)
        matches = resumed.scan([Packet(payload=pattern[9:], header=header, packet_id=1)]).events
        assert [m.string_number for m in matches] == [0]

    def test_restore_keeps_configured_capacity(self, crafted_program):
        snapshot = ScanService(crafted_program, flow_capacity=4096).checkpoint()
        small = ScanService(crafted_program, flow_capacity=8)
        small.restore(snapshot)
        assert small.scanner.flows.capacity == 8

    def test_one_table_envelope_restores_like_a_fresh_checkpoint(
        self, crafted_program, crafted_ruleset
    ):
        """The ``{"num_shards": 1, "shards": [table]}`` envelope older
        services and every IDS checkpoint wrote still restores."""
        pattern = crafted_ruleset[0].pattern
        service = ScanService(crafted_program)
        service.scan(
            [Packet(payload=pattern[:9], header=make_header(n), packet_id=n) for n in range(3)]
        )
        table = service.checkpoint()
        fresh, enveloped = ScanService(crafted_program), ScanService(crafted_program)
        fresh.restore(table)
        enveloped.restore({"num_shards": 1, "shards": [table]})
        assert enveloped.checkpoint() == fresh.checkpoint() == table
        tail = Packet(payload=pattern[9:], header=make_header(1), packet_id=9)
        assert enveloped.scan([tail]).events == fresh.scan([tail]).events != []

    def test_multi_table_envelope_is_refused_by_count(self, crafted_program):
        table = ScanService(crafted_program).checkpoint()
        with pytest.raises(ValueError, match="checkpoint holds 2 flow tables"):
            ScanService(crafted_program).restore({"num_shards": 2, "shards": [table, table]})

    def test_flow_capacity_validation(self, crafted_program):
        with pytest.raises(ValueError, match="capacity must be at least 1, got 0"):
            ScanService(crafted_program, flow_capacity=0)

    def test_state_carries_across_consecutive_scans(
        self, crafted_program, crafted_ruleset, small_ruleset
    ):
        """Flow state spans ``scan()`` calls: two batches of randomized
        traffic through the differential harness, then dozens of one-packet
        scans against the per-segment reference's ``submit``."""
        from tests.conftest import assert_equivalent_events

        generator = TrafficGenerator(small_ruleset, seed=47)
        flows = generator.flows(14, num_packets=4, split_patterns=1, segment_bytes=90)
        reference = assert_equivalent_events(
            small_ruleset, TrafficGenerator.interleave(flows), sources=("memory",),
            batches=2,
        )
        assert reference.stats["cross_segment_matches"] > 0

        pattern = crafted_ruleset[0].pattern
        pieces = [pattern[index : index + 3] for index in range(0, len(pattern), 3)]
        packets = [
            Packet(payload=piece, header=make_header(flow), packet_id=index)
            for index, piece in enumerate(pieces * 3)
            for flow in range(4)
        ]
        batched, submitted = ScanService(crafted_program), reference_service(crafted_program)
        events = [event for packet in packets for event in batched.scan([packet]).events]
        assert events == [
            event for packet in packets for event in reference_submit(submitted, packet)
        ]
        assert len(events) == 4 * 3

    def test_empty_scan(self, crafted_program):
        service = ScanService(crafted_program)
        result = service.scan([])
        assert (result.events, result.packets, result.bytes_scanned) == ([], 0, 0)
        assert service.stats() == {
            "active_flows": 0, "evicted_flows": 0, "cross_segment_matches": 0,
        }


# ----------------------------------------------------------------------
# what the flow capacity may and may not change
# ----------------------------------------------------------------------
#: One flow, fewer table slots than flows, one slot short of and exactly
#: enough (either side of the fast path's edge) and the default.
FLOW_CAPACITIES = (1, 3, 11, 12, 4096)


@pytest.fixture(scope="module")
def split_traffic(small_ruleset):
    """Twelve interleaved flows, each with a rule string split across two of
    its four segments."""
    generator = TrafficGenerator(small_ruleset, seed=53)
    flows = generator.flows(12, num_packets=4, split_patterns=1, segment_bytes=90)
    return TrafficGenerator.interleave(flows)


@pytest.mark.parametrize("capacity", FLOW_CAPACITIES)
class TestFlowCapacity:
    """``flow_capacity`` bounds the one LRU table; under pressure or not, the
    service answers exactly what one packet at a time would."""

    def test_events_equal_segment_at_a_time(self, small_dtp, split_traffic, capacity):
        service = ScanService(small_dtp, flow_capacity=capacity)
        result = service.scan(split_traffic)
        one_by_one = ReferenceStreamScanner(small_dtp, capacity=capacity)
        expected = [event for packet in split_traffic for event in one_by_one.scan_packet(packet)]
        assert result.events == sorted(expected, key=event_order)
        assert service.scanner.stats == one_by_one.stats
        assert flow_keys(service.scanner.flows) == flow_keys(one_by_one.flows)
        assert service.evicted_flows == one_by_one.flows.stats.evicted

    @pytest.mark.parametrize("batches", (2, 5))
    def test_batches_carry_state_like_one_batch(
        self, small_dtp, split_traffic, capacity, batches
    ):
        whole = ScanService(small_dtp, flow_capacity=capacity)
        expected = whole.scan(split_traffic).events
        cut = ScanService(small_dtp, flow_capacity=capacity)
        size = -(-len(split_traffic) // batches)
        events = []
        for start in range(0, len(split_traffic), size):
            events += cut.scan(split_traffic[start : start + size]).events
        assert sorted(events, key=event_order) == expected
        assert cut.stats() == whole.stats()
        assert flow_keys(cut.scanner.flows) == flow_keys(whole.scanner.flows)

    def test_flow_capacity_bounds_the_table(self, small_dtp, split_traffic, capacity):
        service = ScanService(small_dtp, flow_capacity=capacity)
        service.scan(split_traffic)
        flows = len({StreamScanner.flow_key(packet) for packet in split_traffic})
        assert service.active_flows == min(capacity, flows)
        assert service.evicted_flows >= flows - service.active_flows
        assert (service.evicted_flows > 0) == (capacity < flows)

    def test_checkpoint_resumes_across_a_json_round_trip(
        self, small_dtp, split_traffic, capacity
    ):
        half = len(split_traffic) // 2
        uninterrupted = ScanService(small_dtp, flow_capacity=capacity)
        uninterrupted.scan(split_traffic[:half])
        snapshot = json.loads(json.dumps(uninterrupted.checkpoint()))
        expected = uninterrupted.scan(split_traffic[half:])

        resumed = ScanService(small_dtp, flow_capacity=capacity)
        resumed.restore(snapshot)
        got = resumed.scan(split_traffic[half:])
        assert got.events == expected.events
        assert flow_keys(resumed.scanner.flows) == flow_keys(uninterrupted.scanner.flows)
        if capacity >= 12:
            # a service that forgot the first half reports other offsets
            cold = ScanService(small_dtp, flow_capacity=capacity)
            assert cold.scan(split_traffic[half:]).events != expected.events

    def test_restore_keeps_lru_order(self, small_dtp, split_traffic, capacity):
        service = ScanService(small_dtp, flow_capacity=capacity)
        service.scan(split_traffic)
        resumed = ScanService(small_dtp, flow_capacity=capacity)
        resumed.restore(service.checkpoint())
        assert flow_keys(resumed.scanner.flows) == flow_keys(service.scanner.flows)
        assert resumed.checkpoint() == service.checkpoint()


# ----------------------------------------------------------------------
# multi-packet flow generation
# ----------------------------------------------------------------------
class TestFlowGeneration:
    def test_split_pattern_spans_boundary(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=13)
        flow = generator.flow(num_packets=4, split_patterns=1)
        assert len(flow.packets) == 4
        assert len(flow.split_sids) == 1
        pattern = next(
            rule.pattern for rule in small_ruleset if rule.sid == flow.split_sids[0]
        )
        assert pattern in flow.payload
        assert all(packet.header == flow.header for packet in flow.packets)

    def test_three_segment_split_occupies_middle(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=17)
        flow = generator.flow(num_packets=3, split_patterns=1, split_segments=3)
        pattern = next(
            rule.pattern for rule in small_ruleset if rule.sid == flow.split_sids[0]
        )
        assert pattern in flow.payload
        # the middle segment is exactly the pattern's middle fragment
        assert flow.packets[1].payload in pattern

    def test_whole_patterns_recorded_in_ground_truth(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=19)
        flow = generator.flow(num_packets=2, split_patterns=0, whole_patterns=2)
        assert len(flow.injected_sids) == 2 and flow.split_sids == []
        for sid in flow.injected_sids:
            pattern = next(rule.pattern for rule in small_ruleset if rule.sid == sid)
            assert any(pattern in packet.payload for packet in flow.packets)

    def test_flow_determinism(self, small_ruleset):
        first = TrafficGenerator(small_ruleset, seed=23).flow(num_packets=5)
        second = TrafficGenerator(small_ruleset, seed=23).flow(num_packets=5)
        assert [p.payload for p in first.packets] == [p.payload for p in second.packets]

    def test_interleave_preserves_per_flow_order(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=29)
        flows = generator.flows(3, num_packets=3)
        merged = TrafficGenerator.interleave(flows)
        assert len(merged) == 9
        for flow in flows:
            ids = [p.packet_id for p in merged if p.header == flow.header]
            assert ids == [p.packet_id for p in flow.packets]

    def test_validation_errors(self, small_ruleset):
        generator = TrafficGenerator(small_ruleset, seed=1)
        with pytest.raises(ValueError):
            generator.flow(num_packets=0)
        with pytest.raises(ValueError):
            generator.flow(num_packets=1, split_patterns=1, split_segments=2)
        with pytest.raises(ValueError):
            generator.flow(num_packets=4, split_segments=4)
        with pytest.raises(ValueError):
            TrafficGenerator(None, seed=1).flow(split_patterns=1)


# ----------------------------------------------------------------------
# IDS entry point
# ----------------------------------------------------------------------
class TestIDSScanFlow:
    @staticmethod
    def build_ids() -> IntrusionDetectionSystem:
        rules = [
            IDSRule(
                sid=1001,
                header=HeaderPattern(protocol="tcp", dst_port="80"),
                contents=(b"EVILPAYLOADSIGNATURE",),
                msg="split signature",
            ),
            IDSRule(
                sid=1002,
                header=HeaderPattern(protocol="tcp"),
                contents=(b"XMALICIOUSSHELLCODEX", b"QQBACKDOORBEACONQQ"),
                msg="two contents",
            ),
        ]
        return IntrusionDetectionSystem(rules)

    def test_split_content_alerts_only_with_scan_flow(self):
        ids = self.build_ids()
        pattern = b"EVILPAYLOADSIGNATURE"
        header = make_header(1)
        packets = [
            Packet(payload=b"GET " + pattern[:7], header=header, packet_id=0),
            Packet(payload=pattern[7:] + b"\r\n", header=header, packet_id=1),
        ]
        assert ids.process(packets) == []  # stateless path misses the split
        alerts = ids.scan_flow(packets)
        assert [a.sid for a in alerts] == [1001]
        assert alerts[0].packet_id == 1  # completed in the second segment

    def test_multi_content_rule_completes_across_segments(self):
        ids = self.build_ids()
        header = make_header(2)
        packets = [
            Packet(payload=b"XMALICIOUSSHELLCODEX", header=header, packet_id=0),
            Packet(payload=b"filler", header=header, packet_id=1),
            Packet(payload=b"QQBACKDOOR", header=header, packet_id=2),
            Packet(payload=b"BEACONQQ", header=header, packet_id=3),
        ]
        alerts = ids.scan_flow(packets)
        assert [(a.sid, a.packet_id) for a in alerts] == [(1002, 3)]

    def test_alert_raised_once_per_flow(self):
        ids = self.build_ids()
        header = make_header(3)
        packets = [
            Packet(payload=b"EVILPAYLOADSIGNATURE", header=header, packet_id=i)
            for i in range(3)
        ]
        alerts = ids.scan_flow(packets)
        assert [a.sid for a in alerts] == [1001]

    def test_header_mismatch_suppresses_alert(self):
        ids = self.build_ids()
        header = FiveTuple("10.0.0.1", "192.168.0.1", 40000, 443, "tcp")  # not port 80
        packets = [
            Packet(payload=b"EVILPAYLOAD", header=header, packet_id=0),
            Packet(payload=b"SIGNATURE", header=header, packet_id=1),
        ]
        assert [a.sid for a in ids.scan_flow(packets)] == []

    def test_nocase_content_across_segments(self):
        rules = [
            IDSRule(
                sid=2001,
                header=HeaderPattern(),
                contents=(b"evilpayloadsignature",),
                nocase=(True,),
            )
        ]
        ids = IntrusionDetectionSystem(rules)
        header = make_header(4)
        packets = [
            Packet(payload=b"EvIlPaYlOaD", header=header, packet_id=0),
            Packet(payload=b"SiGnAtUrE", header=header, packet_id=1),
        ]
        assert [a.sid for a in ids.scan_flow(packets)] == [2001]

    def test_state_persists_across_scan_flow_calls(self):
        """Multi-content completion and once-per-flow alerting span
        separate ``scan_flow`` calls."""
        ids = self.build_ids()
        header = make_header(2)
        batches = [
            [Packet(payload=b"XMALICIOUSSHELLCODEX", header=header, packet_id=0)],
            [Packet(payload=b"QQBACKDOORBEACONQQ", header=header, packet_id=1)],
            [Packet(payload=b"QQBACKDOORBEACONQQ bis", header=header, packet_id=2)],
        ]
        alerts = [[a.sid for a in ids.scan_flow(batch)] for batch in batches]
        assert alerts == [[], [1002], []]

    def test_evicted_flow_restarts_from_scratch(self):
        """A one-flow table forgets the split half it held when another
        flow arrives, and the forgotten flow alerts again once re-seen whole."""
        ids = self.build_ids()
        ids.reset_flows(capacity=1)
        one, two = make_header(1), make_header(2)
        packets = [
            Packet(payload=b"EVILPAYLOAD", header=one, packet_id=0),
            Packet(payload=b"other flow", header=two, packet_id=0),  # evicts flow 1
            Packet(payload=b"SIGNATURE", header=one, packet_id=1),  # state lost
            Packet(payload=b"EVILPAYLOADSIGNATURE", header=one, packet_id=2),
        ]
        alerts = ids.scan_flow(packets)
        assert [(a.sid, a.packet_id) for a in alerts] == [(1001, 2)]
        assert ids.service.evicted_flows == 2

    def test_one_call_alerts_like_one_call_per_packet(self):
        """Batching is invisible to correlation: split, multi-content and
        nocase rules over interleaved flows alert the same whether the
        traffic arrives in one ``scan_flow`` call or one call per packet."""
        nocase_rule = IDSRule(
            sid=2001,
            header=HeaderPattern(),
            contents=(b"evilpayloadsignature",),
            nocase=(True,),
        )
        one, two, three = make_header(1), make_header(2), make_header(3)
        packets = [
            Packet(payload=b"GET EVILPAY", header=one, packet_id=0),
            Packet(payload=b"XMALICIOUSSHELLCODEX", header=two, packet_id=0),
            Packet(payload=b"LOADSIGNATURE\r\n", header=one, packet_id=1),
            Packet(payload=b"QQBACKDOOR", header=two, packet_id=1),
            Packet(payload=b"EvIlPaYlOaDsIgNaTuRe", header=three, packet_id=0),
            Packet(payload=b"BEACONQQ", header=two, packet_id=2),
            Packet(payload=b"EVILPAYLOADSIGNATURE", header=one, packet_id=2),
        ]
        rules = [*self.build_ids().rules.values(), nocase_rule]
        batched, single = IntrusionDetectionSystem(rules), IntrusionDetectionSystem(rules)
        expected = batched.scan_flow(packets)
        assert [alert for packet in packets for alert in single.scan_flow([packet])] == expected
        assert sorted(alert.sid for alert in expected) == [1001, 1002, 2001, 2001]
        for counter in ("alerts_raised", "content_matches", "header_candidates", "payload_bytes"):
            assert getattr(single.stats, counter) == getattr(batched.stats, counter), counter

    def test_service_is_one_in_process_table(self):
        """The IDS builds a :class:`ScanService` and sizes its one table from
        ``reset_flows``."""
        ids = self.build_ids()
        assert type(ids.service) is ScanService
        assert ids.flow_scanner is ids.service.scanner
        ids.reset_flows(capacity=3)
        assert type(ids.service) is ScanService
        assert ids.flow_scanner.flows.capacity == 3

    def test_reset_flows_drops_state(self):
        ids = self.build_ids()
        header = make_header(5)
        ids.scan_flow([Packet(payload=b"EVILPAYLOAD", header=header, packet_id=0)])
        ids.reset_flows()
        alerts = ids.scan_flow([Packet(payload=b"SIGNATURE", header=header, packet_id=1)])
        assert alerts == []


# ----------------------------------------------------------------------
# hardware engine checkpointing
# ----------------------------------------------------------------------
class TestEngineCheckpointing:
    def test_resumed_engine_matches_contiguous_scan(self):
        """Suspend a flow mid-stream, resume on another engine, same matches
        as the automaton of the block's strings."""
        from tests.conftest import block_automaton

        ruleset = RuleSet(name="paper-example")
        for pattern in PAPER_EXAMPLE_PATTERNS:
            ruleset.add_pattern(pattern)
        program = compile_ruleset(ruleset, STRATIX_III)
        block = StringMatchingBlock(program.blocks[0])
        stream = b"xxshershe his"

        engine_a, engine_b = block.engines[0], block.engines[1]
        matched_offsets = []
        engine_a.start_packet(packet_id=7)
        for cycle, byte in enumerate(stream[:6]):
            match = engine_a.process_byte(byte, cycle)
            if match is not None:
                matched_offsets.append(match.end_offset)
        checkpoint = engine_a.export_flow_state()
        assert checkpoint.offset == 6

        engine_b.resume_flow(checkpoint, packet_id=8)
        for cycle, byte in enumerate(stream[6:], start=100):
            match = engine_b.process_byte(byte, cycle)
            if match is not None:
                matched_offsets.append(match.end_offset)

        expected = [offset for offset, _ in block_automaton(program.blocks[0]).match(stream)]
        assert sorted(matched_offsets) == sorted(set(expected))

    def test_export_requires_packet_in_flight(self, small_program):
        block = StringMatchingBlock(small_program.blocks[0])
        with pytest.raises(RuntimeError):
            block.engines[0].export_flow_state()
