"""Tests for the process-parallel shard executor and the checkpoint fixes.

Three families of guarantees are pinned down here:

* **equivalence** — :class:`repro.streaming.ParallelScanService` must report
  the byte-identical event stream, shard reports and checkpoint envelope as
  the serial :class:`ScanService` in every worker configuration, and a
  checkpoint taken from either front-end must restore into the other with
  cross-segment matches intact;
* **checkpoint correctness** — flow keys survive a JSON round trip with
  float-typed ports (the sharding/identity bug), and the flow table's
  created/evicted/restore accounting tells the truth;
* **the pipe protocol** — a scan is one request per worker carrying the
  payloads inline and each flow key once, idle workers still return their
  gauges, replies are compact tuples, and a failed or dead worker raises
  without desynchronising the pipes.
"""

import json

import pytest

from repro.backend import ScanState
from repro.core import compile_ruleset
from repro.fpga import STRATIX_III
from repro.ids import HeaderPattern, IDSRule, IntrusionDetectionSystem
from repro.rulesets import RuleSet
from repro.streaming import FlowEntry, FlowKey, FlowTable, ParallelScanService, ScanService
from repro.traffic import FiveTuple, Packet, TrafficGenerator

WORKER_COUNTS = (1, 2, 4)


def make_key(n: int = 0) -> FlowKey:
    return FlowKey(f"10.0.0.{n}", "192.168.0.1", 40000 + n, 80, "tcp")


def make_header(n: int = 0) -> FiveTuple:
    return FiveTuple(f"10.0.0.{n}", "192.168.0.1", 40000 + n, 80, "tcp")


@pytest.fixture(scope="module")
def crafted_ruleset() -> RuleSet:
    ruleset = RuleSet(name="crafted-parallel")
    ruleset.add_pattern(b"EVILPAYLOADSIGNATURE")
    ruleset.add_pattern(b"lowercasesignature")
    return ruleset


@pytest.fixture(scope="module")
def crafted_program(crafted_ruleset):
    return compile_ruleset(crafted_ruleset, STRATIX_III)


# ----------------------------------------------------------------------
# satellite bugfix: FlowKey type coercion on restore
# ----------------------------------------------------------------------
class TestFlowKeyCoercion:
    def test_coerced_constructor_canonicalises_types(self):
        key = FlowKey.coerced("10.0.0.1", "192.168.0.1", 40001.0, 80.0, "tcp")
        assert key == make_key(1)
        assert isinstance(key.src_port, int) and isinstance(key.dst_port, int)
        assert key.encode() == make_key(1).encode()

    def test_from_header_coerces_port_types(self):
        header = FiveTuple("10.0.0.1", "192.168.0.1", 40001.0, 80.0, "tcp")
        assert FlowKey.from_header(header) == make_key(1)

    def test_from_dict_coerces_float_ports(self):
        entry = FlowEntry(key=make_key(2), states=(ScanState(),))
        data = entry.as_dict()
        data["key"][2] = float(data["key"][2])  # what a JSON writer may emit
        data["key"][3] = float(data["key"][3])
        restored = FlowEntry.from_dict(data)
        assert restored.key == make_key(2)
        assert restored.key.encode() == make_key(2).encode()

    def test_float_port_checkpoint_resumes_flow_and_sharding(
        self, crafted_program, crafted_ruleset
    ):
        """The regression proper: a float-port checkpoint used to produce a
        key encoding ``"80.0"``, so the restored flow neither resumed nor
        landed on the live traffic's shard."""
        pattern = crafted_ruleset[0].pattern
        header = make_header(3)
        service = ScanService(crafted_program, num_shards=4)
        assert service.submit(Packet(payload=pattern[:9], header=header, packet_id=0)) == []

        snapshot = json.loads(json.dumps(service.checkpoint()))
        for shard_data in snapshot["shards"]:
            for flow in shard_data["flows"]:
                flow["key"][2] = float(flow["key"][2])
                flow["key"][3] = float(flow["key"][3])

        resumed = ScanService(crafted_program, num_shards=4)
        resumed.restore(snapshot)
        live_key = FlowKey.from_header(header)
        restored_key = resumed.engines[resumed.shard_for(live_key)].flows.keys()[0]
        assert restored_key == live_key
        assert resumed.shard_for(restored_key) == service.shard_for(live_key)
        matches = resumed.submit(Packet(payload=pattern[9:], header=header, packet_id=1))
        assert [m.string_number for m in matches] == [0]


# ----------------------------------------------------------------------
# satellite bugfix: flow-table statistics accounting
# ----------------------------------------------------------------------
class TestFlowTableAccounting:
    @staticmethod
    def entry(n: int) -> FlowEntry:
        return FlowEntry(key=make_key(n), states=(ScanState(),))

    def test_insert_overwrite_does_not_count_as_created(self):
        table = FlowTable(capacity=4)
        table.insert(self.entry(1))
        table.insert(self.entry(1))  # overwrite, not a new flow
        assert len(table) == 1
        assert table.stats.created == 1
        table.insert(self.entry(2))
        assert table.stats.created == 2

    def test_restore_counts_created(self):
        table = FlowTable(capacity=8)
        for n in range(3):
            table.insert(self.entry(n))
        restored = FlowTable.restore(table.checkpoint())
        assert restored.stats.created == 3
        assert restored.stats.evicted == 0
        assert restored.stats.restore_dropped == 0

    def test_restore_overflow_counts_drops_and_invokes_on_evict(self):
        table = FlowTable(capacity=8)
        for n in range(5):
            table.insert(self.entry(n))
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
# tentpole: parallel/serial equivalence
# ----------------------------------------------------------------------
class TestParallelEquivalence:
    def test_randomized_traffic_identical_events_and_reports(self, small_ruleset):
        """Serial vs every worker count, over two consecutive batches (state
        must carry across scan() calls) — all through the shared harness."""
        from tests.conftest import assert_equivalent_events

        generator = TrafficGenerator(small_ruleset, seed=47)
        flows = generator.flows(14, num_packets=4, split_patterns=1, segment_bytes=90)
        packets = TrafficGenerator.interleave(flows)
        reference = assert_equivalent_events(
            small_ruleset,
            packets,
            backends=("dtp",),
            worker_counts=(None,) + WORKER_COUNTS,
            sources=("memory",),
            num_shards=4,
            batches=2,
        )
        assert reference.events, "boundary-split flows should produce events"
        assert reference.stats["cross_segment_matches"] > 0

        # segments far past an MTU ride the request as they are
        large = TrafficGenerator.interleave(
            generator.flows(2, num_packets=3, split_patterns=1, segment_bytes=4096)
            + generator.flows(2, num_packets=3, split_patterns=1, segment_bytes=65536)
        )
        reference = assert_equivalent_events(
            small_ruleset,
            large,
            backends=("dtp",),
            worker_counts=(None, 2, 4),
            sources=("memory",),
            num_shards=4,
        )
        assert reference.stats["cross_segment_matches"] > 0

    def test_submit_matches_serial_submit(self, crafted_program, crafted_ruleset):
        pattern = crafted_ruleset[0].pattern
        header = make_header(4)
        serial = ScanService(crafted_program, num_shards=2)
        with ParallelScanService(crafted_program, num_shards=2, workers=2) as parallel:
            for packet_id, payload in enumerate((pattern[:6], pattern[6:])):
                packet = Packet(payload=payload, header=header, packet_id=packet_id)
                assert parallel.submit(packet) == serial.submit(packet)

    def test_nocase_events_identical(self, crafted_ruleset):
        from tests.conftest import assert_equivalent_events

        header = make_header(5)
        packets = [
            Packet(payload=b"xx LowerCase", header=header, packet_id=0),
            Packet(payload=b"Signature yy", header=header, packet_id=1),
        ]
        reference = assert_equivalent_events(
            crafted_ruleset,
            packets,
            backends=("dtp", "dense"),
            worker_counts=(None, 2),
            sources=("memory",),
            num_shards=2,
            track_nocase=True,
        )
        assert any(event.lowered for event in reference.events)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_serial_checkpoint_restores_into_parallel(
        self, crafted_program, crafted_ruleset, workers
    ):
        pattern = crafted_ruleset[0].pattern
        header = make_header(6)
        serial = ScanService(crafted_program, num_shards=2)
        assert serial.submit(Packet(payload=pattern[:9], header=header, packet_id=0)) == []
        snapshot = serial.checkpoint()

        with ParallelScanService(crafted_program, num_shards=2, workers=workers) as parallel:
            parallel.restore(snapshot)
            matches = parallel.submit(
                Packet(payload=pattern[9:], header=header, packet_id=1)
            )
            assert [m.string_number for m in matches] == [0]
            # the match straddles the checkpoint boundary
            assert matches[0].end_offset == len(pattern)
            assert parallel.cross_segment_matches == 1

    def test_parallel_checkpoint_restores_into_serial(
        self, crafted_program, crafted_ruleset
    ):
        pattern = crafted_ruleset[0].pattern
        header = make_header(7)
        with ParallelScanService(crafted_program, num_shards=2, workers=2) as parallel:
            assert parallel.submit(
                Packet(payload=pattern[:9], header=header, packet_id=0)
            ) == []
            snapshot = parallel.checkpoint()

        serial = ScanService(crafted_program, num_shards=2)
        serial.restore(snapshot)
        matches = serial.submit(Packet(payload=pattern[9:], header=header, packet_id=1))
        assert [m.string_number for m in matches] == [0]
        assert serial.cross_segment_matches == 1

    def test_parallel_checkpoint_across_worker_counts(
        self, crafted_program, crafted_ruleset
    ):
        """num_shards is the checkpoint contract; the worker count is not."""
        pattern = crafted_ruleset[0].pattern
        header = make_header(8)
        with ParallelScanService(crafted_program, num_shards=4, workers=2) as first:
            first.submit(Packet(payload=pattern[:7], header=header, packet_id=0))
            snapshot = first.checkpoint()
        with ParallelScanService(crafted_program, num_shards=4, workers=4) as second:
            second.restore(snapshot)
            matches = second.submit(
                Packet(payload=pattern[7:], header=header, packet_id=1)
            )
        assert [m.string_number for m in matches] == [0]

    def test_restore_rejects_shard_mismatch(self, crafted_program):
        snapshot = ScanService(crafted_program, num_shards=2).checkpoint()
        with ParallelScanService(crafted_program, num_shards=3, workers=1) as parallel:
            with pytest.raises(ValueError):
                parallel.restore(snapshot)

    def test_worker_count_validation(self, crafted_program):
        with pytest.raises(ValueError):
            ParallelScanService(crafted_program, num_shards=2, workers=0)
        with pytest.raises(ValueError):
            ParallelScanService(crafted_program, num_shards=2, workers=3)
        with pytest.raises(ValueError):
            ParallelScanService(crafted_program, num_shards=0)

    def test_closed_service_rejects_scans(self, crafted_program):
        service = ParallelScanService(crafted_program, num_shards=2, workers=1)
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError):
            service.scan([])


# ----------------------------------------------------------------------
# IDS over the parallel executor
# ----------------------------------------------------------------------
class TestParallelIDS:
    @staticmethod
    def build_ids(workers=None) -> IntrusionDetectionSystem:
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
            IDSRule(
                sid=2001,
                header=HeaderPattern(),
                contents=(b"evilpayloadsignature",),
                nocase=(True,),
            ),
        ]
        return IntrusionDetectionSystem(rules, workers=workers)

    @staticmethod
    def traffic():
        one, two, three = make_header(1), make_header(2), make_header(3)
        return [
            Packet(payload=b"GET EVILPAY", header=one, packet_id=0),
            Packet(payload=b"XMALICIOUSSHELLCODEX", header=two, packet_id=0),
            Packet(payload=b"LOADSIGNATURE\r\n", header=one, packet_id=1),
            Packet(payload=b"QQBACKDOOR", header=two, packet_id=1),
            Packet(payload=b"EvIlPaYlOaDsIgNaTuRe", header=three, packet_id=0),
            Packet(payload=b"BEACONQQ", header=two, packet_id=2),
            Packet(payload=b"EVILPAYLOADSIGNATURE", header=one, packet_id=2),
        ]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_alerts_match_serial_scan_flow(self, workers):
        serial = self.build_ids()
        expected = serial.scan_flow(self.traffic())
        assert expected, "the workload must actually raise alerts"
        with self.build_ids(workers=workers) as parallel:
            alerts = parallel.scan_flow(self.traffic())
            assert alerts == expected
            assert parallel.stats.alerts_raised == serial.stats.alerts_raised
            assert parallel.stats.content_matches == serial.stats.content_matches
            assert parallel.stats.header_candidates == serial.stats.header_candidates
            assert parallel.stats.payload_bytes == serial.stats.payload_bytes

    def test_eviction_resets_flow_state_like_serial(self):
        """workers=1 shares the serial path's single LRU table semantics, so
        alert behaviour under eviction pressure must match exactly —
        including the re-alert after a flow is forgotten and re-seen."""
        serial = self.build_ids()
        serial.reset_flows(capacity=1)
        with self.build_ids(workers=1) as parallel:
            parallel.reset_flows(capacity=1)  # pool is rebuilt lazily at this size

            one, two = make_header(1), make_header(2)
            packets = [
                Packet(payload=b"EVILPAYLOAD", header=one, packet_id=0),
                Packet(payload=b"other flow", header=two, packet_id=0),  # evicts flow 1
                Packet(payload=b"SIGNATURE", header=one, packet_id=1),  # no alert: state lost
                Packet(payload=b"EVILPAYLOADSIGNATURE", header=one, packet_id=2),
            ]
            expected = serial.scan_flow(packets)
            alerts = parallel.scan_flow(packets)
            assert alerts == expected
            assert [a.sid for a in alerts].count(1001) == 1

    def test_state_persists_across_scan_flow_calls(self):
        """Multi-content completion and once-per-flow alerting must span
        separate scan_flow calls, exactly like the serial FlowEntry state
        (the worker-side automaton state already does)."""
        serial = self.build_ids()
        with self.build_ids(workers=2) as parallel:
            header = make_header(2)
            batches = [
                [Packet(payload=b"XMALICIOUSSHELLCODEX", header=header, packet_id=0)],
                [Packet(payload=b"QQBACKDOORBEACONQQ", header=header, packet_id=1)],
                [Packet(payload=b"QQBACKDOORBEACONQQ bis", header=header, packet_id=2)],
            ]
            per_call = []
            for batch in batches:
                expected = serial.scan_flow(batch)
                assert parallel.scan_flow(batch) == expected
                per_call.append(expected)
        # the rule completed on the second call and never re-alerted
        assert [[a.sid for a in alerts] for alerts in per_call] == [[], [1002], []]

    def test_service_follows_workers(self):
        """One prefilter either way: a single in-process table without
        ``workers``, one shard per worker with it (what keeps every batch one
        lane-kernel crossing and the eviction order the arrival order)."""
        serial = self.build_ids().service
        assert isinstance(serial, ScanService)
        assert (serial.num_shards, serial.num_workers) == (1, None)
        with self.build_ids(workers=2) as ids:
            assert isinstance(ids.service, ParallelScanService)
            assert (ids.service.num_shards, ids.service.num_workers) == (2, 2)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            self.build_ids(workers=0)


# ----------------------------------------------------------------------
# satellite bugfix: a dead worker must raise, not hang the dispatcher
# ----------------------------------------------------------------------
def test_dead_worker_raises_instead_of_hanging(crafted_program):
    from repro.streaming import WorkerCrashedError

    packets = [
        Packet(payload=b"EVILPAYLOADSIGNATURE", header=make_header(n), packet_id=0)
        for n in range(4)
    ]
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        service.scan(packets)  # healthy round first
        victim = service._workers[0]
        victim.process.kill()
        victim.process.join()
        with pytest.raises(WorkerCrashedError, match=r"worker 0 \(shards \[0, 2\]\)"):
            service.scan(packets)


def test_crash_error_names_worker_and_shards(crafted_program):
    from repro.streaming import WorkerCrashedError

    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        victim = service._workers[1]
        victim.process.kill()
        victim.process.join()
        with pytest.raises(WorkerCrashedError) as excinfo:
            service.stats()
        message = str(excinfo.value)
        assert "worker 1" in message and "shards [1, 3]" in message
        assert "exit code" in message


# ----------------------------------------------------------------------
# the one data plane: a scan is one pipe request per worker
# ----------------------------------------------------------------------
def header_on_shard(service, shard: int, skip: int = 0) -> FiveTuple:
    """The ``skip``-th :func:`make_header` whose flow hashes to ``shard``."""
    found = (
        header
        for header in map(make_header, range(256))
        if service.shard_for(FlowKey.from_header(header)) == shard
    )
    for _ in range(skip):
        next(found)
    return next(found)


def record_calls(monkeypatch, service, name: str) -> list:
    """Wrap ``service.<name>`` so every call's positional arguments are kept."""
    calls = []
    original = getattr(service, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(service, name, spy)
    return calls


@pytest.mark.parametrize("size", (0, 1, 1500, 65536, 1 << 20))
def test_payload_of_any_size_rides_the_request(crafted_program, crafted_ruleset, size):
    """No slot size to fit: a payload of any length crosses in the request,
    and a signature split across it and the next segment still matches."""
    pattern = crafted_ruleset[0].pattern
    filler = b"x" * size
    if size >= len(pattern):
        filler = filler[: size - len(pattern)] + pattern
    header = make_header(9)
    packets = [
        Packet(payload=filler + pattern[:9], header=header, packet_id=0),
        Packet(payload=pattern[9:], header=header, packet_id=1),
    ]
    serial = ScanService(crafted_program, num_shards=2)
    expected = [serial.submit(packet) for packet in packets]
    with ParallelScanService(crafted_program, num_shards=2, workers=2) as parallel:
        assert [parallel.submit(packet) for packet in packets] == expected
    assert sum(map(len, expected)) == 1 + (size >= len(pattern))
    assert expected[1][0].end_offset == size + len(pattern)


def test_flow_keys_cross_to_each_worker_once(crafted_program, monkeypatch):
    packets = [
        Packet(payload=b"segment", header=make_header(n), packet_id=0) for n in range(8)
    ]
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        sent = record_calls(monkeypatch, service, "_send")
        service.scan(packets)
        service.scan(packets)
    first, second = sent[:2], sent[2:]
    assert [command for _, (command, _) in sent] == ["scan"] * 4
    shipped = [key for _, (_, request) in first for key in request["new_keys"].values()]
    assert len(shipped) == 8
    assert set(shipped) == {FlowKey.from_header(make_header(n)) for n in range(8)}
    assert all(request["new_keys"] == {} for _, (_, request) in second)
    assert sum(len(request["items"]) for _, (_, request) in second) == len(packets)


def test_flow_ids_are_service_wide_and_stable(crafted_program):
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        service.scan([Packet(payload=b"a", header=make_header(n), packet_id=0) for n in range(5)])
        ids = dict(service._flow_ids)
        service.scan([Packet(payload=b"b", header=make_header(n), packet_id=1) for n in range(7)])
        assert sorted(ids.values()) == list(range(5))
        assert {key: service._flow_ids[key] for key in ids} == ids
        assert sorted(service._flow_ids.values()) == list(range(7))


def test_scan_request_is_shard_major_with_the_payload_inline(crafted_program):
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        packets = [
            Packet(payload=bytes([65 + n]) * (n + 1), header=make_header(n), packet_id=n)
            for n in range(12)
        ]
        _, batches = service._group_by_shard(packets)
        handle = service._workers[1]
        command, request = service._scan_request(handle, batches)
    assert command == "scan"
    expected = [
        (shard, service._flow_ids[key], packet_id, payload)
        for shard in handle.shards
        for key, payload, packet_id in batches[shard][1]
    ]
    assert request["items"] == expected
    by_id = {packet.packet_id: packet.payload for packet in packets}
    assert all(payload is by_id[packet_id] for _, _, packet_id, payload in request["items"])


def test_idle_worker_reports_its_gauges_with_the_scan(crafted_program, monkeypatch):
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        busy, idle = header_on_shard(service, 0), header_on_shard(service, 1)
        service.scan([Packet(payload=b"first", header=idle, packet_id=0)])
        exchanges = record_calls(monkeypatch, service, "_exchange")
        result = service.scan([Packet(payload=b"second", header=busy, packet_id=0)])
    assert len(exchanges) == 1 and len(exchanges[0][0]) == 2
    assert [report.shard for report in result.shards] == [0, 1, 2, 3]
    assert [report.packets for report in result.shards] == [1, 0, 0, 0]
    assert [report.active_flows for report in result.shards] == [1, 1, 0, 0]


def test_submit_is_one_exchange_with_one_worker(crafted_program, monkeypatch):
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        header = header_on_shard(service, 3)
        exchanges = record_calls(monkeypatch, service, "_exchange")
        service.submit(Packet(payload=b"payload", header=header, packet_id=0))
    ((handles, requests),) = exchanges
    assert [handle.index for handle in handles] == [1]
    ((command, request),) = requests
    assert command == "scan"
    assert [item[0] for item in request["items"]] == [3]


def test_replies_are_compact_match_tuples(crafted_program, crafted_ruleset):
    pattern = crafted_ruleset[0].pattern
    with ParallelScanService(crafted_program, num_shards=2, workers=1) as service:
        header = header_on_shard(service, 0)
        _, batches = service._group_by_shard(
            [Packet(payload=b"::" + pattern, header=header, packet_id=0)]
        )
        (handle,) = service._workers
        (reply,) = service._exchange([handle], [service._scan_request(handle, batches)])
    compact, matches, evicted, evictions, active = reply[0]
    assert compact == [[(2 + len(pattern), 0, False)]]
    assert (matches, evicted, evictions, active) == (1, 0, [], 1)
    assert reply[1] == ([], 0, 0, [], 0)


def test_many_consecutive_scans_match_serial(crafted_program, crafted_ruleset):
    """Dozens of small requests back to back, state carried across each."""
    pattern = crafted_ruleset[0].pattern
    pieces = [pattern[index : index + 3] for index in range(0, len(pattern), 3)]
    batches = [
        [Packet(payload=piece, header=make_header(flow), packet_id=index)]
        for index, piece in enumerate(pieces * 3)
        for flow in range(4)
    ]
    serial = ScanService(crafted_program, num_shards=4)
    expected = [serial.scan(batch).events for batch in batches]
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as parallel:
        assert [parallel.scan(batch).events for batch in batches] == expected
    assert sum(map(len, expected)) == 4 * 3


def test_empty_scan_answers_for_every_shard(crafted_program):
    serial = ScanService(crafted_program, num_shards=4).scan([])
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as parallel:
        result = parallel.scan([])
    assert (result.events, result.packets, result.bytes_scanned) == ([], 0, 0)
    assert result.shards == serial.shards and len(result.shards) == 4


def test_worker_error_reply_keeps_the_pipes_in_sync(crafted_program, crafted_ruleset):
    pattern = crafted_ruleset[0].pattern
    packets = [Packet(payload=pattern, header=make_header(n), packet_id=0) for n in range(4)]
    expected = ScanService(crafted_program, num_shards=4).scan(packets).events
    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        with pytest.raises(RuntimeError) as excinfo:
            service._request_all("bogus")
        message = str(excinfo.value)
        assert "shard worker 0 failed" in message and "shard worker 1 failed" in message
        assert "unknown command 'bogus'" in message
        assert service.scan(packets).events == expected


def test_large_payload_to_a_dead_worker_raises(crafted_program):
    from repro.streaming import WorkerCrashedError

    with ParallelScanService(crafted_program, num_shards=4, workers=2) as service:
        header = header_on_shard(service, 1)
        victim = service._workers[1]
        victim.process.kill()
        victim.process.join()
        with pytest.raises(WorkerCrashedError, match=r"worker 1 \(shards \[1, 3\]\)"):
            service.submit(Packet(payload=b"y" * (1 << 20), header=header, packet_id=0))


def test_pool_forks_when_the_platform_can(monkeypatch):
    import multiprocessing

    from repro.streaming.executor import _pick_context

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"])
    assert _pick_context().get_start_method() == "fork"
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _pick_context() is multiprocessing.get_context()
