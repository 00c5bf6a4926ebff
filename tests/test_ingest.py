"""Live ingestion front-end: every source must feed the scan service the
same bytes an offline replay would, so the event streams stay identical.

The socket tests run the listener and its client inside one event loop;
the captured per-batch packets (``on_batch``) are then re-scanned offline
through a fresh service and compared byte for byte — segmentation,
flow-absolute offsets and cross-segment state all have to line up.
"""

from __future__ import annotations

import asyncio
import io
import socket
import threading
import time

import pytest

from repro.backend import get_backend
from repro.capture import CaptureError, replay_scan, write_packets
from repro.rulesets import RuleSet
from repro.streaming import (
    LiveIngestor,
    PcapTailSource,
    ScanService,
    TcpListenerSource,
    UdpListenerSource,
)


@pytest.fixture(scope="module")
def workload():
    from tests.conftest import equivalence_workload

    return equivalence_workload(seed=11)


@pytest.fixture(scope="module")
def dense_program(workload):
    from tests.conftest import build_program

    return build_program(workload[0], "dense")


def crafted_program():
    ruleset = RuleSet(name="crafted-ingest")
    ruleset.add_pattern(b"EVILPAYLOADSIGNATURE")
    return get_backend("dense").compile(ruleset.patterns)


def single_record(packet) -> bytes:
    """One pcap record's raw bytes (global header stripped)."""
    buffer = io.BytesIO()
    write_packets(buffer, [packet])
    return buffer.getvalue()[24:]


# ----------------------------------------------------------------------
# pcap tail: the replayed-live acceptance path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capacity", [4096, 2])
@pytest.mark.parametrize("batch_packets", [256, 5])
def test_pcap_tail_serve_equals_offline_replay(
    tmp_path, workload, dense_program, batch_packets, capacity
):
    """Serving a capture through the live loop — in one batch or many, with
    room for every flow or under eviction pressure — reports exactly the
    events an offline replay of the same file does."""
    from tests.conftest import renumbered

    _, packets = workload
    path = tmp_path / "workload.pcap"
    with open(path, "wb") as handle:
        write_packets(handle, renumbered(packets))

    with ScanService(dense_program, flow_capacity=capacity) as service:
        ingestor = LiveIngestor(service, batch_packets=batch_packets)
        report = ingestor.serve(PcapTailSource(str(path)))
    with ScanService(dense_program, flow_capacity=capacity) as offline:
        with open(path, "rb") as handle:
            reference = replay_scan(handle, offline)

    assert report.stop_reason == "source_exhausted"
    assert report.packets == reference.packets
    assert report.payload_bytes == reference.bytes_scanned
    assert report.events == reference.events
    assert service.stats() == offline.stats()
    # two slots for six interleaved flows: every split string is forgotten,
    # and what is compared is the eviction record instead
    assert report.events or service.evicted_flows, "equivalence is vacuous"
    if batch_packets == 5:
        assert report.batches > 1  # state genuinely carried across batches


def test_pcap_tail_follow_picks_up_appended_records(tmp_path, workload, dense_program):
    """``--follow``: records appended while serving are scanned as they
    land, and the final event stream equals one offline pass."""
    from tests.conftest import renumbered

    _, packets = workload
    packets = renumbered(packets)
    head, tail = packets[: len(packets) // 2], packets[len(packets) // 2 :]
    path = tmp_path / "growing.pcap"
    with open(path, "wb") as handle:
        write_packets(handle, head)

    with ScanService(dense_program) as service:
        ingestor = LiveIngestor(
            service, batch_packets=4, max_packets=len(packets)
        )
        source = PcapTailSource(str(path), follow=True, poll_interval=0.02)
        box = {}

        def run():
            box["report"] = ingestor.serve(source)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.2)  # let the head drain so the append is a real tail
        with open(path, "ab") as handle:
            for packet in tail:
                handle.write(single_record(packet))
        thread.join(timeout=10)
        assert not thread.is_alive()

    report = box["report"]
    with ScanService(dense_program) as offline:
        reference = offline.scan(packets)
    assert report.stop_reason == "max_packets"
    assert report.packets == len(packets)
    assert report.events == reference.events
    assert source.stats()["records"] == len(packets)


def test_pcap_tail_rejects_pcapng(tmp_path, workload):
    _, packets = workload
    path = tmp_path / "capture.pcapng"
    with open(path, "wb") as handle:
        write_packets(handle, packets, fmt="pcapng")
    source = PcapTailSource(str(path))
    with pytest.raises(CaptureError, match="pcapng"):
        asyncio.run(source.run(lambda header, payload, *rest: None))


def test_pcap_tail_truncated_record_raises(tmp_path, workload):
    from tests.conftest import renumbered

    _, packets = workload
    path = tmp_path / "cut.pcap"
    with open(path, "wb") as handle:
        write_packets(handle, renumbered(packets[:2]))
    data = path.read_bytes()
    path.write_bytes(data[:-7])  # sever the last record mid-payload
    source = PcapTailSource(str(path))
    with pytest.raises(CaptureError, match="truncated"):
        asyncio.run(source.run(lambda header, payload, *rest: None))


# ----------------------------------------------------------------------
# socket listeners
# ----------------------------------------------------------------------
def serve_with_client(source, client, *, service, **ingest_kwargs):
    """Run the ingestion loop and ``client(source)`` in one event loop;
    returns ``(report, captured packets)``."""
    captured = []
    ingest_kwargs.setdefault("on_batch", lambda result, todo: captured.extend(todo))
    ingestor = LiveIngestor(service, **ingest_kwargs)

    async def main():
        run_task = asyncio.create_task(ingestor.run(source))
        await asyncio.wait_for(source.ready(), timeout=5)
        await client(source)
        return await asyncio.wait_for(run_task, timeout=10)

    return asyncio.run(main()), captured


def test_tcp_listener_matches_offline_scan_of_captured_segments():
    """A pattern split across TCP sends is matched with flow-absolute
    offsets, and re-scanning the captured segments offline reproduces the
    live events exactly."""
    program = crafted_program()

    async def client(source):
        reader, writer = await asyncio.open_connection("127.0.0.1", source.bound_port)
        for segment in (b"lead-in EVILPAY", b"LOADSIGNATURE trail"):
            writer.write(segment)
            await writer.drain()
            await asyncio.sleep(0.1)  # keep the two sends two reads
        writer.close()
        await writer.wait_closed()

    with ScanService(program) as service:
        report, captured = serve_with_client(
            TcpListenerSource(port=0),
            client,
            service=service,
            idle_timeout=0.5,
        )

    assert report.stop_reason == "idle_timeout"
    assert report.packets == len(captured)
    assert len(report.events) == 1
    event = report.events[0]
    assert event.flow.protocol == "tcp"
    # ...EVILPAYLOADSIGNATURE ends at flow offset 15 + 13 = 28
    assert event.end_offset == 28

    with ScanService(program) as offline:
        reference = offline.scan(captured)
    assert report.events == reference.events


def test_udp_listener_matches_offline_scan_of_datagrams():
    """Datagrams from one peer are one flow: state spans datagrams."""
    program = crafted_program()

    async def client(source):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.connect(("127.0.0.1", source.bound_port))
            for datagram in (b"EVILPAYLOAD", b"SIGNATURE", b"benign"):
                sock.send(datagram)
                await asyncio.sleep(0.05)
        finally:
            sock.close()

    with ScanService(program) as service:
        report, captured = serve_with_client(
            UdpListenerSource(port=0),
            client,
            service=service,
            max_packets=3,
        )

    assert report.stop_reason == "max_packets"
    assert report.packets == 3
    assert [len(packet.payload) for packet in captured] == [11, 9, 6]
    assert len(report.events) == 1
    event = report.events[0]
    assert event.flow.protocol == "udp"
    assert event.packet_id == 1  # the match completes in the second datagram
    assert event.end_offset == 20

    with ScanService(program) as offline:
        reference = offline.scan(captured)
    assert report.events == reference.events


def test_idle_timeout_stops_a_silent_listener():
    program = crafted_program()

    async def client(source):
        return None  # never connect

    with ScanService(program) as service:
        report, captured = serve_with_client(
            TcpListenerSource(port=0), client, service=service, idle_timeout=0.2
        )
    assert report.stop_reason == "idle_timeout"
    assert report.packets == 0 and not captured
    assert report.events == []
    assert report.source_stats == {"connections": 0, "segments": 0}


# ----------------------------------------------------------------------
# draining the arrival queue: batch shapes, counted, not timed
# ----------------------------------------------------------------------
class BurstSource:
    """Emits every segment synchronously on its first step, then ends."""

    kind = "burst"

    def __init__(self, packets):
        self.packets = packets

    def stats(self):
        return {"segments": len(self.packets)}

    async def run(self, emit):
        for packet in self.packets:
            emit(packet.header, packet.payload)


class RecordingPipeline:
    """A scan service that also records the size of every batch it scans."""

    def __init__(self, service, on_scan=None):
        self.service = service
        self.batches = []
        self.on_scan = on_scan

    def scan(self, packets):
        self.batches.append(len(packets))
        if self.on_scan is not None:
            self.on_scan(len(self.batches))
        return self.service.scan(packets)

    def flush(self):
        return self.service.flush()


def burst(count: int = 1000):
    """``count`` segments round-robin over 16 flows; every flow's stream
    splits the signature across two consecutive segments."""
    from repro.traffic import FiveTuple, Packet

    pieces = (b"..EVILPAY", b"LOADSIGNATURE..", b"filler bytes ")
    return [
        Packet(
            payload=pieces[(index // 16) % 3],
            header=FiveTuple(f"10.9.0.{index % 16}", "10.9.1.1", 7000 + index % 16, 80, "tcp"),
            packet_id=index,
        )
        for index in range(count)
    ]


def test_a_synchronous_burst_fills_whole_batches(monkeypatch):
    """1 000 segments already queued: full 64-packet batches plus the
    remainder, one await per wake-up (not one per segment), and the events
    of one offline scan."""
    program = crafted_program()
    waits = []
    wait_for = asyncio.wait_for

    def counting(awaitable, timeout):
        waits.append(timeout)
        return wait_for(awaitable, timeout)

    monkeypatch.setattr(asyncio, "wait_for", counting)
    packets = burst()
    with ScanService(program) as service:
        pipeline = RecordingPipeline(service)
        report = LiveIngestor(pipeline, batch_packets=64).serve(BurstSource(packets))
    with ScanService(program) as offline:
        reference = offline.scan(packets)

    assert pipeline.batches == [64] * 15 + [40]
    assert report.stop_reason == "source_exhausted"
    assert (report.packets, report.batches) == (1000, 16)
    assert report.events == reference.events and report.events
    # a wake-up per batch, one that flushes the remainder, one that sees the end
    assert len(waits) <= len(pipeline.batches) + 2


def test_max_packets_stops_mid_drain():
    program = crafted_program()
    packets = burst()
    with ScanService(program) as service:
        pipeline = RecordingPipeline(service)
        report = LiveIngestor(pipeline, batch_packets=64, max_packets=100).serve(
            BurstSource(packets)
        )
    with ScanService(program) as offline:
        reference = offline.scan(packets[:100])
    assert pipeline.batches == [64, 36]
    assert report.stop_reason == "max_packets"
    assert report.packets == 100
    assert report.events == reference.events and report.events


class PausingSource:
    """Emits three segments, pauses, then emits the rest."""

    kind = "pausing"

    def __init__(self, packets, pause):
        self.packets = packets
        self.pause = pause
        self.arrivals = []

    def stats(self):
        return {"segments": len(self.arrivals)}

    async def run(self, emit):
        for index, packet in enumerate(self.packets):
            if index == 3:
                await asyncio.sleep(self.pause)
            self.arrivals.append(time.monotonic())
            emit(packet.header, packet.payload)


def test_batch_idle_closes_an_open_batch():
    """A 5 ms ``batch_idle``, not the 50 ms tick, decides when an open batch
    is quiet: three segments, a 40 ms pause, one more — the three are
    scanned as a batch of their own before the fourth arrives."""
    program = crafted_program()
    scanned_at = []
    source = PausingSource(burst(4), pause=0.04)
    with ScanService(program) as service:
        pipeline = RecordingPipeline(
            service, on_scan=lambda batches: scanned_at.append(time.monotonic())
        )
        report = LiveIngestor(pipeline, batch_packets=64, batch_idle=0.005).serve(source)
    assert pipeline.batches == [3, 1]
    assert scanned_at[0] < source.arrivals[3]
    assert report.stop_reason == "source_exhausted" and report.packets == 4


def test_a_follow_mode_tail_still_idle_flushes_a_partial_batch(
    tmp_path, workload, dense_program
):
    """Ten records and a 64-packet cap: the quiet wire closes the batch
    while the source is still live — the scan of that batch appends five
    more records, which arrive as a second batch."""
    from tests.conftest import renumbered

    packets = renumbered(workload[1])[:15]
    path = tmp_path / "growing.pcap"
    with open(path, "wb") as handle:
        write_packets(handle, packets[:10])

    def append_tail(batches: int) -> None:
        if batches == 1:
            with open(path, "ab") as handle:
                for packet in packets[10:]:
                    handle.write(single_record(packet))

    with ScanService(dense_program) as service:
        pipeline = RecordingPipeline(service, on_scan=append_tail)
        report = LiveIngestor(pipeline, batch_packets=64, max_packets=15).serve(
            PcapTailSource(str(path), follow=True, poll_interval=0.01)
        )
    with ScanService(dense_program) as offline:
        reference = offline.scan(packets)
    assert pipeline.batches == [10, 5]
    assert report.stop_reason == "max_packets"
    assert report.events == reference.events
