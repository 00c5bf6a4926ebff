"""Live asyncio ingestion: feed the scan services from sources that never end.

Everything upstream of this module replays *finished* artifacts — in-memory
packet lists, generator traffic, capture files.  A deployed DPI node instead
sits on sockets and growing capture files, serving thousands of concurrent
connections.  This module is that front-end:

* :class:`TcpListenerSource` — an ``asyncio`` TCP listener.  Every accepted
  connection becomes one flow (its real peer/local 5-tuple); every
  ``read()`` becomes one flow segment, so cross-segment matches work
  exactly as they do for replayed traffic.
* :class:`UdpListenerSource` — a datagram endpoint; each datagram is one
  segment of its sender's flow (datagram boundaries are preserved, so
  ingestion is deterministic per sender).
* :class:`PcapTailSource` — an incremental classic-pcap reader built on the
  :mod:`repro.capture` record format: it decodes records as they appear and
  (with ``follow=True``) keeps polling the file for appended records,
  ``tail -f`` style.  Frames that cannot be decoded are skipped and counted,
  mirroring :func:`repro.capture.replay.load_packets`.

:class:`LiveIngestor` drives one source into any pipeline — a scan service,
the IDS, or a composed :class:`repro.api.Session`.
``emit`` builds each segment's one :class:`~repro.traffic.Packet`, which
gets its sequential id in arrival order when a batch takes it — the same
contract capture replay makes — and segments are micro-batched
(``batch_packets`` cap, flushed early once the wire has been quiet for
``batch_idle`` seconds) so a batch pays its dispatch and its one backend
crossing over real batches.  The
loop awaits the arrival queue only when it is empty: one wake-up takes
everything already queued (``get_nowait``) up to the batch's room and the
``max_packets`` limit, so a burst costs one await, not one per segment, and
batch boundaries stay exactly where the cap puts them.  Scans run in a
single worker thread off the event loop: the
listener keeps accepting while a batch scans, and one scan at a time keeps
the event stream identical to scanning the batches back-to-back serially.
Because ids are globally monotone in arrival order and each batch's events
come back canonically sorted (packet id first), the concatenated event
stream is *identical* to scanning the same packets in one offline call —
``serve`` on a finished capture file reproduces ``scan-pcap`` byte for
byte.

Termination is explicit: ``max_packets`` (stop after N segments),
``idle_timeout`` (stop once the source goes quiet), or source exhaustion
(a tail reader with ``follow=False`` stops at end of file).  A socket
source with no limits runs until cancelled — that is the serving loop.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from ..capture.pcap import CaptureError, PcapBlockReader
from ..capture.replay import ReplayStats, decode_records
from ..traffic.packet import FiveTuple, Packet
from .scanner import StreamMatch

#: ``emit(header, payload, seq=None, flags=None)`` — how a source hands one
#: flow segment to the ingestor.  Synchronous on purpose: sources call it
#: from protocol callbacks and reader loops; the ingestor's unbounded
#: arrival queue does the buffering.  ``seq``/``flags`` carry on-the-wire
#: TCP sequence state when the source has it (the pcap tail reader does;
#: socket listeners deliver kernel-ordered bytes and leave them ``None``).
EmitFn = Callable[..., None]

#: Ingestor wake-up granularity (seconds) while no batch is open: how often
#: source exhaustion and idle timeouts are checked while the wire is quiet.
_TICK_SECONDS = 0.05


class IngestError(RuntimeError):
    """A live source failed in a way that is not a malformed capture."""


@dataclass
class IngestReport:
    """What one :meth:`LiveIngestor.run` served.

    ``events`` is the concatenated canonical event stream (empty when
    ``collect_events`` was off); ``alerts`` are the alerts a pipeline with a
    confirm stage raised, in order; ``stop_reason`` is ``"max_packets"``,
    ``"idle_timeout"``, ``"source_exhausted"`` or ``"cancelled"``.
    ``source_stats`` are the source's own counters (connections, datagrams,
    skipped frames, ...).
    """

    packets: int = 0
    payload_bytes: int = 0
    batches: int = 0
    matches: int = 0
    events: List[StreamMatch] = field(default_factory=list)
    alerts: List = field(default_factory=list)
    stop_reason: str = "cancelled"
    elapsed_seconds: float = 0.0
    source_stats: Dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
class TcpListenerSource:
    """Accept TCP connections; each connection is a flow, each read a segment.

    ``port=0`` binds an ephemeral port; :attr:`bound_port` holds the real
    one once :meth:`run` has started listening (await :meth:`ready`).
    ``max_segment`` caps a single read — the flow scanner reassembles
    across segments, so the cap only shapes batching, never detection.
    """

    kind = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, max_segment: int = 2048):
        self.host = host
        self.port = port
        self.max_segment = max_segment
        self.bound_port: Optional[int] = None
        self.connections = 0
        self.segments = 0
        self._ready = asyncio.Event()

    async def ready(self) -> None:
        await self._ready.wait()

    def stats(self) -> Dict[str, int]:
        return {"connections": self.connections, "segments": self.segments}

    async def run(self, emit: EmitFn) -> None:
        server = await asyncio.start_server(
            lambda reader, writer: self._serve_client(reader, writer, emit),
            self.host,
            self.port,
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await server.serve_forever()
        except asyncio.CancelledError:
            raise

    async def _serve_client(self, reader, writer, emit: EmitFn) -> None:
        peer = writer.get_extra_info("peername")
        local = writer.get_extra_info("sockname")
        header = FiveTuple(peer[0], local[0], peer[1], local[1], "tcp")
        self.connections += 1
        try:
            while True:
                data = await reader.read(self.max_segment)
                if not data:
                    break
                self.segments += 1
                emit(header, data)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - client vanished
                pass


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, source: "UdpListenerSource", emit: EmitFn):
        self.source = source
        self.emit = emit

    def datagram_received(self, data: bytes, addr) -> None:
        source = self.source
        source.datagrams += 1
        header = FiveTuple(
            addr[0], source.host, addr[1], source.bound_port or source.port, "udp"
        )
        self.emit(header, data)


class UdpListenerSource:
    """Receive datagrams; each sender is a flow, each datagram a segment."""

    kind = "udp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self.bound_port: Optional[int] = None
        self.datagrams = 0
        self._ready = asyncio.Event()

    async def ready(self) -> None:
        await self._ready.wait()

    def stats(self) -> Dict[str, int]:
        return {"datagrams": self.datagrams}

    async def run(self, emit: EmitFn) -> None:
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _UdpProtocol(self, emit), local_addr=(self.host, self.port)
        )
        self.bound_port = transport.get_extra_info("sockname")[1]
        self._ready.set()
        try:
            await asyncio.Event().wait()  # datagrams arrive via the protocol
        finally:
            transport.close()


class PcapTailSource:
    """Incrementally decode a classic pcap file, optionally ``tail -f`` style.

    Reads whatever the file holds in bounded blocks (the
    :class:`repro.capture.pcap.PcapBlockReader` behind ``read_capture`` too)
    and emits every complete record, decoded by the record loop
    :func:`~repro.capture.replay.load_packets` runs
    (:func:`~repro.capture.replay.decode_records`, counting into
    :attr:`decode_stats`); it waits only when the next record is
    unfinished.  With ``follow=False`` the source is exhausted at end of
    file (a *complete* record boundary — a half-written record means a
    truncated capture and raises); with ``follow=True`` it polls every
    ``poll_interval`` seconds for appended bytes until cancelled.  Only
    classic pcap is supported — pcapng's variable-length block structure
    does not tail safely — and the error says so.
    """

    kind = "pcap-tail"

    def __init__(
        self,
        path,
        *,
        follow: bool = False,
        poll_interval: float = 0.2,
        strict: bool = False,
    ):
        self.path = path
        self.follow = follow
        self.poll_interval = poll_interval
        self.strict = strict
        #: frames read so far, decoded and skipped by reason
        self.decode_stats = ReplayStats()
        self._ready = asyncio.Event()

    async def ready(self) -> None:
        await self._ready.wait()

    def stats(self) -> Dict[str, int]:
        stats = self.decode_stats
        return {"records": stats.decoded, "skipped_frames": stats.skipped_total}

    async def run(self, emit: EmitFn) -> None:
        try:
            with open(self.path, "rb") as handle:
                reader = PcapBlockReader(handle)
                while True:
                    block = reader.read_block()
                    self._ready.set()
                    if block is not None:
                        for fields in decode_records(
                            block, reader.linktype, self.decode_stats, self.strict
                        ):
                            emit(*fields)
                    elif self.follow:  # nothing new yet
                        await asyncio.sleep(self.poll_interval)
                    else:
                        reader.finish()  # a half-written record raises
                        return
        except CaptureError as exc:
            raise CaptureError(f"{exc} ({self.path})") from None


# ----------------------------------------------------------------------
# the ingestor
# ----------------------------------------------------------------------
class LiveIngestor:
    """Micro-batching bridge from one live source into a pipeline.

    ``pipeline`` is anything answering ``scan(packets)`` and ``flush()`` with
    :class:`~repro.streaming.service.StreamScanResult` batch results: a bare
    scan service, the IDS, or a :class:`repro.api.Session` whose stage list
    re-shapes each batch first (reassembly).  Batches close at
    ``batch_packets`` segments or after ``batch_idle`` quiet seconds,
    whichever first; when serving stops, ``flush()`` releases what the
    pipeline still holds (data behind sequence holes, pending end-of-flow
    verdicts) as a final batch, so nothing is lost.  ``on_batch(result,
    packets)`` (if given) observes every batch with the packets actually
    scanned — the hook streaming sinks attach to.  Set
    ``collect_events=False`` on unbounded serving loops so the report does
    not accumulate events forever.

    The report's ``packets``/``payload_bytes`` count what was *scanned* (a
    reassembling pipeline parks and releases segments); ``max_packets``
    bounds arrivals.
    """

    def __init__(
        self,
        pipeline,
        *,
        batch_packets: int = 256,
        batch_idle: float = 0.05,
        max_packets: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        collect_events: bool = True,
        on_batch: Optional[Callable] = None,
    ):
        if batch_packets < 1:
            raise ValueError(f"batch_packets must be >= 1, got {batch_packets}")
        self.pipeline = pipeline
        self.batch_packets = batch_packets
        self.batch_idle = batch_idle
        self.max_packets = max_packets
        self.idle_timeout = idle_timeout
        self.collect_events = collect_events
        self.on_batch = on_batch

    def serve(self, source) -> IngestReport:
        """Synchronous wrapper: run the ingestion loop to completion."""
        return asyncio.run(self.run(source))

    async def run(self, source) -> IngestReport:
        queue: asyncio.Queue = asyncio.Queue()

        def emit(
            header: Optional[FiveTuple],
            payload: bytes,
            seq: Optional[int] = None,
            flags: Optional[int] = None,
        ) -> None:
            queue.put_nowait(Packet(payload, header, 0, None, seq, flags))

        report = IngestReport()
        started = time.perf_counter()
        source_task = asyncio.create_task(source.run(emit))
        loop = asyncio.get_running_loop()
        # One thread: the event loop keeps accepting while a batch scans,
        # and strictly serial scans keep the event stream canonical.
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-ingest-scan"
        )
        batch: List[Packet] = []
        next_id = 0
        last_arrival = time.monotonic()

        async def absorb(call: Callable, todo: List[Packet]) -> None:
            """Run one pipeline call off the loop; fold its batch result in."""
            result = await loop.run_in_executor(executor, call)
            if result is None or not (result.packets or result.alerts):
                return  # nothing was buffered / every segment was parked
            report.batches += 1
            report.packets += result.packets
            report.payload_bytes += result.bytes_scanned
            report.matches += len(result.events)
            report.alerts.extend(result.alerts)
            if self.collect_events:
                report.events.extend(result.events)
            if self.on_batch is not None:
                self.on_batch(
                    result, todo if result.scanned is None else result.scanned
                )

        async def flush() -> None:
            nonlocal batch
            todo, batch = batch, []
            await absorb(partial(self.pipeline.scan, todo), todo)

        try:
            while True:
                if self.max_packets is not None and next_id >= self.max_packets:
                    report.stop_reason = "max_packets"
                    break
                try:
                    # an open batch closes after batch_idle quiet seconds;
                    # with none open, the tick checks for the end of serving
                    packet = await asyncio.wait_for(
                        queue.get(), timeout=self.batch_idle if batch else _TICK_SECONDS
                    )
                except asyncio.TimeoutError:
                    if batch:
                        await flush()  # the wire went idle: close the batch
                        continue
                    if source_task.done() and queue.empty():
                        report.stop_reason = "source_exhausted"
                        # surface a crashed (not merely finished) source
                        if not source_task.cancelled() and source_task.exception():
                            raise source_task.exception()
                        break
                    if (
                        self.idle_timeout is not None
                        and time.monotonic() - last_arrival >= self.idle_timeout
                    ):
                        report.stop_reason = "idle_timeout"
                        break
                    continue
                last_arrival = time.monotonic()
                # One await per wake-up, not per segment: take what is
                # already queued without suspending, up to the batch's room
                # and the arrival limit.
                room = self.batch_packets - len(batch)
                if self.max_packets is not None:
                    room = min(room, self.max_packets - next_id)
                while True:
                    packet.packet_id = next_id
                    batch.append(packet)
                    next_id += 1
                    room -= 1
                    if room <= 0:
                        break
                    try:
                        packet = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                if len(batch) >= self.batch_packets:
                    await flush()
            if batch:
                await flush()
            await absorb(self.pipeline.flush, [])
        finally:
            source_task.cancel()
            try:
                await source_task
            except (asyncio.CancelledError, Exception):
                pass
            executor.shutdown(wait=True)
        report.elapsed_seconds = time.perf_counter() - started
        report.source_stats = dict(source.stats())
        return report


__all__ = [
    "EmitFn",
    "IngestError",
    "IngestReport",
    "LiveIngestor",
    "PcapTailSource",
    "TcpListenerSource",
    "UdpListenerSource",
]
