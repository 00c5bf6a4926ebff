"""Sharded flow-scan service: many flows multiplexed over an engine pool.

The paper's accelerator exposes independent packet groups that scan distinct
packets concurrently; at system level a line card must therefore decide
*which* engine sees which packet.  The service makes that decision the way
production flow engines do: flows are hash-partitioned over a pool of
scan engines (one :class:`repro.streaming.scanner.StreamScanner` per shard,
each with its own bounded :class:`FlowTable`), so every packet of a flow
always lands on the same shard and the flow's resumable automaton state never
has to move.  A shard owns flows, not packets: like the paper's engines
pulling from one shared packet buffer, the serial service scans a whole
arrival batch in one :meth:`StreamScanner.scan_batch` call — grouped by flow
once, each flow's shard picking only the table it lives in, every shard's
jobs sharing one backend crossing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend import CompiledProgram
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowKey, FlowTable
from .scanner import Eviction, SegmentBatch, StreamMatch, StreamScanner


@dataclass
class ShardReport:
    """Per-shard slice of a :class:`StreamScanResult`.

    ``packets``/``bytes_scanned``/``matches``/``evicted_flows`` count this
    batch only (summable across reports); ``active_flows`` is a gauge — the
    shard's live flow count when the batch finished.
    """

    shard: int
    packets: int
    bytes_scanned: int
    matches: int
    active_flows: int
    evicted_flows: int


@dataclass
class StreamScanResult:
    """Aggregate outcome of one batched scan across all shards.

    The one batch result every pipeline hands on: a scan service fills the
    first four fields; ``alerts`` is what a confirm stage raised for the
    batch (:meth:`repro.ids.IntrusionDetectionSystem.scan`), and ``scanned``
    names the packets the result covers when a composed pipeline re-shaped
    the caller's batch before scanning it (:meth:`repro.api.Session.scan`
    with reassembly) — ``None`` when they are the caller's own.
    """

    events: List[StreamMatch]
    packets: int
    bytes_scanned: int
    shards: List[ShardReport] = field(default_factory=list)
    alerts: List = field(default_factory=list)
    scanned: Optional[Sequence[Packet]] = None

    def events_for_flow(self, flow: FlowKey) -> List[StreamMatch]:
        return [event for event in self.events if event.flow == flow]

    def events_by_flow(self) -> Dict[FlowKey, List[StreamMatch]]:
        """All events grouped by flow in one pass (cheaper than repeated
        :meth:`events_for_flow` when iterating over many flows)."""
        grouped: Dict[FlowKey, List[StreamMatch]] = {}
        for event in self.events:
            grouped.setdefault(event.flow, []).append(event)
        return grouped


#: The canonical event sort key as a C-level attribute getter (the aggregate
#: sort is on the hot path; ``attrgetter`` avoids a Python frame per event).
_EVENT_ORDER = attrgetter("packet_id", "end_offset", "string_number")

#: What :meth:`ShardedScanServiceBase.scan_annotated` returns.
AnnotatedScan = Tuple[
    StreamScanResult, Dict[int, List[StreamMatch]], List[Eviction], List[FlowKey]
]


def event_order(event: StreamMatch) -> Tuple[int, int, int]:
    """The canonical event ordering every service reports in."""
    return _EVENT_ORDER(event)


class ShardedScanServiceBase:
    """Sharding, batching and aggregation shared by every scan service.

    The serial :class:`ScanService` and the process-parallel
    :class:`repro.streaming.executor.ParallelScanService` differ only in
    *where* a shard's engine lives (this process vs a worker process); the
    flow→shard mapping, the result aggregation and the checkpoint envelope
    live here so the two front-ends cannot drift apart.
    Both are context managers, so callers can hold either in a ``with`` block
    (teardown is a no-op for the serial service).  Either front-end can be
    built declaratively through :class:`repro.api.Session` (the
    ``EngineSpec`` ``workers`` field selects which).
    """

    program: CompiledProgram
    num_shards: int
    #: Worker-process count; ``None`` for in-process (serial) front-ends.
    num_workers: Optional[int] = None

    @staticmethod
    def _validate_num_shards(num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be at least 1, got {num_shards}")

    def shard_for(self, key: FlowKey) -> int:
        """Stable flow -> shard mapping (CRC32 of the canonical 5-tuple)."""
        return key.shard_crc % self.num_shards

    def scan_annotated(self, packets: Sequence[Packet]) -> AnnotatedScan:
        """Batched dispatch plus what a confirm stage needs to follow it.

        Returns ``(result, hits, evictions, keys)``: the aggregate result;
        ``hits[i]``, the events of input packet ``i`` (what
        :meth:`StreamScanner.scan_packet` would have returned for it) for
        every packet that matched — absent means none; ``(arrival_index,
        key)`` for every flow LRU-evicted while the packet at
        ``arrival_index`` was being scanned; and every packet's resolved
        flow key.  The stateful IDS pipeline correlates alerts from these
        without touching the shards' flow tables.
        """
        raise NotImplementedError

    def scan(self, packets: Sequence[Packet]) -> StreamScanResult:
        """Batched dispatch: scan ``packets`` across the shards, aggregate.

        The annotation is dropped here, not retained: a result that kept the
        per-packet lists would keep every event list alive through the sinks.
        """
        return self.scan_annotated(packets)[0]

    def flush(self) -> None:
        """End of a finite source: a scan service buffers nothing."""

    def _aggregate(
        self,
        num_packets: int,
        hits: Dict[int, List[StreamMatch]],
        shard_reports: List[ShardReport],
    ) -> StreamScanResult:
        """Sort the batch's events into the canonical order and assemble the
        result.

        ``hits`` must be ordered by shard (shard 0's packets front to back,
        then shard 1's, …): the sort is stable, so the pre-sort order decides
        ties and both service front-ends must feed the identical order for
        their reports to be byte-identical.
        """
        events = list(chain.from_iterable(hits.values()))
        events.sort(key=_EVENT_ORDER)
        return StreamScanResult(
            events=events,
            packets=num_packets,
            bytes_scanned=sum(report.bytes_scanned for report in shard_reports),
            shards=shard_reports,
        )

    def _validate_checkpoint(self, data: Dict) -> None:
        if int(data["num_shards"]) != self.num_shards:
            raise ValueError(
                f"checkpoint has {data['num_shards']} shards, service has {self.num_shards}"
            )
        if len(data["shards"]) != self.num_shards:
            raise ValueError(
                f"checkpoint lists {len(data['shards'])} shard tables, "
                f"expected {self.num_shards}"
            )

    def _shard_gauges(self) -> List[Tuple[int, int, int]]:
        """``(active flows, evicted flows, cross-segment matches)`` of every
        shard, in shard order, as one snapshot (one round trip to a pool)."""
        raise NotImplementedError

    @property
    def active_flows(self) -> int:
        return sum(row[0] for row in self._shard_gauges())

    @property
    def evicted_flows(self) -> int:
        return sum(row[1] for row in self._shard_gauges())

    @property
    def cross_segment_matches(self) -> int:
        return sum(row[2] for row in self._shard_gauges())

    def shard_occupancy(self) -> List[int]:
        """Live flow count per shard (how even the hash partitioning is)."""
        return [row[0] for row in self._shard_gauges()]

    def stats(self) -> Dict[str, object]:
        """The service's gauges as one plain dict (shared by both front-ends).

        Counters (``evicted_flows``, ``cross_segment_matches``) are
        lifetime totals; ``active_flows``/``shard_occupancy`` are live
        gauges.  The dict is JSON-serialisable, so it can ride along in run
        artifacts (:meth:`repro.api.Session.stats` embeds it).
        """
        active, evicted, cross_segment = zip(*self._shard_gauges())
        return {
            "num_shards": self.num_shards,
            "num_workers": self.num_workers,
            "active_flows": sum(active),
            "evicted_flows": sum(evicted),
            "cross_segment_matches": sum(cross_segment),
            "shard_occupancy": list(active),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the service's resources (no-op for in-process engines)."""

    def __enter__(self) -> "ShardedScanServiceBase":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class ScanService(ShardedScanServiceBase):
    """Hash-sharded, stateful scanning front-end over one compiled program.

    ``program`` is any :class:`repro.backend.CompiledProgram` — the engines
    reference the same compiled structure (mirroring the replicated packet
    groups on the device) but each shard keeps a private flow table, so
    shards share no mutable state and could run on separate cores or
    processes (:class:`repro.streaming.executor.ParallelScanService` is the
    front-end that actually does).
    """

    def __init__(
        self,
        program: CompiledProgram,
        num_shards: int = 4,
        flow_capacity_per_shard: int = DEFAULT_FLOW_CAPACITY,
        track_nocase: bool = False,
    ):
        self._validate_num_shards(num_shards)
        self.program = program
        self.num_shards = num_shards
        self.engines: List[StreamScanner] = [
            StreamScanner(
                program,
                FlowTable(flow_capacity_per_shard),
                track_nocase=track_nocase,
            )
            for _ in range(num_shards)
        ]

    # ------------------------------------------------------------------
    def submit(self, packet: Packet) -> List[StreamMatch]:
        """Scan a single packet on its flow's shard."""
        key = StreamScanner.flow_key(packet)
        return self.engines[self.shard_for(key)].scan_segment(
            key, packet.payload, packet.packet_id
        )

    def scan_annotated(self, packets: Sequence[Packet]) -> AnnotatedScan:
        """See :meth:`ShardedScanServiceBase.scan_annotated`.

        The whole batch is one :meth:`StreamScanner.scan_batch` call over
        every shard's engine: one grouping by flow, one backend crossing.
        Nothing per packet is built beyond the batch's three columns — a
        small-packet pass pays for every object that lives through the
        batch in the collector's older generations.
        """
        batch = SegmentBatch.from_packets(packets)
        engines = self.engines
        before = [
            (engine.stats.segments, engine.stats.bytes_scanned, engine.stats.matches,
             engine.flows.stats.evicted)
            for engine in engines
        ]
        hits, evictions = engines[0].scan_batch(batch, engines)
        shard_reports = [
            ShardReport(
                shard=shard,
                packets=engine.stats.segments - segments,
                bytes_scanned=engine.stats.bytes_scanned - scanned,
                matches=engine.stats.matches - matches,
                active_flows=engine.active_flows,
                evicted_flows=engine.flows.stats.evicted - evicted,
            )
            for shard, (engine, (segments, scanned, matches, evicted)) in enumerate(
                zip(engines, before)
            )
        ]
        return self._aggregate(len(packets), hits, shard_reports), hits, evictions, batch.keys

    # ------------------------------------------------------------------
    def _shard_gauges(self) -> List[Tuple[int, int, int]]:
        return [
            (len(engine.flows), engine.flows.stats.evicted, engine.stats.cross_segment_matches)
            for engine in self.engines
        ]

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Serialise every shard's flow table to plain data."""
        return {
            "num_shards": self.num_shards,
            "shards": [engine.flows.checkpoint() for engine in self.engines],
        }

    def restore(self, data: Dict) -> None:
        """Restore flow state saved by :meth:`checkpoint` (same sharding).

        Each shard keeps its *configured* flow capacity — a checkpoint from a
        larger table never silently raises this service's memory bound.  The
        checkpoint envelope is shared with the parallel service, so a serial
        checkpoint restores into a parallel service and vice versa.
        """
        self._validate_checkpoint(data)
        for engine, shard_data in zip(self.engines, data["shards"]):
            engine.flows = FlowTable.restore(shard_data, capacity=engine.flows.capacity)
