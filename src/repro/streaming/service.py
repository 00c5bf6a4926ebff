"""Sharded flow-scan service: many flows multiplexed over an engine pool.

The paper's accelerator exposes independent packet groups that scan distinct
packets concurrently; at system level a line card must therefore decide
*which* engine sees which packet.  The service makes that decision the way
production flow engines do: flows are hash-partitioned over a pool of
scan engines (one :class:`repro.streaming.scanner.StreamScanner` per shard,
each with its own bounded :class:`FlowTable`), so every packet of a flow
always lands on the same shard and the flow's resumable automaton state never
has to move.  Batched dispatch groups an arrival batch by shard while
preserving per-flow arrival order, mirroring the per-packet-group round-robin
of :class:`repro.hardware.HardwareAccelerator` but at flow granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..backend import CompiledProgram
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowKey, FlowTable
from .scanner import BatchItem, Eviction, StreamMatch, StreamScanner


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

#: One shard's share of a batch: each item's arrival index in the caller's
#: batch, next to the ``scan_batch`` items themselves.
ShardBatch = Tuple[List[int], List[BatchItem]]

#: What :meth:`ShardedScanServiceBase.scan_annotated` returns.
AnnotatedScan = Tuple[
    StreamScanResult, List[List[StreamMatch]], List[Eviction], List[FlowKey]
]


def event_order(event: StreamMatch) -> Tuple[int, int, int]:
    """The canonical event ordering every service reports in."""
    return _EVENT_ORDER(event)


class ShardedScanServiceBase:
    """Sharding, batching and aggregation shared by every scan service.

    The serial :class:`ScanService` and the process-parallel
    :class:`repro.streaming.executor.ParallelScanService` differ only in
    *where* a shard's engine lives (this process vs a worker process); the
    flow→shard mapping, the batch grouping, the result aggregation and the
    checkpoint envelope live here so the two front-ends cannot drift apart.
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

    def _group_by_shard(
        self, packets: Sequence[Packet]
    ) -> Tuple[List[FlowKey], List[ShardBatch]]:
        """Resolve every packet's flow key and group the batch by shard.

        The one per-packet dispatch loop: returns the keys in arrival order
        and, per shard, the arrival indices next to the ``scan_batch`` items.
        Grouping preserves each flow's arrival order (all packets of a flow
        hash to the same shard and the batch is walked front to back), which
        is what keeps cross-segment state consistent.
        """
        keys: List[FlowKey] = []
        batches: List[ShardBatch] = [([], []) for _ in range(self.num_shards)]
        flow_key = StreamScanner.flow_key
        num_shards = self.num_shards
        for index, packet in enumerate(packets):
            key = flow_key(packet)  # resolved once per flow, CRC included
            keys.append(key)
            arrivals, items = batches[key.shard_crc % num_shards]
            arrivals.append(index)
            items.append((key, packet.payload, packet.packet_id))
        return keys, batches

    def scan_annotated(self, packets: Sequence[Packet]) -> AnnotatedScan:
        """Batched dispatch plus what a confirm stage needs to follow it.

        Returns ``(result, per_packet_events, evictions, keys)``: the
        aggregate result, the events of each input packet in arrival order
        (what :meth:`StreamScanner.scan_packet` would have returned for it),
        ``(arrival_index, key)`` for every flow LRU-evicted while the packet
        at ``arrival_index`` was being scanned, and every packet's resolved
        flow key.  The stateful IDS pipeline correlates alerts from these
        without touching the shards' flow tables.
        """
        raise NotImplementedError

    def scan(self, packets: Sequence[Packet]) -> StreamScanResult:
        """Batched dispatch: group ``packets`` by shard, scan, aggregate.

        The annotation is dropped here, not retained: a result that kept the
        per-packet lists would keep every event list alive through the sinks.
        """
        return self.scan_annotated(packets)[0]

    def flush(self) -> None:
        """End of a finite source: a scan service buffers nothing."""

    def _aggregate(
        self,
        num_packets: int,
        events: List[StreamMatch],
        shard_reports: List[ShardReport],
    ) -> StreamScanResult:
        """Sort events into the canonical order and assemble the result.

        ``events`` must arrive in shard order (shard 0's batch front to back,
        then shard 1's, …): the sort is stable, so the pre-sort order decides
        ties and both service front-ends must feed the identical order for
        their reports to be byte-identical.
        """
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

    def _scan_shards(
        self, batches: List[ShardBatch], shard_reports: List[ShardReport]
    ) -> Iterator[Tuple[List[int], List[List[StreamMatch]], List[Eviction]]]:
        """Cross each shard's batch into its engine, in shard order.

        One :meth:`StreamScanner.scan_batch` call per shard (the hot path
        that batches same-flow segments before entering the backend); yields
        the shard's arrival indices, per-item events and eviction records
        and appends its :class:`ShardReport`.  Events come back per item in
        arrival order, so the pre-sort order fed to :meth:`_aggregate` is
        identical to segment-at-a-time scanning.
        """
        for shard, (engine, (arrivals, items)) in enumerate(zip(self.engines, batches)):
            stats = engine.stats
            before_matches = stats.matches
            before_bytes = stats.bytes_scanned
            before_evicted = engine.flows.stats.evicted
            per_item, evictions = engine.scan_batch(items) if items else ([], [])
            shard_reports.append(
                ShardReport(
                    shard=shard,
                    packets=len(items),
                    bytes_scanned=stats.bytes_scanned - before_bytes,
                    matches=stats.matches - before_matches,
                    active_flows=engine.active_flows,
                    evicted_flows=engine.flows.stats.evicted - before_evicted,
                )
            )
            yield arrivals, per_item, evictions

    def scan(self, packets: Sequence[Packet]) -> StreamScanResult:
        """Batched dispatch: group ``packets`` by shard, scan, aggregate.

        Each shard's per-item event lists are flattened and dropped before
        the next shard scans: holding ten thousand of them to the end of the
        call (let alone in the result) ages them into the collector's older
        generations, which a small-packet pass pays for in full collections.
        """
        events: List[StreamMatch] = []
        shard_reports: List[ShardReport] = []
        for _, per_item, _ in self._scan_shards(
            self._group_by_shard(packets)[1], shard_reports
        ):
            events.extend(chain.from_iterable(per_item))
        return self._aggregate(len(packets), events, shard_reports)

    def scan_annotated(self, packets: Sequence[Packet]) -> AnnotatedScan:
        """See :meth:`ShardedScanServiceBase.scan_annotated`."""
        keys, batches = self._group_by_shard(packets)
        # every packet sits in exactly one shard batch, so every slot is filled
        per_packet: List = [None] * len(packets)
        events: List[StreamMatch] = []
        evictions: List[Eviction] = []
        shard_reports: List[ShardReport] = []
        for arrivals, per_item, shard_evictions in self._scan_shards(batches, shard_reports):
            for arrival, item_events in zip(arrivals, per_item):
                per_packet[arrival] = item_events
            events.extend(chain.from_iterable(per_item))
            evictions.extend((arrivals[index], key) for index, key in shard_evictions)
        evictions.sort(key=itemgetter(0))  # shard order -> arrival order
        result = self._aggregate(len(packets), events, shard_reports)
        return result, per_packet, evictions, keys

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
