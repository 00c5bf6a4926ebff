"""Flow-scan service: many flows multiplexed over one scan engine.

The paper's accelerator scans many flows on engines that each own their
flows' registers, so no engine waits on another.  The service is one such
engine in software: one :class:`repro.streaming.scanner.StreamScanner` with
one bounded :class:`FlowTable`, so a flow's resumable automaton state never
has to move.  Like the paper's engines pulling from one shared packet
buffer, the service scans a whole arrival batch in one
:meth:`StreamScanner.scan_batch` call — admitted to the flow table once, in
arrival order, every flow's job sharing one backend crossing, whether or not
the table evicts.  A single packet is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple, Union

from ..backend import CompiledProgram
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowKey, FlowTable
from .scanner import Eviction, SegmentBatch, StreamMatch, StreamScanner


@dataclass
class StreamScanResult:
    """Aggregate outcome of one batched scan.

    The one batch result every pipeline hands on: a scan service fills the
    first three fields; ``alerts`` is what a confirm stage raised for the
    batch (:meth:`repro.ids.IntrusionDetectionSystem.scan`), and ``scanned``
    names the packets the result covers when a composed pipeline re-shaped
    the caller's batch before scanning it (:meth:`repro.api.Session.scan`
    with reassembly) — ``None`` when they are the caller's own.
    """

    events: List[StreamMatch]
    packets: int
    bytes_scanned: int
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

#: What :meth:`ScanService.scan_annotated` returns.
AnnotatedScan = Tuple[
    StreamScanResult, Dict[int, List[StreamMatch]], List[Eviction], List[FlowKey]
]


def event_order(event: StreamMatch) -> Tuple[int, int, int]:
    """The canonical event ordering every service reports in."""
    return _EVENT_ORDER(event)


class ScanService:
    """Stateful scanning front-end over one compiled program.

    ``program`` is any :class:`repro.backend.CompiledProgram`; the service's
    one :attr:`scanner` keeps every flow in one LRU table of
    ``flow_capacity`` flows.  The service is a context manager, so callers
    can hold it in a ``with`` block (teardown is a no-op); it is built
    declaratively through :class:`repro.api.Session`.
    """

    def __init__(
        self,
        program: CompiledProgram,
        flow_capacity: int = DEFAULT_FLOW_CAPACITY,
        track_nocase: Union[bool, AbstractSet[int]] = False,
    ):
        self.program = program
        self.scanner = StreamScanner(
            program, FlowTable(flow_capacity), track_nocase=track_nocase
        )

    # ------------------------------------------------------------------
    def scan_annotated(self, packets: Sequence[Packet]) -> AnnotatedScan:
        """Batched dispatch plus what a confirm stage needs to follow it.

        Returns ``(result, hits, evictions, keys)``: the aggregate result;
        ``hits[i]``, the events of input packet ``i`` (what scanning it alone,
        in arrival order, would have returned) for every packet that matched
        — absent means none; ``(arrival_index, key)`` for every flow
        LRU-evicted while the packet at ``arrival_index`` was admitted; and
        every packet's resolved flow key.  The stateful IDS pipeline
        correlates alerts from these without touching the flow table.

        The whole batch is one :meth:`StreamScanner.scan_batch` call: one
        walk of the flow table, one backend crossing.  Nothing per packet is
        built beyond the batch's three columns — a small-packet pass pays
        for every object that lives through the batch in the collector's
        older generations.  ``hits`` comes back in arrival order, and the
        canonical event sort is stable, so that order decides its ties.
        """
        batch = SegmentBatch.from_packets(packets)
        scanner = self.scanner
        before = scanner.stats.bytes_scanned
        hits, evictions = scanner.scan_batch(batch)
        events = list(chain.from_iterable(hits.values()))
        events.sort(key=_EVENT_ORDER)
        result = StreamScanResult(
            events, len(packets), scanner.stats.bytes_scanned - before
        )
        return result, hits, evictions, batch.keys

    def scan(self, packets: Sequence[Packet]) -> StreamScanResult:
        """Batched dispatch: scan ``packets`` statefully, aggregate.

        The annotation is dropped here, not retained: a result that kept the
        per-packet lists would keep every event list alive through the sinks.
        """
        return self.scan_annotated(packets)[0]

    def scan_fresh(self, packets: Sequence[Packet]) -> StreamScanResult:
        """``packets`` mode: every packet a new flow of its own
        (:meth:`StreamScanner.scan_fresh`).  Events carry no flow and stay in
        arrival order, which a source's packet ids need not follow."""
        hits = self.scanner.scan_fresh(SegmentBatch.from_packets(packets))
        events = list(chain.from_iterable(hits.values()))
        return StreamScanResult(events, len(packets), sum(len(p.payload) for p in packets))

    def flush(self) -> None:
        """End of a finite source: a scan service buffers nothing."""

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self.scanner.flows)

    @property
    def evicted_flows(self) -> int:
        return self.scanner.flows.stats.evicted

    @property
    def cross_segment_matches(self) -> int:
        return self.scanner.stats.cross_segment_matches

    def stats(self) -> Dict[str, object]:
        """The service's gauges as one plain dict.

        Counters (``evicted_flows``, ``cross_segment_matches``) are
        lifetime totals; ``active_flows`` is a live gauge.  The dict is
        JSON-serialisable, so it can ride along in run artifacts
        (:meth:`repro.api.Session.stats` embeds it).
        """
        scanner = self.scanner
        return {
            "active_flows": len(scanner.flows),
            "evicted_flows": scanner.flows.stats.evicted,
            "cross_segment_matches": scanner.stats.cross_segment_matches,
        }

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Serialise the flow table to plain data (:meth:`FlowTable.checkpoint`)."""
        return self.scanner.flows.checkpoint()

    def restore(self, data: Dict) -> None:
        """Restore flow state saved by :meth:`checkpoint`.

        The table keeps its *configured* flow capacity — a checkpoint from a
        larger table never silently raises this service's memory bound;
        over-capacity flows are dropped LRU-first.  The older envelope that
        listed one table per partition of the flows is accepted when it holds
        one table, which is every checkpoint the IDS wrote; the LRU order
        across several tables cannot be recovered, so more raise.  A flow
        whose state id is not one of the program's states is a
        ``ValueError`` naming the flow and ``ScanState.state``.
        """
        if "flows" not in data:
            tables = data["shards"]
            if len(tables) != 1:
                raise ValueError(
                    f"checkpoint holds {len(tables)} flow tables; only a "
                    "one-table checkpoint can be restored"
                )
            data = tables[0]
        scanner = self.scanner
        flows = FlowTable.restore(data, capacity=scanner.flows.capacity)
        limit = self.program.num_states
        for key in flows.keys():
            entry = flows.peek(key)
            for view, state in (("states", entry.state), ("lower_states", entry.lower_state)):
                if state is not None and state.state >= limit:
                    raise ValueError(
                        f"flow {key.as_tuple()} {view}: ScanState.state must be "
                        f"below the program's {limit} states, got {state.state}"
                    )
        scanner.flows = flows

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Part of the pipeline-stage contract: nothing to release."""

    def __enter__(self) -> "ScanService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
