"""The one scan engine: stateful flow scanning over one compiled program.

A :class:`ScanService` is the software model of one string matching engine
that has been taught to multiplex flows, as the paper's engines own their
flows' registers and pull segments straight from the shared packet buffer:
before scanning a batch it loads each flow's checkpointed
:class:`repro.backend.ScanState` registers from its one bounded
:class:`repro.streaming.flow.FlowTable`, and afterwards it stores them back.
Because the state carries everything the backend needs to resume (automaton
state, two-byte history, stream offset), a pattern split across consecutive
segments of a flow is found exactly as if the segments had arrived as one
contiguous payload — the property the per-packet ``match`` path cannot
provide.

The engine is written against the :class:`repro.backend.CompiledProgram`
protocol, so *any* backend — the DTP automaton, the compiled dense table, a
plain DFA, the compressed baselines — multiplexes flows through the
identical code path.  The declarative :class:`repro.api.Session` facade
composes it, with the stages around it, from one
:class:`repro.api.PipelineConfig`.

Hot path
--------
A whole arrival batch — the front end's columnar
:class:`~repro.traffic.PacketBatch` (a single packet is a batch of one) — is
sequenced once and scanned once.  :meth:`ScanService.sequence` admits its
rows into the flow table (:meth:`FlowTable.admit`), with the LRU order,
creations and evictions segment-at-a-time scanning would leave, and returns
the one admission record: a :class:`SequencedBatch` whose ``entry`` column
names each row's flow entry and whose ``departures`` name the flows that
left the table.  With ``reassemble`` on, the service's
:class:`~repro.proto.TcpReassembler` admits the arrival batch into the same
table and emits it in stream order with those same columns.
:meth:`ScanService.scan_batch` then groups the rows by entry — a flow
evicted and seen again within the batch is two entries — slices each
entry's segments from their blocks into one job, and sends every job into
the backend together (``scan_many``: one job per entry, plus one per
lower-cased view under ``track_nocase``), so a batch costs one backend
crossing whether or not the table evicts.  Matches are then re-attributed
to their segments by offset — per-segment work only a flow whose scan
reported a hit pays for.  Events, statistics, eviction records and LRU
order are those of the segment-at-a-time walk (the differential harness in
the test suite holds it to that).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..backend import CompiledProgram, MatchList, ScanJob, ScanState
from ..traffic.packet import Packet, PacketBatch
from .flow import (
    ANONYMOUS_FLOW,
    DEFAULT_FLOW_CAPACITY,
    Eviction,
    FlowEntry,
    FlowKey,
    FlowTable,
    SequencedBatch,
)

#: The registers of a flow that has not sent a byte.  ``ScanState`` is
#: immutable, so every new flow entry starts from this one instance.
_ROOT = ScanState()


def _new_flow(key: FlowKey) -> FlowEntry:
    return FlowEntry(key, _ROOT)


def _new_nocase_flow(key: FlowKey) -> FlowEntry:
    return FlowEntry(key, _ROOT, _ROOT)


class StreamMatch:
    """A match found while scanning a flow segment.

    ``end_offset`` is the position one past the match's final byte in the
    *flow's* byte stream (not the segment), so a cross-segment match reports
    an offset beyond the current segment's start.  ``lowered`` marks hits
    found in the lower-cased view of the stream (case-insensitive scanning).
    ``flow`` is ``None`` when the segment was scanned as a flow of its own
    (:meth:`ScanService.scan_fresh`).

    A ``__slots__`` record rather than a dataclass: the streaming hot loop
    creates one per match event, and slot instances allocate without a
    per-instance ``__dict__``.  Equality, hashing and repr keep the frozen
    dataclass semantics the rest of the suite was written against.
    """

    __slots__ = ("flow", "packet_id", "end_offset", "string_number", "lowered")

    def __init__(
        self,
        flow: Optional[FlowKey],
        packet_id: int,
        end_offset: int,
        string_number: int,
        lowered: bool = False,
    ):
        self.flow = flow
        self.packet_id = packet_id
        self.end_offset = end_offset
        self.string_number = string_number
        self.lowered = lowered

    def _key(self) -> Tuple[Optional[FlowKey], int, int, int, bool]:
        return (self.flow, self.packet_id, self.end_offset, self.string_number, self.lowered)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamMatch):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"StreamMatch(flow={self.flow!r}, packet_id={self.packet_id!r}, "
            f"end_offset={self.end_offset!r}, string_number={self.string_number!r}, "
            f"lowered={self.lowered!r})"
        )


@dataclass
class ScannerStatistics:
    """The engine's lifetime scan counters (:attr:`ScanService.counters`)."""

    segments: int = 0
    bytes_scanned: int = 0
    matches: int = 0
    cross_segment_matches: int = 0


@dataclass
class StreamScanResult:
    """Aggregate outcome of one batched scan.

    The one batch result every pipeline hands on: the engine fills the
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

def event_order(event: StreamMatch) -> Tuple[int, int, int]:
    """The canonical event ordering the engine reports in."""
    return _EVENT_ORDER(event)


def checkpoint_table(data: Dict) -> Dict:
    """The one flow table of an engine checkpoint (:meth:`ScanService.restore`)."""
    tables = [data] if "flows" in data else data["shards"]
    if len(tables) != 1:
        raise ValueError(
            f"checkpoint holds {len(tables)} flow tables; only a "
            "one-table checkpoint can be restored"
        )
    return tables[0]


class ScanService:
    """The one flow-multiplexing scan engine around any compiled program.

    ``program`` is anything honouring the :class:`repro.backend.CompiledProgram`
    protocol; :attr:`flows` is the engine's one LRU :class:`FlowTable` of
    ``flow_capacity`` flows, and :attr:`counters` its lifetime
    :class:`ScannerStatistics`.

    ``track_nocase`` turns on the lower-cased second view of every payload.
    It names the string numbers a lowered-view hit may credit — the strings
    some ``nocase`` content uses — or is ``True`` for every string; an empty
    set (or ``False``) scans the raw view alone.

    ``reassemble`` puts a :class:`~repro.proto.TcpReassembler` over the same
    table (:attr:`reassembler`, else ``None``) in front of the scan, with
    ``overlap_policy`` and ``reassembly_bytes`` (its ``max_flow_bytes``).

    ``StreamScanner`` is bound to this same class: the two names are one
    engine, and code written against either (the end-to-end benchmark's
    tracer wraps ``ScanService.scan`` and ``StreamScanner.scan_batch`` by
    name) sees the same methods.  The engine is a context manager, so
    callers can hold it in a ``with`` block (teardown is a no-op); it is
    built declaratively through :class:`repro.api.Session`.
    """

    def __init__(
        self,
        program: CompiledProgram,
        flow_capacity: int = DEFAULT_FLOW_CAPACITY,
        track_nocase: Union[bool, AbstractSet[int]] = False,
        reassemble: bool = False,
        overlap_policy: str = "first",
        reassembly_bytes: Optional[int] = None,
    ):
        self.program = program
        self.flows = FlowTable(flow_capacity)
        self.track_nocase = track_nocase
        #: a new flow's entry: a plain function, not a bound method, so the
        #: reassembler that holds it does not tie the service into a cycle
        #: (a closed session's program is freed at once, not by the collector)
        self._new_entry = _new_nocase_flow if track_nocase else _new_flow
        self.counters = ScannerStatistics()
        self._pattern_length = {
            index: len(pattern) for index, pattern in enumerate(program.patterns)
        }
        self._scan_many = program.scan_many
        self.reassembler = None
        if reassemble:
            from ..proto.reassembly import TcpReassembler  # a layer above this one

            bound = {} if reassembly_bytes is None else {"max_flow_bytes": reassembly_bytes}
            self.reassembler = TcpReassembler(
                flows=self.flows, new_entry=self._new_entry,
                overlap_policy=overlap_policy, **bound,
            )

    # ------------------------------------------------------------------
    @staticmethod
    def flow_key(packet: Packet) -> FlowKey:
        """The packet's flow: its header, if it has one."""
        header = packet.header
        return ANONYMOUS_FLOW if header is None else header

    def _scan_views(
        self, work: Sequence[Tuple[FlowEntry, bytes]]
    ) -> List[Tuple[MatchList, MatchList]]:
        """Cross into the backend once for the next bytes of several flows.

        Every ``(entry, payload)`` rides the same ``scan_many`` call as one
        raw job plus, under ``track_nocase``, one job over the lower-cased
        view.  Resumes the entries' states and returns ``(raw, lowered)``
        hit lists per entry, where ``lowered`` holds only what the raw view
        did not already report, on the strings ``track_nocase`` lets a
        lowered hit credit.
        """
        jobs: List[ScanJob] = [(entry.state, payload) for entry, payload in work]
        if self.track_nocase:
            for entry, payload in work:
                if entry.lower_state is None:
                    # e.g. a flow restored from a checkpoint written without
                    # nocase tracking: restart the lowered view rather than
                    # silently never matching case-insensitively again.  Seed
                    # it at the raw stream offset so lowered matches keep
                    # reporting flow-absolute positions (and dedup against
                    # raw hits works).
                    entry.lower_state = ScanState(offset=entry.bytes_scanned)
                jobs.append((entry.lower_state, payload.lower()))
        results = self._scan_many(jobs)

        nocase = self.track_nocase
        views: List[Tuple[MatchList, MatchList]] = []
        for position, (entry, _) in enumerate(work):
            raw, entry.state = results[position]
            lowered: MatchList = []
            if self.track_nocase:
                lowered, entry.lower_state = results[len(work) + position]
                if lowered:
                    # an occurrence that is already lower-case matches in
                    # both views; report it once (the raw event) so
                    # statistics are not inflated.  A case-sensitive string
                    # found only in the lowered view did not occur at all.
                    raw_hits = set(raw)
                    lowered = [
                        hit for hit in lowered
                        if hit not in raw_hits and (nocase is True or hit[1] in nocase)
                    ]
            views.append((raw, lowered))
        return views

    # ------------------------------------------------------------------
    # batched scanning (the hot path)
    # ------------------------------------------------------------------
    def sequence(self, packets: Sequence[Packet], end_of_source: bool = False) -> SequencedBatch:
        """``packets`` as the engine scans them, each row naming its flow
        entry: the arrival batch as the table admits it
        (:meth:`FlowTable.admit`), or, with ``reassemble`` on, what the
        reassembler emits (plus, at the ``end_of_source``, what it still
        buffers), admitted on the way."""
        batch = PacketBatch.from_packets(packets)
        reassembler = self.reassembler
        if reassembler is None:
            entry, departures = self.flows.admit(batch, self._new_entry)
            return SequencedBatch(
                batch.buffer, batch.start, batch.length, batch.flows, batch.flow,
                batch.seq, batch.flags, batch.packet_id, entry=entry, departures=departures,
            )
        batch = reassembler.process(batch)
        if end_of_source:
            batch += reassembler.flush_all()
        return batch

    def scan_batch(self, batch: SequencedBatch) -> Dict[int, List[StreamMatch]]:
        """Scan one :meth:`sequence`-d batch of flow segments.

        Returns the hits: ``hits[i]`` is exactly the non-empty event list
        scanning segment ``i`` on its own, in arrival order, would have
        produced, and segments that matched nothing are absent; the dict is
        ordered by arrival — the order the canonical event sort breaks its
        ties in.  The flows that left the table are ``batch.departures``.

        The rows are grouped by their entry (``batch.entry``), each entry's
        segments sliced from their buffers into one job, and every job
        crosses into the backend in one ``scan_many`` call.  Matches are
        re-attributed to segments by their flow-absolute end offset.
        """
        groups: Dict[FlowEntry, List[int]] = {}
        for index, entry in enumerate(batch.entry):
            indexes = groups.get(entry)
            if indexes is None:
                groups[entry] = [index]
            else:
                indexes.append(index)
        buffers, starts, lengths = batch.buffer, batch.start, batch.length
        work = [
            (entry, b"".join([
                buffers[index][starts[index]:starts[index] + lengths[index]]
                for index in indexes
            ]))
            for entry, indexes in groups.items()
        ]
        views = self._scan_views(work) if work else []

        counters = self.counters
        found: Dict[int, List[StreamMatch]] = {}
        for indexes, (entry, joined), (raw, lowered) in zip(groups.values(), work, views):
            counters.segments += len(indexes)
            counters.bytes_scanned += len(joined)
            if raw or lowered:
                self._attribute(
                    entry.key, indexes, batch, entry.bytes_scanned - len(joined),
                    raw, lowered, found,
                )
        return {index: found[index] for index in sorted(found)}

    def scan(self, packets: Sequence[Packet], end_of_source: bool = False) -> StreamScanResult:
        """Batched dispatch: scan ``packets`` statefully (:meth:`sequence`,
        then one :meth:`scan_batch`: one walk of the flow table, one backend
        crossing), aggregate.

        ``packets`` is a :class:`~repro.traffic.PacketBatch` (a packet list
        is taken as one), and nothing per packet is retained: a result that
        kept the per-packet lists would keep every event list alive through
        the sinks.  The hits come back in arrival order, and the canonical
        event sort is stable, so that order decides its ties.  With
        ``reassemble`` on, the result's ``scanned`` is the reassembled batch.
        """
        batch = self.sequence(packets, end_of_source)
        before = self.counters.bytes_scanned
        events = list(chain.from_iterable(self.scan_batch(batch).values()))
        events.sort(key=_EVENT_ORDER)
        return StreamScanResult(
            events, len(batch), self.counters.bytes_scanned - before,
            scanned=None if self.reassembler is None else batch,
        )

    def scan_fresh(self, packets: Sequence[Packet]) -> Dict[int, List[StreamMatch]]:
        """Scan every packet as a new flow of its own.

        The stateless mode: the registers reset at every packet boundary, as
        in the paper's engine.  Still one :meth:`_scan_views` call (one
        backend crossing, both views), but the flow table and its LRU order
        are not touched.  Returns hits by arrival index, like
        :meth:`scan_batch`; the events carry no flow and stay in arrival
        order, which the packets' ids need not follow.
        """
        batch = PacketBatch.from_packets(packets)
        payloads = batch.payloads
        work = [(self._new_entry(ANONYMOUS_FLOW), payload) for payload in payloads]
        views = self._scan_views(work) if work else []
        self.counters.segments += len(work)
        self.counters.bytes_scanned += sum(batch.length)
        found: Dict[int, List[StreamMatch]] = {}
        for index, (raw, lowered) in enumerate(views):
            if raw or lowered:
                self._attribute(None, [index], batch, 0, raw, lowered, found)
        return found

    def _attribute(
        self,
        key: Optional[FlowKey],
        indexes: List[int],
        batch: PacketBatch,
        start: int,
        raw: MatchList,
        lowered: MatchList,
        found: Dict[int, List[StreamMatch]],
    ) -> None:
        """Hand one flow's hits to the segments they ended in.

        The per-segment half of :meth:`scan_batch`, entered only for a flow
        whose joined scan reported a hit: ``start`` is the flow-absolute
        offset of the flow's first segment in this batch.
        """
        # bounds[j + 1] = flow-absolute end offset of segment j; a match
        # with end offset o belongs to the segment with the smallest end
        # >= o (its final byte is at o - 1), which starts at bounds[j]
        lengths, packet_ids = batch.length, batch.packet_id
        bounds = list(accumulate([lengths[index] for index in indexes], initial=start))

        counters = self.counters
        pattern_length = self._pattern_length
        for matches, is_lowered in ((raw, False), (lowered, True)):
            counters.matches += len(matches)
            for offset, number in matches:
                position = bisect_left(bounds, offset, 1) - 1
                index = indexes[position]
                events = found.get(index)
                if events is None:
                    events = found[index] = []
                events.append(StreamMatch(key, packet_ids[index], offset, number, is_lowered))
                # the match ends in this segment but started before it
                if offset - pattern_length[number] < bounds[position]:
                    counters.cross_segment_matches += 1

    def flush(self) -> None:
        """End of a finite source: the engine buffers nothing."""

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The engine's gauges as one plain dict.

        Counters (``evicted_flows``, ``released_flows`` — flows that left at
        their FIN or RST — and ``cross_segment_matches``) are lifetime
        totals; ``active_flows`` is a live gauge.  The dict is
        JSON-serialisable, so it can ride along in run artifacts
        (:meth:`repro.api.Session.stats` embeds it).
        """
        return {
            "active_flows": len(self.flows),
            "evicted_flows": self.flows.stats.evicted,
            "released_flows": self.flows.stats.released,
            "cross_segment_matches": self.counters.cross_segment_matches,
        }

    def checkpoint(self) -> Dict:
        """Serialise the flow table to plain data (:meth:`FlowTable.checkpoint`,
        or :meth:`TcpReassembler.checkpoint` with its sequencers)."""
        reassembler = self.reassembler
        return self.flows.checkpoint() if reassembler is None else reassembler.checkpoint()

    def restore(self, data: Dict, on_evict: Optional[Callable[[FlowEntry], None]] = None) -> None:
        """Restore flow state saved by :meth:`checkpoint`.

        The table keeps its *configured* flow capacity — a checkpoint from a
        larger table never silently raises this engine's memory bound;
        over-capacity flows are dropped LRU-first, each handed to
        ``on_evict`` (:meth:`FlowTable.restore`).  The older envelope that
        listed one table per partition of the flows is accepted when it holds
        one table, which is every checkpoint the IDS wrote; the LRU order
        across several tables cannot be recovered, so more raise.  A flow
        whose state id is not one of the program's states is a
        ``ValueError`` naming the flow and ``ScanState.state``.
        """
        table = checkpoint_table(data)
        flows = FlowTable.restore(table, capacity=self.flows.capacity, on_evict=on_evict)
        limit = self.program.num_states
        for entry in flows.entries():
            for view, state in (("states", entry.state), ("lower_states", entry.lower_state)):
                if state is not None and state.state >= limit:
                    raise ValueError(
                        f"flow {entry.key.as_tuple()} {view}: ScanState.state must be "
                        f"below the program's {limit} states, got {state.state}"
                    )
        self.flows = flows
        if self.reassembler is not None:
            self.reassembler.flows = flows
            self.reassembler.next_packet_id = int(table.get("next_packet_id", 0))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Part of the pipeline-stage contract: nothing to release."""

    def __enter__(self) -> "ScanService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


#: The engine's other name (see :class:`ScanService`).
StreamScanner = ScanService


__all__ = [
    "ANONYMOUS_FLOW",
    "Eviction",
    "ScanService",
    "ScannerStatistics",
    "StreamMatch",
    "StreamScanResult",
    "StreamScanner",
    "checkpoint_table",
    "event_order",
]
