"""Stateful flow scanning over one compiled matcher program.

A :class:`StreamScanner` is the software model of one string matching engine
that has been taught to multiplex flows: before scanning a batch it loads
each flow's checkpointed :class:`repro.backend.ScanState` registers from its
:class:`repro.streaming.flow.FlowTable`, and afterwards it stores them back.
Because the state carries everything the backend needs to resume (automaton
state, two-byte history, stream offset), a pattern split across consecutive
segments of a flow is found exactly as if the segments had arrived as one
contiguous payload — the property the per-packet ``match`` path cannot
provide.

The scanner is written against the :class:`repro.backend.CompiledProgram`
protocol, so *any* backend — the DTP automaton, the compiled dense table, a
plain DFA, the compressed baselines — multiplexes flows through the
identical code path.
Higher layers stack the scan service on top of it; the declarative
:class:`repro.api.Session` facade composes the whole column from one
:class:`repro.api.PipelineConfig`.

Hot path
--------
A scan service hands a whole batch to one :meth:`scan_batch` call.  The flow
table walks the batch's keys once, in arrival order
(:meth:`FlowTable.admit`), exactly as segment-at-a-time scanning would:
every flow incarnation — a flow evicted and seen again within the batch is
two — gets its segments concatenated into one job, and all of those jobs
cross into the backend together (``scan_many``: one job per incarnation,
plus one per lower-cased view under ``track_nocase``), so a batch costs one
backend crossing whether or not the table evicts.  Matches are then
re-attributed to their segments by offset — per-segment work only a flow
whose scan reported a hit pays for.  Events, statistics, eviction records
and LRU order are those of the segment-at-a-time walk (the differential
harness in the test suite holds it to that).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple, Union

from ..backend import CompiledProgram, MatchList, ScanJob, ScanState
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, Admitted, Eviction, FlowEntry, FlowKey, FlowTable

#: Flow key used when a packet carries no 5-tuple header (treated as one
#: anonymous flow so bare payload streams can still be scanned statefully).
ANONYMOUS_FLOW = FlowKey("0.0.0.0", "0.0.0.0", 0, 0, "raw")

#: The registers of a flow that has not sent a byte.  ``ScanState`` is
#: immutable, so every new flow entry starts from this one instance.
_ROOT = ScanState()

#: One batch item: ``(FlowKey, payload, packet_id)`` — the item form
#: :meth:`StreamScanner.scan_batch` accepts besides a :class:`SegmentBatch`.
BatchItem = Tuple[FlowKey, bytes, int]

#: What :meth:`StreamScanner.scan_batch` returns: ``(hits, evictions,
#: admitted)``.  ``hits`` maps the index of every segment that matched to
#: its events and holds nothing for the others; it is ordered by arrival —
#: the order the canonical event sort breaks its ties in.
BatchScan = Tuple[Dict[int, List["StreamMatch"]], List[Eviction], Admitted]

_PAYLOADS = attrgetter("payload")
_PACKET_IDS = attrgetter("packet_id")


class SegmentBatch:
    """One batch of flow segments as three parallel columns.

    Segment ``i`` is ``payloads[i]`` of flow ``keys[i]`` with id
    ``packet_ids[i]``.  The services build one straight from their packets,
    so a batch costs three lists, not one record per segment.
    """

    __slots__ = ("keys", "payloads", "packet_ids")

    def __init__(
        self,
        keys: List[FlowKey],
        payloads: Sequence[bytes],
        packet_ids: Sequence[int],
    ):
        self.keys = keys
        self.payloads = payloads
        self.packet_ids = packet_ids

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "SegmentBatch":
        flow_key = StreamScanner.flow_key
        return cls(
            [flow_key(packet) for packet in packets],
            list(map(_PAYLOADS, packets)),
            list(map(_PACKET_IDS, packets)),
        )

    @classmethod
    def from_items(cls, items: Sequence[BatchItem]) -> "SegmentBatch":
        return cls(
            [item[0] for item in items],
            [item[1] for item in items],
            [item[2] for item in items],
        )


class StreamMatch:
    """A match found while scanning a flow segment.

    ``end_offset`` is the position one past the match's final byte in the
    *flow's* byte stream (not the segment), so a cross-segment match reports
    an offset beyond the current segment's start.  ``lowered`` marks hits
    found in the lower-cased view of the stream (case-insensitive scanning).
    ``flow`` is ``None`` when the segment was scanned as a flow of its own
    (:meth:`StreamScanner.scan_fresh`).

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
    segments: int = 0
    bytes_scanned: int = 0
    matches: int = 0
    cross_segment_matches: int = 0


class StreamScanner:
    """One flow-multiplexing scan engine around any compiled matcher program.

    ``program`` is anything honouring the :class:`repro.backend.CompiledProgram`
    protocol.  ``capacity`` sizes the internally created flow table and is
    ignored when an explicit ``flow_table`` is supplied (the table's own
    bound applies).

    ``track_nocase`` turns on the lower-cased second view of every payload.
    It names the string numbers a lowered-view hit may credit — the strings
    some ``nocase`` content uses — or is ``True`` for every string; an empty
    set (or ``False``) scans the raw view alone.
    """

    def __init__(
        self,
        program: CompiledProgram,
        flow_table: Optional[FlowTable] = None,
        capacity: int = DEFAULT_FLOW_CAPACITY,
        track_nocase: Union[bool, AbstractSet[int]] = False,
    ):
        self.program = program
        self.flows = flow_table if flow_table is not None else FlowTable(capacity)
        self.track_nocase = track_nocase
        self.stats = ScannerStatistics()
        self._pattern_length = {
            index: len(pattern) for index, pattern in enumerate(program.patterns)
        }
        self._scan_many = program.scan_many

    # ------------------------------------------------------------------
    def _new_entry(self, key: FlowKey) -> FlowEntry:
        return FlowEntry(key, _ROOT, _ROOT if self.track_nocase else None)

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
    # batched scanning (the services' hot path)
    # ------------------------------------------------------------------
    def scan_batch(self, items: Union[SegmentBatch, Sequence[BatchItem]]) -> BatchScan:
        """Scan one batch of segments: a :class:`SegmentBatch` or a sequence
        of ``(key, payload, packet_id)`` items.

        Returns ``(hits, evictions, admitted)`` (see :data:`BatchScan`):
        ``hits[i]`` is exactly the non-empty event list scanning segment
        ``i`` on its own, in arrival order, would have produced;
        ``evictions`` records ``(i, entry)``, in arrival order, for every
        flow LRU-evicted while segment ``i`` was admitted; ``admitted`` is
        every entry the batch was scanned under, with its segments' indexes.

        The flow table admits the batch in arrival order
        (:meth:`FlowTable.admit`); each admitted entry's segments are joined
        into one job and every job crosses into the backend in one
        ``scan_many`` call.  Matches are re-attributed to segments by their
        flow-absolute end offset.
        """
        batch = items if isinstance(items, SegmentBatch) else SegmentBatch.from_items(items)
        admitted, evictions = self.flows.admit(batch.keys, self._new_entry)
        payloads = batch.payloads
        work = [
            (entry, b"".join([payloads[index] for index in indexes]))
            for entry, indexes in admitted
        ]
        views = self._scan_views(work) if work else []

        stats = self.stats
        found: Dict[int, List[StreamMatch]] = {}
        for (entry, indexes), (_, joined), (raw, lowered) in zip(admitted, work, views):
            stats.segments += len(indexes)
            stats.bytes_scanned += len(joined)
            if raw or lowered:
                self._attribute(
                    entry.key, indexes, batch, entry.bytes_scanned - len(joined),
                    raw, lowered, found,
                )
        return {index: found[index] for index in sorted(found)}, evictions, admitted

    def scan_fresh(self, batch: SegmentBatch) -> Dict[int, List[StreamMatch]]:
        """Scan every segment of ``batch`` as a new flow of its own.

        The stateless mode: the registers reset at every packet boundary, as
        in the paper's engine.  Still one :meth:`_scan_views` call (one
        backend crossing, both views), but the flow table and its LRU order
        are not touched.  Returns hits by arrival index, like
        :meth:`scan_batch`; the events carry no flow.
        """
        work = [(self._new_entry(key), payload) for key, payload in zip(batch.keys, batch.payloads)]
        views = self._scan_views(work) if work else []
        self.stats.segments += len(work)
        self.stats.bytes_scanned += sum(map(len, batch.payloads))
        found: Dict[int, List[StreamMatch]] = {}
        for index, (raw, lowered) in enumerate(views):
            if raw or lowered:
                self._attribute(None, [index], batch, 0, raw, lowered, found)
        return found

    def _attribute(
        self,
        key: Optional[FlowKey],
        indexes: List[int],
        batch: SegmentBatch,
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
        # boundaries[j] = flow-absolute end offset of segment j; a match
        # with end offset o belongs to the segment with the smallest
        # boundary >= o (its final byte is at o - 1 < boundaries[j]).
        payloads, packet_ids = batch.payloads, batch.packet_ids
        boundaries: List[int] = []
        acc = start
        for index in indexes:
            acc += len(payloads[index])
            boundaries.append(acc)

        stats = self.stats
        pattern_length = self._pattern_length
        for matches, is_lowered in ((raw, False), (lowered, True)):
            stats.matches += len(matches)
            for offset, number in matches:
                position = bisect_left(boundaries, offset)
                index = indexes[position]
                events = found.get(index)
                if events is None:
                    events = found[index] = []
                events.append(StreamMatch(key, packet_ids[index], offset, number, is_lowered))
                # the match ends in this segment but started before it
                segment_start = boundaries[position - 1] if position else start
                if offset - pattern_length[number] < segment_start:
                    stats.cross_segment_matches += 1


__all__ = [
    "ANONYMOUS_FLOW",
    "BatchItem",
    "BatchScan",
    "Eviction",
    "ScannerStatistics",
    "SegmentBatch",
    "StreamMatch",
    "StreamScanner",
]
