"""Stateful flow scanning over one compiled matcher program.

A :class:`StreamScanner` is the software model of one string matching engine
that has been taught to multiplex flows: before scanning a segment it loads
the flow's checkpointed :class:`repro.backend.ScanState` registers from its
:class:`repro.streaming.flow.FlowTable`, and afterwards it stores them back.
Because the state carries everything the backend needs to resume (automaton
state, two-byte history, tail buffer), a pattern split across consecutive
segments of a flow is found exactly as if the segments had arrived as one
contiguous payload — the property the per-packet ``match`` path cannot
provide.

The scanner is written against the :class:`repro.backend.CompiledProgram`
protocol, so *any* backend — the DTP automaton, the compiled dense table, a
plain DFA, even Wu-Manber — multiplexes flows through the identical code
path.
Higher layers stack the scan service on top of it; the declarative
:class:`repro.api.Session` facade composes the whole column from one
:class:`repro.api.PipelineConfig`.

Hot path
--------
A scan service hands a whole batch to one :meth:`scan_batch` call.  The
batch is grouped by flow once; each flow's segments are concatenated into
one job, and all of those jobs cross into the backend together
(``scan_many``: one job per flow, plus one per lower-cased view under
``track_nocase``), so a batch costs one backend crossing.  Matches are then
re-attributed to their segments by offset — per-segment work only a flow
whose scan reported a hit pays for.  A batch that could make the flow table
evict takes the exact per-segment loop instead, so events, statistics and
LRU order are byte-identical either way (the differential harness in the
test suite holds it to that).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple, Union

from ..backend import CompiledProgram, MatchList, ScanJob, ScanState
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowEntry, FlowKey, FlowTable

#: Flow key used when a packet carries no 5-tuple header (treated as one
#: anonymous flow so bare payload streams can still be scanned statefully).
ANONYMOUS_FLOW = FlowKey("0.0.0.0", "0.0.0.0", 0, 0, "raw")

#: One batch item: ``(FlowKey, payload, packet_id)`` — the item form
#: :meth:`StreamScanner.scan_batch` accepts besides a :class:`SegmentBatch`.
BatchItem = Tuple[FlowKey, bytes, int]

#: Per-batch eviction record: ``(item_index, FlowKey)`` — the flow evicted
#: while the batch item at ``item_index`` was being scanned.
Eviction = Tuple[int, FlowKey]

#: What :meth:`StreamScanner.scan_batch` returns: ``(hits, evictions)``.
#: ``hits`` maps the index of every segment that matched to its events and
#: holds nothing for the others; it is ordered by arrival — the order the
#: canonical event sort breaks its ties in.
BatchScan = Tuple[Dict[int, List["StreamMatch"]], List[Eviction]]

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
        flow_key = StreamScanner.flow_key  # resolved once per flow
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
        return FlowEntry(
            key=key,
            state=ScanState(),
            lower_state=ScanState() if self.track_nocase else None,
        )

    @staticmethod
    def flow_key(packet: Packet) -> FlowKey:
        """The packet's flow: the key its header already carries, if any."""
        header = packet.header
        return ANONYMOUS_FLOW if header is None else FlowKey.from_header(header)

    def _scan_views(
        self, work: Sequence[Tuple[FlowEntry, bytes]]
    ) -> List[Tuple[MatchList, MatchList]]:
        """Cross into the backend once for the next bytes of several flows.

        Every ``(entry, payload)`` rides the same ``scan_many`` call as one
        raw job plus, under ``track_nocase``, one job over the lower-cased
        view.  Resumes the entries' states, records the matched string
        numbers and returns ``(raw, lowered)`` hit lists per entry, where
        ``lowered`` holds only what the raw view did not already report, on
        the strings ``track_nocase`` lets a lowered hit credit.
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
            if raw:
                entry.matched.update(number for _, number in raw)
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
                    entry.matched_lower.update(number for _, number in lowered)
            views.append((raw, lowered))
        return views

    # ------------------------------------------------------------------
    def scan_packet(self, packet: Packet) -> List[StreamMatch]:
        """Scan one packet as the next segment of its flow."""
        return self.scan_segment(self.flow_key(packet), packet.payload, packet.packet_id)

    def scan_segment(
        self, key: FlowKey, payload: bytes, packet_id: int = 0
    ) -> List[StreamMatch]:
        """Scan ``payload`` as the next segment of flow ``key``."""
        entry = self.flows.get_or_create(key, self._new_entry)
        segment_start = entry.bytes_scanned
        ((raw, lowered),) = self._scan_views([(entry, payload)])
        matches = [
            StreamMatch(key, packet_id, offset, number) for offset, number in raw
        ]
        matches.extend(
            StreamMatch(key, packet_id, offset, number, True)
            for offset, number in lowered
        )

        entry.packets += 1
        self.stats.segments += 1
        self.stats.bytes_scanned += len(payload)
        self.stats.matches += len(matches)
        for match in matches:
            # the match ends in this segment but started before it
            if match.end_offset - self._pattern_length[match.string_number] < segment_start:
                self.stats.cross_segment_matches += 1
        return matches

    def scan_packets(self, packets: Sequence[Packet]) -> List[StreamMatch]:
        """Scan a batch of packets in arrival order (flows may interleave)."""
        matches: List[StreamMatch] = []
        for packet in packets:
            matches.extend(self.scan_packet(packet))
        return matches

    # ------------------------------------------------------------------
    # batched scanning (the services' hot path)
    # ------------------------------------------------------------------
    def scan_batch(self, items: Union[SegmentBatch, Sequence[BatchItem]]) -> BatchScan:
        """Scan one batch of segments: a :class:`SegmentBatch` or a sequence
        of ``(key, payload, packet_id)`` items.

        Returns ``(hits, evictions)`` (see :data:`BatchScan`): ``hits[i]``
        is exactly the non-empty event list :meth:`scan_segment` would have
        returned for segment ``i``, and ``evictions`` records ``(i, key)``,
        in arrival order, for every flow LRU-evicted while segment ``i`` was
        being scanned.

        Fast path: the batch is grouped by flow once.  When the table
        provably cannot evict (its live flows plus this batch's new ones fit
        its capacity), each flow's segments are concatenated into one job
        and every job crosses into the backend in one ``scan_many`` call;
        matches are re-attributed to segments by their flow-absolute end
        offset and the table's LRU recency is replayed in per-segment order
        afterwards.  Otherwise the batch takes the exact per-segment loop,
        because eviction timing (and hence restart state) depends on the
        segment interleaving the fast path collapses.  Events, statistics
        and final table state are identical on both paths.
        """
        batch = items if isinstance(items, SegmentBatch) else SegmentBatch.from_items(items)
        groups: Dict[FlowKey, List[int]] = {}
        for index, key in enumerate(batch.keys):
            group = groups.get(key)
            if group is None:
                groups[key] = [index]
            else:
                group.append(index)
        table = self.flows
        if len(table) + sum(1 for key in groups if key not in table) > table.capacity:
            return self._scan_per_segment(batch)

        work: List[Tuple[FlowEntry, bytes]] = []
        payloads = batch.payloads
        for key, indexes in groups.items():
            entry = table.peek(key)
            if entry is None:
                entry = self._new_entry(key)
                table.insert(entry)
            entry.packets += len(indexes)
            work.append((entry, b"".join([payloads[index] for index in indexes])))
        views = self._scan_views(work) if work else []

        stats = self.stats
        found: Dict[int, List[StreamMatch]] = {}
        for (key, indexes), (entry, joined), (raw, lowered) in zip(
            groups.items(), work, views
        ):
            stats.segments += len(indexes)
            stats.bytes_scanned += len(joined)
            if raw or lowered:
                self._attribute(
                    key, indexes, batch, entry.bytes_scanned - len(joined),
                    raw, lowered, found,
                )

        # Replay LRU recency in per-segment order: the grouped walk inserted
        # new flows at their *first* arrival and left live ones in place, but
        # per-segment scanning leaves flows ordered by their *last* segment.
        for key in sorted(groups, key=lambda flow: groups[flow][-1]):
            table.touch(key)
        return {index: found[index] for index in sorted(found)}, []

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

        The per-segment half of the fast path, entered only for a flow whose
        joined scan reported a hit: ``start`` is the flow-absolute offset of
        the flow's first segment in this batch.
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

    def _scan_per_segment(self, batch: SegmentBatch) -> BatchScan:
        """The exact slow path: scan the batch one segment at a time,
        recording each flow the table evicts on the way."""
        keys, payloads, packet_ids = batch.keys, batch.payloads, batch.packet_ids
        hits: Dict[int, List[StreamMatch]] = {}
        evictions: List[Eviction] = []
        flows = self.flows
        previous = flows.on_evict
        position = 0

        def record(entry: FlowEntry) -> None:
            evictions.append((position, entry.key))
            if previous is not None:
                previous(entry)

        flows.on_evict = record
        try:
            for position in range(len(keys)):
                events = self.scan_segment(keys[position], payloads[position], packet_ids[position])
                if events:
                    hits[position] = events
        finally:
            flows.on_evict = previous
        return hits, evictions

    # ------------------------------------------------------------------
    def close_flow(self, key: FlowKey) -> Optional[FlowEntry]:
        """Forget a finished flow and return its final entry, if tracked."""
        return self.flows.remove(key)

    @property
    def active_flows(self) -> int:
        return len(self.flows)


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
