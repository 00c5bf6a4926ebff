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
protocol, so *any* backend — the device-partitioned
:class:`repro.core.AcceleratorProgram`, the compiled dense table, a plain
DFA, even Wu-Manber — multiplexes flows through the identical code path.
Higher layers stack the sharded services on top of it; the declarative
:class:`repro.api.Session` facade composes the whole column from one
:class:`repro.api.PipelineConfig`.

Hot path
--------
The sharded services feed whole shard batches through :meth:`scan_batch`,
which concatenates consecutive same-flow segments and crosses into the
backend once per batch (``scan_many``: one job per flow, plus one per
lower-cased view under ``track_nocase``) instead of once per segment, then
re-attributes the matches to their segments by offset — per-segment work
only a flow whose scan reported a hit pays for.  The fast path is
taken only when the batch provably cannot evict a flow; under eviction
pressure the scanner falls back to the exact per-segment loop, so events,
statistics and LRU order are byte-identical either way (the differential
harness in the test suite holds it to that).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend import CompiledProgram, MatchList, ScanJob
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowEntry, FlowKey, FlowTable

#: Flow key used when a packet carries no 5-tuple header (treated as one
#: anonymous flow so bare payload streams can still be scanned statefully).
ANONYMOUS_FLOW = FlowKey("0.0.0.0", "0.0.0.0", 0, 0, "raw")

#: One batch item: ``(FlowKey, payload, packet_id)`` — the executor's wire
#: format, shared by :meth:`StreamScanner.scan_batch`.
BatchItem = Tuple[FlowKey, bytes, int]

#: Per-batch eviction record: ``(item_index, FlowKey)`` — the flow evicted
#: while the batch item at ``item_index`` was being scanned.
Eviction = Tuple[int, FlowKey]


class StreamMatch:
    """A match found while scanning a flow segment.

    ``end_offset`` is the position one past the match's final byte in the
    *flow's* byte stream (not the segment), so a cross-segment match reports
    an offset beyond the current segment's start.  ``lowered`` marks hits
    found in the lower-cased view of the stream (case-insensitive scanning).

    A ``__slots__`` record rather than a dataclass: the streaming hot loop
    creates one per match event, and slot instances allocate without a
    per-instance ``__dict__``.  Equality, hashing and repr keep the frozen
    dataclass semantics the rest of the suite was written against.
    """

    __slots__ = ("flow", "packet_id", "end_offset", "string_number", "lowered")

    def __init__(
        self,
        flow: FlowKey,
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

    def _key(self) -> Tuple[FlowKey, int, int, int, bool]:
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
    """

    def __init__(
        self,
        program: CompiledProgram,
        flow_table: Optional[FlowTable] = None,
        capacity: int = DEFAULT_FLOW_CAPACITY,
        track_nocase: bool = False,
    ):
        self.program = program
        self.flows = flow_table if flow_table is not None else FlowTable(capacity)
        self.track_nocase = track_nocase
        self.stats = ScannerStatistics()
        self._pattern_length = {
            index: len(pattern) for index, pattern in enumerate(program.patterns)
        }
        # The batched backend entry; programs predating it (or wrappers like
        # HardwareAccelerator) get the protocol's default — one resumable
        # call per job, semantically identical.
        scan_many = getattr(program, "scan_many", None)
        if scan_many is None:
            scan = getattr(program, "scan_chunk", program.scan_from)

            def scan_many(jobs):
                return [scan(states, chunk) for states, chunk in jobs]

        self._scan_many = scan_many

    # ------------------------------------------------------------------
    def _new_entry(self, key: FlowKey) -> FlowEntry:
        return FlowEntry(
            key=key,
            states=self.program.initial_scan_states(),
            lower_states=(
                self.program.initial_scan_states() if self.track_nocase else None
            ),
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
        ``lowered`` holds only what the raw view did not already report.
        """
        jobs: List[ScanJob] = [(entry.states, payload) for entry, payload in work]
        if self.track_nocase:
            for entry, payload in work:
                if entry.lower_states is None:
                    # e.g. a flow restored from a checkpoint written without
                    # nocase tracking: restart the lowered view rather than
                    # silently never matching case-insensitively again.  Seed
                    # it at the raw stream offset so lowered matches keep
                    # reporting flow-absolute positions (and dedup against
                    # raw hits works).
                    entry.lower_states = self.program.initial_scan_states(
                        offset=entry.bytes_scanned
                    )
                jobs.append((entry.lower_states, payload.lower()))
        results = self._scan_many(jobs)

        views: List[Tuple[MatchList, MatchList]] = []
        for position, (entry, _) in enumerate(work):
            raw, entry.states = results[position]
            if raw:
                entry.matched.update(number for _, number in raw)
            lowered: MatchList = []
            if self.track_nocase:
                lowered, entry.lower_states = results[len(work) + position]
                if lowered:
                    # an occurrence that is already lower-case matches in
                    # both views; report it once (the raw event) so
                    # statistics are not inflated
                    raw_hits = set(raw)
                    lowered = [hit for hit in lowered if hit not in raw_hits]
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
    def scan_batch(
        self, items: Sequence[BatchItem]
    ) -> Tuple[List[List[StreamMatch]], List[Eviction]]:
        """Scan one shard batch of ``(key, payload, packet_id)`` segments.

        Returns ``(per_item, evictions)``: ``per_item[i]`` is exactly the
        event list :meth:`scan_segment` would have returned for ``items[i]``,
        and ``evictions`` records ``(item_index, key)`` for every flow
        LRU-evicted while item ``item_index`` was being scanned.

        Fast path: when the batch provably cannot evict (live flows plus this
        batch's new flows fit the table), each flow's segments are
        concatenated and the whole batch crosses into the backend once, one
        job per flow; matches are re-attributed to segments by their
        flow-absolute end offset and LRU recency is replayed in per-segment
        order afterwards.  Any batch that could evict takes the exact
        per-segment loop instead, because eviction timing (and hence restart
        state) depends on the segment interleaving the fast path collapses.
        Events, statistics and final table state are identical on both paths.
        """
        flows = self.flows
        groups: Dict[FlowKey, List[int]] = {}
        for index, item in enumerate(items):
            key = item[0]
            group = groups.get(key)
            if group is None:
                groups[key] = [index]
            else:
                group.append(index)

        new_flows = sum(1 for key in groups if key not in flows)
        if len(flows) + new_flows > flows.capacity:
            return self._scan_batch_per_segment(items)

        work: List[Tuple[FlowEntry, bytes]] = []
        table_stats = flows.stats
        for key, indexes in groups.items():
            entry = flows.lookup(key)
            if entry is None:
                entry = self._new_entry(key)
                flows.insert(entry)
            # Emulate the per-segment bookkeeping the collapsed lookups would
            # have done: each of the k segments performs one lookup, and all
            # but the creating miss (if any) hit.
            extra = len(indexes) - 1
            table_stats.lookups += extra
            table_stats.hits += extra
            entry.packets += len(indexes)
            work.append((entry, b"".join([items[index][1] for index in indexes])))

        per_item: List[List[StreamMatch]] = [[] for _ in items]
        stats = self.stats
        for (key, indexes), (entry, joined), (raw, lowered) in zip(
            groups.items(), work, self._scan_views(work)
        ):
            stats.segments += len(indexes)
            stats.bytes_scanned += len(joined)
            if raw or lowered:
                self._attribute(
                    key, indexes, items, entry.bytes_scanned - len(joined),
                    raw, lowered, per_item,
                )

        # Replay LRU recency in per-segment order: the grouped walk touched
        # each flow at its *first* arrival, but per-segment scanning leaves
        # flows ordered by their *last* segment in the batch.
        for key in sorted(groups, key=lambda flow: groups[flow][-1]):
            flows.touch(key)
        return per_item, []

    def _attribute(
        self,
        key: FlowKey,
        indexes: List[int],
        items: Sequence[BatchItem],
        start: int,
        raw: MatchList,
        lowered: MatchList,
        per_item: List[List[StreamMatch]],
    ) -> None:
        """Hand one flow's hits to the segments they ended in.

        The per-segment half of the fast path, entered only for a flow whose
        joined scan reported a hit: ``start`` is the flow-absolute offset of
        the flow's first segment in this batch.
        """
        # boundaries[j] = flow-absolute end offset of segment j; a match
        # with end offset o belongs to the segment with the smallest
        # boundary >= o (its final byte is at o - 1 < boundaries[j]).
        boundaries: List[int] = []
        acc = start
        for index in indexes:
            acc += len(items[index][1])
            boundaries.append(acc)

        for hits, is_lowered in ((raw, False), (lowered, True)):
            for offset, number in hits:
                index = indexes[bisect_left(boundaries, offset)]
                per_item[index].append(
                    StreamMatch(key, items[index][2], offset, number, is_lowered)
                )

        stats = self.stats
        pattern_length = self._pattern_length
        for index, boundary in zip(indexes, boundaries):
            events = per_item[index]
            stats.matches += len(events)
            segment_start = boundary - len(items[index][1])
            for event in events:
                if event.end_offset - pattern_length[event.string_number] < segment_start:
                    stats.cross_segment_matches += 1

    def _scan_batch_per_segment(
        self, items: Sequence[BatchItem]
    ) -> Tuple[List[List[StreamMatch]], List[Eviction]]:
        """The exact slow path: per-segment scanning with eviction records."""
        per_item: List[List[StreamMatch]] = []
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
            for position, (key, payload, packet_id) in enumerate(items):
                per_item.append(self.scan_segment(key, payload, packet_id))
        finally:
            flows.on_evict = previous
        return per_item, evictions

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
    "Eviction",
    "ScannerStatistics",
    "StreamMatch",
    "StreamScanner",
]
