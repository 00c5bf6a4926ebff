"""Flow identity and the LRU flow-state table.

Real DPI line cards scan *flows*, not packets: a pattern may straddle the
boundary between consecutive TCP segments, and millions of concurrent flows
must share a handful of engines.  The flow table keeps, per live flow, the
resumable :class:`repro.backend.ScanState` register set (automaton state
plus two-byte history) so that scanning can pick up exactly where the flow's
previous segment left off.

Memory is bounded: the table holds at most ``capacity`` flows and evicts the
least recently scanned one when full (an evicted flow that sends more traffic
simply restarts from the root state, the standard trade-off in flow-state
engines).  :meth:`FlowTable.admit` is the one place that happens: it admits a
batch's flows with the outcome of an arrival-order walk, exactly as
segment-at-a-time scanning would leave it, and hands back each flow
incarnation with its segments plus the evicted entries; those and
:meth:`FlowTable.release` (a flow the reassembler saw close) are the only
ways a flow, :attr:`FlowEntry.record` and all, leaves the table.  The whole
table can be checkpointed to a plain JSON-serialisable dict and restored
later — per-flow state is tiny (a few integers), which is what makes
checkpointing and migration across engines cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backend import ScanState
from ..traffic.packet import FiveTuple, PacketBatch

#: Default maximum number of concurrently tracked flows per table.
DEFAULT_FLOW_CAPACITY = 4096

#: The flow identity every per-flow table is keyed by: a packet's header is
#: its flow key (:class:`repro.traffic.FiveTuple`, under the name the scan
#: layers use for it).
FlowKey = FiveTuple

#: Flow key used when a packet carries no 5-tuple header (treated as one
#: anonymous flow so bare payload streams can still be scanned statefully).
ANONYMOUS_FLOW = FlowKey("0.0.0.0", "0.0.0.0", 0, 0, "raw")


def table_flows(
    flows: Sequence[Optional[FlowKey]],
) -> Tuple[Sequence[FlowKey], Optional[List[int]]]:
    """``(keys, renumber)``: a batch's ``flows`` as :meth:`FlowTable.admit`'s
    distinct keys, headerless ones as :data:`ANONYMOUS_FLOW`; ``renumber[f]``
    is flow ``f``'s number in ``keys`` (``None``: the batch's own)."""
    if all(key is not None for key in flows):
        return flows, None
    number: Dict[FlowKey, int] = {}
    renumber = [
        number.setdefault(ANONYMOUS_FLOW if key is None else key, len(number))
        for key in flows
    ]
    return list(number), renumber


class FlowEntry:
    """Everything remembered about one live flow between segments.

    ``state`` is the compiled program's :class:`ScanState` for the flow;
    ``lower_state`` is the parallel state over the lower-cased view of the
    stream (allocated only when case-insensitive patterns exist).  A
    checkpoint writes each as a one-element list, under ``"states"`` and
    ``"lower_states"``.  ``record`` is the IDS's confirm record for the
    flow (:mod:`repro.ids.confirm`): no scan or checkpoint reads it, and it
    leaves with the entry.  ``sequencer`` is the TCP reassembler's
    :class:`repro.proto.reassembly.Sequencer` for the flow, if any.

    A ``__slots__`` record rather than a dataclass: one is created per live
    flow and its fields are reassigned on every scanned batch, so the
    streaming hot loop benefits from ``__dict__``-free attribute access.
    """

    __slots__ = ("key", "state", "lower_state", "record", "sequencer")

    def __init__(
        self,
        key: FlowKey,
        state: ScanState,
        lower_state: Optional[ScanState] = None,
    ):
        self.key = key
        self.state = state
        self.lower_state = lower_state
        self.record = None
        self.sequencer = None

    def __repr__(self) -> str:
        return (
            f"FlowEntry(key={self.key!r}, state={self.state!r}, "
            f"lower_state={self.lower_state!r})"
        )

    @property
    def bytes_scanned(self) -> int:
        return self.state.offset

    def as_dict(self) -> Dict:
        """JSON-serialisable checkpoint of this flow."""
        out = {
            "key": list(self.key.as_tuple()),
            "states": [self.state.as_tuple()],
            "lower_states": (
                None if self.lower_state is None else [self.lower_state.as_tuple()]
            ),
        }
        if self.sequencer is not None:
            out["sequencer"] = self.sequencer.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FlowEntry":
        """Rebuild a flow from :meth:`as_dict` output.  Every program is one
        automaton, so a flow whose ``states`` or ``lower_states`` hold other
        than one :class:`ScanState` (a multi-block checkpoint) is refused
        with a ``ValueError`` naming the flow, as is a state whose fields
        are out of range (:meth:`ScanState.from_tuple`) or a key that is not
        a flow's five fields (:meth:`FiveTuple.from_checkpoint`).  The per-flow
        ``packets``, ``matched``, ``matched_lower`` and ``alerted`` keys
        older checkpoints carry are ignored: nothing read them."""
        key = FlowKey.from_checkpoint(data["key"])
        entry = cls(
            key=key,
            state=_flow_state(key, "states", data["states"]),
            lower_state=_flow_state(key, "lower_states", data.get("lower_states")),
        )
        if data.get("sequencer") is not None:
            from ..proto.reassembly import Sequencer  # the proto layer sits above

            entry.sequencer = Sequencer.from_dict(data["sequencer"])
        return entry


def _flow_state(key: FlowKey, view: str, values: Optional[Sequence]) -> Optional[ScanState]:
    """A checkpointed ``view`` of flow ``key``: one :class:`ScanState`, or
    ``None``; any other count, or a state out of range, is a ``ValueError``
    naming the flow."""
    if values is None:
        return None
    if len(values) != 1:
        raise ValueError(
            f"flow {key.as_tuple()} checkpoints {len(values)} {view}; "
            "a program has one scan state per flow"
        )
    try:
        return ScanState.from_tuple(values[0])
    except ValueError as error:
        raise ValueError(f"flow {key.as_tuple()} {view}: {error}") from None


@dataclass
class FlowTableStatistics:
    created: int = 0
    evicted: int = 0
    #: flows that left because they closed (:meth:`FlowTable.release`)
    released: int = 0
    #: flows present in a checkpoint but dropped at restore time because they
    #: exceeded the restoring table's capacity (not LRU evictions — the flows
    #: were never live in this table).
    restore_dropped: int = 0


#: Per-batch eviction record: ``(item_index, FlowEntry)`` — the flow evicted
#: while the batch item at ``item_index`` was being admitted, record and all.
Eviction = Tuple[int, FlowEntry]

#: Every entry a batch was admitted under, with its segments' arrival indexes.
Admitted = List[Tuple[FlowEntry, List[int]]]

#: What :meth:`FlowTable.admit` returns: ``(admitted, evictions)``.
Admission = Tuple[Admitted, List[Eviction]]


def _last_index(admitted: Tuple[FlowEntry, List[int]]) -> int:
    return admitted[1][-1]


class SequencedBatch(PacketBatch):
    """A batch the TCP reassembler emitted: ``entry[i]`` is row ``i``'s
    :class:`FlowEntry`, and ``departures`` an ``(index, entry)`` for every
    flow that left the table (evicted, or released at its close) once
    ``index`` rows were emitted."""

    __slots__ = ("entry", "departures")

    def __init__(self, *columns, entry: List[FlowEntry], departures: List["Eviction"]):
        super().__init__(*columns)
        self.entry = entry
        self.departures = departures

    def admission(self) -> "Admission":
        """``(admitted, departures)``, as :meth:`FlowTable.admit` returns."""
        groups: Dict[FlowEntry, List[int]] = {}
        for index, entry in enumerate(self.entry):
            indexes = groups.get(entry)
            if indexes is None:
                groups[entry] = [index]
            else:
                indexes.append(index)
        return list(groups.items()), self.departures

    def __iadd__(self, other: "SequencedBatch") -> "SequencedBatch":
        at = len(self)
        super().__iadd__(other)
        self.entry += other.entry
        self.departures += [(at + index, entry) for index, entry in other.departures]
        return self


class FlowTable:
    """Bounded LRU table of :class:`FlowEntry` keyed by :class:`FlowKey`."""

    def __init__(self, capacity: int = DEFAULT_FLOW_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.stats = FlowTableStatistics()
        self._entries: "OrderedDict[FlowKey, FlowEntry]" = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._entries

    def entries(self) -> List[FlowEntry]:
        """Live entries, least recently used first."""
        return list(self._entries.values())

    def peek(self, key: FlowKey) -> Optional[FlowEntry]:
        """The live entry for ``key``, or ``None``; its recency is left alone."""
        return self._entries.get(key)

    def admit(
        self,
        flows: Sequence[FlowKey],
        factory: Callable[[FlowKey], FlowEntry],
        rows: Sequence[int],
        visit: Optional[Callable[[range, List, List[FlowEntry]], None]] = None,
    ) -> Admission:
        """Admit one batch's segments: segment ``i`` is of flow ``flows[rows[i]]``.

        ``flows`` are the batch's flows, each key once (a packet batch's
        ``flows``), and ``rows`` its flow column, in arrival order.  The
        outcome is that of walking the segments in arrival order, as
        scanning the batch one segment at a time would: each segment
        refreshes its flow's live entry, or gets a new entry from
        ``factory`` — evicting the least recently used flow whenever that
        overflows the table — so LRU order, counters and evictions are that
        walk's.  Returns ``(admitted, evictions)``: every entry with the
        arrival indexes of its segments, in first-arrival order, and an
        ``(index, entry)`` :data:`Eviction` for every flow evicted while the
        segment at ``index`` was admitted.  A flow evicted and seen again
        within the batch comes back as a second, fresh entry, so its later
        segments restart from the root state.

        The segments are grouped by flow number and each flow's entry looked
        up once: when the batch's new flows fit, nothing can be evicted, and
        LRU order after the walk is the touched flows by their last segment
        — so each is refreshed once, in that order.  Only a batch that would
        overflow the table is walked segment by segment.

        ``visit``, if given, is handed each admitted span of segments before
        the next is admitted, as ``visit(span, entries, evicted)``:
        ``entries[n]`` is flow ``n``'s entry for the span and ``evicted`` the
        entries evicted to admit it.  A batch that fits is one span; the walk
        hands over one segment at a time, so a flow the visitor
        releases (:meth:`release`) frees its slot for the next segment, and
        comes back, if seen again, as a fresh entry.
        """
        entries = self._entries
        groups: Dict[int, List[int]] = {}
        for index, number in enumerate(rows):
            indexes = groups.get(number)
            if indexes is None:
                groups[number] = [index]
            else:
                indexes.append(index)
        found = [(number, entries.get(flows[number])) for number in groups]
        new = sum(1 for _, entry in found if entry is None)
        if len(entries) + new <= self.capacity:
            admitted: Admitted = []
            for number, entry in found:
                if entry is None:
                    key = flows[number]
                    entry = entries[key] = factory(key)
                admitted.append((entry, groups[number]))
            for entry, _ in sorted(admitted, key=_last_index):
                entries.move_to_end(entry.key)
            self.stats.created += new
            if visit is not None:
                numbered: List[Optional[FlowEntry]] = [None] * len(flows)
                for (number, _), (entry, _) in zip(found, admitted):
                    numbered[number] = entry
                visit(range(len(rows)), numbered, [])
            return admitted, []
        refresh = entries.move_to_end
        capacity = self.capacity
        numbered = [None] * len(flows)
        incarnations: Dict[FlowEntry, List[int]] = {}
        evictions: List[Eviction] = []
        created = 0
        for index, number in enumerate(rows):
            key = flows[number]
            entry = entries.get(key)
            seen = len(evictions)
            if entry is None:
                entry = entries[key] = factory(key)
                created += 1
                while len(entries) > capacity:
                    evictions.append((index, entries.popitem(last=False)[1]))
            else:
                refresh(key)
            indexes = incarnations.get(entry)
            if indexes is None:
                incarnations[entry] = [index]
            else:
                indexes.append(index)
            if visit is not None:
                numbered[number] = entry
                visit(range(index, index + 1), numbered, [gone for _, gone in evictions[seen:]])
        self.stats.created += created
        self.stats.evicted += len(evictions)
        return list(incarnations.items()), evictions

    def release(self, closed: Sequence[FlowEntry]) -> None:
        """Drop the live entries of flows that closed (``stats.released``)."""
        for entry in closed:
            del self._entries[entry.key]
        self.stats.released += len(closed)

    def reopen(self, closed: FlowEntry, factory: Callable[[FlowKey], FlowEntry]) -> FlowEntry:
        """Release a flow that closed and admit its key's next flow from
        ``factory`` in its place, as an arrival would but keeping its LRU
        position (the reassembler's batch has already placed it)."""
        entry = self._entries[closed.key] = factory(closed.key)
        self.stats.released += 1
        self.stats.created += 1
        return entry

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Serialise the whole table (LRU order preserved) to plain data."""
        return {
            "capacity": self.capacity,
            "flows": [entry.as_dict() for entry in self._entries.values()],
        }

    @classmethod
    def restore(
        cls,
        data: Dict,
        capacity: Optional[int] = None,
        on_evict: Optional[Callable[[FlowEntry], None]] = None,
    ) -> "FlowTable":
        """Rebuild a table from :meth:`checkpoint` data.

        ``capacity`` overrides the checkpointed capacity (e.g. restoring into
        a service configured with a different memory bound); when the
        checkpoint holds more flows than fit, the least recently used ones
        are dropped — each counted in ``stats.restore_dropped`` and handed to
        ``on_evict`` so no flow vanishes silently.  Restored flows count as
        ``stats.created``; ``stats.evicted`` stays 0 because dropped flows
        were never live in this table.
        """
        table = cls(int(data["capacity"]) if capacity is None else capacity)
        flows = data["flows"]
        overflow = max(0, len(flows) - table.capacity)
        for flow in flows[:overflow]:  # the LRU head that does not fit
            table.stats.restore_dropped += 1
            if on_evict is not None:
                on_evict(FlowEntry.from_dict(flow))
        for flow in flows[overflow:]:  # keep the MRU tail
            entry = FlowEntry.from_dict(flow)
            table._entries[entry.key] = entry
        table.stats.created = len(table._entries)
        return table
