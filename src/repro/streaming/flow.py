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
batch's rows with the outcome of an arrival-order walk, exactly as
segment-at-a-time scanning would leave it, and hands back each row's entry
plus the evicted entries (:class:`SequencedBatch`'s columns); those and
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
        are out of range (:meth:`ScanState.from_tuple`), a key that is not
        a flow's five fields (:meth:`FiveTuple.from_checkpoint`) or a
        sequencer the reassembler could not resume
        (:meth:`~repro.proto.reassembly.Sequencer.from_dict`).  The per-flow
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

            try:
                entry.sequencer = Sequencer.from_dict(data["sequencer"])
            except ValueError as error:
                raise ValueError(f"flow {key.as_tuple()} sequencer: {error}") from None
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


class SequencedBatch(PacketBatch):
    """A batch as the scan engine scans it, with its one admission record:
    ``entry[i]`` is row ``i``'s :class:`FlowEntry`, and ``departures`` an
    ``(index, entry)`` for every flow that left the table (evicted, or
    released at its close) before row ``index``.  The rows are the arrival
    batch's (:meth:`FlowTable.admit`) or what the TCP reassembler emitted;
    a reassembled batch's ``flows`` may name a key twice, when a flow
    evicted mid-batch had its buffered pieces flushed."""

    __slots__ = ("entry", "departures")

    def __init__(self, *columns, entry: List[FlowEntry], departures: List["Eviction"]):
        super().__init__(*columns)
        self.entry = entry
        self.departures = departures

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
        batch: PacketBatch,
        factory: Callable[[FlowKey], FlowEntry],
        visit: Optional[Callable[[range, List, List[FlowEntry]], None]] = None,
    ) -> Tuple[List[FlowEntry], List[Eviction]]:
        """Admit one arrival batch: row ``i`` is a segment of flow
        ``batch.flows[batch.flow[i]]``, and a row with no header is one of
        :data:`ANONYMOUS_FLOW`.

        The outcome is that of walking the rows in arrival order, as
        scanning them one at a time would: each row refreshes its flow's
        live entry, or gets a new entry from ``factory`` — evicting the least
        recently used flow whenever that overflows the table — so LRU order,
        counters and evictions are that walk's.  Returns ``(entry,
        departures)``, the admission columns of a :class:`SequencedBatch`:
        ``entry[i]`` is row ``i``'s entry, and ``departures`` an ``(index,
        entry)`` :data:`Eviction` for every flow evicted while row ``index``
        was admitted.  A flow evicted and seen again within the batch comes
        back as a second, fresh entry, so its later rows restart from the
        root state.

        Each flow's entry is looked up once: when the batch's new flows fit,
        nothing can be evicted, and LRU order after the walk is the touched
        flows by their last row — so each is refreshed once, in that order.
        Only a batch that would overflow the table is walked row by row.

        ``visit``, if given, is handed each admitted span of rows before the
        next is admitted, as ``visit(span, entries, evicted)``: ``entries[n]``
        is flow ``n``'s entry for the span and ``evicted`` the entries
        evicted to admit it.  A batch that fits is one span; the walk hands
        over one row at a time, so a flow the visitor releases
        (:meth:`release`) frees its slot for the next row, and comes back, if
        seen again, as a fresh entry.
        """
        entries = self._entries
        keys = batch.flows
        if any(key is None for key in keys):
            keys = [ANONYMOUS_FLOW if key is None else key for key in keys]
        rows = batch.flow
        numbered: List[Optional[FlowEntry]] = [None] * len(keys)
        order = list(dict.fromkeys(reversed(rows)))  # flows by last row, latest first
        order.reverse()
        found = [entries.get(keys[number]) for number in order]
        if len(entries) + found.count(None) <= self.capacity:
            created = 0
            for number, entry in zip(order, found):
                key = keys[number]
                if entry is None:  # new, unless another flow number shares its key
                    entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = factory(key)
                    created += 1
                else:
                    entries.move_to_end(key)
                numbered[number] = entry
            self.stats.created += created
            column = [numbered[number] for number in rows]
            if visit is not None:
                visit(range(len(rows)), numbered, [])
            return column, []
        refresh = entries.move_to_end
        capacity = self.capacity
        column = []
        departures: List[Eviction] = []
        created = 0
        for index, number in enumerate(rows):
            key = keys[number]
            entry = entries.get(key)
            seen = len(departures)
            if entry is None:
                entry = entries[key] = factory(key)
                created += 1
                while len(entries) > capacity:
                    departures.append((index, entries.popitem(last=False)[1]))
            else:
                refresh(key)
            column.append(entry)
            if visit is not None:
                numbered[number] = entry
                visit(range(index, index + 1), numbered, [gone for _, gone in departures[seen:]])
        self.stats.created += created
        self.stats.evicted += len(departures)
        return column, departures

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
