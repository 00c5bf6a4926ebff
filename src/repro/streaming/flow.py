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
engines).  :meth:`FlowTable.admit` is the one place that happens: it walks a
batch's flow keys in arrival order, exactly as segment-at-a-time scanning
would, and hands back each flow incarnation with its segments plus the
evicted entries, the only way a flow (:attr:`FlowEntry.record` and all)
leaves the table.  The whole table can be checkpointed to a plain
JSON-serialisable dict and restored later — per-flow state is tiny (a few
integers), which is what makes checkpointing and migration across engines
cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backend import ScanState
from ..traffic.packet import FiveTuple

#: Default maximum number of concurrently tracked flows per table.
DEFAULT_FLOW_CAPACITY = 4096


@dataclass(frozen=True)
class FlowKey:
    """Hashable flow identity derived from the packet 5-tuple.

    Deliberately a separate type from :class:`repro.traffic.FiveTuple`, even
    though the fields coincide today: the header is a *record* of what was on
    the wire, while the flow key is a *policy* about which packets share scan
    state — the place where direction normalisation (client/server flows),
    VLAN/tunnel identifiers or IPv6 scoping would land without touching the
    packet model.

    A key is resolved once per flow and then handed from layer to layer, so
    it carries what every layer used to recompute per packet: its hash.
    Identity is still *by value*: a key rebuilt from a checkpoint, a pickle
    or a fresh :meth:`coerced` call is equal and hashes alike — nothing may
    assume two equal keys are one object.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.as_tuple()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: string hashes are salted per process, so
        # the cached hash must never travel inside a pickle
        return (FlowKey, self.as_tuple())

    @classmethod
    def coerced(cls, src_ip, dst_ip, src_port, dst_port, protocol) -> "FlowKey":
        """Build a key with canonical field types.

        Flow identity is *typed*: ``encode()`` stringifies every field, so a
        port that arrives as the float ``80.0`` (a JSON checkpoint round-trip,
        a hand-written fixture) would hash and compare as ``"80.0"`` — a
        different table slot than the live ``80``.
        Every constructor that ingests external data funnels through here.
        """
        return cls(
            src_ip=str(src_ip),
            dst_ip=str(dst_ip),
            src_port=int(src_port),
            dst_port=int(dst_port),
            protocol=str(protocol),
        )

    @classmethod
    def from_header(cls, header: FiveTuple) -> "FlowKey":
        """The header's flow key, derived on first use and kept on the header."""
        key = header.flow_key
        if key is None:
            key = cls.coerced(
                header.src_ip,
                header.dst_ip,
                header.src_port,
                header.dst_port,
                header.protocol,
            )
            object.__setattr__(header, "flow_key", key)
        return key

    def as_tuple(self) -> Tuple[str, str, int, int, str]:
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    def encode(self) -> bytes:
        """Stable byte encoding of the flow's identity."""
        return "|".join(str(part) for part in self.as_tuple()).encode()


class FlowEntry:
    """Everything remembered about one live flow between segments.

    ``state`` is the compiled program's :class:`ScanState` for the flow;
    ``lower_state`` is the parallel state over the lower-cased view of the
    stream (allocated only when case-insensitive patterns exist).  A
    checkpoint writes each as a one-element list, under ``"states"`` and
    ``"lower_states"``.  ``record`` is the IDS's confirm record for the
    flow (:mod:`repro.ids.confirm`): no scan or checkpoint reads it, and it
    leaves with the entry.

    A ``__slots__`` record rather than a dataclass: one is created per live
    flow and its fields are reassigned on every scanned batch, so the
    streaming hot loop benefits from ``__dict__``-free attribute access.
    """

    __slots__ = ("key", "state", "lower_state", "record")

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
        return {
            "key": list(self.key.as_tuple()),
            "states": [self.state.as_tuple()],
            "lower_states": (
                None if self.lower_state is None else [self.lower_state.as_tuple()]
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FlowEntry":
        """Rebuild a flow from :meth:`as_dict` output.  Every program is one
        automaton, so a flow whose ``states`` or ``lower_states`` hold other
        than one :class:`ScanState` (a multi-block checkpoint) is refused
        with a ``ValueError`` naming the flow, as is a state whose fields
        are out of range (:meth:`ScanState.from_tuple`).  The per-flow
        ``packets``, ``matched``, ``matched_lower`` and ``alerted`` keys
        older checkpoints carry are ignored: nothing read them."""
        key = FlowKey.coerced(*data["key"])
        return cls(
            key=key,
            state=_flow_state(key, "states", data["states"]),
            lower_state=_flow_state(key, "lower_states", data.get("lower_states")),
        )


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
        self, keys: Sequence[FlowKey], factory: Callable[[FlowKey], FlowEntry]
    ) -> Admission:
        """Admit one batch's segments, flow key by flow key in arrival order.

        Each key refreshes its live entry's recency, or gets a new entry
        from ``factory`` — evicting the least recently used flow whenever
        that overflows the table — exactly as scanning the batch one segment
        at a time would, so LRU order, counters and evictions are that
        walk's.  Returns ``(admitted, evictions)``: every entry with the
        arrival indexes of its segments, in first-arrival order, and an
        ``(index, entry)`` :data:`Eviction` for every flow evicted while the
        segment at ``index`` was admitted.  A flow evicted and seen again
        within the batch comes back as a second, fresh entry, so its later
        segments restart from the root state.
        """
        entries = self._entries
        refresh = entries.move_to_end
        capacity = self.capacity
        current: Dict[FlowKey, List[int]] = {}
        admitted: Admitted = []
        evictions: List[Eviction] = []
        created = 0
        for index, key in enumerate(keys):
            indexes = current.get(key)
            if indexes is not None:
                indexes.append(index)
                refresh(key)
                continue
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = factory(key)
                created += 1
                while len(entries) > capacity:
                    evicted, gone = entries.popitem(last=False)
                    evictions.append((index, gone))
                    current.pop(evicted, None)
            else:
                refresh(key)
            indexes = current[key] = [index]
            admitted.append((entry, indexes))
        self.stats.created += created
        self.stats.evicted += len(evictions)
        return admitted, evictions

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
