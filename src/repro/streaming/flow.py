"""Flow identity and the LRU flow-state table.

Real DPI line cards scan *flows*, not packets: a pattern may straddle the
boundary between consecutive TCP segments, and millions of concurrent flows
must share a handful of engines.  The flow table keeps, per live flow, the
resumable per-block :class:`repro.core.ScanState` registers (automaton state
plus two-byte history) so that scanning can pick up exactly where the flow's
previous segment left off.

Memory is bounded: the table holds at most ``capacity`` flows and evicts the
least recently scanned one when full (an evicted flow that sends more traffic
simply restarts from the root state, the standard trade-off in flow-state
engines).  The whole table can be checkpointed to a plain JSON-serialisable
dict and restored later — per-flow state is tiny (a few integers per block),
which is what makes checkpointing and migration across engines cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

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

    ``states`` holds one :class:`ScanState` per block of the compiled
    program; ``lower_states`` is the parallel state over the lower-cased view
    of the stream (allocated only when case-insensitive patterns exist).
    ``matched`` / ``matched_lower`` accumulate the global string numbers seen
    so far and ``alerted`` the rule sids already reported, so multi-content
    rules can complete across segments without duplicate alerts.

    A ``__slots__`` record rather than a dataclass: one is created per live
    flow and its fields are reassigned on every scanned segment, so the
    streaming hot loop benefits from ``__dict__``-free attribute access.
    """

    __slots__ = (
        "key",
        "states",
        "lower_states",
        "packets",
        "matched",
        "matched_lower",
        "alerted",
    )

    def __init__(
        self,
        key: FlowKey,
        states: Tuple[ScanState, ...],
        lower_states: Optional[Tuple[ScanState, ...]] = None,
        packets: int = 0,
        matched: Optional[Set[int]] = None,
        matched_lower: Optional[Set[int]] = None,
        alerted: Optional[Set[int]] = None,
    ):
        self.key = key
        self.states = states
        self.lower_states = lower_states
        self.packets = packets
        self.matched = set() if matched is None else matched
        self.matched_lower = set() if matched_lower is None else matched_lower
        self.alerted = set() if alerted is None else alerted

    def __repr__(self) -> str:
        return (
            f"FlowEntry(key={self.key!r}, states={self.states!r}, "
            f"lower_states={self.lower_states!r}, packets={self.packets!r}, "
            f"matched={self.matched!r}, matched_lower={self.matched_lower!r}, "
            f"alerted={self.alerted!r})"
        )

    @property
    def bytes_scanned(self) -> int:
        return self.states[0].offset if self.states else 0

    def as_dict(self) -> Dict:
        """JSON-serialisable checkpoint of this flow."""
        return {
            "key": list(self.key.as_tuple()),
            "states": [state.as_tuple() for state in self.states],
            "lower_states": (
                None
                if self.lower_states is None
                else [state.as_tuple() for state in self.lower_states]
            ),
            "packets": self.packets,
            "matched": sorted(self.matched),
            "matched_lower": sorted(self.matched_lower),
            "alerted": sorted(self.alerted),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FlowEntry":
        return cls(
            key=FlowKey.coerced(*data["key"]),
            states=tuple(ScanState.from_tuple(values) for values in data["states"]),
            lower_states=(
                None
                if data.get("lower_states") is None
                else tuple(
                    ScanState.from_tuple(values) for values in data["lower_states"]
                )
            ),
            packets=int(data.get("packets", 0)),
            matched=set(data.get("matched", ())),
            matched_lower=set(data.get("matched_lower", ())),
            alerted=set(data.get("alerted", ())),
        )


@dataclass
class FlowTableStatistics:
    created: int = 0
    evicted: int = 0
    #: flows present in a checkpoint but dropped at restore time because they
    #: exceeded the restoring table's capacity (not LRU evictions — the flows
    #: were never live in this table).
    restore_dropped: int = 0


class FlowTable:
    """Bounded LRU table of :class:`FlowEntry` keyed by :class:`FlowKey`."""

    def __init__(
        self,
        capacity: int = DEFAULT_FLOW_CAPACITY,
        on_evict: Optional[Callable[[FlowEntry], None]] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.on_evict = on_evict
        self.stats = FlowTableStatistics()
        self._entries: "OrderedDict[FlowKey, FlowEntry]" = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._entries

    def keys(self) -> List[FlowKey]:
        """Flow keys, least recently used first."""
        return list(self._entries)

    def peek(self, key: FlowKey) -> Optional[FlowEntry]:
        """Like :meth:`lookup` but leaving ``key``'s recency alone."""
        return self._entries.get(key)

    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        """Return the entry for ``key`` (refreshing its recency) or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def touch(self, key: FlowKey) -> None:
        """Refresh ``key``'s recency.

        The batched fast path walks flows in grouped order and then replays
        the per-segment recency sequence through here, so eviction order
        stays identical to segment-at-a-time scanning.
        """
        if key in self._entries:
            self._entries.move_to_end(key)

    def get_or_create(
        self, key: FlowKey, factory: Callable[[FlowKey], FlowEntry]
    ) -> FlowEntry:
        """Fetch the live entry for ``key``, creating (and possibly evicting)."""
        entry = self.lookup(key)
        if entry is not None:
            return entry
        entry = factory(key)
        self.insert(entry)
        return entry

    def insert(self, entry: FlowEntry) -> None:
        if entry.key not in self._entries:
            self.stats.created += 1
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.stats.evicted += 1
            if self.on_evict is not None:
                self.on_evict(evicted)

    def remove(self, key: FlowKey) -> Optional[FlowEntry]:
        """Drop a flow (e.g. on TCP FIN/RST); not counted as an eviction."""
        return self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

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
        table = cls(
            capacity=int(data["capacity"]) if capacity is None else capacity,
            on_evict=on_evict,
        )
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
