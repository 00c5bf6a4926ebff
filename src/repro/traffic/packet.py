"""Packet abstraction used by the traffic generator, IDS pipeline and hardware model."""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

#: The fields of a flow's identity, in the order a checkpoint lists them.
FLOW_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")


def _port(name: str, value) -> int:
    """``value`` as a port number: an integer (``80.0`` and ``"80"`` are
    accepted as 80, ``80.5`` is not) in 0..65535, else a ``ValueError``
    naming the field."""
    try:
        port = int(value)
    except (TypeError, ValueError, OverflowError):
        port = None
    if port is None or (port != value and not isinstance(value, str)):
        raise ValueError(f"{name} {value!r} is not an integer")
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"{name} {port} out of range 0..65535")
    return port


@dataclass(frozen=True)
class FiveTuple:
    """The classic 5-tuple a router's header classifier operates on, and the
    flow's identity: every scan layer keys its per-flow state by the header
    itself (:data:`repro.streaming.flow.FlowKey` is this class).

    Identity is *typed*, since :meth:`encode` stringifies every field: a port
    that arrives as the float ``80.0`` (a JSON round-trip, a hand-written
    fixture) would otherwise encode as ``"80.0"``.  So the constructor
    canonicalises — ``str`` addresses and protocol, ``int`` ports range
    checked — and computes the hash once.  Identity is still *by value*: a
    header rebuilt from a checkpoint, a pickle or another frame is equal and
    hashes alike, so nothing may assume two equal headers are one object.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        identity = (
            str(self.src_ip),
            str(self.dst_ip),
            _port("src_port", self.src_port),
            _port("dst_port", self.dst_port),
            str(self.protocol),
        )
        set_field = object.__setattr__
        for name, value in zip(FLOW_FIELDS, identity):
            set_field(self, name, value)
        set_field(self, "_hash", hash(identity))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: string hashes are salted per process, so
        # the cached hash must never travel inside a pickle
        return (self.__class__, self.as_tuple())

    @classmethod
    def from_checkpoint(cls, values: Sequence, where: str = "flow") -> "FiveTuple":
        """A flow key read back from outside data (a checkpoint's ``"key"``
        list): anything but five fields the constructor accepts is a
        ``ValueError`` naming the flow and the field."""
        if not isinstance(values, (list, tuple)) or len(values) != len(FLOW_FIELDS):
            raise ValueError(
                f"{where} {values!r} key: a flow key is the {len(FLOW_FIELDS)} "
                f"fields {', '.join(FLOW_FIELDS)}"
            )
        try:
            return cls(*values)
        except ValueError as error:
            raise ValueError(f"{where} {list(values)!r} key: {error}") from None

    @staticmethod
    def from_header(header: "FiveTuple") -> "FiveTuple":
        """A header's flow key: the header itself."""
        return header

    def as_tuple(self) -> Tuple[str, str, int, int, str]:
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    def encode(self) -> bytes:
        """Stable byte encoding of the flow's identity."""
        return "|".join(str(part) for part in self.as_tuple()).encode()


class Packet:
    """A packet: header 5-tuple plus payload bytes.

    ``injected_sids`` records the ground truth of which rules' patterns were
    deliberately embedded in the payload by the traffic generator; scanning
    may legitimately find more matches (patterns can occur by accident).

    ``tcp_seq``/``tcp_flags`` are the on-the-wire TCP sequence number and
    flag byte when known (capture replay and adversarial traffic set them);
    ``None`` means "no usable sequence state" and the :mod:`repro.proto`
    reassembler falls back to arrival order for the flow.

    A ``__slots__`` record rather than a dataclass: a :class:`PacketBatch`
    builds one per row it hands out, and slot instances allocate without a
    per-instance ``__dict__``.  Construction,
    equality, ``repr`` and unhashability keep the dataclass semantics.
    ``injected_sids`` is still a list owned by this one packet, but it is
    created on first access — a packet off the wire never allocates one.
    """

    __slots__ = ("payload", "header", "packet_id", "_injected_sids", "tcp_seq", "tcp_flags")

    def __init__(
        self,
        payload: bytes,
        header: Optional[FiveTuple] = None,
        packet_id: int = 0,
        injected_sids: Optional[List[int]] = None,
        tcp_seq: Optional[int] = None,
        tcp_flags: Optional[int] = None,
    ):
        self.payload = payload
        self.header = header
        self.packet_id = packet_id
        self._injected_sids = injected_sids
        self.tcp_seq = tcp_seq
        self.tcp_flags = tcp_flags

    @property
    def injected_sids(self) -> List[int]:
        sids = self._injected_sids
        if sids is None:
            sids = self._injected_sids = []
        return sids

    @injected_sids.setter
    def injected_sids(self, sids: List[int]) -> None:
        self._injected_sids = sids

    def _fields(self) -> Tuple:
        return (
            self.payload, self.header, self.packet_id, self.injected_sids,
            self.tcp_seq, self.tcp_flags,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, like the dataclass it replaced

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(payload={self.payload!r}, "
            f"header={self.header!r}, packet_id={self.packet_id!r}, "
            f"injected_sids={self.injected_sids!r}, tcp_seq={self.tcp_seq!r}, "
            f"tcp_flags={self.tcp_flags!r})"
        )

    def __reduce__(self):
        return (self.__class__, self._fields())

    @property
    def length(self) -> int:
        return len(self.payload)

    def __len__(self) -> int:
        return len(self.payload)


class PacketBatch(SequenceABC):
    """Packets as parallel columns: the front end's one batch.

    Row ``i``'s payload is ``buffer[i][start[i]:start[i] + length[i]]``:
    ``buffer`` names the bytes the payload lies in — a 64 KiB capture block,
    a hole piece, or a packet's own payload — so a decoded frame is never
    sliced until something reads its bytes.  Its header is
    ``flows[flow[i]]``, one entry per distinct flow of the batch; ``seq``,
    ``flags`` and ``packet_id`` are the TCP sequence number, flag byte and
    id, as :class:`Packet` holds them.

    ``len()`` is the row count, and the batch is a ``Sequence[Packet]``: a
    :class:`Packet` is built only when a caller indexes or iterates a row,
    and is a copy (changing it leaves the batch alone).  Capture decoding,
    TCP reassembly and the scan engine read and write the columns.
    """

    __slots__ = ("buffer", "start", "length", "flows", "flow", "seq", "flags", "packet_id")

    def __init__(
        self,
        buffer: List,
        start: List[int],
        length: List[int],
        flows: List[Optional[FiveTuple]],
        flow: List[int],
        seq: List[Optional[int]],
        flags: List[Optional[int]],
        packet_id: Sequence[int],
    ):
        self.buffer = buffer
        self.start = start
        self.length = length
        self.flows = flows
        self.flow = flow
        self.seq = seq
        self.flags = flags
        self.packet_id = packet_id

    @classmethod
    def empty(cls) -> "PacketBatch":
        return cls([], [], [], [], [], [], [], range(0))

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketBatch":
        """``packets`` as a batch; a batch is returned as it is."""
        if isinstance(packets, PacketBatch):
            return packets
        index: dict = {}
        flows: List[Optional[FiveTuple]] = []
        flow: List[int] = []
        for packet in packets:
            header = packet.header
            number = index.get(header)
            if number is None:
                number = index[header] = len(flows)
                flows.append(header)
            flow.append(number)
        payloads = [packet.payload for packet in packets]
        return cls(
            payloads, [0] * len(payloads), list(map(len, payloads)), flows, flow,
            [packet.tcp_seq for packet in packets],
            [packet.tcp_flags for packet in packets],
            [packet.packet_id for packet in packets],
        )

    # ------------------------------------------------------------------
    @property
    def payloads(self) -> List[bytes]:
        """Every row's payload, sliced out of its buffer."""
        return [
            buffer[start:start + length]
            for buffer, start, length in zip(self.buffer, self.start, self.length)
        ]

    @property
    def headers(self) -> List[Optional[FiveTuple]]:
        """Every row's header."""
        flows = self.flows
        return [flows[number] for number in self.flow]

    def __len__(self) -> int:
        return len(self.length)

    def _row(self, index: int) -> Packet:
        start = self.start[index]
        return Packet(
            self.buffer[index][start:start + self.length[index]],
            self.flows[self.flow[index]], self.packet_id[index], None,
            self.seq[index], self.flags[index],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PacketBatch(
                self.buffer[index], self.start[index], self.length[index], self.flows,
                self.flow[index], self.seq[index], self.flags[index],
                self.packet_id[index],
            )
        return self._row(range(len(self))[index])

    def __iter__(self) -> Iterator[Packet]:
        return map(self._row, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (PacketBatch, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PacketBatch({len(self)} rows, {len(self.flows)} flows)"

    def __add__(self, other: "PacketBatch") -> "PacketBatch":
        if not isinstance(other, PacketBatch):
            return NotImplemented
        joined = PacketBatch(
            list(self.buffer), list(self.start), list(self.length), list(self.flows),
            list(self.flow), list(self.seq), list(self.flags), self.packet_id,
        )
        joined += other
        return joined

    def __iadd__(self, other: "PacketBatch") -> "PacketBatch":
        """Append ``other``'s rows in place (a batch someone else holds is
        never extended: only the one a stage just returned)."""
        if not len(other):
            return self
        flows = self.flows
        index = {header: number for number, header in enumerate(flows)}
        renumber = []
        for header in other.flows:
            number = index.get(header)
            if number is None:
                number = index[header] = len(flows)
                flows.append(header)
            renumber.append(number)
        self.buffer += other.buffer
        self.start += other.start
        self.length += other.length
        self.flow += [renumber[number] for number in other.flow]
        self.seq += other.seq
        self.flags += other.flags
        ids, more = self.packet_id, other.packet_id
        if isinstance(ids, range) and isinstance(more, range) and ids.stop == more.start:
            self.packet_id = range(ids.start, more.stop)
        else:
            self.packet_id = list(ids) + list(more)
        return self


@dataclass(frozen=True)
class MatchEvent:
    """A reported match: which packet, where it ended, which string number."""

    packet_id: int
    end_offset: int
    string_number: int
