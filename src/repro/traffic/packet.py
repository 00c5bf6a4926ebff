"""Packet abstraction used by the traffic generator, IDS pipeline and hardware model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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

    A ``__slots__`` record rather than a dataclass: capture replay builds one
    per decoded frame and the reassembler one per emitted segment, and slot
    instances allocate without a per-instance ``__dict__``.  Construction,
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


@dataclass(frozen=True)
class MatchEvent:
    """A reported match: which packet, where it ended, which string number."""

    packet_id: int
    end_offset: int
    string_number: int
