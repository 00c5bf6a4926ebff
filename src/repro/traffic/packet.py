"""Packet abstraction used by the traffic generator, IDS pipeline and hardware model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional, Tuple


@dataclass(frozen=True)
class FiveTuple:
    """The classic 5-tuple a router's header classifier operates on.

    ``flow_key`` is the flow's resolved identity — the
    :class:`repro.streaming.flow.FlowKey` (with its hash and shard CRC) that
    :meth:`FlowKey.from_header` attaches on first use, so every later packet
    carrying this header object reads it instead of re-deriving it.  It is a
    cache, not a field (the class default is shadowed per instance):
    equality, hashing, ``repr`` and ``replace`` ignore it, and a header that
    never met a scan layer simply has ``None``.
    """

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str

    flow_key: ClassVar[Optional[Any]] = None

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port {port} out of range")


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
