"""Packet abstraction used by the traffic generator, IDS pipeline and hardware model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Optional


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


@dataclass
class Packet:
    """A packet: header 5-tuple plus payload bytes.

    ``injected_sids`` records the ground truth of which rules' patterns were
    deliberately embedded in the payload by the traffic generator; scanning
    may legitimately find more matches (patterns can occur by accident).

    ``tcp_seq``/``tcp_flags`` are the on-the-wire TCP sequence number and
    flag byte when known (capture replay and adversarial traffic set them);
    ``None`` means "no usable sequence state" and the :mod:`repro.proto`
    reassembler falls back to arrival order for the flow.
    """

    payload: bytes
    header: Optional[FiveTuple] = None
    packet_id: int = 0
    injected_sids: List[int] = field(default_factory=list)
    tcp_seq: Optional[int] = None
    tcp_flags: Optional[int] = None

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
