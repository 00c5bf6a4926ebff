"""Capture replay: captures in and out of the scan pipeline.

The contract this module makes testable: a capture written by
:func:`write_packets`, read back by :func:`load_packets` and scanned —
through a :class:`repro.api.Session` with a ``pcap`` source, the one
composer — produces events and alerts **byte-identical** to scanning the
same segments in memory.  Capture order is flow-segment order (packet ids
are assigned sequentially from ``first_packet_id``), which is exactly the
arrival-order guarantee the scan engine already relies on.

Real-world captures contain frames the DPI layers cannot scan (ARP, ICMP,
fragments); :func:`load_packets` skips and counts them per reason in
:class:`ReplayStats` unless ``strict`` is set.

A ``SourceSpec(kind="pcap", path=...)`` makes :class:`repro.api.Session`
drive :func:`load_packets` (honouring the engine's ``strict`` flag), and a
``SinkSpec(kind="pcap", path=...)`` exports a run's packets through
:func:`write_packets` — so ``repro run`` replays and produces capture files
without any hand-wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from ..traffic.packet import Packet, PacketBatch
from .frames import FrameEncodeError, decode_batch, decode_fields, encode_frame
from .pcap import (
    LINKTYPE_ETHERNET,
    CaptureError,
    CaptureFile,
    CaptureRecord,
    PathOrIO,
    read_blocks,
    write_pcap,
    write_pcapng,
)

CaptureSource = Union[PathOrIO, CaptureFile]


@dataclass
class ReplayStats:
    """What a capture decoded into: frames kept vs skipped, by reason."""

    frames: int = 0
    decoded: int = 0
    payload_bytes: int = 0
    skipped: Dict[str, int] = field(default_factory=dict)

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped.values())

    @property
    def skipped_fragments(self) -> int:
        """IPv4/IPv6 fragments (unscannable without IP reassembly)."""
        return self.skipped.get("fragment", 0)

    @property
    def skipped_other(self) -> int:
        """Everything else skipped: non-IP link frames, non-TCP/UDP
        transports, truncated frames."""
        return self.skipped_total - self.skipped_fragments


def load_packets(
    source: CaptureSource,
    first_packet_id: int = 0,
    strict: bool = False,
) -> Tuple[PacketBatch, ReplayStats]:
    """Decode a capture into one scan-ready :class:`PacketBatch`.

    Packet ids are assigned sequentially in capture order starting at
    ``first_packet_id``; undecodable frames are skipped and counted (or, with
    ``strict``, raise :class:`repro.capture.CaptureError`).  A classic pcap
    given by path or handle is read block by block
    (:func:`~repro.capture.pcap.read_blocks`) and decoded by
    :func:`~repro.capture.frames.decode_batch`: every payload stays in its
    64 KiB block, and no :class:`CaptureRecord` or :class:`Packet` is built
    (the batch builds a row's :class:`Packet` when asked for it).  A frame
    outside the column decoder's class goes through this module's
    ``decode_fields``, the per-frame rule (a test swaps a decoder in here).  A
    container error at the end of the file is raised after the frames before
    it were decoded, so ``strict`` names a bad frame ahead of it first.
    """
    stats = ReplayStats()
    blocks = []
    try:
        for block in read_blocks(source):
            blocks.append(block)
    except CaptureError:
        if strict:  # a bad frame before the broken container is named first
            decode_batch(blocks, ReplayStats(), strict, decode=decode_fields)
        raise
    return decode_batch(blocks, stats, strict, first_packet_id, decode_fields), stats


def write_packets(
    destination: PathOrIO,
    packets: Sequence[Packet],
    linktype: int = LINKTYPE_ETHERNET,
    fmt: str = "pcap",
    nanosecond: bool = False,
    base_ts_ns: int = 0,
    step_ns: int = 1_000_000,
) -> int:
    """Encode ``packets`` as frames and write a capture file.

    Packets are written in sequence order (flow-segment order is preserved,
    so a replay scans segments exactly as the in-memory service would) with
    deterministic, evenly spaced timestamps.  ``fmt`` is ``"pcap"`` or
    ``"pcapng"``.  Every packet needs a 5-tuple header; returns the number of
    frames written.

    TCP frames carry monotone per-flow sequence numbers (each flow starts at
    1 and advances by payload length), so the capture is valid input for the
    :mod:`repro.proto` reassembler.  A packet with an explicit ``tcp_seq``
    (adversarial traffic, replayed captures) keeps it verbatim and does not
    advance the flow's counter.
    """
    records: List[CaptureRecord] = []
    next_seq: Dict[object, int] = {}
    for index, packet in enumerate(packets):
        if packet.header is None:
            raise FrameEncodeError(
                f"packet {packet.packet_id} has no 5-tuple header; "
                "captures carry only on-the-wire fields"
            )
        seq = 0
        flags = 0x18
        if packet.header.protocol.lower() == "tcp":
            if packet.tcp_seq is not None:
                seq = packet.tcp_seq
            else:
                seq = next_seq.get(packet.header, 1)
                next_seq[packet.header] = (seq + len(packet.payload)) & 0xFFFFFFFF
            if packet.tcp_flags is not None:
                flags = packet.tcp_flags
        records.append(
            CaptureRecord(
                data=encode_frame(
                    packet.header, packet.payload, linktype, seq=seq, flags=flags
                ),
                ts_ns=base_ts_ns + index * step_ns,
            )
        )
    if fmt == "pcap":
        return write_pcap(destination, records, linktype, nanosecond=nanosecond)
    if fmt == "pcapng":
        return write_pcapng(destination, records, linktype)
    raise ValueError(f"unknown capture format {fmt!r} (use 'pcap' or 'pcapng')")


__all__ = [
    "CaptureSource",
    "ReplayStats",
    "load_packets",
    "write_packets",
]
