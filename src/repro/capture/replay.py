"""Replay adapters: captures in and out of every scan layer.

The contract this module makes testable: a capture written by
:func:`write_packets`, read back and replayed through any scan front-end —
:class:`repro.streaming.StreamScanner`, the
:class:`repro.streaming.ScanService` or the stateful
:class:`repro.ids.IntrusionDetectionSystem` pipeline — produces events and
alerts **byte-identical** to scanning the same segments in memory.  Capture
order is flow-segment order (packet ids are assigned sequentially from
``first_packet_id``), which is exactly the arrival-order guarantee the
scan services already rely on.

Real-world captures contain frames the DPI layers cannot scan (ARP, ICMP,
fragments); :func:`load_packets` skips and counts them per reason in
:class:`ReplayStats` unless ``strict`` is set.

Captures also plug into the declarative pipeline API: a
``SourceSpec(kind="pcap", path=...)`` makes :class:`repro.api.Session` drive
:func:`load_packets` (honouring the engine's ``strict`` flag), and a
``SinkSpec(kind="pcap", path=...)`` exports a run's packets through
:func:`write_packets` — so ``repro run`` replays and produces capture files
without any hand-wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..traffic.packet import Packet
from .frames import FrameEncodeError, decode_fields, encode_frame
from .pcap import (
    LINKTYPE_ETHERNET,
    CaptureError,
    CaptureFile,
    CaptureRecord,
    PathOrIO,
    RawRecord,
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


def decode_records(
    records: Iterable[RawRecord],
    linktype: Optional[int],
    stats: ReplayStats,
    strict: bool = False,
) -> Iterator[Tuple]:
    """The one record loop: decode raw records in capture order.

    Yields :func:`~repro.capture.frames.decode_fields`' plain
    ``(header, payload, tcp_seq, tcp_flags)`` per scannable frame — the
    consumer builds the frame's one :class:`Packet` — and counts every frame
    into ``stats`` once the records are exhausted.  An undecodable frame is
    skipped and counted by reason or, with ``strict``, raises
    :class:`CaptureError` naming its index among every frame ``stats`` has
    seen.  :func:`load_packets` runs it over a whole capture,
    :class:`repro.streaming.ingest.PcapTailSource` over each block it reads.
    """
    decode = decode_fields
    skipped = stats.skipped
    frames = stats.frames
    payload_bytes = 0
    for _, _, _, data in records:
        fields = decode(data, linktype)
        frames += 1
        if fields[0] is None:
            reason = fields[1]
            if strict:
                raise CaptureError(f"frame {frames - 1} cannot be decoded ({reason})")
            skipped[reason] = skipped.get(reason, 0) + 1
            continue
        payload_bytes += len(fields[1])
        yield fields
    stats.frames = frames
    stats.decoded = frames - stats.skipped_total
    stats.payload_bytes += payload_bytes


def load_packets(
    source: CaptureSource,
    first_packet_id: int = 0,
    strict: bool = False,
) -> Tuple[List[Packet], ReplayStats]:
    """Decode a capture into scan-ready :class:`Packet` objects.

    Packet ids are assigned sequentially in capture order starting at
    ``first_packet_id``; undecodable frames are skipped and counted (or, with
    ``strict``, raise :class:`repro.capture.CaptureError`).  A classic pcap
    given by path or handle is streamed block by block
    (:func:`~repro.capture.pcap.read_blocks`): each frame becomes its one
    :class:`Packet` and no :class:`CaptureRecord` is built.
    """
    stats = ReplayStats()
    packets: List[Packet] = []
    append = packets.append
    next_id = first_packet_id
    for linktype, records in read_blocks(source):
        for header, payload, seq, flags in decode_records(records, linktype, stats, strict):
            append(Packet(payload, header, next_id, None, seq, flags))
            next_id += 1
    return packets, stats


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


# ----------------------------------------------------------------------
# scan-layer front-ends
# ----------------------------------------------------------------------
# These are one-call conveniences that trade away the decode statistics;
# call load_packets() directly (as the CLI does) when you need to report
# how many frames were skipped and why alongside the scan result.
def replay_stream(source: CaptureSource, scanner, strict: bool = False):
    """Replay a capture through a :class:`StreamScanner` as one
    :meth:`~repro.streaming.StreamScanner.scan_batch`; returns its matches
    in arrival order."""
    packets, _ = load_packets(source, strict=strict)
    flow_key = scanner.flow_key
    hits, _ = scanner.scan_batch(
        [(flow_key(packet), packet.payload, packet.packet_id) for packet in packets]
    )
    return [event for events in hits.values() for event in events]


def replay_scan(source: CaptureSource, service, strict: bool = False):
    """Replay a capture through a :class:`repro.streaming.ScanService`.

    The returned :class:`StreamScanResult` is byte-identical to
    ``service.scan(packets)`` on the same in-memory segments.
    """
    packets, _ = load_packets(source, strict=strict)
    return service.scan(packets)


def replay_ids(
    source: CaptureSource, ids, strict: bool = False, finalize: bool = True
):
    """Replay a capture through the stateful IDS pipeline; returns the alerts.

    A finished capture means its flows are finished, so by default the
    replay also decides the end-of-flow rule verdicts (negated contents /
    pcres) via :meth:`IntrusionDetectionSystem.finish`; pass
    ``finalize=False`` when stitching several captures into one workload.
    """
    packets, _ = load_packets(source, strict=strict)
    alerts = ids.scan_flow(packets)
    if finalize:
        alerts += ids.finish()
    return alerts


__all__ = [
    "CaptureSource",
    "ReplayStats",
    "decode_records",
    "load_packets",
    "replay_ids",
    "replay_scan",
    "replay_stream",
    "write_packets",
]
