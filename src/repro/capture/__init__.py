"""Pcap/pcapng capture ingest, export and scan-layer replay.

The subsystem splits into three layers:

* :mod:`repro.capture.pcap`   — the container formats (classic pcap in both
  endiannesses and timestamp resolutions, pcapng's classic block set);
* :mod:`repro.capture.frames` — Ethernet/SLL/raw-IP + IPv4/IPv6 + TCP/UDP
  frame decoding into the :class:`repro.traffic.Packet` model, and the
  deterministic inverse encoding;
* :mod:`repro.capture.replay` — adapters that stream a capture through
  :class:`~repro.streaming.StreamScanner`, :class:`~repro.streaming.ScanService`
  and the IDS with events
  byte-identical to an in-memory scan of the same segments.
"""

from .frames import DecodedFrame, FrameEncodeError, decode_frame, encode_frame
from .pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_LINUX_SLL,
    LINKTYPE_RAW,
    CaptureError,
    CaptureFile,
    CaptureRecord,
    read_capture,
    write_pcap,
    write_pcapng,
)
from .replay import (
    ReplayStats,
    load_packets,
    replay_ids,
    replay_scan,
    replay_stream,
    write_packets,
)

__all__ = [
    "DecodedFrame",
    "FrameEncodeError",
    "decode_frame",
    "encode_frame",
    "LINKTYPE_ETHERNET",
    "LINKTYPE_LINUX_SLL",
    "LINKTYPE_RAW",
    "CaptureError",
    "CaptureFile",
    "CaptureRecord",
    "read_capture",
    "write_pcap",
    "write_pcapng",
    "ReplayStats",
    "load_packets",
    "replay_ids",
    "replay_scan",
    "replay_stream",
    "write_packets",
]
