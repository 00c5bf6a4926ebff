"""Pcap/pcapng capture ingest, export and scan-layer replay.

The subsystem splits into three layers:

* :mod:`repro.capture.pcap`   — the container formats (classic pcap in both
  endiannesses and timestamp resolutions, pcapng's classic block set);
* :mod:`repro.capture.frames` — Ethernet/SLL/raw-IP + IPv4/IPv6 + TCP/UDP
  frame decoding into the :class:`repro.traffic.Packet` model, and the
  deterministic inverse encoding;
* :mod:`repro.capture.replay` — loading a capture into packets and writing
  packets back out; a :class:`repro.api.Session` with a ``pcap`` source
  replays one through the scan pipeline with events and alerts
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
    "write_packets",
]
