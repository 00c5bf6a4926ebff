"""Streaming flow-scan subsystem: stateful cross-packet matching at scale.

The per-packet scan path (a compiled program's ``match``,
:class:`repro.hardware.HardwareAccelerator`) resets the automaton at every
packet boundary, so a pattern split across consecutive TCP segments of one
flow is silently missed.  This package adds the layer a production line card
puts on top of the matcher:

* :mod:`repro.streaming.flow`    — flow identity, the per-flow resumable
  state record and a bounded LRU :class:`FlowTable` with checkpointing;
* :mod:`repro.streaming.scanner` — a :class:`StreamScanner` that loads/stores
  flow state around each segment scan (one engine multiplexing many flows);
* :mod:`repro.streaming.service` — a :class:`ScanService` scanning whole
  batches on one scanner with aggregate reporting;
* :mod:`repro.streaming.ingest`  — the asyncio front-end feeding any scan
  service from live sources (socket listeners, tail-followed captures).
"""

from .flow import (
    DEFAULT_FLOW_CAPACITY,
    FlowEntry,
    FlowKey,
    FlowTable,
    FlowTableStatistics,
)
from .ingest import (
    IngestReport,
    LiveIngestor,
    PcapTailSource,
    TcpListenerSource,
    UdpListenerSource,
)
from .scanner import ANONYMOUS_FLOW, ScannerStatistics, StreamMatch, StreamScanner
from .service import ScanService, StreamScanResult

__all__ = [
    "DEFAULT_FLOW_CAPACITY",
    "FlowEntry",
    "FlowKey",
    "FlowTable",
    "FlowTableStatistics",
    "IngestReport",
    "LiveIngestor",
    "PcapTailSource",
    "TcpListenerSource",
    "UdpListenerSource",
    "ANONYMOUS_FLOW",
    "ScannerStatistics",
    "StreamMatch",
    "StreamScanner",
    "ScanService",
    "StreamScanResult",
]
