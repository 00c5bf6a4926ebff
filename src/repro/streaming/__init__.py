"""Streaming flow-scan subsystem: stateful cross-packet matching at scale.

The per-packet scan path (a compiled program's ``match``,
:class:`repro.hardware.HardwareAccelerator`) resets the automaton at every
packet boundary, so a pattern split across consecutive TCP segments of one
flow is silently missed.  This package adds the layer a production line card
puts on top of the matcher:

* :mod:`repro.streaming.flow`    — flow identity, the per-flow resumable
  state record and a bounded LRU :class:`FlowTable` that admits a batch in
  one walk, with checkpointing;
* :mod:`repro.streaming.service` — the one scan engine, :class:`ScanService`
  (also bound as ``StreamScanner``): it loads/stores flow state around each
  whole-batch scan, one engine multiplexing many flows, and reports the
  aggregate;
* :mod:`repro.streaming.ingest`  — the asyncio front-end feeding the engine
  (or the IDS around it) from live sources (socket listeners, tail-followed
  captures).
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
from .service import (
    ANONYMOUS_FLOW,
    ScannerStatistics,
    ScanService,
    StreamMatch,
    StreamScanner,
    StreamScanResult,
)

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
