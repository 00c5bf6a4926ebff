"""Streaming flow-scan subsystem: stateful cross-packet matching at scale.

The per-packet scan path (:meth:`repro.core.AcceleratorProgram.match`,
:class:`repro.hardware.HardwareAccelerator`) resets the automaton at every
packet boundary, so a pattern split across consecutive TCP segments of one
flow is silently missed.  This package adds the layer a production line card
puts on top of the matcher:

* :mod:`repro.streaming.flow`    — flow identity, the per-flow resumable
  state record and a bounded LRU :class:`FlowTable` with checkpointing;
* :mod:`repro.streaming.scanner` — a :class:`StreamScanner` that loads/stores
  flow state around each segment scan (one engine multiplexing many flows);
* :mod:`repro.streaming.service` — a hash-sharded :class:`ScanService`
  dispatching batches across a pool of scanners with aggregate reporting;
* :mod:`repro.streaming.executor` — :class:`ParallelScanService`, the same
  front-end with each shard's engine living in a worker process (payloads
  and replies cross one pipe per worker), and :func:`build_scan_service`,
  the one builder that picks between the two;
* :mod:`repro.streaming.ingest`  — the asyncio front-end feeding any scan
  service from live sources (socket listeners, tail-followed captures).
"""

from .executor import ParallelScanService, WorkerCrashedError, build_scan_service
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
from .service import ScanService, ShardReport, StreamScanResult

__all__ = [
    "ParallelScanService",
    "WorkerCrashedError",
    "build_scan_service",
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
    "ShardReport",
    "StreamScanResult",
]
