"""Protocol-aware preprocessing between packet sources and the scan layers.

The scan column below this package (:mod:`repro.streaming`, :mod:`repro.ids`)
consumes segments in arrival order and trusts that order.  ``repro.proto``
is the layer that makes the trust deserved on real traffic:

* :mod:`repro.proto.reassembly` — :class:`TcpReassembler`, sequence-number-
  driven per-flow reordering with Snort-style overlap policies, bounded
  hole buffers and FlowTable-style checkpoint/restore;
* :mod:`repro.proto.http` — :class:`HttpStream`, the incremental HTTP/1.x
  request-line + header normalizer behind the ``http_uri``/``http_header``
  sticky buffers the rule grammar and confirm stage target.

Enable end to end with ``EngineSpec(reassemble=True, overlap_policy=...)``
or the ``--reassemble`` CLI flag on ``scan-pcap``/``ids``/``serve``.
"""

from .http import HTTP_BUFFERS, HttpStream, percent_decode
from .reassembly import (
    DEFAULT_MAX_FLOW_BYTES,
    DEFAULT_MAX_FLOW_SEGMENTS,
    OVERLAP_POLICIES,
    ReassemblyStatistics,
    TcpReassembler,
    reassemble_packets,
)

__all__ = [
    "DEFAULT_MAX_FLOW_BYTES",
    "DEFAULT_MAX_FLOW_SEGMENTS",
    "HTTP_BUFFERS",
    "HttpStream",
    "OVERLAP_POLICIES",
    "ReassemblyStatistics",
    "TcpReassembler",
    "percent_decode",
    "reassemble_packets",
]
