"""The Session facade: one entry point over sources, rules, engines, sinks.

``Session.from_config`` turns a declarative :class:`repro.api.PipelineConfig`
into the exact object composition previously hand-wired per call site —
ruleset generation or Snort-file parsing, backend compilation (the ``dtp``
backend through the full device compiler, every other backend through
:func:`repro.backend.get_backend`), the serial
:class:`repro.streaming.ScanService` or process-parallel
:class:`repro.streaming.ParallelScanService`, and the
:class:`repro.ids.IntrusionDetectionSystem` — and exposes it through a small
surface: :meth:`Session.run`, :meth:`Session.scan`,
:meth:`Session.checkpoint` / :meth:`Session.restore`, :meth:`Session.stats`
and :meth:`Session.close` (sessions are context managers).

Everything is built lazily and cached, so a CLI adapter can ask only for
what it prints; the composition is the same one the direct constructors
produce, which is what makes the facade's output byte-identical to
hand-wiring (the contract ``tests/test_api.py`` enforces across backends,
worker counts and sources).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..backend import CompiledProgram, get_backend
from ..traffic.packet import MatchEvent, Packet
from .config import (
    EmptyRulesetError,
    PipelineConfig,
    get_sink,
    get_source,
    load_config,
)


@dataclass
class RunResult:
    """Outcome of one :meth:`Session.run` execution.

    ``events`` are :class:`repro.streaming.StreamMatch` objects in stream
    mode and :class:`repro.traffic.MatchEvent` objects in packets mode
    (empty in ids mode); ``alerts`` are the IDS alerts (ids mode only).
    ``scan_result`` is the stream mode's aggregate
    :class:`repro.streaming.StreamScanResult`; ``per_packet`` the packets
    mode's per-payload match lists.  ``sinks`` holds one output per
    configured sink, in config order.
    """

    mode: str
    events: List = field(default_factory=list)
    alerts: List = field(default_factory=list)
    scan_result: Optional[Any] = None
    per_packet: Optional[List] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    sinks: List[Any] = field(default_factory=list)


_UNSET = object()


class Session:
    """A running pipeline built from one :class:`PipelineConfig`.

    All components are lazy cached properties — ``session.program`` compiles
    on first access, ``session.packets`` loads the source once,
    ``session.service`` / ``session.ids`` build the configured engine — so
    construction costs nothing and adapters pay only for what they use.
    Use as a context manager (or call :meth:`close`) to shut down worker
    pools.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self._ruleset = _UNSET
        self._specs = _UNSET
        self._program = _UNSET
        self._source = _UNSET
        self._service = _UNSET
        self._ids = _UNSET
        self._hardware = _UNSET
        self._reassembler = _UNSET
        self._sid_of = _UNSET
        self._payload_bytes = _UNSET
        # one remap dict per allocator pass: ruleset_from_specs assigns a sid
        # per *content*, IDS.from_specs one per *rule* — mixing their records
        # in one dict would mis-attribute reassignments (and over-count them)
        self._ruleset_sid_remap: Dict[int, int] = {}
        self._ids_sid_remap: Dict[int, int] = {}
        #: seconds spent compiling the program (set on first .program access)
        self.compile_seconds: Optional[float] = None

    @classmethod
    def from_config(
        cls, config: Union[PipelineConfig, Dict[str, Any], str]
    ) -> "Session":
        """Build a session from a config object, a plain dict, or a file path."""
        if isinstance(config, PipelineConfig):
            return cls(config)
        if isinstance(config, dict):
            return cls(PipelineConfig.from_dict(config))
        return cls(load_config(config))

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @property
    def specs(self) -> Optional[List]:
        """Parsed :class:`SnortRuleSpec` list (``None`` for synthetic rules)."""
        if self._specs is _UNSET:
            spec = self.config.rules
            if spec.kind == "synthetic":
                self._specs = None
            elif spec.kind == "file":
                from ..rulesets.parser import parse_rules

                with open(self.config.resolve(spec.path), encoding="utf-8") as handle:
                    parsed = parse_rules(handle, strict=spec.strict)
                if not any(entry.contents for entry in parsed):
                    raise EmptyRulesetError(
                        f"no content patterns found in {spec.path}"
                    )
                self._specs = parsed
            else:  # explicit specs
                from ..rulesets.parser import spec_from_content

                self._specs = [
                    spec_from_content(
                        rule.content, sid=rule.sid, msg=rule.msg, nocase=rule.nocase
                    )
                    for rule in spec.rules
                ]
        return self._specs

    @property
    def skipped_rules(self) -> int:
        """Rules the ids engine cannot run: no positive content to anchor on.

        Lenient parsing keeps such rules in :attr:`specs` (the linter wants
        to see them); the IDS skips them because the prefilter has nothing
        to gate the confirm pass with.  Always 0 for synthetic rules and
        under ``strict`` parsing (which rejects them at load time).
        """
        if self.specs is None:
            return 0
        return sum(1 for entry in self.specs if not entry.positive_contents)

    @property
    def ruleset(self):
        """The compiled-against :class:`repro.rulesets.RuleSet`."""
        if self._ruleset is _UNSET:
            spec = self.config.rules
            if spec.kind == "synthetic":
                from ..rulesets.generator import generate_snort_like_ruleset

                self._ruleset = generate_snort_like_ruleset(spec.size, seed=spec.seed)
            else:
                from ..rulesets.parser import ruleset_from_specs

                name = spec.path if spec.kind == "file" else "specs"
                self._ruleset = ruleset_from_specs(
                    self.specs, name=name, sid_remap=self._ruleset_sid_remap
                )
        return self._ruleset

    @property
    def sid_remap(self) -> Dict[int, int]:
        """Sid reassignments recorded while ingesting file/explicit rules.

        In ids mode this is the :meth:`IDS.from_specs` allocator's record
        (one sid per rule); otherwise :func:`ruleset_from_specs`'s (one per
        unique content) — the record that matches the engine actually built.
        """
        if self.config.mode == "ids":
            self.ids  # ensure the IDS allocator pass ran
            return self._ids_sid_remap
        self.ruleset  # ensure the ruleset allocator pass ran
        return self._ruleset_sid_remap

    @property
    def sid_of(self) -> Dict[int, int]:
        """String number → sid (string numbers follow ruleset order)."""
        if self._sid_of is _UNSET:
            self._sid_of = {
                index: rule.sid for index, rule in enumerate(self.ruleset)
            }
        return self._sid_of

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    @property
    def device(self):
        from ..fpga.devices import get_device

        return get_device(self.config.engine.device)

    @property
    def program(self) -> CompiledProgram:
        """The compiled matcher program for the configured backend.

        The ``dtp`` backend goes through the full device compiler
        (partitioning, 324-bit word packing) so its program mirrors the
        hardware; every other backend compiles the bare pattern list.
        String numbers follow ruleset order either way.
        """
        if self._program is _UNSET:
            start = time.perf_counter()
            if self.config.engine.backend == "dtp":
                from ..core.accelerator_config import compile_ruleset

                self._program = compile_ruleset(self.ruleset, self.device)
            else:
                self._program = get_backend(self.config.engine.backend).compile(
                    self.ruleset.patterns
                )
            self.compile_seconds = time.perf_counter() - start
        return self._program

    @property
    def hardware(self):
        """The cycle-level hardware model (``dtp`` backend only)."""
        if self._hardware is _UNSET:
            if self.config.engine.backend != "dtp":
                raise ValueError(
                    "the cycle-level hardware model only executes the 'dtp' "
                    f"backend, not {self.config.engine.backend!r}"
                )
            from ..hardware.accelerator import HardwareAccelerator

            self._hardware = HardwareAccelerator(self.program)
        return self._hardware

    @property
    def _track_nocase(self) -> bool:
        """Does any loaded rule carry ``nocase``?

        When true, the scan services must dual-view scan (raw payload plus a
        lower-cased copy) — the patterns themselves are stored lower-cased by
        :func:`ruleset_from_specs`, so without the lowered view a ``nocase``
        rule silently misses uppercase payloads.
        """
        specs = self.specs
        if specs is None:
            return False
        return any(c.nocase for entry in specs for c in entry.contents)

    @property
    def service(self):
        """The configured (serial or process-parallel) sharded scan service."""
        if self._service is _UNSET:
            engine = self.config.engine
            if engine.workers is not None:  # 0 is invalid, not "serial"
                from ..streaming.executor import ParallelScanService

                ring_kwargs = {}
                if engine.ring_slots is not None:
                    ring_kwargs["ring_slots"] = engine.ring_slots
                if engine.ring_slot_bytes is not None:
                    ring_kwargs["ring_slot_bytes"] = engine.ring_slot_bytes
                self._service = ParallelScanService(
                    self.program,
                    num_shards=engine.shards,
                    flow_capacity_per_shard=engine.flow_capacity,
                    track_nocase=self._track_nocase,
                    workers=engine.workers,
                    **ring_kwargs,
                )
            else:
                from ..streaming.service import ScanService

                self._service = ScanService(
                    self.program,
                    num_shards=engine.shards,
                    flow_capacity_per_shard=engine.flow_capacity,
                    track_nocase=self._track_nocase,
                )
        return self._service

    @property
    def reassembler(self):
        """The configured :class:`repro.proto.TcpReassembler`.

        ``None`` unless the engine set ``reassemble=True``.  One instance
        persists across :meth:`scan` calls, so segments buffered behind a
        sequence hole carry over exactly like the scan services' flow
        state; :meth:`run` and :meth:`serve` flush it when their finite
        source ends.
        """
        if self._reassembler is _UNSET:
            engine = self.config.engine
            if not engine.reassemble:
                self._reassembler = None
            else:
                from ..proto.reassembly import TcpReassembler

                self._reassembler = TcpReassembler(
                    overlap_policy=engine.overlap_policy,
                    max_flows=engine.reassembly_flows,
                    max_flow_bytes=engine.reassembly_bytes,
                )
        return self._reassembler

    @property
    def ids(self):
        """The configured :class:`repro.ids.IntrusionDetectionSystem`."""
        if self._ids is _UNSET:
            from ..ids.pipeline import IntrusionDetectionSystem

            engine = self.config.engine
            if self.specs is None:
                ids = IntrusionDetectionSystem.from_ruleset(
                    self.ruleset,
                    device=self.device,
                    backend=engine.backend,
                    workers=engine.workers,
                )
            else:
                if all(not entry.positive_contents for entry in self.specs):
                    raise EmptyRulesetError(
                        "no rule has a positive content for the prefilter to "
                        "anchor on; the ids engine cannot run this ruleset"
                    )
                ids = IntrusionDetectionSystem.from_specs(
                    self.specs,
                    device=self.device,
                    backend=engine.backend,
                    workers=engine.workers,
                    sid_remap=self._ids_sid_remap,
                )
            from ..streaming.flow import DEFAULT_FLOW_CAPACITY

            if engine.flow_capacity != DEFAULT_FLOW_CAPACITY:
                ids.reset_flows(capacity=engine.flow_capacity)
            self._ids = ids
            # the engine is composed as a whole: run() feeds the IDS through
            # the reassembler, so the first pass does not build it mid-stream
            self.reassembler
        return self._ids

    # ------------------------------------------------------------------
    # source
    # ------------------------------------------------------------------
    @property
    def _loaded_source(self):
        if self._source is _UNSET:
            factory = get_source(self.config.source.kind)
            self._source = factory.load(self, self.config.source)
        return self._source

    @property
    def packets(self) -> List[Packet]:
        """The run's packets, loaded once from the configured source."""
        return self._loaded_source.packets

    @property
    def payload_bytes(self) -> int:
        """Total payload bytes of the loaded source.

        Cached like every other composed artefact: the source is immutable
        once loaded, and benchmark drivers call :meth:`stats` per run — the
        per-packet sum must not be repaid on every call.
        """
        if self._payload_bytes is _UNSET:
            source = self._loaded_source
            if source.stats is not None:  # a capture: the decoder counted them
                self._payload_bytes = source.stats.payload_bytes
            else:
                self._payload_bytes = sum(len(p.payload) for p in source.packets)
        return self._payload_bytes

    @property
    def flows(self) -> Optional[List]:
        """Generator ground truth (``None`` for non-generator sources)."""
        return self._loaded_source.flows

    @property
    def capture(self):
        """The parsed capture container (pcap sources only, else ``None``)."""
        return self._loaded_source.capture

    @property
    def capture_stats(self):
        """Capture decode statistics (pcap sources only, else ``None``)."""
        return self._loaded_source.stats

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def scan(self, packets: Optional[Sequence[Packet]] = None):
        """Stateful sharded scan of ``packets`` (default: the source's).

        Returns the service's :class:`repro.streaming.StreamScanResult`;
        repeated calls continue the same flow state, exactly as repeated
        ``service.scan`` calls would.  With ``reassemble`` on, segments
        pass through the session's :attr:`reassembler` first — data stuck
        behind a sequence hole stays buffered across calls; call
        :meth:`flush_reassembly` when no more segments will arrive.
        """
        if packets is None:
            packets = self.packets
        if self.reassembler is not None:
            packets = self.reassembler.process(packets)
        return self.service.scan(packets)

    def flush_reassembly(self):
        """Flush segments still buffered behind sequence holes into the scan.

        Returns the :class:`repro.streaming.StreamScanResult` of the
        flushed tail, or ``None`` when reassembly is off or nothing was
        buffered.  :meth:`run` and :meth:`serve` call this implicitly —
        their sources are finite — so it only needs calling after manual
        incremental :meth:`scan` use.
        """
        if self.reassembler is None:
            return None
        tail = self.reassembler.flush_all()
        if not tail:
            return None
        return self.service.scan(tail)

    def scan_stateless(
        self, payloads: Optional[Sequence[bytes]] = None
    ) -> List[List]:
        """Per-packet matching with state reset at every packet boundary."""
        if payloads is None:
            payloads = [packet.payload for packet in self.packets]
        return self.program.scan_packets(payloads)

    def hardware_scan(self):
        """Scan the source packets on the cycle-level hardware model (dtp)."""
        return self.hardware.scan(self.packets)

    def run(self) -> RunResult:
        """Execute the configured pipeline end to end, then emit every sink.

        * ``packets`` mode — stateless per-packet matching; events are
          :class:`repro.traffic.MatchEvent` records in arrival order;
        * ``stream`` mode  — one batched stateful scan through the sharded
          service (events in the canonical order);
        * ``ids`` mode     — :meth:`IntrusionDetectionSystem.scan_flow` over
          the source packets.

        With ``reassemble`` on, the source's TCP segments are re-ordered
        (and the reassembler flushed — the source is finite) before any
        mode scans them; packet ids then follow reassembled emission
        order.  Capture sinks still export the *source* packets verbatim.
        """
        mode = self.config.mode
        packets = self._loaded_source.packets
        reassembler = self.reassembler
        if reassembler is not None:
            packets = reassembler.process(packets)  # a fresh list: ours to extend
            packets += reassembler.flush_all()
        run = RunResult(mode=mode)
        if mode == "stream":
            run.scan_result = self.service.scan(packets)
            run.events = run.scan_result.events
        elif mode == "ids":
            # the source is finite, so after the last segment the flows are
            # over: decide the pending negation verdicts too
            ids = self.ids
            run.alerts = ids.scan_flow(packets) + ids.finish()
        else:
            run.per_packet = self.scan_stateless(
                [packet.payload for packet in packets]
            )
            run.events = [
                MatchEvent(
                    packet_id=packet.packet_id,
                    end_offset=offset,
                    string_number=number,
                )
                for packet, matches in zip(packets, run.per_packet)
                for offset, number in matches
            ]
        run.stats = self.stats()
        for spec in self.config.sinks:
            run.sinks.append(get_sink(spec.kind).emit(self, spec, run))
        return run

    def serve(self, *, collect_events: bool = True, on_batch=None):
        """Serve the configured **live** source through the stream engine.

        Builds the :mod:`repro.streaming.ingest` source the config's
        ``tcp``/``udp``/``pcap-tail`` spec describes, micro-batches its
        segments into :attr:`service` and returns the
        :class:`~repro.streaming.ingest.IngestReport`.  Packet ids are
        assigned in arrival order, so serving a finished capture through
        ``pcap-tail`` produces events byte-identical to an offline
        ``pcap``-source :meth:`run`.  The spec's ``max_packets`` /
        ``idle_timeout`` bound the loop; ``on_batch(result, packets)``
        observes every flushed batch as it happens.

        With ``engine.reassemble`` on, every batch is routed through the
        session's :class:`~repro.proto.reassembly.TcpReassembler` before
        scanning, and segments still parked behind sequence holes when the
        source closes are flushed and scanned as a final batch.
        """
        self._require_stream("serve")
        spec = self.config.source
        if not spec.is_live:
            raise ValueError(
                f"serve() needs a live source ({', '.join(spec.LIVE_KINDS)}); "
                f"{spec.kind!r} sources replay offline through run()"
            )
        from ..streaming.ingest import LiveIngestor
        from .config import _live_source_object

        preprocess = preprocess_flush = None
        if self.reassembler is not None:
            preprocess = self.reassembler.process
            preprocess_flush = self.reassembler.flush_all
        ingestor = LiveIngestor(
            self.service,
            batch_packets=spec.batch_packets,
            max_packets=spec.max_packets,
            idle_timeout=spec.idle_timeout,
            collect_events=collect_events,
            on_batch=on_batch,
            preprocess=preprocess,
            preprocess_flush=preprocess_flush,
        )
        return ingestor.serve(_live_source_object(self, spec))

    # ------------------------------------------------------------------
    # state and reporting
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Serialise the stream engine's flow state (the service envelope).

        Without reassembly, checkpoints are interchangeable with ones taken
        directly from a :class:`ScanService` / :class:`ParallelScanService`
        with the same ``shards`` — the facade adds no envelope of its own.
        With ``reassemble`` on, the reassembler's in-flight state (buffered
        holes, per-flow anchors) must ride along, so the checkpoint becomes
        ``{"service": ..., "reassembly": ...}``; :meth:`restore` accepts
        both shapes.
        """
        self._require_stream("checkpoint")
        data = self.service.checkpoint()
        if self.reassembler is not None:
            return {"service": data, "reassembly": self.reassembler.checkpoint()}
        return data

    def restore(self, data: Dict) -> None:
        """Restore flow state saved by :meth:`checkpoint` (or a raw service)."""
        self._require_stream("restore")
        if "reassembly" in data:
            from ..proto.reassembly import TcpReassembler

            self._reassembler = TcpReassembler.restore(data["reassembly"])
            self.service.restore(data["service"])
        else:
            self.service.restore(data)

    def _require_stream(self, what: str) -> None:
        if self.config.mode != "stream":
            raise ValueError(
                f"{what}() needs a stream-mode session; {self.config.mode!r} "
                "sessions keep no service flow state to exchange"
            )

    def event_record(self, event) -> Dict[str, Any]:
        """One match event as a plain JSON-serialisable record."""
        record = {
            "packet": event.packet_id,
            "offset": event.end_offset,
            "sid": self.sid_of[event.string_number],
        }
        flow = getattr(event, "flow", None)
        if flow is not None:
            record["flow"] = list(flow.as_tuple())
        return record

    def alert_record(self, alert) -> Dict[str, Any]:
        """One IDS alert as a plain JSON-serialisable record."""
        return {
            "packet": alert.packet_id,
            "sid": alert.sid,
            "msg": alert.msg,
            "action": alert.action,
        }

    def stats(self) -> Dict[str, Any]:
        """Gauges of whatever the session has built so far.

        Always includes the mode; adds source totals once the source loaded,
        the service's shard gauges once the stream engine exists, the IDS
        counters once the IDS exists, and capture decode statistics for pcap
        sources.
        """
        out: Dict[str, Any] = {"mode": self.config.mode}
        source = self._source
        if source is not _UNSET:
            out["packets"] = len(source.packets)
            out["payload_bytes"] = self.payload_bytes
            if source.flows is not None:
                out["flows"] = len(source.flows)
            stats = source.stats
            if stats is not None:
                out["capture"] = {
                    "frames": stats.frames,
                    "decoded": stats.decoded,
                    "skipped": dict(stats.skipped),
                }
        # whatever is built is read where it is kept: this runs cold, once per
        # run(), and every property hop is paid in full
        if self._service is not _UNSET:
            out["service"] = self._service.stats()
        if self._reassembler not in (_UNSET, None):
            # flat counters: a shallow copy, not asdict's recursive one
            out["reassembly"] = dict(vars(self._reassembler.stats))
        if self._ids is not _UNSET:
            ids_stats = self._ids.stats
            out["ids"] = {
                "packets_processed": ids_stats.packets_processed,
                "payload_bytes": ids_stats.payload_bytes,
                "header_candidates": ids_stats.header_candidates,
                "content_matches": ids_stats.content_matches,
                "alerts_raised": ids_stats.alerts_raised,
            }
        return out

    def verify(self):
        """Statically verify this session's compiled program and ruleset.

        Returns a :class:`repro.check.Report` combining the program
        verifier (DTP exactness, packing round-trips, ...) and the ruleset
        linter — no traffic is scanned, so it is safe to call before
        serving.  A hot-reload supervisor can refuse to swap in a program
        whose report is not ``ok``.
        """
        from ..check import lint_ruleset, merge_reports, verify_program

        return merge_reports(
            f"session verify ({self.config.engine.backend})",
            [
                verify_program(self.program, patterns=self.ruleset.patterns),
                lint_ruleset(self.ruleset),
            ],
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine resources (worker pools); idempotent."""
        if self._service is not _UNSET:
            self._service.close()
        if self._ids is not _UNSET:
            self._ids.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


__all__ = ["RunResult", "Session"]
