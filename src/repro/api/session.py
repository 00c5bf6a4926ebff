"""The Session facade: one entry point over sources, rules, engines, sinks.

``Session.from_config`` turns a declarative :class:`repro.api.PipelineConfig`
into the exact object composition previously hand-wired per call site —
ruleset generation or Snort-file parsing, backend compilation (through
:func:`repro.backend.get_backend`) and **one
ordered stage list**::

    Reassembly  ->  Prefilter (scan service)  ->  Confirm  ->  Sinks
    TcpReassembler  ScanService(...)              the IDS      config order

``ids`` mode is ``stream`` mode plus the confirm stage: the IDS scans through
the session's one scan service (``session.service is session.ids.service``).
The stages share a small contract, implemented on the classes themselves —
feed a batch (``process`` re-shapes packets, the engine's ``scan`` consumes
them), ``flush`` at the end of a finite source, ``checkpoint``/``restore``,
``close`` — and ``run``, ``scan``, ``flush``, ``serve``, ``checkpoint``,
``restore``, ``stats`` and ``close`` walk that list in every mode (sessions
are context managers; ``docs/architecture.md`` §7 has the table).

Everything is built lazily and cached, so a CLI adapter can ask only for
what it prints; the composition is the same one the direct constructors
produce, which is what makes the facade's output byte-identical to
hand-wiring (the contract ``tests/test_api.py`` enforces across backends
and sources).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Union

from ..backend import CompiledProgram, get_backend
# modules, not names, where a caller may wrap the function (the benchmark's
# tracer patches these attributes): the call must look it up when it is made
from ..capture import pcap as capture_pcap
from ..core.accelerator_config import compile_ruleset
from ..fpga.devices import get_device
from ..hardware.accelerator import HardwareAccelerator
from ..ids.pipeline import IntrusionDetectionSystem
from ..proto.reassembly import TcpReassembler
from ..rulesets import parser as rules_parser
from ..rulesets.generator import generate_snort_like_ruleset
from ..streaming.ingest import IngestReport, LiveIngestor
from ..streaming.service import ScanService, StreamScanResult
from ..traffic.packet import Packet
from .config import (
    EmptyRulesetError,
    PipelineConfig,
    _live_source_object,
    get_sink,
    get_source,
    load_config,
)


@dataclass
class RunResult:
    """Outcome of one :meth:`Session.run` execution.

    ``events`` are :class:`repro.streaming.StreamMatch` objects (empty in
    ids mode; in packets mode they carry no flow); ``alerts`` are the IDS
    alerts (ids mode only).  ``scan_result`` is the engine's aggregate
    :class:`repro.streaming.StreamScanResult` of an offline source,
    ``ingest`` the :class:`repro.streaming.IngestReport` of a live one.
    ``sinks`` holds one output per configured sink, in config order.
    """

    mode: str
    events: List = field(default_factory=list)
    alerts: List = field(default_factory=list)
    scan_result: Optional[StreamScanResult] = None
    ingest: Optional[IngestReport] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    sinks: List[Any] = field(default_factory=list)


_UNSET = object()


class Session:
    """A running pipeline built from one :class:`PipelineConfig`.

    All components are lazy cached properties — ``session.program`` compiles
    on first access, ``session.packets`` loads the source once,
    ``session.service`` / ``session.ids`` build the configured engine — so
    construction costs nothing and adapters pay only for what they use.
    Sessions are context managers; :meth:`close` closes every built stage.
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
        #: the stage that consumes the packets, by attribute name: the scan
        #: service, or in ids mode the IDS (that service plus the confirm stage)
        self._engine_name = "ids" if config.mode == "ids" else "service"
        #: the engine's batch call: in packets mode every packet is a fresh flow
        self._scan_name = "scan_fresh" if config.mode == "packets" else "scan"
        self._live = config.source.is_live  # run() serves instead of loading
        engine = config.engine
        self._set_reassembler(
            TcpReassembler(
                overlap_policy=engine.overlap_policy,
                max_flows=engine.reassembly_flows,
                max_flow_bytes=engine.reassembly_bytes,
            )
            if engine.reassemble
            else None
        )
        self._sid_of = _UNSET
        self._payload_bytes = _UNSET
        # one remap dict per allocator pass: ruleset_from_specs assigns a sid
        # per *content*, IDS.from_specs one per *rule* — mixing their records
        # in one dict would mis-attribute reassignments (and over-count them)
        self._ruleset_sid_remap: Dict[int, int] = {}
        self._ids_sid_remap: Dict[int, int] = {}
        #: seconds spent compiling the program (set on first .program access)
        self.compile_seconds: Optional[float] = None

    def _set_reassembler(self, reassembler: Optional[TcpReassembler]) -> None:
        #: The configured :class:`repro.proto.TcpReassembler`, ``None`` unless
        #: the engine set ``reassemble=True``.  One instance persists across
        #: :meth:`scan` calls, so segments buffered behind a sequence hole
        #: carry over exactly like the scan services' flow state; :meth:`run`
        #: and :meth:`serve` flush it when their finite source ends.
        self.reassembler = reassembler
        #: ``(name, stage)`` of the stages that re-shape packets before the
        #: engine scans them, in order
        self._front = () if reassembler is None else (("reassembly", reassembler),)

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
                with open(self.config.resolve(spec.path), encoding="utf-8") as handle:
                    parsed = rules_parser.parse_rules(handle, strict=spec.strict)
                if not any(entry.contents for entry in parsed):
                    raise EmptyRulesetError(
                        f"no content patterns found in {spec.path}"
                    )
                self._specs = parsed
            else:  # explicit specs
                self._specs = [
                    rules_parser.spec_from_content(
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
                self._ruleset = generate_snort_like_ruleset(spec.size, seed=spec.seed)
            else:
                name = spec.path if spec.kind == "file" else "specs"
                self._ruleset = rules_parser.ruleset_from_specs(
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
        return get_device(self.config.engine.device)

    @property
    def program(self) -> CompiledProgram:
        """The compiled matcher program for the configured backend:
        ``get_backend(backend).compile(ruleset)``, the program ``repro verify
        --backend`` proves (for ``dtp`` one unpartitioned
        :class:`~repro.core.DTPAutomaton`).  String numbers follow ruleset
        order.  In ids mode this *is* :attr:`ids`' program, as
        :attr:`service` is its service.
        """
        if self._engine_name == "ids":
            return self.ids.program
        if self._program is _UNSET:
            start = time.perf_counter()
            self._program = get_backend(self.config.engine.backend).compile(self.ruleset)
            self.compile_seconds = time.perf_counter() - start
        return self._program

    @property
    def hardware(self):
        """The cycle-level hardware model of the ruleset on the configured
        device: ``compile_ruleset``'s block partition, built on first use
        (a scan never builds it), whatever the backend."""
        if self._hardware is _UNSET:
            self._hardware = HardwareAccelerator(compile_ruleset(self.ruleset, self.device))
        return self._hardware

    @property
    def _nocase_numbers(self) -> FrozenSet[int]:
        """The string numbers some loaded ``nocase`` content uses.

        When there are any, the scan service must dual-view scan (raw payload
        plus a lower-cased copy) — the patterns themselves are stored
        lower-cased by :func:`ruleset_from_specs`, so without the lowered
        view a ``nocase`` rule silently misses uppercase payloads — and a
        lowered hit credits only these strings.
        """
        nocase = {
            c.effective_pattern()
            for entry in self.specs or ()
            for c in entry.contents
            if c.nocase and not c.is_sticky
        }
        return frozenset(n for n, rule in enumerate(self.ruleset) if rule.pattern in nocase)

    @property
    def service(self):
        """The pipeline's one scan service.

        In ids mode this *is* :attr:`ids`' service — one prefilter per
        session, never a second compile.  Every mode keeps one flow table
        of ``flow_capacity`` flows (packets mode never fills it).
        """
        if self._engine_name == "ids":
            return self.ids.service
        if self._service is _UNSET:
            self._service = ScanService(
                self.program,
                flow_capacity=self.config.engine.flow_capacity,
                track_nocase=self._nocase_numbers,
            )
        return self._service

    @property
    def ids(self):
        """The configured :class:`repro.ids.IntrusionDetectionSystem`."""
        if self._ids is _UNSET:
            engine = self.config.engine
            options = dict(
                backend=engine.backend,
                flow_capacity=engine.flow_capacity,
            )
            if self.specs is None:
                self._ids = IntrusionDetectionSystem.from_ruleset(self.ruleset, **options)
            else:
                if all(not entry.positive_contents for entry in self.specs):
                    raise EmptyRulesetError(
                        "no rule has a positive content for the prefilter to "
                        "anchor on; the ids engine cannot run this ruleset"
                    )
                self._ids = IntrusionDetectionSystem.from_specs(
                    self.specs, sid_remap=self._ids_sid_remap, **options
                )
            self._ids.service  # composed at set-up, not by the first pass mid-stream
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
        """The parsed capture container (pcap sources only, else ``None``).

        The pcap source decodes its file block by block and builds no
        container, so this reads the file again on first access and caches
        the result: only a caller that asks (``scan-pcap`` prints the format
        and link type) pays for it.
        """
        loaded = self._loaded_source
        spec = self.config.source
        if loaded.capture is None and spec.kind == "pcap":
            loaded.capture = capture_pcap.read_capture(self.config.resolve(spec.path))
        return loaded.capture

    @property
    def capture_stats(self):
        """Capture decode statistics (pcap sources only, else ``None``)."""
        return self._loaded_source.stats

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _reshaped(self, packets: Sequence[Packet], end_of_source: bool) -> List[Packet]:
        """``packets`` through the front stages, in order.

        At the end of a finite source each stage also releases what it still
        buffers (into the stages after it), so one engine scan sees it all.
        """
        for _, stage in self._front:
            packets = stage.process(packets)  # a fresh list: ours to extend
            if end_of_source:
                packets += stage.flush_all()
        return packets

    def _scan(self, packets: Sequence[Packet], end_of_source: bool) -> StreamScanResult:
        """One batch down the stage list; every stage flushes behind it when
        it is the last of a finite source (in ids mode that also decides the
        pending end-of-flow verdicts)."""
        engine = getattr(self, self._engine_name)
        packets = self._reshaped(packets, end_of_source)
        result = getattr(engine, self._scan_name)(packets)
        result.scanned = packets
        end = engine.flush() if end_of_source else None
        if end is not None:
            result.alerts += end.alerts
        return result

    def scan(self, packets: Optional[Sequence[Packet]] = None) -> StreamScanResult:
        """One batch of ``packets`` (default: the source's) down the stage list.

        Returns the engine's :class:`repro.streaming.StreamScanResult` (in
        ids mode with the batch's ``alerts``); ``scanned`` names the packets
        it covers.  Repeated calls continue the same flow state, exactly as
        repeated ``service.scan`` calls would (in packets mode every packet
        starts afresh: ``service.scan_fresh``).  With ``reassemble`` on,
        segments pass through the session's :attr:`reassembler` first — data
        stuck behind a sequence hole stays buffered across calls; call
        :meth:`flush` when no more segments will arrive.
        """
        return self._scan(self.packets if packets is None else packets, False)

    def flush(self) -> Optional[StreamScanResult]:
        """End of a finite source: flush every stage, front to back.

        Segments still buffered behind sequence holes are scanned as one
        last batch and the engine flushes behind them.  Returns that batch's
        result, or ``None`` when nothing was buffered and nothing raised.
        :meth:`run` and :meth:`serve` flush implicitly — their sources are
        finite — so this only needs calling after manual incremental
        :meth:`scan` use.
        """
        result = self._scan([], end_of_source=True)
        return result if result.packets or result.alerts else None

    def run(self) -> RunResult:
        """Execute the configured pipeline end to end, then emit every sink.

        * ``packets`` mode — the scan service with state reset at every
          packet boundary (events in arrival order, without a flow);
        * ``stream`` mode  — one batched stateful scan through the scan
          service (events in the canonical order);
        * ``ids`` mode     — the same scan plus the confirm stage
          (:meth:`IntrusionDetectionSystem.scan_flow`, then ``finish``).

        With ``reassemble`` on, the source's TCP segments are re-ordered
        (and the reassembler flushed — the source is finite) before any
        mode scans them; packet ids then follow reassembled emission
        order.  Capture sinks still export the *source* packets verbatim.
        A live source (``tcp``/``udp``/``pcap-tail``) is served
        (:meth:`serve`) instead of loaded, and the sinks emitted over its
        report.
        """
        mode = self.config.mode
        if self._live:
            report = self.serve()
            run = RunResult(
                mode, events=report.events, alerts=report.alerts, ingest=report
            )
        else:
            result = self._scan(self._loaded_source.packets, end_of_source=True)
            run = RunResult(
                mode, events=result.events, alerts=result.alerts, scan_result=result
            )
        run.stats = self.stats()
        for spec in self.config.sinks:
            run.sinks.append(get_sink(spec.kind).emit(self, spec, run))
        return run

    def serve(self, *, collect_events: bool = True, on_batch=None) -> IngestReport:
        """Serve the configured **live** source down the stage list.

        Builds the :mod:`repro.streaming.ingest` source the config's
        ``tcp``/``udp``/``pcap-tail`` spec describes, micro-batches its
        segments into :meth:`scan` and returns the
        :class:`~repro.streaming.ingest.IngestReport` — in ids mode with
        the ``alerts`` raised.  Packet ids are assigned in arrival order, so
        serving a finished capture through ``pcap-tail`` produces events and
        alerts byte-identical to an offline ``pcap``-source :meth:`run`.  The
        spec's ``max_packets`` / ``idle_timeout`` bound the loop;
        ``on_batch(result, packets)`` observes every scanned batch as it
        happens.  No sink is emitted here (:meth:`run` on a live source does
        that).

        With ``engine.reassemble`` on, every batch is routed through the
        session's :class:`~repro.proto.reassembly.TcpReassembler` before
        scanning, and when the source closes :meth:`flush` scans the
        segments still parked behind sequence holes (and, in ids mode,
        decides the pending end-of-flow verdicts) as a final batch.
        """
        spec = self.config.source
        if not spec.is_live:
            raise ValueError(
                f"serve() needs a live source ({', '.join(spec.LIVE_KINDS)}); "
                f"{spec.kind!r} sources replay offline through run()"
            )
        ingestor = LiveIngestor(
            self,
            batch_packets=spec.batch_packets,
            max_packets=spec.max_packets,
            idle_timeout=spec.idle_timeout,
            collect_events=collect_events,
            on_batch=on_batch,
        )
        return ingestor.serve(_live_source_object(self, spec))

    # ------------------------------------------------------------------
    # state and reporting
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Serialise every stage's in-flight state.

        When the engine is the only stateful stage the envelope is the
        engine's own: a stream-mode checkpoint is interchangeable with one
        taken directly from a :class:`ScanService`, an ids-mode one with
        the IDS's ``{"service", "confirm"}``.  With
        ``reassemble`` on, the reassembler's state (buffered holes, per-flow anchors) must
        ride along, so the checkpoint becomes ``{"service" | "ids": ...,
        "reassembly": ...}``; :meth:`restore` accepts both shapes.
        """
        data = getattr(self, self._engine_name).checkpoint()
        front = {name: stage.checkpoint() for name, stage in self._front}
        return {self._engine_name: data, **front} if front else data

    def restore(self, data: Dict) -> None:
        """Restore state saved by :meth:`checkpoint` (or by a raw engine).

        The reassembler keeps the engine's configured bounds and overlap
        policy, as the scan service keeps its flow capacity: a checkpoint's
        own values never override them, and its least recently used flows
        that do not fit are dropped (``restore_dropped``)."""
        if "reassembly" in data:
            engine = self.config.engine
            self._set_reassembler(
                TcpReassembler.restore(
                    data["reassembly"],
                    max_flows=engine.reassembly_flows,
                    overlap_policy=engine.overlap_policy,
                    max_flow_bytes=engine.reassembly_bytes,
                )
            )
            data = data[self._engine_name]
        getattr(self, self._engine_name).restore(data)

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

        Always includes the mode; adds source totals once the source loaded
        (capture decode statistics for pcap sources), then one entry per
        built stage: ``service`` (the flow-table gauges — in ids mode the
        IDS's service), ``reassembly`` and ``ids`` (the confirm-side counters).
        """
        out: Dict[str, Any] = {"mode": self.config.mode}
        source = self._source
        # whatever is built is read where it is kept: this runs cold, once per
        # run(), and every property hop is paid in full
        if source is not _UNSET:
            stats = source.stats
            out["packets"] = len(source.packets)
            out["payload_bytes"] = (
                self.payload_bytes if stats is None else stats.payload_bytes
            )
            if source.flows is not None:
                out["flows"] = len(source.flows)
            if stats is not None:
                out["capture"] = {
                    "frames": stats.frames,
                    "decoded": stats.decoded,
                    "skipped": dict(stats.skipped),
                }
        ids = self._ids
        service = self._service
        if ids is not _UNSET and self._engine_name == "ids":
            service = ids.service  # the session's one prefilter lives there
        if service is not _UNSET:
            out["service"] = service.stats()
        # flat counters: a shallow copy each, not asdict's recursive one
        for name, stage in self._front:
            out[name] = dict(vars(stage.stats))
        if ids is not _UNSET:
            out["ids"] = dict(vars(ids.stats))
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

        # proved against the strings it should hold, not its own list
        ruleset = self.ids.content_ruleset if self._engine_name == "ids" else self.ruleset
        return merge_reports(
            f"session verify ({self.config.engine.backend})",
            [
                verify_program(self.program, patterns=ruleset.patterns),
                lint_ruleset(self.ruleset),
            ],
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every built engine stage; idempotent."""
        for engine in (self._service, self._ids):
            if engine is not _UNSET:
                engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


__all__ = ["RunResult", "Session"]
