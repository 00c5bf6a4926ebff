"""End-to-end mini intrusion detection pipeline.

Combines the two halves of a DPI rule the way the paper describes them being
used on a router line card, as a *two-stage* software IDS:

1. the *header* of every packet goes through 5-tuple classification
   (:mod:`repro.ids.classifier`);
2. the *payload* goes through the string matching accelerator's compiled
   program on a :class:`repro.streaming.ScanService` — the line-rate
   **prefilter**, which reports where every rule content (negated ones
   included) occurs;
3. the **confirm** stage (:mod:`repro.ids.confirm`) evaluates each candidate
   rule's full :class:`~repro.rulesets.parser.RulePredicate` — positional
   windows, negation, pcre — against the prefilter's absolute hit positions,
   and an alert is raised only when header and predicate both hold.

Every rule alerts at the first packet where its predicate holds mid-stream —
a negated content with a bounded window (``depth``/``within``) included, once
the flow has grown past the window.  Negated components that stay open as
long as bytes can arrive (unbounded windows, negated pcres and sticky
contents) are decided at flow end (:meth:`finish`) or eviction, attributed to
the flow's last seen packet.  A packet asks only the rules one of whose
verdict inputs it changed — a string's first occurrence, a repeat hit inside a
positional rule, bytes under a pcre, a normalized HTTP buffer that grew (the
per-flow open set of :mod:`repro.ids.confirm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..backend import CompiledProgram, get_backend
from ..core.accelerator_config import compile_ruleset  # noqa: F401 (the e2e tracer wraps it)
from ..rulesets.parser import (
    ContentPattern,
    RulePredicate,
    SidAllocator,
    SnortRuleSpec,
)
from ..rulesets.ruleset import RuleSet
from ..streaming.flow import DEFAULT_FLOW_CAPACITY, FlowEntry, FlowKey, SequencedBatch
from ..streaming.service import ScanService, StreamScanResult, checkpoint_table
from ..traffic.packet import Packet, PacketBatch
from .classifier import HeaderClassifier, HeaderPattern
from .confirm import ConfirmStage, RuleEvaluator


@dataclass(frozen=True)
class IDSRule:
    """One complete IDS rule: header pattern plus a content predicate.

    ``contents`` holds the *positive raw-stream* content strings — what the
    prefilter can gate on — stored as effective patterns (lower-cased when
    the matching ``nocase`` flag is set).  ``predicate`` is the full match
    predicate (positional windows, negated contents, sticky-buffer
    contents, pcres); when omitted it is derived from ``contents``/
    ``nocase`` as the plain "every string occurs somewhere" predicate,
    which keeps the historical constructor behaviour intact.  ``contents``
    may be empty only when the predicate carries a positive sticky-buffer
    content — such a rule has nothing for the prefilter, and its candidacy
    is gated on the flow producing a normalized HTTP buffer instead.
    """

    sid: int
    header: HeaderPattern
    contents: Tuple[bytes, ...]
    msg: str = ""
    action: str = "alert"
    nocase: Tuple[bool, ...] = ()
    predicate: Optional[RulePredicate] = None

    def __post_init__(self) -> None:
        if not self.contents:
            if self.predicate is None or not any(
                not c.negated for c in self.predicate.sticky
            ):
                raise ValueError(f"rule {self.sid} has no content strings")
        if self.nocase and len(self.nocase) != len(self.contents):
            raise ValueError(f"rule {self.sid}: nocase flags do not match contents")
        if self.predicate is None:
            flags = self.nocase or (False,) * len(self.contents)
            object.__setattr__(
                self,
                "predicate",
                RulePredicate(
                    contents=tuple(
                        ContentPattern(pattern=content, nocase=flag)
                        for content, flag in zip(self.contents, flags)
                    )
                ),
            )
        else:
            positives = tuple(
                c.effective_pattern() for c in self.predicate.raw_positive
            )
            if positives != tuple(self.contents):
                raise ValueError(
                    f"rule {self.sid}: contents do not match the predicate's "
                    "positive raw-stream contents"
                )


@dataclass(frozen=True)
class Alert:
    """An alert raised for a packet."""

    packet_id: int
    sid: int
    msg: str
    action: str


@dataclass
class IDSStatistics:
    packets_processed: int = 0
    payload_bytes: int = 0
    header_candidates: int = 0
    content_matches: int = 0
    alerts_raised: int = 0


class IntrusionDetectionSystem:
    """A miniature Snort-style IDS driven by the paper's accelerator.

    ``backend`` selects the content matcher (any :mod:`repro.backend` name):
    :attr:`program` is ``get_backend(backend).compile(content_ruleset)``
    (every rule's raw-stream strings), what a Session of that backend scans.

    :meth:`scan_flow` is the stream pipeline plus a confirm stage: the
    prefilter runs on one :class:`repro.streaming.ScanService`
    (:attr:`service`) with one flow table of ``flow_capacity`` flows, so a
    whole batch crosses into the lane kernel at once and flows are evicted
    in arrival order — the same service a stream-mode session scans with.
    ``reassemble``, ``overlap_policy`` and ``reassembly_bytes`` are the
    service's TCP reassembly settings (:class:`ScanService`).

    As a pipeline stage the IDS answers a scan service's calls —
    :meth:`scan` / :meth:`flush` (batch results carrying the alerts),
    :meth:`checkpoint` / :meth:`restore`, :meth:`close` — which is how
    :class:`repro.api.Session` and :class:`repro.streaming.LiveIngestor`
    drive it.
    """

    def __init__(
        self,
        rules: Sequence[IDSRule],
        backend: str = "dtp",
        flow_capacity: int = DEFAULT_FLOW_CAPACITY,
        reassemble: bool = False,
        overlap_policy: str = "first",
        reassembly_bytes: Optional[int] = None,
    ):
        if not rules:
            raise ValueError("at least one rule is required")
        self.rules: Dict[int, IDSRule] = {}
        for rule in rules:
            if rule.sid in self.rules:
                raise ValueError(f"duplicate sid {rule.sid}")
            self.rules[rule.sid] = rule
        self.stats = IDSStatistics()

        self.classifier = HeaderClassifier()
        for rule in rules:
            self.classifier.add_rule(rule.sid, rule.header)

        # Build the prefilter ruleset: unique strings across all rules'
        # predicates — negated contents included, because the confirm stage
        # decides negation windows from their *occurrence* positions.
        # Contents flagged nocase are stored lower-cased and additionally
        # searched in a lower-cased view of each payload.
        self.content_ruleset = RuleSet(name="ids-contents")
        nocase_patterns: Set[bytes] = set()
        for rule in rules:
            for content in rule.predicate.contents:
                if content.is_sticky:
                    continue  # tested against normalized buffers, not the stream
                pattern = content.effective_pattern()
                if content.nocase:
                    nocase_patterns.add(pattern)
                if pattern not in self.content_ruleset:
                    self.content_ruleset.add_pattern(pattern)
        if len(self.content_ruleset) == 0:
            # every rule is pure-sticky: the prefilter has nothing to search
            # on the raw stream, but the scan machinery needs a compiled
            # program — seed it with the sticky patterns.  Their raw
            # occurrences are never referenced by any evaluator step, so the
            # extra prefilter work cannot change a verdict.
            for rule in rules:
                for content in rule.predicate.contents:
                    pattern = content.effective_pattern()
                    if pattern not in self.content_ruleset:
                        self.content_ruleset.add_pattern(pattern)

        self.backend = backend
        self.program: CompiledProgram = get_backend(backend).compile(self.content_ruleset)
        number_of = {
            rule.pattern: index for index, rule in enumerate(self.content_ruleset)
        }
        #: the strings a lowered-view hit may credit (the service's track_nocase)
        self._nocase_numbers = frozenset(number_of[p] for p in nocase_patterns)
        #: the confirm stage: per-rule predicates bound to the prefilter
        #: numbering, in rule order.  One instance correlates the flow scan
        #: and the stateless :meth:`process` (it is fed from StreamMatch
        #: events either way)
        self._confirm = ConfirmStage(
            (RuleEvaluator(rule.sid, rule.predicate, number_of) for rule in rules),
            len(number_of),
        )
        #: the scan service the prefilter runs on
        self.service = ScanService(
            self.program,
            flow_capacity=flow_capacity,
            track_nocase=self._nocase_numbers,
            reassemble=reassemble,
            overlap_policy=overlap_policy,
            reassembly_bytes=reassembly_bytes,
        )
        #: what :meth:`restore` raised for the flows it dropped, not yet handed out
        self._dropped: List[Alert] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_ruleset(cls, ruleset, **engine) -> "IntrusionDetectionSystem":
        """Build an IDS with one wildcard-header rule per ruleset pattern.

        The wildcard header keeps every packet a candidate, so detection is
        decided purely by the content matcher — the construction the CLI and
        :class:`repro.api.Session` use for synthetic rulesets.  ``engine``
        holds the constructor's keyword arguments (``backend``,
        ``flow_capacity``, ...).
        """
        rules = [
            IDSRule(sid=rule.sid, header=HeaderPattern(), contents=(rule.pattern,))
            for rule in ruleset
        ]
        return cls(rules, **engine)

    @classmethod
    def from_specs(
        cls,
        specs: Iterable[SnortRuleSpec],
        sid_remap: Optional[Dict[int, int]] = None,
        **engine,
    ) -> "IntrusionDetectionSystem":
        """Build an IDS from parsed Snort rules.

        Each spec's full predicate (positional modifiers, negated contents,
        sticky-buffer contents, pcres) is carried into the confirm stage.
        Rules without a single positive content are skipped — the prefilter
        has nothing to anchor on (parse with ``strict=True`` to reject such
        rules instead; see :attr:`repro.api.Session.skipped_rules` for the
        count).  A rule whose only positive contents target a normalized
        HTTP buffer is kept: the prefilter never sees it, and the confirm
        stage gates its candidacy on the flow parsing as HTTP.

        Sid assignment is the shared :class:`repro.rulesets.parser.SidAllocator`
        policy: the first rule claiming a sid keeps it, later claimants (and
        sid-less rules) get the lowest free sid no spec claims explicitly —
        a rules file with colliding or missing sids loads instead of tripping
        the duplicate-sid constructor check, and reassignments are recorded
        in ``sid_remap`` (when given) exactly as :func:`ruleset_from_specs`
        records them.  ``engine`` holds the constructor's keyword arguments.
        """
        specs = list(specs)
        allocator = SidAllocator(specs, sid_remap)
        rules: List[IDSRule] = []
        for spec in specs:
            if not spec.positive_contents:
                continue
            positives = [c for c in spec.positive_contents if not c.is_sticky]
            sid = allocator.assign(spec.sid)
            rules.append(
                IDSRule(
                    sid=sid,
                    header=HeaderPattern(
                        protocol=spec.header.protocol,
                        src_ip=spec.header.src_ip,
                        src_port=spec.header.src_port,
                        dst_ip=spec.header.dst_ip,
                        dst_port=spec.header.dst_port,
                    ),
                    contents=tuple(c.effective_pattern() for c in positives),
                    msg=spec.msg,
                    action=spec.header.action,
                    nocase=tuple(c.nocase for c in positives),
                    predicate=spec.predicate,
                )
            )
        return cls(rules, **engine)

    # ------------------------------------------------------------------
    def _alert(self, packet_id: int, sid: int) -> Alert:
        rule = self.rules[sid]
        self.stats.alerts_raised += 1
        return Alert(packet_id=packet_id, sid=sid, msg=rule.msg, action=rule.action)

    def process(self, packets: Sequence[Packet]) -> List[Alert]:
        """Run the full pipeline over ``packets`` and return the alerts raised.

        Stateless: every packet is its own complete "flow", so predicates —
        negation included — are decided per packet (``at_end`` semantics).
        The prefilter is :attr:`service` with every packet a fresh flow
        (:meth:`ScanService.scan_fresh`): one backend crossing for the batch,
        and the flow table is not touched.
        """
        alerts: List[Alert] = []
        confirm = self._confirm
        hits = self.service.scan_fresh(packets)
        for index, packet in enumerate(packets):
            self.stats.packets_processed += 1
            self.stats.payload_bytes += len(packet.payload)
            events = hits.get(index, ())
            self.stats.content_matches += len({event.string_number for event in events})
            # the packet is its own flow: a record of its own (with its own
            # pcre buffer and HTTP normalizer), never tracked by the stage
            record = confirm.new_record(self.classifier.classify(packet.header))
            self.stats.header_candidates += len(record.candidates)
            record.absorb(packet.packet_id, packet.payload, events)
            for sid in confirm.verdicts(record, events, at_end=True):
                alerts.append(self._alert(packet.packet_id, sid))
        return alerts

    # ------------------------------------------------------------------
    # stateful (streaming) scanning
    # ------------------------------------------------------------------
    @property
    def flow_scanner(self) -> ScanService:
        """:attr:`service` under the name the end-to-end benchmark reads
        (``flow_scanner.flows``): one engine, ``StreamScanner`` and
        ``ScanService`` being the same class."""
        return self.service

    def close(self) -> None:
        """Part of the pipeline-stage contract: nothing to release (flow
        and confirm state are kept, so a closed IDS can still be read)."""

    def __enter__(self) -> "IntrusionDetectionSystem":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _correlate(self, batch: SequencedBatch, hits: Dict[int, Sequence]) -> List[Alert]:
        """Fold scanned events into confirm-stage verdicts, row by row.

        Fed from the service's scan of ``batch``, whose columns it reads: a
        row's flow entry is ``batch.entry``, and the flows that left the
        table are ``batch.departures``.  A flow's confirm record lives on its
        flow-table entry from the flow's first packet; a flow that left the
        table before row ``index`` — evicted, or released after its FIN or
        RST — has its record finalized (pending negation verdicts) before
        that row is correlated (one that left after the last row, after
        it), and a returning flow restarts from scratch, as the scanner
        restarted it.
        """
        alerts: List[Alert] = []
        confirm = self._confirm
        classify = self.classifier.classify
        stats = self.stats
        lengths = batch.length
        stats.packets_processed += len(lengths)
        stats.payload_bytes += sum(lengths)
        entries, evictions = batch.entry, batch.departures
        buffers, starts, packet_ids = batch.buffer, batch.start, batch.packet_id
        headers, flows = batch.flows, batch.flow
        next_eviction = 0
        for index in range(len(lengths)):
            events = hits.get(index, ())
            if events:
                # distinct strings per packet, as process() counts them
                stats.content_matches += len({e.string_number for e in events})
            # a flow leaves before a *different* flow's row (or after the last)
            while (
                next_eviction < len(evictions)
                and evictions[next_eviction][0] <= index
            ):
                evicted = evictions[next_eviction][1].record
                next_eviction += 1
                if evicted is not None:
                    for packet_id, sid in confirm.finalize_flow(evicted):
                        alerts.append(self._alert(packet_id, sid))
            entry = entries[index]
            record = entry.record
            if record is None:
                record = entry.record = confirm.new_record(classify(headers[flows[index]]))
            start = starts[index]
            record.absorb(
                packet_ids[index], buffers[index][start:start + lengths[index]], events
            )
            stats.header_candidates += len(record.candidates)
            # no prefilter hit and no normalized HTTP buffer on this flow
            # yet -> no rule can pass its candidacy gate: keep the no-hit
            # hot path free of per-rule work
            if not record.has_hits:
                continue
            for sid in confirm.verdicts(record, events):
                alerts.append(self._alert(packet_ids[index], sid))
        for _, entry in evictions[next_eviction:]:
            if entry.record is not None:
                for packet_id, sid in confirm.finalize_flow(entry.record):
                    alerts.append(self._alert(packet_id, sid))
        return alerts

    def scan_flow(
        self,
        packets: Sequence[Packet],
        end_of_source: bool = False,
        on_scanned: Optional[Callable[[PacketBatch], None]] = None,
    ) -> List[Alert]:
        """Run the pipeline statefully: packets are flow segments, in order.

        Unlike :meth:`process`, the content matcher resumes each flow's
        automaton state (keyed by the packet 5-tuple) across segments, so a
        rule string split across consecutive packets of one flow still
        completes, and a multi-content predicate may gather its occurrences
        over several segments (the events' end offsets stay flow-absolute,
        which is what positional windows are resolved against).  A rule
        alerts at most once per tracked flow, at the first packet where its
        predicate holds; negated components still open then (an unbounded
        window, a negated pcre or sticky content) are decided when the flow
        ends — call :meth:`finish` after the last segment — or when its
        state is evicted under memory pressure.  Evicted flows restart from
        scratch.

        The payloads are sequenced by :attr:`service` (reassembled first
        when it reassembles) and scanned in one :meth:`ScanService.scan_batch`,
        and the confirm stage is fed from both: the matched packets' events
        (flow-absolute offsets), and the entries each flow's confirm record
        hangs off — finalized exactly where the table evicts or releases
        them.  At the ``end_of_source`` the reassembler's buffered pieces
        ride along; ``on_scanned`` is handed the batch that was scanned.
        """
        batch = self.service.sequence(packets, end_of_source)
        hits = self.service.scan_batch(batch)
        if on_scanned is not None:
            on_scanned(batch)
        alerts, self._dropped = self._dropped, []
        return alerts + self._correlate(batch, hits)

    def _live_flows(self) -> List[FlowEntry]:
        """The live flows that carry a confirm record, in first-seen order."""
        live = [e for e in self.service.flows.entries() if e.record is not None]
        return sorted(live, key=lambda entry: entry.record.sequence)

    def finish(self) -> List[Alert]:
        """Decide the pending end-of-flow verdicts of every tracked flow.

        A negated component whose window is still open cannot alert
        mid-stream — a later byte could still land in it — so after the last
        segment of the workload, call :meth:`finish` to evaluate those rules
        with the flows closed.  Alerts are attributed to each flow's last seen
        packet, flows are walked in first-seen order, and the call is
        idempotent (decided rules are marked, state is kept for inspection).
        Rules without negation never alert here: their predicates are
        monotone, so a prefix that failed keeps failing on the same bytes.
        """
        finalize = self._confirm.finalize_flow
        alerts, self._dropped = self._dropped, []
        return alerts + [
            self._alert(packet_id, sid)
            for entry in self._live_flows()
            for packet_id, sid in finalize(entry.record)
        ]

    # ------------------------------------------------------------------
    # the pipeline-stage contract (shared with the scan services)
    # ------------------------------------------------------------------
    def scan(self, packets: Sequence[Packet], end_of_source: bool = False) -> StreamScanResult:
        """:meth:`scan_flow` as a pipeline stage: the batch result a scan
        service would return, with the confirm stage's alerts in place of
        the prefilter events it consumed."""
        stats, scanned = self.stats, []
        rows, payload = stats.packets_processed, stats.payload_bytes
        alerts = self.scan_flow(packets, end_of_source, scanned.append)
        return StreamScanResult(
            [], stats.packets_processed - rows, stats.payload_bytes - payload,
            alerts=alerts, scanned=scanned[0],
        )

    def flush(self) -> Optional[StreamScanResult]:
        """End of a finite source: what :meth:`finish` raised, as a
        packet-less batch (``None`` when it raised nothing)."""
        alerts = self.finish()
        return StreamScanResult([], 0, 0, alerts=alerts) if alerts else None

    def checkpoint(self) -> Dict:
        """Serialise the flow scan's state: ``{"service", "confirm"}``.

        Everything the confirm stage needs across a restart — absolute hit
        positions per flow, pcre byte buffers, pending negation candidacy —
        rides next to the service's table of resumable automaton states,
        so a restored IDS continues mid-flow predicates exactly where it
        stopped.  The confirm flows are written in first-seen order.
        """
        return {
            "service": self.service.checkpoint(),
            "confirm": self._confirm.checkpoint((e.key, e.record) for e in self._live_flows()),
        }

    def restore(self, data: Dict) -> None:
        """Restore state saved by :meth:`checkpoint`.

        Each confirm record goes onto its flow's restored entry; a confirm
        flow the table never held is refused before anything is restored.
        A flow dropped for capacity (``restore_dropped``) ends here as an
        LRU eviction ends it: the next :meth:`scan_flow` or :meth:`finish`
        hands out its end-of-flow alerts.  Also accepts the older
        ``{"flows", "confirm"}`` shape.
        """
        table = checkpoint_table(data["flows"] if "flows" in data else data["service"])
        held = {FlowKey.from_checkpoint(flow["key"]) for flow in table["flows"]}
        records = dict(self._confirm.restore(data["confirm"]))
        for key in records.keys() - held:
            raise ValueError(f"confirm flow {key.as_tuple()} key: not in the flow table")
        dropped: List[FlowEntry] = []  # least recently used first
        self.service.restore(table, on_evict=dropped.append)
        for entry in self.service.flows.entries():
            entry.record = records.get(entry.key)
        finalize = self._confirm.finalize_flow
        self._dropped += [
            self._alert(packet_id, sid)
            for entry in dropped
            if entry.key in records
            for packet_id, sid in finalize(records[entry.key])
        ]
