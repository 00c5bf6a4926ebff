"""Two-stage rule semantics: the confirm stage and its full grammar.

Layers of coverage:

* :class:`TestPredicateGrammar` — the parser's positional modifiers,
  negation, pcre, and the grammar errors that must be rejected in both
  strict and lenient modes;
* :class:`TestRuleEvaluator` / :class:`TestPipeline` — unit semantics of
  window evaluation (backtracking, negation decision points, pcre) and the
  stateful pipeline behaviours built on them (cross-segment windows,
  end-of-flow finalisation, eviction, checkpoint/restore, nocase end to
  end);
* :class:`TestDifferential` — randomized full-grammar rulesets scanned
  through every {backend} × {memory, pcap} combination
  must produce the naive reference evaluator's exact alert sequence;
* :class:`TestEventDrivenIndex` — the same harness aimed at the confirm
  stage's due set (which rules a packet asks): header-restricted
  candidates, the lowered-view index, shared and repeated strings, verdicts
  that flip on packets with no prefilter event, eviction, alert order, and
  a count of ``check`` calls that locks the property without a clock;
* :class:`TestOpenSet` — the per-flow open set against the stage it replaced
  (``ReferenceConfirmStage`` in ``tests/conftest.py``) and the naive
  evaluator: a ``hypothesis`` differential over the web workload's seven rule
  shapes, a ``check`` count on a miniature of that workload, and the restore
  edges a re-derived open set creates.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    EngineSpec,
    PipelineConfig,
    RulesSpec,
    Session,
    SourceSpec,
)
from repro.capture import write_packets
from repro.ids import ConfirmStage, IntrusionDetectionSystem, RuleEvaluator
from repro.rulesets import (
    RuleParseError,
    generate_snort_like_ruleset,
    parse_rule,
    parse_rules,
)
from repro.streaming.service import ANONYMOUS_FLOW, StreamMatch
from repro.traffic import FiveTuple, Packet, PacketBatch, TrafficGenerator

from tests.conftest import (
    MIXED_RULE_HEADERS,
    assert_equivalent_alerts,
    install_reference_confirm,
    naive_reference_alerts,
    naive_rule_match,
    random_predicate_rules,
    renumbered,
    sequenced_scan,
)

WILDCARD = "alert ip any any -> any any "


def _flow(payloads, src_port=1111, start_id=0, dst_port=80):
    header = FiveTuple(
        src_ip="10.0.0.1",
        dst_ip="10.0.0.2",
        src_port=src_port,
        dst_port=dst_port,
        protocol="tcp",
    )
    return [
        Packet(payload=payload, header=header, packet_id=start_id + index)
        for index, payload in enumerate(payloads)
    ]


def _alert_pairs(alerts):
    return [(alert.packet_id, alert.sid) for alert in alerts]


# ----------------------------------------------------------------------
# parser grammar
# ----------------------------------------------------------------------
class TestPredicateGrammar:
    def test_positional_modifiers_parsed(self):
        spec = parse_rule(
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:1; within:300; sid:1;)'
        )
        first, second = spec.contents
        assert (first.offset, first.depth) == (0, 4)
        assert (second.distance, second.within) == (1, 300)
        assert not first.is_relative and second.is_relative

    def test_negated_content_parsed(self):
        spec = parse_rule(
            WILDCARD + '(content:"POST"; content:!"Content-Length"; sid:1;)'
        )
        assert [c.negated for c in spec.contents] == [False, True]
        assert [c.pattern for c in spec.positive_contents] == [b"POST"]

    def test_pcre_parsed_with_flags_and_negation(self):
        spec = parse_rule(
            WILDCARD + '(content:"cmd"; pcre:"/GET[^x]*cmd/i"; '
            'pcre:!"/quit/"; sid:1;)'
        )
        positive, negated = spec.pcres
        assert positive.pattern == "GET[^x]*cmd" and positive.flags == "i"
        assert negated.negated and not positive.negated
        assert positive.compile().search(b"GET /a/cmd") is not None

    def test_pcre_body_may_contain_escaped_delimiter(self):
        spec = parse_rule(WILDCARD + '(content:"a"; pcre:"/a\\/b/"; sid:1;)')
        assert spec.pcres[0].compile().search(b"xa/by") is not None

    def test_duplicate_modifier_rejected(self):
        with pytest.raises(RuleParseError, match="duplicate depth"):
            parse_rule(WILDCARD + '(content:"a"; depth:4; depth:5; sid:1;)')

    def test_conflicting_anchoring_rejected(self):
        with pytest.raises(RuleParseError, match="conflicts with"):
            parse_rule(
                WILDCARD + '(content:"a"; content:"b"; distance:1; offset:2; '
                "sid:1;)"
            )

    def test_relative_modifier_on_first_content_rejected(self):
        with pytest.raises(RuleParseError, match="no previous match"):
            parse_rule(WILDCARD + '(content:"a"; distance:1; sid:1;)')

    def test_relative_after_only_negated_contents_rejected(self):
        with pytest.raises(RuleParseError, match="no previous match"):
            parse_rule(
                WILDCARD + '(content:!"a"; content:"b"; within:4; sid:1;)'
            )

    def test_grammar_errors_are_line_anchored(self):
        lines = [
            WILDCARD + '(content:"ok"; sid:1;)',
            WILDCARD + '(content:"bad"; within:3; sid:2;)',
        ]
        with pytest.raises(RuleParseError, match="line 2:"):
            parse_rules(lines)

    def test_lenient_keeps_unsupported_options_strict_rejects(self):
        line = WILDCARD + '(content:"a"; flow:to_server; sid:1;)'
        spec = parse_rule(line)
        assert spec.unparsed_options == [("flow", "to_server")]
        with pytest.raises(RuleParseError, match="unsupported option 'flow'"):
            parse_rule(line, strict=True)

    def test_strict_rejects_all_negated_rule(self):
        line = WILDCARD + '(content:!"a"; sid:1;)'
        assert parse_rule(line).positive_contents == []
        with pytest.raises(RuleParseError, match="no positive"):
            parse_rule(line, strict=True)


# ----------------------------------------------------------------------
# evaluator semantics (driven through the end-to-end pipeline, single flow)
# ----------------------------------------------------------------------
def _ids_for(lines, **kwargs):
    return IntrusionDetectionSystem.from_specs(
        parse_rules(lines), backend="dense", **kwargs
    )


class TestRuleEvaluator:
    def test_chain_backtracks_past_greedy_earliest_occurrence(self):
        """The first "ab" is too early for "cd"'s within-window; only the
        second anchors the chain.  A greedy earliest-match evaluator fails
        this rule; the backtracking one must not."""
        lines = [
            WILDCARD + '(content:"ab"; content:"cd"; distance:0; within:4; '
            "sid:1;)"
        ]
        packets = _flow([b"abXXXXXXabYcd"])
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [(0, 1)]
        assert naive_rule_match(parse_rules(lines)[0], b"abXXXXXXabYcd", True)

    def test_offset_depth_window_enforced(self):
        lines = [WILDCARD + '(content:"GET"; offset:0; depth:4; sid:1;)']
        with _ids_for(lines) as ids:
            hit = ids.scan_flow(_flow([b"GET /x"])) + ids.finish()
        with _ids_for(lines) as ids:
            miss = ids.scan_flow(_flow([b"..GET /x"])) + ids.finish()
        assert _alert_pairs(hit) == [(0, 1)] and miss == []

    def test_bounded_negation_decides_mid_stream(self):
        """A depth/within-bounded negation window is decided as soon as the
        stream has passed its end — no flow finalisation needed."""
        lines = [
            WILDCARD + '(content:"ab"; content:!"zz"; distance:0; within:4; '
            "sid:1;)"
        ]
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(_flow([b"ab....", b"more"]))
        # alert raised by scan_flow itself, before finish()
        assert _alert_pairs(alerts) == [(0, 1)]

    def test_unbounded_negation_waits_for_flow_end(self):
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        with _ids_for(lines) as ids:
            mid = ids.scan_flow(_flow([b"ab..", b"...."]))
            final = ids.finish()
        assert mid == []
        assert _alert_pairs(final) == [(1, 1)]  # attributed to last packet

    def test_negation_occupied_window_suppresses(self):
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(_flow([b"ab..", b".zz."])) + ids.finish()
        assert alerts == []

    def test_positive_pcre_confirms_and_rejects(self):
        lines = [WILDCARD + '(content:"cmd"; pcre:"/GET[^;]*cmd/"; sid:1;)']
        with _ids_for(lines) as ids:
            hit = ids.scan_flow(_flow([b"GET /a/cmd"])) + ids.finish()
        with _ids_for(lines) as ids:
            miss = ids.scan_flow(_flow([b"PUT /a/cmd"])) + ids.finish()
        assert _alert_pairs(hit) == [(0, 1)] and miss == []

    def test_negated_pcre_only_provable_at_flow_end(self):
        lines = [WILDCARD + '(content:"ab"; pcre:!"/quit/"; sid:1;)']
        with _ids_for(lines) as ids:
            mid = ids.scan_flow(_flow([b"ab.."]))
            final = ids.finish()
        assert mid == [] and _alert_pairs(final) == [(0, 1)]

    def test_evaluator_exported(self):
        spec = parse_rule(WILDCARD + '(content:"ab"; sid:7;)')
        evaluator = RuleEvaluator(7, spec.predicate, {b"ab": 0})
        assert evaluator.plain and not evaluator.requires_end


# ----------------------------------------------------------------------
# stateful pipeline behaviours
# ----------------------------------------------------------------------
class TestPipeline:
    def test_window_spans_segment_boundary(self):
        """Absolute offsets survive reassembly: the chain completes on the
        packet where the second content's bytes arrive."""
        lines = [
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:0; within:40; sid:1;)'
        ]
        packets = _flow([b"GET /index.h", b"tml HTTP/1.1"])
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [(1, 1)]

    def test_split_pattern_occurrence_positions_are_absolute(self):
        lines = [WILDCARD + '(content:"needle"; offset:4; sid:1;)']
        packets = _flow([b"xxxxnee", b"dle"])
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [(1, 1)]

    def test_eviction_finalizes_negation_rules(self):
        """With a 1-slot flow table, flow A's eviction (by flow B's arrival)
        decides A's unbounded negation mid-scan, attributed to A's last
        packet seen before eviction."""
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        packets = (
            _flow([b"ab.."], src_port=1111, start_id=0)
            + _flow([b"....ab"], src_port=2222, start_id=1)
            + _flow([b"...."], src_port=1111, start_id=2)
        )
        with _ids_for(lines, flow_capacity=1) as ids:
            alerts = ids.scan_flow(packets)
            final = ids.finish()
        # flow 1111 evicted when 2222 arrives -> negation decided at packet 0;
        # the second eviction (2222 out, 1111 back in) decides 2222 at its
        # only packet.  The re-started 1111 flow carries no positive content,
        # so finish() has nothing left to decide.
        assert _alert_pairs(alerts) == [(0, 1), (1, 1)]
        assert final == []

    def test_nocase_rule_alerts_on_mixed_case_flow(self):
        """The end-to-end nocase lock test: a nocase content stored
        lower-cased must match a mixed-case payload through the stateful
        scan path (the prefilter's lowered view), not just process()."""
        lines = [WILDCARD + '(content:"CMD.exe"; nocase; sid:1;)']
        packets = _flow([b"run CmD.", b"ExE now"])
        with _ids_for(lines) as ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [(1, 1)]

    def test_nocase_rules_file_scans_through_session(self, tmp_path):
        """Lock for the Session wiring bug: the scan service must be
        built with nocase tracking whenever the loaded rules need it."""
        rules = tmp_path / "nocase.rules"
        rules.write_text(WILDCARD + '(content:"CMD.exe"; nocase; sid:1;)\n')
        packets = tuple(_flow([b"run CmD.ExE now"]))
        config = PipelineConfig(
            mode="stream",
            source=SourceSpec(kind="packets", packets=packets),
            rules=RulesSpec(kind="file", path=str(rules)),
            engine=EngineSpec(backend="dense"),
        )
        with Session.from_config(config) as session:
            result = session.scan()
            assert len(result.events) == 1
            alerts = session.ids.scan_flow(list(packets)) + session.ids.finish()
        assert _alert_pairs(alerts) == [(0, 1)]

    def test_process_decides_per_packet(self):
        """process() is the stateless path: each packet is a complete flow,
        so negation and pcre are decided immediately (at_end semantics)."""
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']
        packets = _flow([b"ab..", b"ab.zz"])
        with _ids_for(lines) as ids:
            alerts = ids.process(packets)
        assert _alert_pairs(alerts) == [(0, 1)]

    def test_checkpoint_restore_resumes_confirm_state(self):
        """Splitting a flow across checkpoint/restore must not change the
        alerts: positions, pcre buffers and negation candidacy all travel."""
        lines = [
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:0; within:40; sid:1;)',
            WILDCARD + '(content:"ab"; content:!"zz"; sid:2;)',
            WILDCARD + '(content:"cmd"; pcre:"/GET[^;]*cmd/"; sid:3;)',
        ]
        packets = _flow([b"GET /ab", b" HTTP/1.1 cmd"])
        with _ids_for(lines) as reference:
            expected = _alert_pairs(
                reference.scan_flow(packets) + reference.finish()
            )
        with _ids_for(lines) as first:
            early = first.scan_flow(packets[:1])
            saved = json.loads(json.dumps(first.checkpoint()))
        assert sorted(saved) == ["confirm", "service"]
        with _ids_for(lines) as second:
            second.restore(saved)
            late = second.scan_flow(packets[1:]) + second.finish()
        assert _alert_pairs(early) + _alert_pairs(late) == expected


# ----------------------------------------------------------------------
# differential gate against the naive reference
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_randomized_predicates_match_naive_reference(self, seed):
        ruleset = generate_snort_like_ruleset(24, seed=seed)
        generator = TrafficGenerator(ruleset, seed=seed + 1)
        flows = generator.flows(24, num_packets=3, split_patterns=1, whole_patterns=2)
        packets = TrafficGenerator.interleave(flows)
        specs = random_predicate_rules(
            ruleset, seed=seed, num_rules=64, headers=MIXED_RULE_HEADERS
        )
        expected = assert_equivalent_alerts(specs, packets)
        # the workload must actually exercise the confirm stage: traffic is
        # built from the same patterns the rules window over, and the mixed
        # headers must leave some rule out of some flow's candidates
        assert len(expected) >= 24, "workload barely alerts; weaken the windows"
        classifier = IntrusionDetectionSystem.from_specs(specs).classifier
        sizes = {len(classifier.classify(flow.header)) for flow in flows}
        assert len(sizes) > 1 and max(sizes) < len(specs)

    def test_handcrafted_mixed_grammar_matches_naive_reference(self):
        lines = [
            WILDCARD + '(content:"GET"; offset:0; depth:4; '
            'content:"HTTP"; distance:0; within:40; sid:1;)',
            WILDCARD + '(content:"POST"; content:!"Length"; sid:2;)',
            WILDCARD + '(content:"CMD"; nocase; pcre:"/cmd$/i"; sid:3;)',
            WILDCARD + '(content:"ab"; content:"cd"; distance:0; within:4; '
            "sid:4;)",
        ]
        specs = parse_rules(lines)
        packets = (
            _flow([b"GET /abXXXXXXabYcd ", b"HTTP/1.1"], src_port=1000)
            + _flow([b"POST /x", b"..."], src_port=2000, start_id=2)
            + _flow([b"POST Length", b"..."], src_port=3000, start_id=4)
            + _flow([b"run cMd"], src_port=4000, start_id=6)
        )
        expected = assert_equivalent_alerts(specs, packets)
        assert {sid for _, sid in expected} == {1, 2, 3, 4}

    def test_pcap_replay_equals_memory_scan(self, tmp_path):
        """A pcap replay is one of the harness axes, but lock the alert list
        shape explicitly for a single combination, replayed by its composer:
        an ids-mode Session with a pcap source."""
        lines = [WILDCARD + '(content:"ab"; content:!"zz"; sid:5;)']
        specs = parse_rules(lines)
        packets = renumbered(_flow([b"ab..", b"...."]))
        rules, capture = tmp_path / "replay.rules", tmp_path / "replay.pcap"
        rules.write_text("\n".join(lines) + "\n")
        write_packets(capture, packets)
        config = PipelineConfig(
            mode="ids",
            source=SourceSpec(kind="pcap", path=str(capture)),
            rules=RulesSpec(kind="file", path=str(rules)),
            engine=EngineSpec(backend="dtp"),
        )
        with Session.from_config(config) as session:
            alerts = session.run().alerts
        assert _alert_pairs(alerts) == naive_reference_alerts(specs, packets)


# ----------------------------------------------------------------------
# the event-driven due set: which rules a packet asks
# ----------------------------------------------------------------------
HTTP_TAIL = b" HTTP/1.1\r\nHost: a\r\n\r\n"

#: verdicts that flip on a packet carrying no prefilter event: (rule, the
#: flow's segments, the packet that alerts)
GROWTH_ONLY_FLIPS = {
    "bounded negation window closes": (
        WILDCARD + '(content:"ab"; content:!"zz"; distance:0; within:8; sid:1;)',
        [b"ab..", b"........", b"...."],
        1,
    ),
    "pcre matches bytes of a later segment": (
        WILDCARD + '(content:"cmd"; pcre:"/cmd.*END/"; sid:1;)',
        [b"run cmd ", b"... END", b"...."],
        1,
    ),
    "http_uri completed by a later segment": (
        'alert tcp any any -> any any (content:"GET"; content:"/cmd.exe"; '
        "http_uri; sid:1;)",
        [b"GET /cm", b"d.exe" + HTTP_TAIL, b"...."],
        1,
    ),
}


class TestEventDrivenIndex:
    def test_port_restricted_rules_are_asked_only_on_their_flows(self):
        lines = [
            'alert tcp any any -> any 80 (content:"needle"; sid:1;)',
            'alert tcp any any -> any 8080 (content:"needle"; sid:2;)',
            'alert tcp any any -> any 1024: (content:"needle"; content:!"zz"; sid:3;)',
            'alert tcp any any -> any :1023 (content:"thread"; nocase; sid:4;)',
            WILDCARD + '(content:"needle"; content:"thread"; sid:5;)',
        ]
        packets = (
            _flow([b"a needle", b"a THREAD"], src_port=1000, dst_port=80)
            + _flow([b"a needle", b"a thread"], src_port=2000, start_id=2, dst_port=8080)
            + _flow([b"a thread"], src_port=3000, start_id=4, dst_port=443)
        )
        expected = assert_equivalent_alerts(parse_rules(lines), packets)
        assert expected == [(0, 1), (1, 4), (2, 2), (3, 5), (4, 4), (3, 3)]

    def test_lowered_view_hit_reaches_only_the_nocase_rule(self):
        """"CmD.ExE" is an event of the lowered view alone: the nocase rule
        must be asked, the case-sensitive rule on the same bytes must not
        alert — and does once the exact-case bytes arrive."""
        lines = [
            WILDCARD + '(content:"cmd.exe"; sid:1;)',
            WILDCARD + '(content:"CMD.exe"; nocase; sid:2;)',
        ]
        packets = _flow([b"run CmD.", b"ExE now", b"then cmd.exe"])
        expected = assert_equivalent_alerts(parse_rules(lines), packets)
        assert expected == [(1, 2), (2, 1)]

    def test_shared_and_repeated_strings(self):
        """Two rules on one string are both asked by its event; a rule
        naming one string twice is asked once and needs two occurrences."""
        lines = [
            WILDCARD + '(content:"ab"; content:"ab"; distance:0; sid:1;)',
            WILDCARD + '(content:"ab"; sid:2;)',
            WILDCARD + '(content:"ab"; content:"cd"; sid:3;)',
        ]
        packets = _flow([b"..ab..", b"..cd..", b"..ab.."])
        expected = assert_equivalent_alerts(parse_rules(lines), packets)
        assert expected == [(0, 2), (1, 3), (2, 1)]

    @pytest.mark.parametrize("case", sorted(GROWTH_ONLY_FLIPS))
    def test_growth_only_flip_on_a_packet_without_events(self, case):
        line, payloads, alerting = GROWTH_ONLY_FLIPS[case]
        specs = parse_rules([line])
        packets = _flow(payloads)
        with IntrusionDetectionSystem.from_specs(specs, backend="dense") as ids:
            ids.scan_flow(packets[:alerting])
            hits, _, _ = sequenced_scan(ids.service, PacketBatch.from_packets(packets[alerting:]))
        assert 0 not in hits, "the flipping packet must carry no prefilter event"
        # the restore lands between the hit packet and the growth packet
        expected = assert_equivalent_alerts(specs, packets, restore_at=alerting)
        assert expected == [(alerting, 1)]

    @pytest.mark.parametrize("backend", ["dtp", "dense"])
    def test_evicted_flow_alerts_again_on_a_new_hit(self, backend):
        """Eviction drops the flow's record (alerted set included): the
        restarted flow is asked again and alerts again."""
        lines = [
            WILDCARD + '(content:"ab"; sid:1;)',
            WILDCARD + '(content:"ab"; pcre:"/ab.*!/"; sid:2;)',
        ]
        ids = IntrusionDetectionSystem.from_specs(
            parse_rules(lines), backend=backend, flow_capacity=1
        )
        packets = (
            _flow([b"ab!"], src_port=1111, start_id=0)
            + _flow([b"..ab"], src_port=2000, start_id=1)
            + _flow([b"ab", b"..!"], src_port=1111, start_id=2)
        )
        with ids:
            alerts = ids.scan_flow(packets) + ids.finish()
        assert _alert_pairs(alerts) == [
            (0, 1), (0, 2), (1, 1), (2, 1), (3, 2),
        ]

    def test_rules_alerting_on_one_packet_keep_rule_file_order(self):
        lines = [
            WILDCARD + '(content:"cc"; sid:30;)',
            WILDCARD + '(content:"aa"; pcre:"/aa/"; sid:10;)',
            WILDCARD + '(content:"bb"; content:!"zz"; distance:0; within:2; sid:20;)',
            WILDCARD + '(content:"aa"; content:"cc"; sid:5;)',
        ]
        # the strings arrive in the reverse of rule-file order
        packets = _flow([b"aa bb cc .."])
        expected = assert_equivalent_alerts(parse_rules(lines), packets)
        assert expected == [(0, 30), (0, 10), (0, 20), (0, 5)]

    @pytest.mark.parametrize("backend", ["dtp", "dense"])
    def test_checks_scale_with_hits_not_with_rules_times_packets(
        self, backend, monkeypatch
    ):
        """200 plain rules over 32 flows x 8 segments: ``check`` runs a few
        times per planted string, not once per rule per later packet (an
        every-candidate loop makes ~200 calls per packet after a flow's
        first hit — tens of thousands here)."""
        ruleset = generate_snort_like_ruleset(200, seed=5)
        generator = TrafficGenerator(ruleset, seed=6)
        flows = generator.flows(
            32, num_packets=8, split_patterns=1, whole_patterns=2, segment_bytes=96
        )
        planted = sum(len(flow.injected_sids) for flow in flows)
        calls = []
        original = ConfirmStage.check

        def counting(self, record, sid, at_end=False):
            calls.append(sid)
            return original(self, record, sid, at_end)

        monkeypatch.setattr(ConfirmStage, "check", counting)
        with IntrusionDetectionSystem.from_ruleset(ruleset, backend=backend) as ids:
            alerts = ids.scan_flow(TrafficGenerator.interleave(flows)) + ids.finish()
        flow_of = {p.packet_id: n for n, flow in enumerate(flows) for p in flow.packets}
        assert sorted((flow_of[a.packet_id], a.sid) for a in alerts) == sorted(
            (n, rule.sid)
            for n, flow in enumerate(flows)
            for rule in ruleset
            if rule.pattern in flow.payload
        )
        assert planted == 32 * 3 and len(alerts) > planted // 2
        assert len(alerts) <= len(calls) <= 4 * planted


# ----------------------------------------------------------------------
# the per-flow open set: a rule is asked only when an input of its verdict
# changed — held to the stage it replaced and to the naive evaluator
# ----------------------------------------------------------------------
#: the seven rule shapes of the end-to-end benchmark's web workload, over
#: short tokens: an anchored chain, nocase + pcre, a negated content decided at
#: flow end, http_uri, a common string gating an http_header content, a
#: distance/within pair, and a negated pcre
WEB_SHAPES = (
    lambda a, b: ('alert tcp any any -> any 80 (content:"GET "; offset:0; depth:4; '
                  f'content:"/{a}.cgi"; distance:0; within:24; sid:SID;)'),
    lambda a, b: (f'alert tcp any any -> any 80 (content:"{a}.exe"; nocase; '
                  f'pcre:"/GET[^\\r\\n]*{a}\\.exe/i"; sid:SID;)'),
    lambda a, b: (f'alert tcp any any -> any 80 (content:"POST /{a}"; offset:0; '
                  f'depth:{6 + len(a)}; content:!"X-Token:"; nocase; sid:SID;)'),
    lambda a, b: f'alert tcp any any -> any 8080 (content:"/{a}/admin"; http_uri; sid:SID;)',
    lambda a, b: ('alert tcp any any -> any any (content:"Accept"; '
                  f'content:"User-Agent: {a}bot"; http_header; nocase; sid:SID;)'),
    lambda a, b: (f'alert tcp any any -> any 8080 (content:"{a}"; content:"{b}"; '
                  "distance:4; within:16; sid:SID;)"),
    lambda a, b: (f'alert tcp any 1024: -> any 80 (content:"|0d 0a|Cookie: {a}="; '
                  f'depth:120; pcre:!"/{a}=safe/"; sid:SID;)'),
)
WEB_TOKENS = ("kwrt", "zmpl")


def _web_request(method, uri, headers, body):
    lines = [f"{method} {uri} HTTP/1.1", "Host: h.example", *headers, "Accept: */*"]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


_token = st.sampled_from(WEB_TOKENS)
#: what a request is assembled from: every string some shape gates on, in the
#: spellings that trip it and the ones that only hit the prefilter
_uri_piece = st.one_of(
    st.sampled_from(["/", "/x", "/scripts", "%2f", "?id=1"]),
    st.builds(
        lambda tok, form: form.format(tok=tok, up=tok.upper()),
        _token,
        st.sampled_from(["/{tok}.cgi", "/{up}.ExE", "/{tok}", "/{tok}/admin",
                         "/{tok}/%61dmin"]),
    ),
)
_header = st.one_of(
    st.sampled_from(["x-token: 1f", "X-Other: 1"]),
    st.builds(
        lambda tok, form: form.format(tok=tok, title=tok.title()),
        _token,
        st.sampled_from(["user-agent:   {title}BOT/1.0", "User-Agent: {tok}/2.0",
                         "Cookie: {tok}=evil", "Cookie: {tok}=safe"]),
    ),
)
_body_piece = st.one_of(
    st.sampled_from([b"Accept", b"GET ", b"--------", b"q" * 20, b"X-Token:", b"\r\n"]),
    st.builds(
        lambda tok, form: form.format(tok=tok).encode(),
        _token,
        st.sampled_from(["{tok}", "{tok}.exe", "name={tok}.EXE", "{tok}=safe"]),
    ),
)
_request = st.builds(
    _web_request,
    st.sampled_from(["GET", "POST"]),
    st.lists(_uri_piece, min_size=1, max_size=3).map("".join),
    st.lists(_header, max_size=3),
    st.lists(_body_piece, max_size=8).map(b"".join),
)


@st.composite
def _web_case(draw):
    """Rules from the seven shapes plus one or two HTTP flows cut at random
    offsets — a repeated cut is an empty-payload packet, a cut inside a body
    leaves body-only segments, and the bodies repeat the gating strings."""
    shapes = draw(st.lists(
        st.tuples(st.integers(0, len(WEB_SHAPES) - 1), _token, _token),
        min_size=1, max_size=6,
    ))
    lines = [
        WEB_SHAPES[shape](a, b).replace("SID", str(7000 + index))
        for index, (shape, a, b) in enumerate(shapes)
    ]
    flows = []
    for number in range(draw(st.integers(1, 2))):
        stream = b"".join(draw(st.lists(_request, min_size=1, max_size=3)))
        cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=8)))
        bounds = [0, *cuts, len(stream)]
        flows.append(_flow(
            [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
            src_port=2000 + number,
            dst_port=draw(st.sampled_from([80, 8080])),
        ))
    # interleave round-robin, then id in arrival order
    longest = max(len(flow) for flow in flows)
    packets = [flow[i] for i in range(longest) for flow in flows if i < len(flow)]
    return parse_rules(lines), renumbered(packets)


def _scan_counting(specs, packets, stage=None, restore_at=None):
    """``(alert pairs, check calls)`` of one serial dense IDS over ``packets``;
    ``stage`` swaps the confirm stage in first (the reference one)."""
    def build():
        ids = IntrusionDetectionSystem.from_specs(specs, backend="dense")
        confirm = stage(ids) if stage is not None else ids._confirm
        original = confirm.check

        def counting(record, sid, at_end=False):
            calls.append(sid)
            return original(record, sid, at_end)

        confirm.check = counting
        return ids

    calls = []
    ids = build()
    if restore_at is None:
        alerts = ids.scan_flow(packets)
    else:
        alerts = ids.scan_flow(packets[:restore_at])
        saved = json.loads(json.dumps(ids.checkpoint()))
        ids = build()
        ids.restore(saved)
        alerts += ids.scan_flow(packets[restore_at:])
    return _alert_pairs(alerts + ids.finish()), len(calls)


class TestOpenSet:
    @settings(max_examples=120, deadline=None)
    @given(_web_case(), st.data())
    def test_open_set_equals_reference_stage_equals_naive(self, case, data):
        specs, packets = case
        expected = naive_reference_alerts(specs, packets)
        reference, reference_calls = _scan_counting(
            specs, packets, stage=install_reference_confirm
        )
        assert reference == expected
        got, calls = _scan_counting(specs, packets)
        assert got == expected
        assert calls <= reference_calls
        # the open set is re-derived, not restored: any cut must do
        cut = data.draw(st.integers(0, len(packets)))
        assert _scan_counting(specs, packets, restore_at=cut)[0] == expected

    def test_a_quarter_of_the_reference_stages_checks_on_web_traffic(self):
        """A miniature of the benchmark's web workload: 21 rules (every shape
        × three tokens), 24 keep-alive flows of two requests in 48-byte
        segments, the second one's body repeating ``Accept`` and ``GET ``.
        The reference stage re-asks every rule those repeats name and every
        touched sticky/pcre rule on each body-only segment."""
        tokens = ("kwrt", "zmpl", "vbnd")
        lines = [
            shape(tok, tokens[(n + 1) % 3]).replace("SID", str(8000 + 7 * n + k))
            for n, tok in enumerate(tokens)
            for k, shape in enumerate(WEB_SHAPES)
        ]
        specs = parse_rules(lines)
        triggers = [
            ("GET", "/kwrt.cgi?id=1", [], b""),
            ("GET", "/scripts/ZMPL.ExE", [], b""),
            ("POST", "/vbnd", [], b"q" * 24),
            ("GET", "/kwrt/%61dmin", [], b""),
            ("GET", "/", ["user-agent:   ZmplBOT/1.0"], b""),
            ("POST", "/api", [], b"vbnd--------kwrt"),
            ("GET", "/", ["Cookie: kwrt=evil"], b""),
            ("GET", "/index.html", ["User-Agent: plain/2.0"], b""),
        ]
        padding = b"".join(
            b"Accept " + b"q" * 30 + b" GET " + b"x" * 25 for _ in range(6)
        )
        packets = []
        for number in range(24):
            first = _web_request(*triggers[number % len(triggers)])
            stream = first + _web_request("POST", "/pad", [], padding)
            packets.append(_flow(
                [stream[at:at + 48] for at in range(0, len(stream), 48)],
                src_port=3000 + number,
                dst_port=(80, 8080)[number % 2],
            ))
        packets = renumbered(
            [flow[i] for i in range(max(map(len, packets))) for flow in packets
             if i < len(flow)]
        )
        expected = naive_reference_alerts(specs, packets)
        reference, reference_calls = _scan_counting(
            specs, packets, stage=install_reference_confirm
        )
        got, calls = _scan_counting(specs, packets)
        assert got == reference == expected
        assert len(expected) >= 12, "the miniature must trip its rules"
        assert len(expected) <= calls <= reference_calls // 4, (calls, reference_calls)

    def test_merged_occurrences_are_kept_until_a_view_grows(self):
        """A nocase step seen in both views merges them once per growth, not
        once per ask; the first occurrences are what ``absorb`` reports."""
        ids = _ids_for([WILDCARD + '(content:"ab"; nocase; sid:1;)'])
        stage = ids._confirm
        step = stage.evaluators[1].steps[0]
        record = stage.new_record([1])

        def hit(end, lowered):
            return StreamMatch(ANONYMOUS_FLOW, 0, end, step.number, lowered)

        events = [hit(2, False), hit(2, True), hit(6, True)]
        record.absorb(0, b"abxxAB", events)
        assert record.fresh == events[:2]  # one per view, no repeat
        merged = record.occurrences(step)
        assert merged == [2, 6] and record.occurrences(step) is merged
        record.absorb(1, b"xAb", [hit(9, True)])
        assert record.fresh == []
        assert record.occurrences(step) == [2, 6, 9]

    @pytest.mark.parametrize(
        "line, payloads",
        [
            # event-only *positional*: the gate opened before the checkpoint,
            # only a repeat hit after it can satisfy the window
            ('(content:"ab"; content:"cd"; distance:0; within:4; sid:9;)',
             [b"ab......cd", b"..abcd.."]),
            # windowless: the second string's first occurrence comes after
            # the restore and must find the first one's gate half open
            ('(content:"ab"; content:"cd"; sid:9;)', [b"..ab..", b"..cd.."]),
        ],
        ids=["positional-repeat-hit", "windowless-second-string"],
    )
    def test_restore_rederives_the_open_set(self, line, payloads):
        specs = parse_rules([WILDCARD + line])
        expected = assert_equivalent_alerts(specs, _flow(payloads), restore_at=1)
        assert expected == [(1, 9)]
