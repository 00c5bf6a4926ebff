"""Tests for the header classifier and the end-to-end IDS pipeline."""

import pytest

from repro.ids import HeaderClassifier, HeaderPattern, IDSRule, IntrusionDetectionSystem
from repro.rulesets import parse_rules
from repro.traffic import FiveTuple, Packet


def header(src="10.0.0.1", dst="192.168.1.5", sport=40000, dport=80, proto="tcp"):
    return FiveTuple(src, dst, sport, dport, proto)


class TestHeaderPattern:
    def test_any_matches_everything(self):
        assert HeaderPattern().matches(header())
        assert HeaderPattern().matches(header(proto="udp", dport=53))

    def test_protocol_filter(self):
        assert HeaderPattern(protocol="tcp").matches(header(proto="tcp"))
        assert not HeaderPattern(protocol="udp").matches(header(proto="tcp"))

    def test_cidr_matching(self):
        pattern = HeaderPattern(dst_ip="192.168.0.0/16")
        assert pattern.matches(header(dst="192.168.44.7"))
        assert not pattern.matches(header(dst="10.1.2.3"))

    def test_negated_ip(self):
        pattern = HeaderPattern(src_ip="!10.0.0.0/8")
        assert not pattern.matches(header(src="10.9.9.9"))
        assert pattern.matches(header(src="172.16.0.1"))

    def test_port_and_range(self):
        assert HeaderPattern(dst_port="80").matches(header(dport=80))
        assert not HeaderPattern(dst_port="80").matches(header(dport=81))
        assert HeaderPattern(dst_port="1024:65535").matches(header(dport=8080))
        assert not HeaderPattern(dst_port="1024:65535").matches(header(dport=80))
        assert HeaderPattern(src_port="!22").matches(header(sport=23))

    def test_snort_variables_treated_as_any(self):
        pattern = HeaderPattern(src_ip="$EXTERNAL_NET", dst_ip="$HOME_NET")
        assert pattern.matches(header())


class TestHeaderClassifier:
    def test_classify_returns_matching_rule_ids(self):
        classifier = HeaderClassifier()
        classifier.add_rule(1, HeaderPattern(dst_port="80"))
        classifier.add_rule(2, HeaderPattern(dst_port="443"))
        classifier.add_rule(3, HeaderPattern())
        assert classifier.classify(header(dport=80)) == [1, 3]
        assert classifier.classify(header(dport=443)) == [2, 3]
        assert len(classifier) == 3

    def test_missing_header_matches_all(self):
        classifier = HeaderClassifier()
        classifier.add_rule(7, HeaderPattern(dst_port="80"))
        assert classifier.classify(None) == [7]

    def test_one_test_per_distinct_pattern_per_header(self, monkeypatch):
        """500 rules over three distinct header patterns cost three
        ``matches`` calls a header, however the rules interleave."""
        patterns = [
            HeaderPattern(),
            HeaderPattern(protocol="tcp", dst_port="80"),
            HeaderPattern(dst_ip="192.168.0.0/16", src_port="!22"),
        ]
        classifier = HeaderClassifier()
        for rule_id in range(500):
            # equal patterns, distinct objects — as from_specs builds them
            classifier.add_rule(rule_id, HeaderPattern(**vars(patterns[rule_id % 3])))
        calls = []
        original = HeaderPattern.matches

        def counting(self, header):
            calls.append(self)
            return original(self, header)

        monkeypatch.setattr(HeaderPattern, "matches", counting)
        web = classifier.classify(header(dport=80))
        assert web == list(range(500)) and len(calls) == 3
        assert classifier.classify(header(dst="10.1.1.1", dport=443)) == list(range(0, 500, 3))
        assert classifier.classify(header(dport=80)) == web and len(calls) == 9

        # the returned list is the caller's to mutate
        web.clear()
        assert classifier.classify(header(dport=80)) == list(range(500))

        # a rule added after a classify is seen by the next one
        classifier.add_rule(500, HeaderPattern(dst_port="80"))
        classifier.add_rule(501, HeaderPattern(dst_port="81"))
        assert classifier.classify(header(dport=80)) == list(range(501))
        assert len(classifier) == 502

    @pytest.mark.parametrize(
        "pattern, admitted, rejected",
        [
            (HeaderPattern(dst_ip="192.168.0.0/16"), header(), header(dst="10.1.2.3")),
            (HeaderPattern(dst_ip="192.168.1.5"), header(), header(dst="192.168.1.6")),
            (HeaderPattern(src_ip="!10.0.0.0/8"), header(src="172.16.0.1"), header()),
            (HeaderPattern(src_ip="gateway"), header(src="gateway"), header()),
            (HeaderPattern(dst_ip="!192.168.0.0/16"), header(dst="gateway"), header()),
            (HeaderPattern(dst_port="1024:2048"), header(dport=2048), header(dport=2049)),
            (HeaderPattern(dst_port=":1023"), header(dport=0), header(dport=1024)),
            (HeaderPattern(src_port="1024:"), header(sport=65535), header(sport=1023)),
            (HeaderPattern(src_port="!22"), header(sport=23), header(sport=22)),
            (HeaderPattern(dst_port="!1:1023"), header(dport=8080), header(dport=80)),
            (HeaderPattern(protocol="udp"), header(proto="udp"), header()),
        ],
    )
    def test_pattern_forms_classify_as_their_field_tests_say(
        self, pattern, admitted, rejected
    ):
        classifier = HeaderClassifier()
        classifier.add_rule(1, HeaderPattern())
        classifier.add_rule(2, pattern)
        for _ in range(2):  # the second round is served from the cache
            assert classifier.classify(admitted) == [1, 2]
            assert classifier.classify(rejected) == [1]

    def test_malformed_pattern_is_rejected_when_the_rule_is_added(self):
        with pytest.raises(ValueError):
            HeaderClassifier().add_rule(1, HeaderPattern(dst_port="$HTTP_PORTS"))


class TestPipeline:
    def _rules(self):
        return [
            IDSRule(sid=1, header=HeaderPattern(protocol="tcp", dst_port="80"),
                    contents=(b"cmd.exe",), msg="cmd.exe over http"),
            IDSRule(sid=2, header=HeaderPattern(), contents=(b"root.exe", b"GET /"),
                    msg="two content strings"),
            IDSRule(sid=3, header=HeaderPattern(protocol="udp", dst_port="53"),
                    contents=(b"baddomain",), msg="dns"),
        ]

    def test_alert_requires_header_and_content(self):
        ids = IntrusionDetectionSystem(self._rules())
        hit = Packet(payload=b"GET /scripts/cmd.exe HTTP/1.0", header=header(dport=80), packet_id=0)
        wrong_port = Packet(payload=b"GET /scripts/cmd.exe HTTP/1.0", header=header(dport=8081), packet_id=1)
        no_content = Packet(payload=b"GET /index.html", header=header(dport=80), packet_id=2)
        alerts = ids.process([hit, wrong_port, no_content])
        sids = {(a.packet_id, a.sid) for a in alerts}
        assert (0, 1) in sids
        assert all(packet_id != 1 or sid != 1 for packet_id, sid in sids)
        assert all(packet_id != 2 for packet_id, sid in sids)

    def test_rule_with_multiple_contents_requires_all(self):
        ids = IntrusionDetectionSystem(self._rules())
        only_one = Packet(payload=b"GET /index root.ex", header=header(), packet_id=0)
        both = Packet(payload=b"GET /a root.exe", header=header(), packet_id=1)
        alerts = ids.process([only_one, both])
        assert {a.packet_id for a in alerts if a.sid == 2} == {1}

    def test_hardware_and_software_paths_agree(self):
        rules = self._rules()
        packets = [
            Packet(payload=b"GET /x cmd.exe root.exe baddomain", header=header(dport=80), packet_id=0),
            Packet(payload=b"nothing interesting", header=header(), packet_id=1),
            Packet(payload=b"baddomain lookup", header=header(proto="udp", dport=53), packet_id=2),
        ]
        software = IntrusionDetectionSystem(rules, use_hardware_model=False)
        hardware = IntrusionDetectionSystem(rules, use_hardware_model=True)
        software_alerts = {(a.packet_id, a.sid) for a in software.process(packets)}
        hardware_alerts = {(a.packet_id, a.sid) for a in hardware.process(packets)}
        assert software_alerts == hardware_alerts

    def test_statistics_updated(self):
        ids = IntrusionDetectionSystem(self._rules())
        ids.process([Packet(payload=b"cmd.exe", header=header(dport=80), packet_id=0)])
        assert ids.stats.packets_processed == 1
        assert ids.stats.payload_bytes == 7
        assert ids.stats.alerts_raised >= 1

    def test_from_parsed_snort_rules(self):
        specs = parse_rules([
            'alert tcp any any -> any 80 (msg:"m1"; content:"attack-one"; sid:101;)',
            'alert tcp any any -> any any (msg:"m2"; content:"|DE AD BE EF|"; sid:102;)',
        ])
        ids = IntrusionDetectionSystem.from_specs(specs)
        packets = [
            Packet(payload=b"xx attack-one yy", header=header(dport=80), packet_id=0),
            Packet(payload=b"\xde\xad\xbe\xef", header=header(dport=1234), packet_id=1),
        ]
        alerts = ids.process(packets)
        assert {(a.packet_id, a.sid) for a in alerts} == {(0, 101), (1, 102)}

    def test_from_specs_sid_collisions_load(self):
        # colliding and missing sids must not trip the duplicate-sid check:
        # first claimant keeps the sid, others get fresh non-reserved ones
        specs = parse_rules([
            'alert tcp any any -> any any (content:"auto-rule";)',
            'alert tcp any any -> any any (content:"first"; sid:1;)',
            'alert tcp any any -> any any (content:"second"; sid:1;)',
        ])
        remap = {}
        ids = IntrusionDetectionSystem.from_specs(specs, sid_remap=remap)
        by_content = {rule.contents[0]: sid for sid, rule in ids.rules.items()}
        assert by_content[b"first"] == 1
        assert by_content[b"auto-rule"] == 2
        assert by_content[b"second"] == 3
        assert remap == {3: 1}

    def test_from_specs_reserves_contentless_rules_sids(self):
        # a content-less rule is skipped, but its explicit sid must stay
        # off-limits so alert sids never point at an unrelated rule
        specs = parse_rules([
            'alert tcp any any -> any any (msg:"metadata only"; sid:1;)',
            'alert tcp any any -> any any (content:"first"; sid:5;)',
            'alert tcp any any -> any any (content:"second"; sid:5;)',
        ])
        ids = IntrusionDetectionSystem.from_specs(specs)
        by_content = {rule.contents[0]: sid for sid, rule in ids.rules.items()}
        assert by_content[b"first"] == 5
        assert by_content[b"second"] == 2  # not 1 — that sid is claimed

    def test_validation(self):
        with pytest.raises(ValueError):
            IntrusionDetectionSystem([])
        with pytest.raises(ValueError):
            IDSRule(sid=1, header=HeaderPattern(), contents=())
        rules = self._rules() + [IDSRule(sid=1, header=HeaderPattern(), contents=(b"dup",))]
        with pytest.raises(ValueError):
            IntrusionDetectionSystem(rules)
