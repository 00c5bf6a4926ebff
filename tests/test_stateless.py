"""One scan path for the stateless mode.

``packets`` mode and ``IntrusionDetectionSystem.process`` match every packet
with the registers reset at its boundary, as the paper's engine does.  Both
scan through the scan service with every packet a fresh flow
(``StreamScanner.scan_fresh``), so held here:

* one rules file gives one answer in every mode, including the two the
  private per-packet paths got wrong: a lowered-view hit crediting a
  case-sensitive string, and a ``nocase`` string never searched in
  ``packets`` mode;
* events, ndjson records and alerts equal those paths, kept verbatim in
  ``tests/conftest.py``, on every backend, with and without reassembly;
* a fresh-flow scan is one backend crossing and leaves the flow table alone.
"""

from dataclasses import replace

import pytest

from repro.api import ContentRule, EngineSpec, PipelineConfig, RulesSpec, Session, SourceSpec
from repro.ids import IntrusionDetectionSystem
from repro.proto import TcpReassembler
from repro.rulesets import generate_snort_like_ruleset, parse_rules, render_content
from repro.streaming import ScanService
from repro.traffic import FiveTuple, Packet, TrafficGenerator

from tests.conftest import (
    MIXED_RULE_HEADERS,
    build_program,
    equivalence_workload,
    random_predicate_rules,
    reference_packets_run_events,
    reference_process,
    reference_scan_packets,
    renumbered,
)

MIXED_RULES = [
    'alert tcp any any -> any any (msg:"case-sensitive"; content:"abcdef"; sid:1;)',
    'alert tcp any any -> any any (msg:"nocase"; content:"CMD.exe"; nocase; sid:2;)',
]
MIXED_PACKETS = (
    Packet(b"..ABCDEF..", FiveTuple("10.0.0.1", "10.0.0.9", 40001, 80, "tcp"), 0),
    Packet(b"run CmD.ExE now", FiveTuple("10.0.0.2", "10.0.0.9", 40002, 80, "tcp"), 1),
)


@pytest.fixture(scope="module")
def mixed_rules(tmp_path_factory):
    path = tmp_path_factory.mktemp("mixed") / "mixed.rules"
    path.write_text("\n".join(MIXED_RULES) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("backend", ("dense", "dtp"))
@pytest.mark.parametrize("mode", ("packets", "stream", "ids", "process"))
def test_one_rules_file_three_modes_one_answer(mixed_rules, mode, backend):
    """Only packet 1 matches, on sid 2 ending at offset 11: ``ABCDEF`` is not
    the case-sensitive ``abcdef``, and ``CmD.ExE`` is the nocase
    ``CMD.exe``.  ``content_matches`` counts that one string on both IDS
    paths."""
    if mode == "process":
        ids = IntrusionDetectionSystem.from_specs(parse_rules(MIXED_RULES), backend=backend)
        assert [(a.packet_id, a.sid) for a in ids.process(MIXED_PACKETS)] == [(1, 2)]
        assert ids.stats.content_matches == 1
        return
    config = PipelineConfig(
        mode=mode,
        source=SourceSpec(kind="packets", packets=MIXED_PACKETS),
        rules=RulesSpec(kind="file", path=mixed_rules),
        engine=EngineSpec(backend=backend),
    )
    with Session.from_config(config) as session:
        run = session.run()
        if mode == "ids":
            assert [(a.packet_id, a.sid) for a in run.alerts] == [(1, 2)]
            assert session.ids.stats.content_matches == 1
        else:
            records = [session.event_record(event) for event in run.events]
            assert [(r["packet"], r["offset"], r["sid"]) for r in records] == [(1, 11, 2)]


# ----------------------------------------------------------------------
# the scan service against the private paths it replaced
# ----------------------------------------------------------------------
RULESET = generate_snort_like_ruleset(30, seed=21)


def interleaved_flows(mangled: bool):
    """Six interleaved flows with split and whole rule strings.  As
    generated, packet ids do not ascend in arrival order; mangled ones are
    TCP segments renumbered in arrival order."""
    generator = TrafficGenerator(RULESET, seed=22)
    flows = generator.flows(6, num_packets=4, split_patterns=1, whole_patterns=2)
    if not mangled:
        return TrafficGenerator.interleave(flows)
    flows = [generator.mangle(flow, mode="reorder") for flow in flows]
    return renumbered(TrafficGenerator.interleave(flows))


def shouting(packets):
    """Every other packet upper-cased: only a lowered view still sees it."""
    return [
        Packet(p.payload.upper() if index % 2 else p.payload, p.header, p.packet_id,
               tcp_seq=p.tcp_seq, tcp_flags=p.tcp_flags)
        for index, p in enumerate(packets)
    ]


WORKLOADS = {
    name: SourceSpec(kind="packets", packets=tuple(interleaved_flows(name == "mangled")))
    for name in ("interleaved", "mangled")
}
NOCASE_RULES = RulesSpec(
    kind="specs",
    rules=tuple(
        ContentRule(content=render_content(rule.pattern), sid=rule.sid, nocase=index % 3 == 0)
        for index, rule in enumerate(RULESET)
    ),
)


def packets_mode_config(workload, backend, reassemble, rules):
    return PipelineConfig(
        mode="packets",
        source=WORKLOADS[workload],
        rules=rules,
        engine=EngineSpec(backend=backend, reassemble=reassemble),
    )


@pytest.mark.parametrize("backend", ("dtp", "dense", "ac"))
@pytest.mark.parametrize("reassemble", (False, True))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_packets_mode_is_the_private_path(workload, reassemble, backend):
    """Without ``nocase`` rules, events and ndjson records are the old
    per-packet path's, in its (arrival) order."""
    rules = RulesSpec(kind="synthetic", size=30, seed=21)
    config = packets_mode_config(workload, backend, reassemble, rules)
    with Session.from_config(config) as session:
        run = session.run()
        got = [session.event_record(event) for event in run.events]
    with Session.from_config(config) as reference:
        want = [reference.event_record(e) for e in reference_packets_run_events(reference)]
    assert got == want and len(want) > 5
    assert all(event.flow is None for event in run.events)
    if workload == "interleaved" and not reassemble:
        ids = [record["packet"] for record in got]
        assert ids != sorted(ids), "arrival order, not the canonical sort"


@pytest.mark.parametrize("backend", ("dtp", "dense"))
@pytest.mark.parametrize("reassemble", (False, True))
def test_packets_mode_adds_only_true_nocase_hits(reassemble, backend):
    """With ``nocase`` rules the raw-view events are still the old path's;
    what the lowered view adds is exactly the occurrences of ``nocase``
    strings the raw view missed (the old path never looked)."""
    config = packets_mode_config("mangled", backend, reassemble, NOCASE_RULES)
    config = replace(
        config,
        source=SourceSpec(kind="packets", packets=tuple(shouting(interleaved_flows(True)))),
    )
    with Session.from_config(config) as session:
        run = session.run()
        nocase = session._nocase_numbers
        patterns = session.ruleset.patterns
        payload_of = {p.packet_id: p.payload for p in run.scan_result.scanned}
    with Session.from_config(config) as reference:
        want = [(e.packet_id, e.end_offset, e.string_number)
                for e in reference_packets_run_events(reference)]
    raw = [(e.packet_id, e.end_offset, e.string_number) for e in run.events if not e.lowered]
    lowered = [e for e in run.events if e.lowered]
    assert raw == want
    assert lowered and nocase and len(nocase) < len(patterns)
    for event in lowered:
        pattern = patterns[event.string_number]
        window = payload_of[event.packet_id][event.end_offset - len(pattern):event.end_offset]
        assert event.string_number in nocase and window.lower() == pattern != window


@pytest.mark.parametrize("backend", ("dtp", "dense", "ac"))
@pytest.mark.parametrize("reassemble", (False, True))
def test_process_is_the_private_path(reassemble, backend):
    """``IDS.process`` raises the old path's alerts and counts its
    statistics exactly, on rules with windows, negation, pcre and
    ``nocase`` over mixed-case traffic."""
    specs = random_predicate_rules(RULESET, seed=25, num_rules=40, headers=MIXED_RULE_HEADERS)
    packets = shouting(interleaved_flows(reassemble))
    if reassemble:
        reassembler = TcpReassembler()
        packets = reassembler.process(packets) + reassembler.flush_all()
    ours = IntrusionDetectionSystem.from_specs(specs, backend=backend)
    reference = IntrusionDetectionSystem.from_specs(specs, backend=backend)
    alerts = ours.process(packets)
    assert alerts == reference_process(reference, packets) and len(alerts) > 2
    assert ours.stats == reference.stats
    assert len(ours.service.scanner.flows) == 0


def test_a_fresh_scan_is_one_crossing_and_leaves_the_flow_table_alone():
    ruleset, packets = equivalence_workload(whole_patterns=2)
    program = build_program(ruleset, "dense")
    service = ScanService(program, track_nocase=True)
    service.scan(packets[:7])
    before = service.checkpoint()  # live flows, in LRU order
    crossings = []
    scan_many = service.scanner._scan_many
    service.scanner._scan_many = lambda jobs: crossings.append(len(jobs)) or scan_many(jobs)

    result = service.scan_fresh(packets)
    assert crossings == [2 * len(packets)]  # one raw and one lowered job a packet
    assert service.checkpoint() == before
    assert result.packets == len(packets)
    assert result.bytes_scanned == sum(len(packet.payload) for packet in packets)
    expected = [
        (packet.packet_id, end, number)
        for packet, matches in zip(packets, reference_scan_packets(
            program, [packet.payload for packet in packets]
        ))
        for end, number in matches
    ]
    assert [
        (e.packet_id, e.end_offset, e.string_number) for e in result.events if not e.lowered
    ] == expected
    assert expected and all(event.flow is None for event in result.events)
