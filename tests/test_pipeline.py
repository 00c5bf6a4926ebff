"""One composition path: ids mode is stream mode plus a confirm stage.

What the two-path layout used to forbid or hide, locked here:

* ``Session.serve()`` raises alerts — byte-identical to the offline run of
  the same capture — and ``run()`` on a live source emits the sinks;
  ``packets`` mode serves too, writing the offline run's ndjson;
* every ``EngineSpec`` field reaches the IDS's scan service;
* checkpoints written before the IDS scanned through a service still
  restore, stream-mode checkpoints are the bytes they always were, and a
  flow the restoring table drops takes its confirm record along;
* the structure itself, without a clock: one scan service and one compiled
  prefilter per session (the one ``verify`` proves), nothing per-packet
  retained by ``ScanService.scan``, ``ScanService`` built in exactly two
  places, no process pool, and no per-flow container beside the flow table.
"""

import ast
import gc
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from typing import Dict, List

import pytest

import repro.check
import repro.core.accelerator_config as accelerator_config
import repro.ids.pipeline as ids_pipeline
from repro.api import EngineSpec, PipelineConfig, RulesSpec, Session, SinkSpec, SourceSpec
from repro.backend import Backend, get_backend
from repro.ids import IntrusionDetectionSystem
from repro.rulesets import generate_snort_like_ruleset, parse_rules, render_content
from repro.streaming import DEFAULT_FLOW_CAPACITY, ScanService
from repro.traffic import FiveTuple, Packet, TrafficGenerator

from tests.conftest import renumbered

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
WILDCARD = "alert ip any any -> any any "


def pairs(alerts):
    return [(alert.packet_id, alert.sid) for alert in alerts]


# ----------------------------------------------------------------------
# serve() in ids mode == the offline run of the same capture
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_workload(tmp_path_factory):
    """A rules file (one rule per ruleset string, plus one whose negation
    stays open until its flow ends) and two captures of the same flows: as
    generated, and mangled so that only reassembly recovers the streams."""
    root = tmp_path_factory.mktemp("live-ids")
    ruleset = generate_snort_like_ruleset(30, seed=17)
    generator = TrafficGenerator(ruleset, seed=18)
    flows = generator.flows(8, num_packets=4, split_patterns=1, whole_patterns=1)
    lines = [
        f'{WILDCARD}(content:"{render_content(rule.pattern)}"; sid:{rule.sid};)'
        for rule in ruleset
    ]
    planted = next(rule for rule in ruleset if rule.sid in flows[0].injected_sids)
    lines.append(
        f'{WILDCARD}(content:"{render_content(planted.pattern)}"; '
        'content:!"|00 01 02 03 04 05 06 07|"; sid:9000;)'
    )
    (root / "live.rules").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, wire in (
        ("clean.pcap", flows),
        ("mangled.pcap", [generator.mangle(flow, mode="reorder") for flow in flows]),
    ):
        TrafficGenerator.export_pcap(
            str(root / name), renumbered(TrafficGenerator.interleave(wire))
        )
    return root


def live_config(root, kind, *, backend, reassemble, sinks=()):
    capture = "mangled.pcap" if reassemble else "clean.pcap"
    limits = dict(batch_packets=5) if kind == "pcap-tail" else {}
    return PipelineConfig(
        mode="ids",
        source=SourceSpec(kind=kind, path=str(root / capture), **limits),
        rules=RulesSpec(kind="file", path=str(root / "live.rules")),
        engine=EngineSpec(backend=backend, reassemble=reassemble),
        sinks=sinks,
    )


@pytest.mark.parametrize("backend", ("dtp", "dense"))
@pytest.mark.parametrize("reassemble", (False, True))
def test_serve_raises_the_offline_runs_alerts(live_workload, backend, reassemble):
    engine = dict(backend=backend, reassemble=reassemble)
    with Session.from_config(live_config(live_workload, "pcap", **engine)) as offline:
        expected = offline.run().alerts
        offline_stats = offline.ids.stats
    batches = []
    with Session.from_config(live_config(live_workload, "pcap-tail", **engine)) as live:
        report = live.serve(on_batch=lambda result, packets: batches.append(
            (pairs(result.alerts), [packet.packet_id for packet in packets])
        ))
        assert live.ids.stats == offline_stats
        assert live.service is live.ids.service

    assert report.alerts == expected  # packet id, sid, msg, action — and order
    sids = [alert.sid for alert in expected]
    assert 9000 in sids and len(set(sids)) > 3, "the workload must exercise the rules"
    if reassemble:
        # the mangled flows end in a FIN: the planted flow's negation is
        # decided when it closes and leaves the table, at the same row live
        assert sids.count(9000) == 1
    else:
        # the negation is decided by the end-of-source flush, after every packet
        assert pairs(expected)[-1][1] == 9000 and batches[-1][0][-1][1] == 9000
    assert report.stop_reason == "source_exhausted" and report.batches == len(batches)
    # on_batch saw every alert next to the packets actually scanned
    assert [pair for alerts, _ in batches for pair in alerts] == pairs(expected)
    scanned = [packet_id for _, ids in batches for packet_id in ids]
    assert scanned == list(range(report.packets))


def test_run_on_a_live_source_serves_then_emits_the_sinks(live_workload, tmp_path):
    def config(kind, name):
        sinks = (SinkSpec(kind="ndjson", path=str(tmp_path / name)), SinkSpec(kind="alerts"))
        return live_config(
            live_workload, kind, backend="dense", reassemble=True, sinks=sinks
        )

    with Session.from_config(config("pcap", "offline.ndjson")) as session:
        offline = session.run()
    with Session.from_config(config("pcap-tail", "live.ndjson")) as session:
        live = session.run()
    assert live.ingest is not None and offline.ingest is None
    assert live.alerts == offline.alerts and live.sinks[1] == offline.sinks[1]
    assert (tmp_path / "live.ndjson").read_bytes() == (tmp_path / "offline.ndjson").read_bytes()
    assert live.stats["ids"] == offline.stats["ids"]


def test_serve_still_refuses_what_it_cannot_scan(live_workload):
    offline = live_config(live_workload, "pcap", backend="dense", reassemble=False)
    with Session.from_config(offline) as session:
        with pytest.raises(ValueError, match="live source"):
            session.serve()


@pytest.mark.parametrize("backend", ("dtp", "dense"))
@pytest.mark.parametrize("reassemble", (False, True))
def test_serve_in_packets_mode_writes_the_offline_ndjson(
    live_workload, tmp_path, backend, reassemble
):
    """The stateless mode is the scan service too, so it serves: a capture
    served through ``pcap-tail`` writes the offline run's ndjson, byte for
    byte."""
    def run(kind):
        config = live_config(
            live_workload, kind, backend=backend, reassemble=reassemble,
            sinks=(SinkSpec(kind="ndjson", path=str(tmp_path / f"{kind}.ndjson")),),
        )
        with Session.from_config(replace(config, mode="packets")) as session:
            return session.run()

    offline, live = run("pcap"), run("pcap-tail")
    assert live.ingest is not None and live.ingest.batches > 1
    served = (tmp_path / "pcap-tail.ndjson").read_bytes()
    assert served == (tmp_path / "pcap.ndjson").read_bytes()
    assert len(offline.events) > 3 and b'"flow"' not in served


# ----------------------------------------------------------------------
# every EngineSpec field reaches the IDS's scan service
# ----------------------------------------------------------------------
def eviction_workload():
    """Three flows whose segments interleave, each completing a split string."""
    packets = []
    for index, (flow, payload) in enumerate(
        (flow, payload)
        for payload in (b"....EVILPAY", b"LOADSIGNATURE....", b"padding " * 12)
        for flow in range(3)
    ):
        header = FiveTuple(f"10.1.0.{flow + 1}", "10.1.1.1", 5000 + flow, 80, "tcp")
        packets.append(Packet(payload=payload, header=header, packet_id=index))
    return tuple(packets)


def ids_config(**engine):
    from repro.api import ContentRule

    return PipelineConfig(
        mode="ids",
        source=SourceSpec(kind="packets", packets=eviction_workload()),
        rules=RulesSpec(
            kind="specs", rules=(ContentRule(content="EVILPAYLOADSIGNATURE", sid=7),)
        ),
        engine=EngineSpec(backend="dense", **engine),
    )


def test_flow_capacity_reaches_the_ids_without_a_reset(monkeypatch):
    """The IDS sizes its one engine from ``flow_capacity`` when it builds
    it: one construction, never a rebuilt table."""
    built = []
    original = ScanService.__init__

    def spy(self, program, flow_capacity=DEFAULT_FLOW_CAPACITY, track_nocase=False, **reassembly):
        built.append(flow_capacity)
        original(self, program, flow_capacity, track_nocase, **reassembly)

    monkeypatch.setattr(ScanService, "__init__", spy)
    with Session.from_config(ids_config(flow_capacity=1)) as session:
        alerts = session.run().alerts
        assert session.stats()["service"]["evicted_flows"] > 0
        assert session.ids.service.flows.capacity == 1
    assert alerts == []  # every flow was forgotten between its two halves
    assert built == [1], "the engine was built more than once, or at another size"


# ----------------------------------------------------------------------
# checkpoints the parent commit wrote
# ----------------------------------------------------------------------
#: ``Session.checkpoint()`` of a stream session three packets into
#: :func:`stored_wire` (no reassembly: the service's bare flow table).
SERVICE_CHECKPOINT = (
    '{"capacity":4096,"flows":[{"key":["10.0.0.1","10.0.1.1",4000,80,"tcp"],"states":'
    '[[14,100,109,20]],"lower_states":null,"packets":1,"matched":[1],"matched_lower":[],'
    '"alerted":[]},{"key":["10.0.0.2","10.0.1.1",4001,80,"tcp"],"states":[[7,89,65,11]],'
    '"lower_states":null,"packets":1,"matched":[],"matched_lower":[],"alerted":[]},{"key":'
    '["10.0.0.3","10.0.1.1",4002,80,"tcp"],"states":[[0,122,122,6]],"lower_states":null,'
    '"packets":1,"matched":[],"matched_lower":[],"alerted":[]}]}'
)
#: What this commit writes at that point: a flow carries its registers alone
#: (the ``packets``, ``matched``, ``matched_lower`` and ``alerted`` keys of
#: :data:`SERVICE_CHECKPOINT` are read past on restore).
WRITTEN_SERVICE_CHECKPOINT = (
    '{"capacity":4096,"flows":[{"key":["10.0.0.1","10.0.1.1",4000,80,"tcp"],"states":'
    '[[14,100,109,20]],"lower_states":null},{"key":["10.0.0.2","10.0.1.1",4001,80,"tcp"],'
    '"states":[[7,89,65,11]],"lower_states":null},{"key":["10.0.0.3","10.0.1.1",4002,80,'
    '"tcp"],"states":[[0,122,122,6]],"lower_states":null}]}'
)

#: The same point as written while stream mode split its flows over two
#: tables (``shards: 2``): the order across the tables is lost.
TWO_TABLE_SERVICE_CHECKPOINT = (
    '{"num_shards":2,"shards":[{"capacity":4096,"flows":[{"key":["10.0.0.1","10.0.1.1",4000,'
    '80,"tcp"],"states":[[14,100,109,20]],"lower_states":null,"packets":1,"matched":[1],'
    '"matched_lower":[],"alerted":[]},{"key":["10.0.0.2","10.0.1.1",4001,80,"tcp"],"states":'
    '[[7,89,65,11]],"lower_states":null,"packets":1,"matched":[],"matched_lower":[],'
    '"alerted":[]}]},{"capacity":4096,"flows":[{"key":["10.0.0.3","10.0.1.1",4002,80,"tcp"],'
    '"states":[[0,122,122,6]],"lower_states":null,"packets":1,"matched":[],"matched_lower":[],'
    '"alerted":[]}]}]}'
)

#: ``IntrusionDetectionSystem.checkpoint()`` at the same point, in the shape
#: it had while the IDS kept a private scanner: one bare flow table.
PARENT_IDS_CHECKPOINT = (
    '{"flows":{"capacity":4096,"flows":[{"key":["10.0.0.1","10.0.1.1",4000,80,"tcp"],"states":'
    '[[14,100,109,20]],"lower_states":null,"packets":1,"matched":[0,1,2,4],"matched_lower":[],'
    '"alerted":[]},{"key":["10.0.0.2","10.0.1.1",4001,80,"tcp"],"states":[[21,89,65,11]],'
    '"lower_states":null,"packets":1,"matched":[],"matched_lower":[],"alerted":[]},{"key":'
    '["10.0.0.3","10.0.1.1",4002,80,"tcp"],"states":[[11,122,122,6]],"lower_states":null,'
    '"packets":1,"matched":[2,3],"matched_lower":[],"alerted":[]}]},"confirm":{"flows":[{"key":'
    '["10.0.0.1","10.0.1.1",4000,80,"tcp"],"positions":{"0":[3],"2":[7],"1":[12],"4":[20]},'
    '"lower_positions":{},"buffer":"474554202f616220485454502f312e3120636d64","length":20,'
    '"alerted":[1,3],"candidates":[1,2,3,4],"last_packet_id":0,"http":null},{"key":["10.0.0.2",'
    '"10.0.1.1",4001,80,"tcp"],"positions":{},"lower_positions":{},"buffer":'
    '"2e2e2e2e4556494c504159","length":11,"alerted":[],"candidates":[1,2,3,4],'
    '"last_packet_id":1,"http":null},{"key":["10.0.0.3","10.0.1.1",4002,80,"tcp"],"positions":'
    '{"2":[2],"3":[6]},"lower_positions":{},"buffer":"61622e2e7a7a","length":6,"alerted":[],'
    '"candidates":[1,2,3,4],"last_packet_id":2,"http":null}]}}'
)

STORED_RULE_LINES = [
    WILDCARD + '(content:"GET"; offset:0; depth:4; content:"HTTP"; distance:0; within:40; sid:1;)',
    WILDCARD + '(content:"ab"; content:!"zz"; sid:2;)',
    WILDCARD + '(content:"cmd"; pcre:"/GET[^;]*cmd/"; sid:3;)',
    WILDCARD + '(content:"EVILPAYLOAD"; sid:4;)',
]


def stored_wire():
    heads = [b"GET /ab HTTP/1.1 cmd", b"....EVILPAY", b"ab..zz"]
    tails = [b" more;", b"LOAD....", b"..ab"]
    segments = []
    for flow, (head, tail) in enumerate(zip(heads, tails)):
        header = FiveTuple(f"10.0.0.{flow + 1}", "10.0.1.1", 4000 + flow, 80, "tcp")
        segments += [(header, head), (header, tail)]
    return [
        Packet(payload=segments[index][1], header=segments[index][0], packet_id=packet_id)
        for packet_id, index in enumerate([0, 2, 4, 1, 3, 5])
    ]


STORED_SERVICE_CONFIG = {
    "mode": "stream",
    "rules": {"kind": "specs", "rules": [{"content": "EVILPAYLOAD", "sid": 4},
                                         {"content": "cmd", "sid": 3}]},
    "engine": {"backend": "dense"},
    "source": {"kind": "packets", "packets": []},
}


def test_a_service_checkpoint_restores_and_is_still_what_we_write():
    wire = stored_wire()
    with Session.from_config(STORED_SERVICE_CONFIG) as session:
        session.scan(wire[:3])
        written = json.dumps(session.checkpoint(), separators=(",", ":"))
        assert written == WRITTEN_SERVICE_CHECKPOINT
    for stored in (
        json.loads(SERVICE_CHECKPOINT),
        json.loads(WRITTEN_SERVICE_CHECKPOINT),
        {"num_shards": 1, "shards": [json.loads(SERVICE_CHECKPOINT)]},  # older envelope
    ):
        with Session.from_config(STORED_SERVICE_CONFIG) as session:
            session.restore(stored)
            events = session.scan(wire[3:]).events
        assert [(e.packet_id, e.end_offset, e.string_number) for e in events] == [(4, 15, 0)]


def test_a_two_table_service_checkpoint_is_refused_by_count():
    with Session.from_config(STORED_SERVICE_CONFIG) as session:
        with pytest.raises(ValueError, match="checkpoint holds 2 flow tables"):
            session.restore(json.loads(TWO_TABLE_SERVICE_CHECKPOINT))


@pytest.mark.parametrize("through", ("ids", "session"))
def test_a_parent_ids_checkpoint_restores_and_continues(through, tmp_path):
    wire = stored_wire()
    if through == "ids":
        with IntrusionDetectionSystem.from_specs(
            parse_rules(STORED_RULE_LINES), backend="dense"
        ) as ids:
            ids.restore(json.loads(PARENT_IDS_CHECKPOINT))
            late = ids.scan_flow(wire[3:]) + ids.finish()
            assert sorted(ids.checkpoint()) == ["confirm", "service"]
    else:
        rules = tmp_path / "stored.rules"
        rules.write_text("\n".join(STORED_RULE_LINES) + "\n", encoding="utf-8")
        config = PipelineConfig(
            mode="ids",
            source=SourceSpec(kind="packets", packets=()),
            rules=RulesSpec(kind="file", path=str(rules)),
            engine=EngineSpec(backend="dense"),
        )
        with Session.from_config(config) as session:
            session.restore(json.loads(PARENT_IDS_CHECKPOINT))
            late = session.scan(wire[3:]).alerts + session.flush().alerts
    # sid 1 and 3 alerted before the checkpoint and must not alert again;
    # sid 2's negation is decided at the end of flow 1, not of flow 3 ("zz")
    assert pairs(late) == [(4, 4), (3, 2)]


def test_an_ids_checkpoint_in_the_one_table_envelope_restores_and_continues():
    """Every ids checkpoint written while services had a table count wraps
    its one table as ``{"num_shards": 1, "shards": [table]}``."""
    stored = json.loads(PARENT_IDS_CHECKPOINT)
    enveloped = {
        "service": {"num_shards": 1, "shards": [stored["flows"]]},
        "confirm": stored["confirm"],
    }
    wire = stored_wire()
    with IntrusionDetectionSystem.from_specs(
        parse_rules(STORED_RULE_LINES), backend="dense"
    ) as ids:
        ids.restore(enveloped)
        # the table comes back as stored, each flow's registers alone
        registers = [
            {name: flow[name] for name in ("key", "states", "lower_states")}
            for flow in stored["flows"]["flows"]
        ]
        assert json.loads(json.dumps(ids.checkpoint()["service"])) == {
            **stored["flows"], "flows": registers,
        }
        late = ids.scan_flow(wire[3:]) + ids.finish()
    assert pairs(late) == [(4, 4), (3, 2)]


#: Flow A sends ``abc`` before the checkpoint; ``xyz`` completes sid 1.
SPLIT_RULE_LINES = [WILDCARD + '(content:"abc"; content:"xyz"; sid:1;)']
FLOW_A = FiveTuple("10.0.0.1", "10.0.1.1", 4000, 80, "tcp")
FLOW_B = FiveTuple("10.0.0.2", "10.0.1.1", 4001, 80, "tcp")


@pytest.mark.parametrize("through", ("ids", "session"))
def test_a_flow_dropped_at_restore_takes_its_confirm_record(through, tmp_path):
    """Restored into one slot, the checkpoint's least recently used flow A
    (``abc`` seen) is dropped, and its confirm record with it: when A comes
    back with ``xyz`` it alerts exactly as a fresh flow does — only once
    ``abc`` arrives again — and ``restore_dropped`` counts the drop."""
    specs = parse_rules(SPLIT_RULE_LINES)
    before = [
        Packet(payload=b"..abc..", header=FLOW_A, packet_id=0),
        Packet(payload=b".......", header=FLOW_B, packet_id=1),
    ]
    after = [
        Packet(payload=b"..xyz..", header=FLOW_A, packet_id=2),
        Packet(payload=b"..abc..", header=FLOW_A, packet_id=3),
    ]
    with IntrusionDetectionSystem.from_specs(specs, backend="dense") as ids:
        assert ids.scan_flow(before) == []
        saved = json.loads(json.dumps(ids.checkpoint()))
    assert len(saved["confirm"]["flows"]) == 2
    with IntrusionDetectionSystem.from_specs(specs, backend="dense", flow_capacity=1) as fresh:
        expected = pairs(fresh.scan_flow(after) + fresh.finish())
    assert expected == [(3, 1)]

    if through == "ids":
        with IntrusionDetectionSystem.from_specs(
            specs, backend="dense", flow_capacity=1
        ) as ids:
            ids.restore(saved)
            kept = ids.checkpoint()["confirm"]["flows"]
            late = ids.scan_flow(after) + ids.finish()
    else:
        rules = tmp_path / "split.rules"
        rules.write_text("\n".join(SPLIT_RULE_LINES) + "\n", encoding="utf-8")
        config = PipelineConfig(
            mode="ids",
            source=SourceSpec(kind="packets", packets=()),
            rules=RulesSpec(kind="file", path=str(rules)),
            engine=EngineSpec(backend="dense", flow_capacity=1),
        )
        with Session.from_config(config) as session:
            session.restore(saved)
            ids = session.ids
            kept = session.checkpoint()["confirm"]["flows"]
            late = session.scan(after).alerts
            end = session.flush()
            late += end.alerts if end else []
    assert pairs(late) == expected
    assert ids.flow_scanner.flows.stats.restore_dropped == 1
    assert [flow["key"][0] for flow in kept] == [FLOW_B.src_ip]


#: Flow A sends ``ab``; sid 1 waits for the flow to end without ``zz``.
NEGATED_RULE_LINES = [WILDCARD + '(content:"ab"; content:!"zz"; sid:1;)']


@pytest.mark.parametrize("handed_out_by", ("finish", "scan_flow"))
def test_a_flow_dropped_at_restore_ends_as_an_eviction_ends_it(handed_out_by):
    """Restored into one slot, flow A (``ab`` seen, ``zz`` not) is dropped;
    its pending negation verdict is decided then, as when the live table
    evicts A for B, and the alert comes out of the next ``finish()`` or
    ``scan_flow()`` once: a second ``finish()`` raises nothing."""
    specs = parse_rules(NEGATED_RULE_LINES)
    before = [
        Packet(payload=b"..ab..", header=FLOW_A, packet_id=0),
        Packet(payload=b"......", header=FLOW_B, packet_id=1),
    ]
    later = [Packet(payload=b"......", header=FLOW_B, packet_id=2)]
    with IntrusionDetectionSystem.from_specs(specs, backend="dense", flow_capacity=1) as live:
        evicted = pairs(live.scan_flow(before))
        assert live.flow_scanner.flows.stats.evicted == 1
        assert pairs(live.scan_flow(later) + live.finish()) == []
    assert evicted == [(0, 1)]

    with IntrusionDetectionSystem.from_specs(specs, backend="dense") as ids:
        assert ids.scan_flow(before) == []
        saved = json.loads(json.dumps(ids.checkpoint()))
    with IntrusionDetectionSystem.from_specs(specs, backend="dense", flow_capacity=1) as ids:
        ids.restore(saved)
        assert ids.flow_scanner.flows.stats.restore_dropped == 1
        if handed_out_by == "finish":
            assert pairs(ids.finish()) == evicted
            assert pairs(ids.scan_flow(later) + ids.finish()) == []
        else:
            assert pairs(ids.scan_flow(later)) == evicted
            assert pairs(ids.finish()) == []
        assert ids.stats.alerts_raised == 1


# ----------------------------------------------------------------------
# the structure, locked without a clock
# ----------------------------------------------------------------------
def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("mode", ("stream", "ids"))
@pytest.mark.parametrize("backend", ("dtp", "dense"))
def test_a_session_builds_one_service_and_compiles_one_prefilter(
    mode, backend, monkeypatch
):
    """One service, one flow table and one prefilter per session, in either
    mode, and no device compile."""
    services, compiled, device_compiled = [], [], []
    counting(monkeypatch, ScanService, "__init__", services)
    counting(monkeypatch, Backend, "compile", compiled)
    counting(monkeypatch, accelerator_config, "compile_ruleset", device_compiled)
    counting(monkeypatch, ids_pipeline, "compile_ruleset", device_compiled)

    config = PipelineConfig(
        mode=mode,
        source=SourceSpec(kind="generator", flows=6, packets_per_flow=3, seed=6),
        rules=RulesSpec(kind="synthetic", size=30, seed=5),
        engine=EngineSpec(backend=backend, reassemble=True),
        sinks=(SinkSpec(kind="alerts" if mode == "ids" else "events"),),
    )
    with Session.from_config(config) as session:
        run = session.run()
        assert run.sinks[0], "the workload must produce output"
        session.stats(), session.checkpoint()
        if mode == "ids":
            assert session.service is session.ids.service
        saved = session.checkpoint()  # reassembly on: sequencers ride in the one table
        table = saved["service"] if mode == "ids" else saved
        assert table == {
            **session.service.flows.checkpoint(),
            "next_packet_id": session.reassembler.next_packet_id,
        }
    assert len(services) == len(compiled) == 1
    # the registry is the one entry point, and a scan never builds the
    # device's blocks: only the cycle model (``session.hardware``) does
    assert device_compiled == []


def test_an_ids_session_proves_the_program_its_ids_scans(tmp_path, monkeypatch):
    """``Session.program`` is the IDS's program in ids mode, as
    ``Session.service`` is its service, so ``verify`` proves what is scanned
    and compiles nothing more.  A rule whose every content is negated
    gives the prefilter nothing (the IDS skips it), but a ruleset of the
    rules file's contents would hold its string: a third pattern."""
    rules = tmp_path / "negated.rules"
    rules.write_text(
        WILDCARD + '(content:"abc"; content:!"zz"; sid:1;)\n'
        + WILDCARD + '(content:!"qq"; sid:2;)\n',
        encoding="utf-8",
    )
    config = PipelineConfig(
        mode="ids",
        source=SourceSpec(kind="packets", packets=()),
        rules=RulesSpec(kind="file", path=str(rules)),
        engine=EngineSpec(backend="dense"),
    )
    proved, compiled = [], []
    verify_program = repro.check.verify_program
    monkeypatch.setattr(
        repro.check, "verify_program",
        lambda program, patterns=None: proved.append((program, list(patterns)))
        or verify_program(program, patterns),
    )
    with Session.from_config(config) as session:
        counting(monkeypatch, Backend, "compile", compiled)
        assert session.program is session.ids.program
        assert session.verify().ok
        program = session.ids.program
    assert len(session.ruleset.patterns) == 3
    assert proved == [(program, [b"abc", b"zz"])]
    assert compiled == ["compile"]  # the IDS's, built on first use


@pytest.mark.parametrize("mode", ("stream", "ids"))
def test_verify_refuses_a_program_that_lost_a_string(mode, tmp_path):
    """``verify`` proves the program against the strings it should hold —
    the IDS's prefilter strings in ids mode, the ruleset otherwise — not
    against the program's own list: a compile that dropped one fails."""
    rules = tmp_path / "two.rules"
    rules.write_text(
        WILDCARD + '(content:"abc"; sid:1;)\n' + WILDCARD + '(content:"xyz"; sid:2;)\n',
        encoding="utf-8",
    )
    config = PipelineConfig(
        mode=mode,
        source=SourceSpec(kind="packets", packets=()),
        rules=RulesSpec(kind="file", path=str(rules)),
        engine=EngineSpec(backend="dense"),
    )
    with Session.from_config(config) as session:
        assert session.verify().ok
        short = get_backend("dense").compile([b"abc"])
        if mode == "ids":
            session.ids.program = short
        else:
            session._program = short
        assert session.program is short
        assert not session.verify().ok


@pytest.mark.parametrize("mode", ("stream", "ids"))
def test_service_stats_are_one_tables_gauges(mode):
    """``stats()["service"]`` is the one flow table's gauges in either mode,
    and ``flow_capacity`` bounds the same table: two slots for six flows
    evict alike in stream and ids mode."""
    stats = {}
    for capacity in (2, 4096):
        config = PipelineConfig(
            mode=mode,
            source=SourceSpec(kind="generator", flows=6, packets_per_flow=3, seed=6),
            rules=RulesSpec(kind="synthetic", size=30, seed=5),
            engine=EngineSpec(backend="dense", flow_capacity=capacity),
        )
        with Session.from_config(config) as session:
            session.run()
            stats[capacity] = session.stats()["service"]
    assert sorted(stats[2]) == [
        "active_flows", "cross_segment_matches", "evicted_flows", "released_flows",
    ]
    assert (stats[2]["active_flows"], stats[2]["evicted_flows"]) == (2, 16)
    assert (stats[4096]["active_flows"], stats[4096]["evicted_flows"]) == (6, 0)


def test_stream_scan_retains_nothing_per_packet(small_ruleset):
    """The annotated scan computes a list per packet; ``scan`` must drop
    them, or every one of them stays alive through the sinks."""
    program = get_backend("dense").compile(small_ruleset.patterns)
    packets = [
        Packet(
            payload=b"benign chatter, no rule string here",
            header=FiveTuple("10.2.0.1", "10.2.1.1", 6000 + index % 50, 80, "tcp"),
            packet_id=index,
        )
        for index in range(1000)
    ]
    result = ScanService(program).scan(packets)
    assert result.packets == 1000 and result.events == [] and result.scanned is None
    gc.collect()
    seen, frontier, sizes = {id(result)}, [result], []
    while frontier:
        for child in gc.get_referents(frontier.pop()):
            if id(child) in seen or isinstance(child, (type, str, bytes, int)):
                continue
            seen.add(id(child))
            frontier.append(child)
            if isinstance(child, (list, tuple, dict, set)):
                sizes.append(len(child))
    assert sizes and max(sizes) < 100, "something per-packet is reachable from the result"


def test_scan_service_is_built_in_two_places_only():
    """``Session.service`` (stream and packets mode) and
    ``IntrusionDetectionSystem.__init__`` are the only construction sites, and
    both pass every engine option; no retired name of the process pool, its
    payload ring, in-process shards, the stateless mode's private matchers,
    the per-segment scan loop or a second admission record comes back."""
    calls, sites = [], []
    retired = {
        "_scan_flow_parallel", "preprocess_flush", "_require_stream", "parallel_service",
        # the shared-memory payload ring and its knobs: payloads rode the pipe
        "shared_memory", "multiprocessing.shared_memory", "ShardRing", "ring_slots",
        "ring_slot_bytes", "start_method", "probe_transport", "transport_stats",
        # the process pool itself: one in-process service
        "ParallelScanService", "build_scan_service", "WorkerCrashedError", "num_workers",
        "multiprocessing",
        # in-process shards: one flow table per service, its lookup counters
        "shards", "num_shards", "flow_capacity_per_shard", "ShardReport", "shard_for",
        "shard_occupancy", "shard_crc", "lookups", "hit_rate",
        # the stateless mode's private matchers: it scans through the service
        "scan_stateless", "_packet_events", "_matcher", "use_hardware_model", "per_packet",
        # the per-segment scan loop and the table calls only it made: a batch
        # is one FlowTable.admit walk and one crossing, evicting or not
        "scan_segment", "scan_packet", "_scan_per_segment", "submit", "get_or_create",
        "touch", "matched_lower",
        # the second admission record: a scanned batch names its rows' entries
        # (SequencedBatch.entry / departures) and nothing regroups them
        "scan_annotated", "AnnotatedScan", "BatchScan", "Admitted", "Admission",
        "admission", "_last_index", "_Rows", "table_flows",
    }
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for owner in ast.walk(tree):
            if not isinstance(owner, ast.ClassDef):
                continue
            for method in owner.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                for node in ast.walk(method):
                    if isinstance(node, ast.Call) and "ScanService" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ):
                        keywords = {keyword.arg for keyword in node.keywords}
                        sites.append((f"{owner.name}.{method.name}", keywords))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "ScanService" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                calls.append(f"{path.name}:{node.lineno}")
            names = {
                getattr(node, "attr", None), getattr(node, "name", None),
                getattr(node, "arg", None), getattr(node, "id", None),
                getattr(node, "module", None),
            }
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not names & retired, f"{where} brings back {names & retired}"
    assert len(calls) == 2, calls  # none outside a method either
    assert sorted(site for site, _ in sites) == [
        "IntrusionDetectionSystem.__init__", "Session.service",
    ], sites
    for site, keywords in sites:
        assert {"flow_capacity", "track_nocase"} <= keywords, site


#: The containers the confirm stage and the IDS may hold: per rule, per
#: prefilter string or per candidate list — never per flow.
NOT_PER_FLOW = {
    "ConfirmStage": ["_lower_index", "_rank", "_raw_index", "_views", "evaluators"],
    # ``_dropped``: the alerts ``restore`` raised, held until the next call
    "IntrusionDetectionSystem": ["_dropped", "_nocase_numbers", "rules"],
}
CONTAINER_CALLS = {"dict", "list", "set", "frozenset", "OrderedDict", "defaultdict", "deque"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def held_containers(source: str) -> Dict[str, List[str]]:
    """Per class in ``source``, the ``self`` attributes its code assigns a
    container (a display, a comprehension or a container constructor),
    annotates with ``FlowKey`` or stores into by subscript."""
    held: Dict[str, List[str]] = {}
    for owner in ast.walk(ast.parse(source)):
        if not isinstance(owner, ast.ClassDef):
            continue
        names = set()
        for node in ast.walk(owner):
            if isinstance(node, ast.Assign):
                targets, annotation = node.targets, None
            elif isinstance(node, ast.AnnAssign):
                targets, annotation = [node.target], node.annotation
            else:
                continue
            value = node.value
            container = isinstance(value, CONTAINER_NODES) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", getattr(value.func, "attr", None))
                in CONTAINER_CALLS
            )
            keyed = annotation is not None and "FlowKey" in ast.unparse(annotation)
            for target in targets:
                stored = isinstance(target, ast.Subscript)
                if stored:
                    target = target.value
                if (
                    (container or keyed or stored)
                    and isinstance(target, ast.Attribute)
                    and getattr(target.value, "id", None) == "self"
                ):
                    names.add(target.attr)
        held[owner.name] = sorted(names)
    return held


def test_flow_table_admits_from_two_places_only():
    """``FlowTable.admit`` is called by ``ScanService.sequence`` (an arrival
    batch) and ``TcpReassembler.process`` (a batch the reassembler
    sequences) and nowhere else in the package, so every scanned batch
    carries the one admission record those two write."""
    callers, calls = [], []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "admit":
                calls.append(f"{path.name}:{node.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "admit"
                    for call in ast.walk(method)
                ):
                    callers.append(f"{node.name}.{method.name}")
    assert len(calls) == 2, calls  # none outside a method either
    assert sorted(callers) == ["ScanService.sequence", "TcpReassembler.process"], callers


def test_no_per_flow_container_beside_the_flow_table():
    """A flow's confirm record and its reassembly sequencer hang off its
    flow-table entry, so neither the confirm stage, the IDS nor the
    reassembler keeps anything per flow, and ``FlowTable.admit`` is the one
    LRU walk in the package: the table alone decides when a flow's state
    begins and ends."""
    for module, owner in (("confirm", "ConfirmStage"), ("pipeline", "IntrusionDetectionSystem")):
        source = (SRC_ROOT / "ids" / f"{module}.py").read_text(encoding="utf-8")
        assert held_containers(source)[owner] == NOT_PER_FLOW[owner]
    reassembly = (SRC_ROOT / "proto" / "reassembly.py").read_text(encoding="utf-8")
    assert held_containers(reassembly)["TcpReassembler"] == []
    # the shape the guard is for: the stage's old flow table
    old = "class ConfirmStage:\n    def reset(self):\n        self._flows: Dict[FlowKey, R] = {}\n"
    assert held_containers(old) == {"ConfirmStage": ["_flows"]}

    walkers, ordered = [], []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        name = path.relative_to(SRC_ROOT).as_posix()
        if "OrderedDict" in text:
            ordered.append(name)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Attribute) and call.attr in {"move_to_end", "popitem"}
                for call in ast.walk(node)
            ):
                walkers.append(f"{name}:{node.name}")
    assert walkers == ["streaming/flow.py:admit"]
    assert ordered == ["streaming/flow.py"]


def test_importing_the_package_starts_no_process_machinery():
    code = (
        "import sys, repro, repro.api; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC_ROOT.parent)},
    ).stdout
    assert loaded.strip() == "[]"
