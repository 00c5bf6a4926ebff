"""One composition path: ids mode is stream mode plus a confirm stage.

What the two-path layout used to forbid or hide, locked here:

* ``Session.serve()`` raises alerts — byte-identical to the offline run of
  the same capture — and ``run()`` on a live source emits the sinks;
  ``packets`` mode serves too, writing the offline run's ndjson;
* every ``EngineSpec`` field reaches the IDS's scan service;
* checkpoints written before the IDS scanned through a service still
  restore, and stream-mode checkpoints are the bytes they always were;
* the structure itself, without a clock: one scan service and one compiled
  prefilter per session, nothing per-packet retained by ``ScanService.scan``,
  ``ScanService`` built in exactly two places, and no process pool.
"""

import ast
import gc
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import repro.core.accelerator_config as accelerator_config
import repro.ids.pipeline as ids_pipeline
from repro.api import EngineSpec, PipelineConfig, RulesSpec, Session, SinkSpec, SourceSpec
from repro.backend import Backend, get_backend
from repro.ids import IntrusionDetectionSystem
from repro.rulesets import generate_snort_like_ruleset, parse_rules, render_content
from repro.streaming import ScanService
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
    resized = []
    original = IntrusionDetectionSystem.reset_flows

    def spy(self, capacity=None):
        resized.append(capacity)
        original(self, capacity)

    monkeypatch.setattr(IntrusionDetectionSystem, "reset_flows", spy)
    with Session.from_config(ids_config(flow_capacity=1)) as session:
        alerts = session.run().alerts
        assert session.stats()["service"]["evicted_flows"] > 0
    assert alerts == []  # every flow was forgotten between its two halves
    assert not any(resized), "flow_capacity took the reset_flows detour"


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
        saved = session.checkpoint()  # reassembly on: {engine, "reassembly"}
        table = saved["ids"]["service"] if mode == "ids" else saved["service"]
        assert table == session.service.scanner.flows.checkpoint()
    assert len(services) == len(compiled) == 1
    # the registry is the one entry point, and a scan never builds the
    # device's blocks: only the cycle model (``session.hardware``) does
    assert device_compiled == []


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
    assert sorted(stats[2]) == ["active_flows", "cross_segment_matches", "evicted_flows"]
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
    ``IntrusionDetectionSystem.service`` are the only construction sites, and
    both pass every engine option; no retired name of the process pool, its
    payload ring, in-process shards, the stateless mode's private matchers or
    the per-segment scan loop comes back."""
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
        "IntrusionDetectionSystem.service", "Session.service",
    ], sites
    for site, keywords in sites:
        assert {"flow_capacity", "track_nocase"} <= keywords, site


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
