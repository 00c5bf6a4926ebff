"""One composition path: ids mode is stream mode plus a confirm stage.

What the two-path layout used to forbid or hide, locked here:

* ``Session.serve()`` raises alerts — byte-identical to the offline run of
  the same capture — and ``run()`` on a live source emits the sinks;
* every ``EngineSpec`` field reaches the IDS's scan service;
* checkpoints written before the IDS scanned through a service still
  restore, and stream-mode checkpoints are the bytes they always were;
* the structure itself, without a clock: one scan service and one compiled
  prefilter per session, nothing per-packet retained by ``ScanService.scan``,
  one construction site per service class.
"""

import ast
import gc
import json
import pathlib

import pytest

import repro.api.session as session_module
import repro.core.accelerator_config as accelerator_config
import repro.ids.pipeline as ids_pipeline
from repro.api import EngineSpec, PipelineConfig, RulesSpec, Session, SinkSpec, SourceSpec
from repro.backend import Backend, get_backend
from repro.ids import IntrusionDetectionSystem
from repro.rulesets import generate_snort_like_ruleset, parse_rules, render_content
from repro.streaming import ParallelScanService, ScanService
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


def live_config(root, kind, *, backend, workers, reassemble, sinks=()):
    capture = "mangled.pcap" if reassemble else "clean.pcap"
    limits = dict(batch_packets=5) if kind == "pcap-tail" else {}
    return PipelineConfig(
        mode="ids",
        source=SourceSpec(kind=kind, path=str(root / capture), **limits),
        rules=RulesSpec(kind="file", path=str(root / "live.rules")),
        engine=EngineSpec(backend=backend, workers=workers, reassemble=reassemble),
        sinks=sinks,
    )


@pytest.mark.parametrize("backend", ("dtp", "dense"))
@pytest.mark.parametrize("workers", (None, 2))
@pytest.mark.parametrize("reassemble", (False, True))
def test_serve_raises_the_offline_runs_alerts(live_workload, backend, workers, reassemble):
    engine = dict(backend=backend, workers=workers, reassemble=reassemble)
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
            live_workload, kind, backend="dense", workers=None, reassemble=True, sinks=sinks
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
    offline = live_config(live_workload, "pcap", backend="dense", workers=None, reassemble=False)
    with Session.from_config(offline) as session:
        with pytest.raises(ValueError, match="live source"):
            session.serve()
    stateless = PipelineConfig(
        mode="packets",
        source=SourceSpec(kind="pcap-tail", path=str(live_workload / "clean.pcap")),
        rules=RulesSpec(kind="synthetic", size=10),
        engine=EngineSpec(backend="dense"),
    )
    with Session.from_config(stateless) as session:
        with pytest.raises(ValueError, match="statefully"):
            session.serve()


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


@pytest.mark.parametrize("workers", (None, 1))
def test_flow_capacity_reaches_the_ids_without_a_reset(workers, monkeypatch):
    resized = []
    original = IntrusionDetectionSystem.reset_flows

    def spy(self, capacity=None):
        resized.append(capacity)
        original(self, capacity)

    monkeypatch.setattr(IntrusionDetectionSystem, "reset_flows", spy)
    with Session.from_config(ids_config(workers=workers, flow_capacity=1)) as session:
        alerts = session.run().alerts
        assert session.stats()["service"]["evicted_flows"] > 0
    assert alerts == []  # every flow was forgotten between its two halves
    assert not any(resized), "flow_capacity took the reset_flows detour"


# ----------------------------------------------------------------------
# checkpoints the parent commit wrote
# ----------------------------------------------------------------------
#: ``Session.checkpoint()`` of a two-shard stream session (no reassembly:
#: the bare service envelope) three packets into :func:`stored_wire`.
PARENT_SERVICE_CHECKPOINT = (
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


def test_a_parent_service_checkpoint_restores_and_is_still_what_we_write():
    config = {
        "mode": "stream",
        "rules": {"kind": "specs", "rules": [{"content": "EVILPAYLOAD", "sid": 4},
                                             {"content": "cmd", "sid": 3}]},
        "engine": {"backend": "dense", "shards": 2},
        "source": {"kind": "packets", "packets": []},
    }
    wire = stored_wire()
    with Session.from_config(config) as session:
        session.scan(wire[:3])
        # the format is unchanged: this commit writes the same bytes
        written = json.dumps(session.checkpoint(), separators=(",", ":"))
        assert written == PARENT_SERVICE_CHECKPOINT
    with Session.from_config(config) as session:
        session.restore(json.loads(PARENT_SERVICE_CHECKPOINT))
        events = session.scan(wire[3:]).events
    assert [(e.packet_id, e.end_offset, e.string_number) for e in events] == [(4, 15, 0)]


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


def test_a_one_table_checkpoint_does_not_fit_a_worker_pool():
    with IntrusionDetectionSystem.from_specs(
        parse_rules(STORED_RULE_LINES), backend="dense", workers=2
    ) as ids:
        with pytest.raises(ValueError, match="1 shards, service has 2"):
            ids.restore(json.loads(PARENT_IDS_CHECKPOINT))


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
@pytest.mark.parametrize("workers", (None, 2))
def test_a_session_builds_one_service_and_compiles_one_prefilter(
    mode, backend, workers, monkeypatch
):
    built, services, compiled = [], [], []
    counting(monkeypatch, session_module, "build_scan_service", built)
    counting(monkeypatch, ids_pipeline, "build_scan_service", built)
    counting(monkeypatch, ScanService, "__init__", services)
    counting(monkeypatch, ParallelScanService, "__init__", services)
    counting(monkeypatch, accelerator_config, "compile_ruleset", compiled)
    counting(monkeypatch, ids_pipeline, "compile_ruleset", compiled)
    counting(monkeypatch, Backend, "compile", compiled)

    config = PipelineConfig(
        mode=mode,
        source=SourceSpec(kind="generator", flows=6, packets_per_flow=3, seed=6),
        rules=RulesSpec(kind="synthetic", size=30, seed=5),
        engine=EngineSpec(backend=backend, workers=workers, reassemble=True),
        sinks=(SinkSpec(kind="alerts" if mode == "ids" else "events"),),
    )
    with Session.from_config(config) as session:
        run = session.run()
        assert run.sinks[0], "the workload must produce output"
        session.stats(), session.checkpoint()
        if mode == "ids":
            assert session.service is session.ids.service
            assert session.service.num_shards == (workers or 1)
    assert len(built) == len(services) == len(compiled) == 1


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
    result = ScanService(program, num_shards=4).scan(packets)
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


def test_each_service_class_has_one_construction_site():
    calls = {"ScanService": [], "ParallelScanService": []}
    retired = {
        "_scan_flow_parallel", "preprocess_flush", "_require_stream", "parallel_service",
        # the shared-memory payload ring and its knobs: payloads ride the pipe
        "shared_memory", "multiprocessing.shared_memory", "ShardRing", "ring_slots",
        "ring_slot_bytes", "start_method", "probe_transport", "transport_stats",
    }
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in calls:
                    calls[name].append(f"{path.name}:{node.lineno}")
            names = {
                getattr(node, "attr", None), getattr(node, "name", None),
                getattr(node, "arg", None), getattr(node, "id", None),
                getattr(node, "module", None),
            }
            assert not names & retired, f"{path.name}:{node.lineno} brings back {names & retired}"
    assert [len(sites) for sites in calls.values()] == [1, 1], calls
    assert all(site.startswith("executor.py") for sites in calls.values() for site in sites)
