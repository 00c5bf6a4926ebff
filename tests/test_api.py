"""The declarative pipeline API: equivalence, round-trips, checkpoints.

The headline contract: for the same configuration, :class:`repro.api.Session`
produces **byte-identical** output — events, batch totals, alerts — to the
direct composition of :class:`ScanService` / the replay adapters, across
{dtp, dense} × {in-memory, pcap}.  The facade adds configuration, never
behaviour.
"""

import json

import pytest

from repro.api import (
    ConfigError,
    ContentRule,
    EmptyRulesetError,
    EngineSpec,
    PipelineConfig,
    RulesSpec,
    Session,
    SinkSpec,
    SourceSpec,
    load_config,
    repro_version,
    sink_kinds,
    source_kinds,
)
from repro.backend import get_backend
from repro.capture import load_packets
from repro.ids import IntrusionDetectionSystem
from repro.rulesets import generate_snort_like_ruleset
from repro.streaming import ScanService
from repro.traffic import TrafficGenerator

SIZE, SEED = 40, 5
#: The workload's six flows in fewer table slots (every batch steps out
#: segment by segment), in exactly enough, and in the default table: the
#: facade must agree with the direct composition at every capacity.
FLOW_CAPACITIES = (2, 6, 4096)

BACKENDS = ("dtp", "dense")


def build_ruleset():
    return generate_snort_like_ruleset(SIZE, seed=SEED)


def build_program(ruleset, backend):
    return get_backend(backend).compile(ruleset)


def build_packets(ruleset):
    generator = TrafficGenerator(ruleset, seed=SEED + 1)
    flows = generator.flows(6, num_packets=3, split_patterns=1)
    return TrafficGenerator.interleave(flows)


def make_service(program, capacity):
    return ScanService(program, flow_capacity=capacity)


def generator_source():
    return SourceSpec(
        kind="generator", flows=6, packets_per_flow=3, split_patterns=1, seed=SEED + 1
    )


def stream_config(source, backend, sinks=(), capacity=4096):
    return PipelineConfig(
        mode="stream",
        source=source,
        rules=RulesSpec(kind="synthetic", size=SIZE, seed=SEED),
        engine=EngineSpec(backend=backend, flow_capacity=capacity),
        sinks=sinks,
    )


@pytest.fixture(scope="module")
def workload_pcap(tmp_path_factory):
    """The generator workload exported as a classic pcap capture."""
    path = tmp_path_factory.mktemp("api") / "workload.pcap"
    TrafficGenerator.export_pcap(str(path), build_packets(build_ruleset()))
    return path


# ----------------------------------------------------------------------
# equivalence: Session output == direct composition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("capacity", FLOW_CAPACITIES)
def test_stream_session_matches_direct_composition(capacity, backend):
    """The facade must add configuration, never behaviour: its stream result
    equals the reference the differential harness proves every direct
    composition produces."""
    from tests.conftest import assert_equivalent_events

    ruleset = build_ruleset()
    packets = build_packets(ruleset)
    direct = assert_equivalent_events(
        ruleset,
        packets,
        backends=(backend,),
        sources=("memory",),
        flow_capacity=capacity,
    ).result

    config = stream_config(generator_source(), backend, capacity=capacity)
    with Session.from_config(config) as s:
        via_session = s.run().scan_result
        assert s.service.flows.capacity == capacity

    assert via_session.events == direct.events
    assert via_session.packets == direct.packets
    assert via_session.bytes_scanned == direct.bytes_scanned


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("capacity", FLOW_CAPACITIES)
def test_pcap_session_matches_direct_replay(capacity, backend, workload_pcap):
    """Replay through a pcap-source Session equals the harness reference for
    the same capture (which itself equals the in-memory scan)."""
    from tests.conftest import assert_equivalent_events

    ruleset = build_ruleset()
    direct = assert_equivalent_events(
        ruleset,
        build_packets(ruleset),
        backends=(backend,),
        sources=("memory", "pcap"),
        flow_capacity=capacity,
    ).result

    config = stream_config(
        SourceSpec(kind="pcap", path=str(workload_pcap)), backend, capacity=capacity
    )
    with Session.from_config(config) as s:
        via_session = s.scan()

    assert via_session.events == direct.events
    assert via_session.bytes_scanned == direct.bytes_scanned


@pytest.mark.parametrize("backend", BACKENDS)
def test_ids_session_matches_direct_pipeline(backend):
    ruleset = build_ruleset()
    packets = build_packets(ruleset)
    ids = IntrusionDetectionSystem.from_ruleset(ruleset, backend=backend)
    direct = ids.scan_flow(packets)

    config = PipelineConfig(
        mode="ids",
        source=generator_source(),
        rules=RulesSpec(kind="synthetic", size=SIZE, seed=SEED),
        engine=EngineSpec(backend=backend),
    )
    with Session.from_config(config) as s:
        run = s.run()
        assert run.alerts == direct
        assert s.ids.stats == ids.stats


def test_packets_mode_matches_stateless_scan():
    ruleset = build_ruleset()
    program = build_program(ruleset, "dense")
    generator = TrafficGenerator(ruleset, seed=SEED + 1)
    packets = generator.packets(12)
    direct = program.scan_packets([p.payload for p in packets])

    config = PipelineConfig(
        mode="packets",
        source=SourceSpec(kind="packets", packets=tuple(packets)),
        rules=RulesSpec(kind="synthetic", size=SIZE, seed=SEED),
        engine=EngineSpec(backend="dense"),
    )
    with Session.from_config(config) as s:
        run = s.run()
    assert [(e.packet_id, e.end_offset, e.string_number) for e in run.events] == [
        (packet.packet_id, offset, number)
        for packet, matches in zip(packets, direct)
        for offset, number in matches
    ]


# ----------------------------------------------------------------------
# checkpoint/restore through the facade
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("capacity", FLOW_CAPACITIES)
def test_session_checkpoints_interchange_with_raw_service(capacity, backend):
    """Session checkpoints are the raw service's flow table, both directions."""
    ruleset = build_ruleset()
    program = build_program(ruleset, backend)
    packets = build_packets(ruleset)
    half = len(packets) // 2
    first, second = packets[:half], packets[half:]

    config = stream_config(
        SourceSpec(kind="packets", packets=tuple(packets)), backend, capacity=capacity
    )
    with Session.from_config(config) as session:
        session.scan(first)
        session_checkpoint = session.checkpoint()

        raw = make_service(program, capacity)
        raw.scan(first)
        raw_checkpoint = raw.checkpoint()
        assert session_checkpoint == raw_checkpoint

        # a JSON round-tripped session checkpoint restores into a raw service
        revived = json.loads(json.dumps(session_checkpoint))
        events = session.scan(second).events
        raw2 = make_service(program, capacity)
        raw2.restore(revived)
        assert raw2.scan(second).events == events

    # ...and a raw checkpoint restores into a fresh session
    with Session.from_config(config) as fresh:
        fresh.restore(raw_checkpoint)
        assert fresh.scan(second).events == events


def test_a_one_block_device_checkpoint_resumes_on_the_one_automaton():
    """Where the ruleset fits one block, a dtp session used to scan that
    block's automaton (built here from the block's strings, as a block
    holds no kernel views): its flow checkpoints restore into a session that
    scans the one automaton, and the flows resume to the same events."""
    from repro.core import compile_ruleset
    from repro.fpga import STRATIX_III
    from tests.conftest import block_automaton

    ruleset = build_ruleset()
    (block,) = compile_ruleset(ruleset, STRATIX_III).blocks
    packets = build_packets(ruleset)
    half = len(packets) // 2
    config = stream_config(SourceSpec(kind="packets", packets=tuple(packets)), "dtp")
    with Session.from_config(config) as uninterrupted:
        uninterrupted.scan(packets[:half])
        expected = uninterrupted.scan(packets[half:]).events
    assert expected
    old = make_service(block_automaton(block), 4096)
    old.scan(packets[:half])
    with Session.from_config(config) as resumed:
        resumed.restore(json.loads(json.dumps(old.checkpoint())))
        assert resumed.scan(packets[half:]).events == expected


@pytest.mark.parametrize("reassemble", (False, True))
def test_ids_session_checkpoint_resumes_to_the_same_alerts(reassemble, tmp_path):
    """An ids-mode session checkpoints like a stream-mode one: cut a capture
    anywhere, carry the JSON to a fresh session, and the alerts continue to
    what the uninterrupted run raises — hit positions, pcre buffers, pending
    negations and (with reassembly) the segments parked behind holes."""
    ruleset = build_ruleset()
    generator = TrafficGenerator(ruleset, seed=SEED + 1)
    flows = generator.flows(6, num_packets=4, split_patterns=1, whole_patterns=1)
    if reassemble:
        flows = [generator.mangle(flow, mode="reorder") for flow in flows]
    packets = TrafficGenerator.interleave(flows)
    planted = next(rule for rule in ruleset if rule.sid in flows[0].injected_sids)
    from repro.rulesets import render_content

    rules = tmp_path / "ids.rules"
    rules.write_text(
        "".join(
            f'alert ip any any -> any any (content:"{render_content(rule.pattern)}"; '
            f"sid:{rule.sid};)\n"
            for rule in ruleset
        )
        + f'alert ip any any -> any any (content:"{render_content(planted.pattern)}"; '
        'content:!"|00 01 02 03|"; sid:9000;)\n'
    )
    config = PipelineConfig(
        mode="ids",
        source=SourceSpec(kind="packets", packets=()),
        rules=RulesSpec(kind="file", path=str(rules)),
        engine=EngineSpec(backend="dense", reassemble=reassemble),
    )

    def served(session, batch):
        return [(alert.packet_id, alert.sid) for alert in session.scan(batch).alerts]

    def flushed(session):
        end = session.flush()  # None when every flow closed on its own
        return [] if end is None else [(alert.packet_id, alert.sid) for alert in end.alerts]

    with Session.from_config(config) as whole:
        expected = served(whole, packets) + flushed(whole)
    # a mangled flow ends in a FIN: its negation is decided as it closes
    assert (expected[-1][1] == 9000 or reassemble) and len(expected) > 6
    assert [sid for _, sid in expected].count(9000) == 1

    cut = len(packets) // 2
    with Session.from_config(config) as first:
        early = served(first, packets[:cut])
        saved = json.loads(json.dumps(first.checkpoint()))
    # the engine's own envelope: the reassembler's state rides in its table
    assert sorted(saved) == ["confirm", "service"]
    with Session.from_config(config) as second:
        second.restore(saved)
        late = served(second, packets[cut:]) + flushed(second)
    assert early and late and early + late == expected


# ----------------------------------------------------------------------
# config round-trips and file loading
# ----------------------------------------------------------------------
def test_config_round_trips_through_dict():
    config = stream_config(
        generator_source(), "dense",
        sinks=(SinkSpec(kind="events"), SinkSpec(kind="ndjson", path="out.ndjson")),
    )
    data = config.to_dict()
    assert data["version"] == repro_version()
    revived = PipelineConfig.from_dict(json.loads(json.dumps(data)))
    assert revived == config
    assert revived.to_dict() == data


def test_in_memory_packets_survive_serialisation():
    ruleset = build_ruleset()
    packets = build_packets(ruleset)
    config = stream_config(
        SourceSpec(kind="packets", packets=tuple(packets)), "dense"
    )
    revived = PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    with Session.from_config(config) as a, Session.from_config(revived) as b:
        assert a.run().events == b.run().events


def test_run_cli_executes_json_and_toml_configs(tmp_path, capsys):
    from repro.cli import main

    body = {
        "mode": "stream",
        "source": {"kind": "generator", "flows": 4, "packets_per_flow": 3,
                   "split_patterns": 1, "seed": 7},
        "rules": {"kind": "synthetic", "size": SIZE, "seed": SEED},
        "engine": {"backend": "dense", "flow_capacity": 64},
        "sinks": [{"kind": "ndjson", "path": "events.ndjson"}],
    }
    json_path = tmp_path / "pipe.json"
    json_path.write_text(json.dumps(body), encoding="utf-8")
    assert main(["run", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "mode                  : stream" in out
    assert (tmp_path / "events.ndjson").exists()

    toml_path = tmp_path / "pipe.toml"
    toml_path.write_text(
        "\n".join(
            [
                'mode = "stream"',
                "[source]",
                'kind = "generator"',
                "flows = 4",
                "packets_per_flow = 3",
                "split_patterns = 1",
                "seed = 7",
                "[rules]",
                'kind = "synthetic"',
                f"size = {SIZE}",
                f"seed = {SEED}",
                "[engine]",
                'backend = "dense"',
                "flow_capacity = 64",
                "[[sinks]]",
                'kind = "ndjson"',
                'path = "events_toml.ndjson"',
            ]
        ),
        encoding="utf-8",
    )
    assert main(["run", str(toml_path)]) == 0
    capsys.readouterr()
    json_lines = (tmp_path / "events.ndjson").read_text(encoding="utf-8")
    toml_lines = (tmp_path / "events_toml.ndjson").read_text(encoding="utf-8")
    assert json_lines == toml_lines  # same config, same artifact
    assert json_lines.count("\n") > 0


def test_relative_paths_resolve_against_config_dir(tmp_path):
    rules = tmp_path / "local.rules"
    rules.write_text(
        'alert tcp any any -> any any (msg:"m"; content:"GET /index.html"; sid:10;)\n'
    )
    config_path = tmp_path / "pipe.json"
    config_path.write_text(
        json.dumps(
            {
                "mode": "stream",
                "source": {"kind": "generator", "flows": 4, "packets_per_flow": 3,
                           "split_patterns": 1, "seed": 7},
                "rules": {"kind": "file", "path": "local.rules"},
                "engine": {"backend": "dense", "flow_capacity": 64},
            }
        ),
        encoding="utf-8",
    )
    config = load_config(config_path)
    assert config.base_dir == str(tmp_path)
    with Session.from_config(config) as session:
        assert len(session.ruleset) == 1
        session.run()


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def test_ndjson_sink_records_events(tmp_path):
    out = tmp_path / "events.ndjson"
    config = stream_config(
        generator_source(), "dense",
        sinks=(SinkSpec(kind="ndjson", path=str(out)), SinkSpec(kind="events")),
    )
    with Session.from_config(config) as session:
        run = session.run()
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == len(run.events)
        assert run.sinks[1] == run.events
        for record, event in zip(records, run.events):
            assert record["packet"] == event.packet_id
            assert record["offset"] == event.end_offset
            assert record["sid"] == session.sid_of[event.string_number]
            assert record["flow"] == list(event.flow.as_tuple())


def test_pcap_sink_round_trips_the_workload(tmp_path):
    out = tmp_path / "export.pcapng"
    config = stream_config(
        generator_source(), "dense",
        sinks=(SinkSpec(kind="pcap", path=str(out)),),
    )
    with Session.from_config(config) as session:
        run = session.run()
        assert run.sinks[0]["fmt"] == "pcapng"
        assert run.sinks[0]["frames"] == len(session.packets)
        replayed, stats = load_packets(str(out))
        assert stats.skipped_total == 0
        assert [p.payload for p in replayed] == [p.payload for p in session.packets]


# ----------------------------------------------------------------------
# validation and registries
# ----------------------------------------------------------------------
def test_registries_list_builtin_kinds():
    assert source_kinds() == ["generator", "packets", "pcap", "pcap-tail", "tcp", "udp"]
    assert sink_kinds() == ["alerts", "events", "ndjson", "pcap"]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: SourceSpec(kind="nope", count=1),
        lambda: SourceSpec(kind="generator"),  # neither flows nor count
        lambda: SourceSpec(kind="generator", flows=2, count=2),  # both
        lambda: SourceSpec(kind="pcap"),  # no path
        lambda: RulesSpec(kind="nope"),
        lambda: RulesSpec(kind="file"),  # no path
        lambda: RulesSpec(kind="specs"),  # no rules
        lambda: SourceSpec(kind="tcp"),  # live listener without a port
        lambda: SourceSpec(kind="udp", port=70000),  # port out of range
        lambda: SourceSpec(kind="pcap-tail"),  # no path
        lambda: SourceSpec(kind="tcp", port=9, batch_packets=0),
        lambda: SourceSpec(kind="tcp", port=9, max_packets=0),
        lambda: EngineSpec(backend="nope"),
        lambda: EngineSpec(device="nope"),
        lambda: EngineSpec.from_dict({"shards": 4}),  # retired option
        lambda: EngineSpec.from_dict({"workers": 2}),  # retired option
        lambda: EngineSpec(flow_capacity=0),
        lambda: EngineSpec.from_dict({"ring_slots": 256}),  # retired knob
        lambda: EngineSpec.from_dict({"ring_slot_bytes": 2048}),  # retired knob
        lambda: SinkSpec(kind="nope"),
        lambda: SinkSpec(kind="ndjson"),  # no path
        lambda: SinkSpec(kind="events", what="bogus"),
        lambda: PipelineConfig(mode="nope", source=SourceSpec(kind="generator", count=1)),
        lambda: PipelineConfig.from_dict({"source": {"kind": "generator", "count": 1},
                                          "bogus": 1}),
        lambda: PipelineConfig.from_dict({}),
    ],
)
def test_malformed_configs_raise_config_error(factory):
    with pytest.raises(ConfigError):
        factory()


@pytest.mark.parametrize(
    "header, message",
    [
        ({"src_ip": "10.0.0.1", "dst_ip": "10.0.0.2", "src_prt": 4000, "dst_port": 80,
          "protocol": "tcp"}, "packet header lacks 'src_port'"),
        ({"src_ip": "10.0.0.1", "dst_ip": "10.0.0.2", "src_port": 4000, "dst_port": 80,
          "protocol": "tcp", "vlan": 7}, "unknown packet header key\\(s\\) 'vlan'"),
    ],
    ids=("misspelt", "extra"),
)
def test_a_packets_source_header_is_checked_by_name(header, message):
    """A ``packets`` source's header holds exactly the flow fields: a missing
    one is named, and an extra one is refused, not dropped."""
    packet = {"payload": "6162", "header": header}
    with pytest.raises(ConfigError, match=message):
        PipelineConfig.from_dict({"source": {"kind": "packets", "packets": [packet]}})


@pytest.mark.parametrize("key", ["ring_slots", "ring_slot_bytes", "workers", "shards"])
def test_retired_engine_keys_are_named(key):
    with pytest.raises(ConfigError, match=f"unknown engine key\\(s\\) '{key}'"):
        EngineSpec.from_dict({"backend": "dense", key: 2})


@pytest.mark.parametrize("suffix", [".json", ".toml"])
def test_config_file_naming_shards_is_refused_by_name(tmp_path, suffix):
    """A config written while stream mode split its flow table still names
    ``shards``; loading it fails on that key instead of dropping it."""
    path = tmp_path / f"old{suffix}"
    if suffix == ".json":
        path.write_text(json.dumps({
            "source": {"kind": "generator", "count": 2},
            "engine": {"backend": "dense", "shards": 4},
        }))
    else:
        path.write_text(
            '[source]\nkind = "generator"\ncount = 2\n'
            '[engine]\nbackend = "dense"\nshards = 4\n'
        )
    with pytest.raises(ConfigError, match="unknown engine key\\(s\\) 'shards'"):
        load_config(path)


def test_contentless_rules_file_raises_empty_ruleset(tmp_path):
    rules = tmp_path / "empty.rules"
    rules.write_text('alert tcp any any -> any any (msg:"no content"; sid:9;)\n')
    config = PipelineConfig(
        source=SourceSpec(kind="generator", flows=2, packets_per_flow=2, seed=1),
        rules=RulesSpec(kind="file", path=str(rules)),
        engine=EngineSpec(backend="dense"),
    )
    with Session.from_config(config) as session:
        with pytest.raises(EmptyRulesetError, match="no content patterns"):
            session.ruleset


def test_explicit_specs_share_the_sid_allocator_policy():
    config = PipelineConfig(
        mode="stream",
        source=SourceSpec(kind="packets", packets=()),
        rules=RulesSpec(
            kind="specs",
            rules=(
                ContentRule(content="first", sid=7),
                ContentRule(content="second", sid=7),  # collision: first wins
                ContentRule(content="third"),
            ),
        ),
        engine=EngineSpec(backend="dense"),
    )
    with Session.from_config(config) as session:
        assert session.ruleset.sids == [7, 1, 2]
        assert session.sid_remap == {1: 7}
