"""Tests for the command line interface."""

import json
import pathlib

import pytest

from repro.api import ConfigError, repro_version
from repro.cli import build_parser, main
from repro.rulesets import RuleParseError

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("generate-ruleset", "compile", "scan", "scan-stream",
                    "run", "lint", "verify",
                    "table1", "table2", "table3", "fig6", "fig7", "fig8"):
        assert command in text
    # the epilog records the producing version next to the config-file story
    assert f"version {repro_version()}" in text


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro-dpi {repro_version()}"


def test_generate_ruleset_to_file(tmp_path, capsys):
    output = tmp_path / "rules.txt"
    assert main(["generate-ruleset", "--size", "40", "--seed", "3", "--output", str(output)]) == 0
    content = output.read_text()
    assert content.count("content:") == 40
    assert "wrote 40 rules" in capsys.readouterr().out


def test_generate_ruleset_to_stdout(capsys):
    assert main(["generate-ruleset", "--size", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("sid:") == 10


def test_compile_command(capsys):
    assert main(["compile", "--size", "60", "--seed", "2", "--device", "cyclone3"]) == 0
    out = capsys.readouterr().out
    assert "Cyclone III" in out
    assert "blocks per group" in out


def test_scan_command(capsys):
    assert main(["scan", "--size", "50", "--seed", "2", "--packets", "12", "--payload", "120"]) == 0
    out = capsys.readouterr().out
    assert "bytes per engine cycle" in out
    assert "nominal throughput" in out


def test_scan_stream_command(capsys):
    assert main(["scan-stream", "--size", "40", "--seed", "5", "--flows", "6",
                 "--packets-per-flow", "3", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "6/6 (streaming)" in out
    assert "0/6 (per-packet scan)" in out
    assert "shard occupancy" in out


def test_scan_stream_three_segment_split(capsys):
    assert main(["scan-stream", "--size", "40", "--seed", "6", "--flows", "4",
                 "--packets-per-flow", "4", "--split-segments", "3"]) == 0
    out = capsys.readouterr().out
    assert "4/4 (streaming)" in out


def test_scan_software_backend(capsys):
    assert main(["scan", "--size", "50", "--seed", "2", "--packets", "12",
                 "--payload", "120", "--backend", "dense"]) == 0
    out = capsys.readouterr().out
    assert "backend                : dense" in out
    assert "software throughput" in out
    # same workload, same match count as the cycle-level dtp scan
    assert "match events           : 10" in out


def _stream_match_report(capsys, backend):
    assert main(["scan-stream", "--size", "40", "--seed", "5", "--flows", "6",
                 "--packets-per-flow", "3", "--shards", "2",
                 "--backend", backend, "--print-events"]) == 0
    out = capsys.readouterr().out
    assert f"backend                   : {backend}" in out
    return out[out.index("match report:"):]


def test_scan_stream_backends_report_identically(capsys):
    reports = {
        backend: _stream_match_report(capsys, backend)
        for backend in ("dtp", "dense", "ac", "wu-manber")
    }
    assert len(set(reports.values())) == 1, "match reports must be byte-identical"
    assert reports["dtp"].count("packet=") == 6


def test_scan_stream_workers_report_identical(capsys):
    serial = _stream_match_report(capsys, "dtp")
    assert main(["scan-stream", "--size", "40", "--seed", "5", "--flows", "6",
                 "--packets-per-flow", "3", "--shards", "2", "--workers", "2",
                 "--print-events"]) == 0
    out = capsys.readouterr().out
    assert "worker processes          : 2" in out
    assert out[out.index("match report:"):] == serial[serial.index("match report:"):]


def test_ids_workers_command(capsys):
    assert main(["ids", "--size", "40", "--seed", "5", "--flows", "6",
                 "--workers", "2", "--print-alerts"]) == 0
    out = capsys.readouterr().out
    assert "split-pattern alerts : 6/6" in out
    assert out.count("packet=") == 6


def test_ids_command(capsys):
    assert main(["ids", "--size", "40", "--seed", "5", "--flows", "6",
                 "--backend", "dense", "--print-alerts"]) == 0
    out = capsys.readouterr().out
    assert "split-pattern alerts : 6/6" in out
    assert out.count("packet=") == 6


@pytest.fixture
def workload_pcap(tmp_path, capsys):
    """The scan-stream workload for --size 40 --seed 5, exported as a pcap."""
    path = tmp_path / "workload.pcap"
    assert main(["scan-stream", "--size", "40", "--seed", "5", "--flows", "6",
                 "--packets-per-flow", "3", "--shards", "2",
                 "--export-pcap", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote 18 frames to {path}" in out
    return path


def _pcap_match_report(capsys, path, *extra):
    assert main(["scan-pcap", str(path), "--size", "40", "--seed", "5",
                 "--shards", "2", "--print-events", *extra]) == 0
    out = capsys.readouterr().out
    return out, out[out.index("match report:"):]


def test_scan_pcap_command(capsys, workload_pcap):
    out, report = _pcap_match_report(capsys, workload_pcap)
    assert "decoded 18 packets / 6 flows" in out
    assert "skipped frames            : 0" in out
    assert "cross-segment matches     : 6" in out
    assert report.count("packet=") == 6


def test_scan_pcap_backends_and_workers_report_identically(capsys, workload_pcap):
    reports = {
        _pcap_match_report(capsys, workload_pcap, *extra)[1]
        for extra in ((), ("--backend", "dense"), ("--workers", "2"))
    }
    assert len(reports) == 1, "replayed match reports must be byte-identical"


def test_scan_pcap_with_rules_file(tmp_path, capsys, workload_pcap):
    rules = tmp_path / "local.rules"
    rules.write_text(
        'alert tcp any any -> any any (msg:"chatter"; content:"GET /index.html"; sid:10;)\n'
    )
    assert main(["scan-pcap", str(workload_pcap), "--rules", str(rules),
                 "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "rules loaded              : 1" in out
    assert "match events              : " in out


def test_scan_pcap_rejects_garbage_file(tmp_path):
    bogus = tmp_path / "bogus.pcap"
    bogus.write_bytes(b"this is not a capture")
    with pytest.raises(Exception, match="pcap"):
        main(["scan-pcap", str(bogus), "--size", "40"])


def test_export_pcapng_container_follows_extension(tmp_path, capsys):
    path = tmp_path / "workload.pcapng"
    assert main(["scan-stream", "--size", "40", "--seed", "5", "--flows", "6",
                 "--packets-per-flow", "3", "--shards", "2",
                 "--export-pcap", str(path)]) == 0
    capsys.readouterr()
    assert main(["scan-pcap", str(path), "--size", "40", "--seed", "5",
                 "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "(pcapng, linktype 1, 18 frames)" in out


def test_ids_rules_file_over_pcap(tmp_path, capsys, workload_pcap):
    rules = tmp_path / "local.rules"
    # the generator's HTTP background chatter makes this content real traffic
    rules.write_text(
        'alert tcp any any -> any any (msg:"chatter"; content:"GET /index.html"; sid:10;)\n'
    )
    assert main(["ids", "--pcap", str(workload_pcap), "--rules", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "rules loaded         : 1" in out
    assert "alerts raised        : 0" not in out


def test_ids_contentless_rules_file_errors_cleanly(tmp_path, capsys, workload_pcap):
    rules = tmp_path / "local.rules"
    rules.write_text('alert tcp any any -> any any (msg:"no content"; sid:9;)\n')
    assert main(["ids", "--pcap", str(workload_pcap), "--rules", str(rules)]) == 1
    assert "no content patterns" in capsys.readouterr().err


def test_ids_rules_without_pcap_errors(tmp_path, capsys):
    rules = tmp_path / "local.rules"
    rules.write_text('alert tcp any any -> any any (content:"x"; sid:1;)\n')
    assert main(["ids", "--rules", str(rules)]) == 1
    assert "--rules requires --pcap" in capsys.readouterr().err


def test_ids_pcap_command(capsys, workload_pcap):
    assert main(["ids", "--size", "40", "--seed", "5",
                 "--pcap", str(workload_pcap), "--print-alerts"]) == 0
    out = capsys.readouterr().out
    # the same 6 split-pattern alerts the in-memory ids run raises
    assert "alerts raised        : 6" in out
    assert out.count("packet=") == 6


def test_ids_reassemble_reports_the_loss_counter(capsys, workload_pcap):
    """``ids --reassemble`` prints the reassembly gauges through the printer
    ``scan-pcap`` and ``serve`` use — ``hole_flushes`` (the bytes a forced
    flush skipped are bytes an alert can depend on) included."""
    assert main(["ids", "--size", "40", "--seed", "5", "--reassemble",
                 "--pcap", str(workload_pcap)]) == 0
    ids_line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("reassembled"))
    assert main(["scan-pcap", str(workload_pcap), "--size", "40", "--seed", "5",
                 "--reassemble"]) == 0
    scan_line = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("reassembled"))
    assert ids_line.startswith("reassembled          : 18 segments -> 18 packets (")
    assert ids_line.endswith("hole_flushes=0)")
    assert ids_line.split(":", 1)[1] == scan_line.split(":", 1)[1]


def test_sid_remap_counts_follow_the_engine_built(tmp_path, capsys, workload_pcap):
    """ids counts per-rule reassignments, scan-pcap per-content (PR-4 idiom).

    The two allocator passes must never share one remap record: the IDS
    assigns one sid per *rule*, the ruleset one per unique *content*.
    """
    rules = tmp_path / "multi.rules"
    rules.write_text(
        'alert tcp any any -> any any (msg:"two"; content:"GET /index.html"; '
        'content:"Host: example.com"; sid:7;)\n'
        'alert tcp any any -> any any (msg:"collision"; content:"Accept: */*"; sid:7;)\n'
    )
    assert main(["ids", "--pcap", str(workload_pcap), "--rules", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "rules loaded         : 2 (1 reassigned sids)" in out
    assert main(["scan-pcap", str(workload_pcap), "--rules", str(rules),
                 "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "rules loaded              : 3 (2 reassigned sids)" in out


def test_scan_pcap_contentless_rules_errors_cleanly(tmp_path, capsys, workload_pcap):
    rules = tmp_path / "local.rules"
    rules.write_text('alert tcp any any -> any any (msg:"no content"; sid:9;)\n')
    assert main(["scan-pcap", str(workload_pcap), "--rules", str(rules)]) == 1
    assert "no content patterns" in capsys.readouterr().err


def test_run_example_pipeline_config(tmp_path, capsys):
    """The committed example config executes end to end (CI runs it too)."""
    for name in ("pipeline_ids.json", "pipeline.rules"):
        (tmp_path / name).write_text((EXAMPLES / name).read_text(encoding="utf-8"),
                                     encoding="utf-8")
    assert main(["run", str(tmp_path / "pipeline_ids.json")]) == 0
    out = capsys.readouterr().out
    assert "mode                  : ids" in out
    assert "alerts raised         : 0" not in out  # the example must alert
    sink = tmp_path / "pipeline_alerts.ndjson"
    assert sink.exists()
    records = [json.loads(line) for line in sink.read_text().splitlines()]
    assert records and all({"packet", "sid", "msg", "action"} <= set(r) for r in records)


def test_run_example_live_ids_config(tmp_path, capsys):
    """The live-IDS example (CI runs it too): ``run`` serves the capture
    ``make_community_pcap.py`` writes through a ``pcap-tail`` source and its
    ndjson alerts are the ``ids --pcap`` report of the same capture."""
    import runpy

    examples = tmp_path / "examples"
    examples.mkdir()
    for name in ("pipeline_serve_ids.json", "community_sample.rules"):
        (examples / name).write_text((EXAMPLES / name).read_text(encoding="utf-8"),
                                     encoding="utf-8")
    pcap = tmp_path / "community_sample.pcap"
    writer = runpy.run_path(str(EXAMPLES / "make_community_pcap.py"))
    assert writer["main"](["make_community_pcap.py", str(pcap)]) == 0
    capsys.readouterr()

    assert main(["ids", "--pcap", str(pcap), "--backend", "dense", "--print-alerts",
                 "--rules", str(examples / "community_sample.rules")]) == 0
    offline = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("  packet=")]
    assert main(["run", str(examples / "pipeline_serve_ids.json")]) == 0
    out = capsys.readouterr().out
    assert "served 6 packets / 4 batches" in out  # 3 of segments + the end-of-source flush
    assert "stop reason           : source_exhausted" in out
    assert f"alerts raised         : {len(offline)}" in out
    records = [json.loads(line) for line in
               (examples / "pipeline_serve_alerts.ndjson").read_text().splitlines()]
    assert [f"  packet={r['packet']} sid={r['sid']}" for r in records] == offline
    assert {2000001, 2000002, 2000003, 2000004} == {r["sid"] for r in records}


# ----------------------------------------------------------------------
# error idiom, locked per subcommand: bad input *values* raise their raw
# ValueError-family tracebacks; empty-result / flag-combination errors
# print to stderr and exit 1 (covered by the *_errors_cleanly tests above).
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv, exception",
    [
        pytest.param(["scan", "--size", "20", "--seed", "2", "--packets", "-1"],
                     ValueError, id="scan-negative-packets"),
        pytest.param(["scan", "--size", "20", "--seed", "2", "--packets", "2",
                      "--payload", "0"], ValueError, id="scan-zero-payload"),
        pytest.param(["scan", "--size", "20", "--seed", "2", "--packets", "2",
                      "--attack-rate", "1.5"], ValueError, id="scan-bad-attack-rate"),
        pytest.param(["scan-stream", "--size", "20", "--seed", "2", "--flows", "2",
                      "--shards", "0"], ValueError, id="scan-stream-zero-shards"),
        pytest.param(["scan-stream", "--size", "20", "--seed", "2", "--flows", "2",
                      "--workers", "0"], ValueError, id="scan-stream-zero-workers"),
        pytest.param(["scan-stream", "--size", "20", "--seed", "2", "--flows", "2",
                      "--flow-capacity", "0"], ValueError,
                     id="scan-stream-zero-flow-capacity"),
        pytest.param(["scan-stream", "--size", "20", "--seed", "2", "--flows", "2",
                      "--segment-bytes", "0"], ValueError,
                     id="scan-stream-zero-segment-bytes"),
        pytest.param(["ids", "--size", "20", "--seed", "2", "--flows", "2",
                      "--workers", "0"], ValueError, id="ids-zero-workers"),
        # flow/packet counts, locked by the IDM106 idiom lint: every count
        # flag a handler reads must be checked before any work happens
        pytest.param(["scan", "--size", "20", "--seed", "2", "--packets", "0"],
                     ValueError, id="scan-zero-packets"),
        pytest.param(["scan-stream", "--size", "20", "--seed", "2",
                      "--flows", "0"], ValueError, id="scan-stream-zero-flows"),
        pytest.param(["scan-stream", "--size", "20", "--seed", "2", "--flows", "2",
                      "--packets-per-flow", "0"], ValueError,
                     id="scan-stream-zero-packets-per-flow"),
        pytest.param(["ids", "--size", "20", "--seed", "2", "--flows", "0"],
                     ValueError, id="ids-zero-flows"),
        pytest.param(["ids", "--size", "20", "--seed", "2", "--flows", "2",
                      "--packets-per-flow", "0"], ValueError,
                     id="ids-zero-packets-per-flow"),
        # count flags are range-checked before the capture is even opened,
        # so a placeholder path exercises the validation alone
        pytest.param(["scan-pcap", "unused.pcap", "--workers", "0"],
                     ValueError, id="scan-pcap-zero-workers"),
        pytest.param(["scan-pcap", "unused.pcap", "--shards", "0"],
                     ValueError, id="scan-pcap-zero-shards"),
        pytest.param(["scan-pcap", "unused.pcap", "--flow-capacity", "0"],
                     ValueError, id="scan-pcap-zero-flow-capacity"),
        pytest.param(["serve", "--pcap-tail", "unused.pcap", "--workers", "0"],
                     ValueError, id="serve-zero-workers"),
        pytest.param(["serve", "--pcap-tail", "unused.pcap", "--shards", "-1"],
                     ValueError, id="serve-negative-shards"),
        pytest.param(["serve", "--pcap-tail", "unused.pcap", "--max-packets", "0"],
                     ValueError, id="serve-zero-max-packets"),
        pytest.param(["serve", "--pcap-tail", "unused.pcap", "--batch-packets", "0"],
                     ValueError, id="serve-zero-batch-packets"),
        pytest.param(["serve", "--tcp", "127.0.0.1:notaport"],
                     ValueError, id="serve-non-numeric-port"),
        pytest.param(["serve", "--udp", ":70000"],
                     ValueError, id="serve-port-out-of-range"),
    ],
)
def test_bad_input_values_raise_raw_tracebacks(argv, exception):
    with pytest.raises(exception):
        main(argv)


def test_serve_pcap_tail_matches_scan_pcap(capsys, workload_pcap):
    """The ISSUE's acceptance path: serving a replayed live source emits a
    match report byte-identical to the offline scan of the same capture."""
    _, offline_report = _pcap_match_report(capsys, workload_pcap)
    assert main(["serve", "--pcap-tail", str(workload_pcap), "--size", "40",
                 "--seed", "5", "--shards", "2", "--workers", "2",
                 "--print-events"]) == 0
    out = capsys.readouterr().out
    assert "stop reason               : source_exhausted" in out
    assert "served 18 packets" in out
    assert out[out.index("match report:"):] == offline_report


def test_serve_flag_combinations_error_cleanly(capsys, workload_pcap):
    assert main(["serve"]) == 1
    assert "exactly one live source" in capsys.readouterr().err
    assert main(["serve", "--tcp", ":0", "--udp", ":0"]) == 1
    assert "exactly one live source" in capsys.readouterr().err
    assert main(["serve", "--tcp", ":0", "--follow"]) == 1
    assert "--follow only applies to --pcap-tail" in capsys.readouterr().err


def test_scan_pcap_unparseable_rules_raise(tmp_path, workload_pcap):
    rules = tmp_path / "bad.rules"
    rules.write_text('alert tcp any any -> any any (content:"C:\\temp"; sid:1;)\n')
    with pytest.raises(RuleParseError, match="undefined escape"):
        main(["scan-pcap", str(workload_pcap), "--rules", str(rules)])


def test_run_missing_config_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["run", str(tmp_path / "nope.json")])


def test_run_malformed_config_raises_config_error(tmp_path):
    config = tmp_path / "pipe.json"
    config.write_text(json.dumps({
        "source": {"kind": "generator", "count": 2},
        "bogus_section": True,
    }))
    with pytest.raises(ConfigError, match="bogus_section"):
        main(["run", str(config)])
    config.write_text(json.dumps({
        "source": {"kind": "generator", "count": 2},
        "engine": {"backend": "not-a-backend"},
    }))
    with pytest.raises(ConfigError, match="not-a-backend"):
        main(["run", str(config)])


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Cyclone III" in out and "Stratix III" in out
    assert "404" in out and "822" in out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])
