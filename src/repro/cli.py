"""Command line interface: ``repro-dpi`` / ``python -m repro``.

Subcommands map one-to-one onto the paper's artefacts so every table and
figure can be regenerated from a shell:

* ``generate-ruleset`` — synthesise a Snort-like ruleset and dump it to disk;
* ``compile``          — compile a ruleset for a device and print statistics;
* ``scan``             — scan synthetic traffic (cycle-level hardware model for
  the ``dtp`` backend, functional scan for every other backend);
* ``scan-stream``      — stateful flow scanning: patterns split across packets;
* ``scan-pcap``        — replay a pcap/pcapng capture through the scan service;
* ``serve``            — scan a *live* source: TCP/UDP socket listeners or a
  tail-followed pcap capture, batched through the same scan service;
* ``ids``              — the end-to-end mini IDS over streamed flows (takes
  ``--pcap`` to run on a capture instead of synthetic flows);
* ``run``              — execute a declarative pipeline config file (JSON or
  TOML) through :class:`repro.api.Session`;
* ``lint``             — lint a ruleset (shadowed/duplicate patterns, sid
  conflicts, hardware-capacity overruns) or, with ``--code``, run the CLI
  error-idiom AST checker over source paths;
* ``verify``           — statically prove a compiled program correct (DTP
  pruning exactness, packing round-trips, cross-backend equivalence) without
  scanning a byte of traffic;
* ``table1`` / ``table2`` / ``table3`` — regenerate the paper's tables;
* ``fig6`` / ``fig7`` / ``fig8``       — regenerate the paper's figures as text.

The scanning subcommands are presets: each names a mode and a source, one
shared builder (:func:`_pipeline_config`) turns the rest of its flags into a
:class:`repro.api.PipelineConfig`, and :class:`repro.api.Session` composes
and drives it — so the CLI, the config-file path (``run``) and programmatic
use share one composition of sources, rules, engines and sinks, and one set
of summary printers.  ``scan``, ``scan-stream``, ``scan-pcap`` and ``ids`` take
``--backend`` with any name from :mod:`repro.backend` (``ac``, ``dense``,
``bitmap``, ``path``, ``dtp``); every backend is driven
through the same :class:`repro.backend.CompiledProgram` protocol, so the
reported match sets are identical by construction.

Error idiom: bad input *values* (a negative count, a corrupt capture, an
unparseable rule) raise their raw ``ValueError``-family tracebacks;
empty-result and flag-combination errors print one line to stderr and
exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis.metrics import (
    PAPER_TABLE1_REFERENCE,
    PAPER_TABLE2_REFERENCE,
    PAPER_TABLE3_REFERENCE,
    TABLE2_CYCLONE_SIZES,
    TABLE2_STRATIX_SIZES,
    power_curves,
    table1_row,
    table2_row,
    table3_rows,
)
from .analysis.tables import ascii_chart, format_histogram, format_table
from .api import (
    EmptyRulesetError,
    EngineSpec,
    PipelineConfig,
    RulesSpec,
    Session,
    SinkSpec,
    SourceSpec,
    load_config,
    repro_version,
)
from .backend import backend_names, get_backend
from .core.accelerator_config import compile_ruleset
from .core.dtp_automaton import DTPAutomaton
from .fpga.devices import CYCLONE_III, DEVICES, STRATIX_III, get_device
from .proto.reassembly import OVERLAP_POLICIES
from .rulesets.generator import generate_paper_rulesets, generate_snort_like_ruleset
from .rulesets.reducer import reduce_to_character_count
from .streaming.service import ScanService


def _add_ruleset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=634, help="number of strings")
    parser.add_argument("--seed", type=int, default=2010, help="generation seed")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="dtp",
        choices=backend_names(),
        help="matcher backend (all report identical match sets)",
    )
    parser.add_argument("--device", default="stratix3", choices=sorted(DEVICES))


def _add_rules_file_arguments(
    parser: argparse.ArgumentParser,
    rules_help: str = "Snort rules file to match against (default: "
                      "the synthetic --size/--seed ruleset)",
) -> None:
    parser.add_argument("--rules", metavar="FILE", help=rules_help)
    parser.add_argument("--strict-rules", action="store_true",
                        help="reject rules with unsupported options instead "
                             "of keeping them unparsed (lenient default)")


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """The scan-service flags the stream-mode subcommands share."""
    parser.add_argument("--flow-capacity", type=int, default=4096,
                        help="LRU flow-table capacity (flows tracked at once)")
    parser.add_argument("--print-events", action="store_true",
                        help="print every match event (backend-independent report)")


def _add_reassembly_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reassemble", action="store_true",
        help="order TCP segments by sequence number before scanning "
             "(the repro.proto reassembler; non-TCP traffic passes through)",
    )
    parser.add_argument(
        "--overlap-policy", default="first", choices=sorted(OVERLAP_POLICIES),
        help="with --reassemble: which copy wins when a retransmitted "
             "TCP segment disagrees with already-buffered bytes",
    )


#: Flags a scan-shaped subcommand may not define, at their ``EngineSpec`` /
#: ``RulesSpec`` defaults, so :func:`_pipeline_config` reads every one by name.
_PIPELINE_DEFAULTS = dict(
    rules=None, strict_rules=False, flow_capacity=4096,
    strict=False, reassemble=False, overlap_policy="first",
)


def _require_count(name: str, value: Optional[int], minimum: int = 1) -> None:
    """Range-check a count flag at the CLI layer (same raw-``ValueError``
    idiom as every other bad input value; the spec layer re-checks for
    programmatic callers, so both surfaces reject ``--flow-capacity 0``)."""
    if value is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _pipeline_config(
    args: argparse.Namespace, mode: str, source: SourceSpec, sinks=()
) -> PipelineConfig:
    """The config a scan-shaped subcommand's flags describe: the preset's
    ``mode`` and ``source`` plus the shared rules and engine flags (absent
    ones at :data:`_PIPELINE_DEFAULTS`), range-checked where they are read."""
    _require_count("--flow-capacity", args.flow_capacity)
    if args.rules:
        rules = RulesSpec(kind="file", path=args.rules, strict=args.strict_rules)
    else:
        rules = RulesSpec(kind="synthetic", size=args.size, seed=args.seed)
    return PipelineConfig(
        mode=mode,
        source=source,
        rules=rules,
        engine=EngineSpec(
            backend=args.backend,
            device=args.device,
            flow_capacity=args.flow_capacity,
            strict=args.strict,
            reassemble=args.reassemble,
            overlap_policy=args.overlap_policy,
        ),
        sinks=sinks,
    )


def _flow_source(args: argparse.Namespace, **shape) -> SourceSpec:
    """The generated workload ``scan-stream`` and ``ids`` share: interleaved
    flows, each carrying one deliberately split rule string."""
    _require_count("--flows", args.flows)
    _require_count("--packets-per-flow", args.packets_per_flow)
    return SourceSpec(
        kind="generator",
        flows=args.flows,
        packets_per_flow=args.packets_per_flow,
        split_patterns=1,
        seed=args.seed + 1,
        **shape,
    )


def _flow_count(session) -> int:
    """Flows in the session's source: generator ground truth, else counted."""
    if session.flows is not None:
        return len(session.flows)
    return len({ScanService.flow_key(packet) for packet in session.packets})


# The summary printers take the label column's width: every subcommand keeps
# the alignment its output has always had.
def _print_rules_loaded(session, count: int, width: int) -> None:
    # remaps cover genuine collisions and the extra contents of
    # multi-content rules — both are sids that differ from the rule file
    remapped = len(session.sid_remap)
    print(f"{'rules loaded':<{width}}: {count}"
          + (f" ({remapped} reassigned sids)" if remapped else ""))


def _print_reassembly_summary(session, width: int = 26) -> None:
    """One gauge line when the reassembler ran (shared by the scan commands)."""
    if session.reassembler is None:
        return
    stats = session.reassembler.stats
    print(
        f"{'reassembled':<{width}}: {stats.segments_in} segments -> "
        f"{stats.packets_out} packets "
        f"(reordered={stats.reordered}, retransmits={stats.retransmits}, "
        f"hole_flushes={stats.hole_flushes})"
    )


def _print_serve_summary(report, width: int) -> None:
    counters = ", ".join(
        f"{name}={count}" for name, count in sorted(report.source_stats.items())
    )
    print(
        f"served {report.packets} packets / {report.batches} batches "
        f"({report.payload_bytes} payload bytes) "
        f"in {report.elapsed_seconds:.2f}s"
    )
    print(f"{'stop reason':<{width}}: {report.stop_reason}"
          + (f" ({counters})" if counters else ""))


def _cmd_generate_ruleset(args: argparse.Namespace) -> int:
    from .rulesets.parser import render_content

    ruleset = generate_snort_like_ruleset(args.size, seed=args.seed)
    lines = [
        f"# synthetic Snort-like ruleset: {len(ruleset)} strings, "
        f"{ruleset.total_characters} characters"
    ]
    for rule in ruleset:
        # full parseable rules: the output round-trips through parse_rules /
        # scan-pcap --rules (render_content hex-escapes every byte the rule
        # grammar gives meaning to)
        lines.append(
            "alert ip any any -> any any "
            f'(content:"{render_content(rule.pattern)}"; sid:{rule.sid};)'
        )
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(ruleset)} rules to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    ruleset = generate_snort_like_ruleset(args.size, seed=args.seed)
    program = compile_ruleset(ruleset, device)
    row = table2_row(ruleset, device, program=program)
    print(format_table([row.as_dict()], title=f"compiled {ruleset.name} for {device.family}"))
    print(f"blocks per group : {program.blocks_per_group}")
    print(f"packet groups    : {program.packet_groups}")
    print(f"words per block  : {[block.words_used for block in program.blocks]}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    _require_count("--packets", args.packets)
    _require_count("--payload", args.payload)
    source = SourceSpec(
        kind="generator",
        count=args.packets,
        mean_payload=args.payload,
        attack_rate=args.attack_rate,
        seed=args.seed + 1,
    )
    with Session.from_config(_pipeline_config(args, "packets", source)) as session:
        packets = session.packets

        if isinstance(session.program, DTPAutomaton):
            # the paper's structure runs through the cycle-level hardware model
            result = session.hardware.scan(packets)
            print(f"scanned {len(packets)} packets ({result.bytes_processed} bytes)")
            print(f"engine cycles          : {result.engine_cycles}")
            print(f"bytes per engine cycle : {result.bytes_per_engine_cycle:.3f}")
            print(f"match events           : {len(result.events)}")
            print(
                f"nominal throughput     : "
                f"{session.hardware.nominal_throughput_gbps():.1f} Gbps"
            )
            return 0

        # every other backend: the scan service, state reset per packet
        session.service  # built here so the timed scan is the scan alone
        total_bytes = sum(len(packet.payload) for packet in packets)
        scan_start = time.perf_counter()
        result = session.scan()
        scan_seconds = time.perf_counter() - scan_start
        print(f"scanned {len(packets)} packets ({total_bytes} bytes)")
        print(f"backend                : {args.backend}")
        print(f"compile time           : {session.compile_seconds * 1e3:.1f} ms")
        print(f"match events           : {len(result.events)}")
        if scan_seconds > 0:
            print(f"software throughput    : {total_bytes / scan_seconds / 1e6:.2f} MB/s")
    return 0


def _parse_endpoint(value: str) -> Tuple[str, int]:
    """``HOST:PORT``, ``:PORT`` or bare ``PORT`` (host defaults to loopback).

    A non-numeric port raises its raw ``ValueError`` — the CLI's bad-input
    idiom — and the port *range* is checked by :class:`SourceSpec`.
    """
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


def _print_event_report(events, sid_of) -> None:
    """The backend-independent per-event report shared by the scan commands."""
    print("match report:")
    for event in events:
        print(
            f"  packet={event.packet_id} offset={event.end_offset} "
            f"sid={sid_of[event.string_number]}"
        )


def _print_scan_summary(session, result, extra_lines=()) -> None:
    """The engine summary shared by the stream-mode commands: the reassembly
    gauges when the reassembler ran, then the scan service's.

    ``extra_lines`` are printed between the match counters and the flow-table
    gauges (scan-stream's split-pattern ground truth goes there).
    """
    _print_reassembly_summary(session)
    stats = session.service.stats()
    print(f"match events              : {len(result.events)}")
    print(f"cross-segment matches     : {stats['cross_segment_matches']}")
    for line in extra_lines:
        print(line)
    print(f"active flows              : {stats['active_flows']}")
    print(f"evicted flows             : {stats['evicted_flows']}")
    print(f"released flows            : {stats['released_flows']}")


def _cmd_scan_stream(args: argparse.Namespace) -> int:
    sinks = ()
    if args.export_pcap:
        # the sink follows the extension so the file's magic matches its name
        sinks = (SinkSpec(kind="pcap", path=args.export_pcap),)
    source = _flow_source(
        args, split_segments=args.split_segments, segment_bytes=args.segment_bytes
    )
    with Session.from_config(_pipeline_config(args, "stream", source, sinks)) as session:
        run = session.run()
        result = run.scan_result
        if args.export_pcap:
            print(f"wrote {run.sinks[0]['frames']} frames to {args.export_pcap}")

        # ground truth: every flow carries one deliberately split pattern
        # (string numbers follow ruleset order for every backend)
        sid_of = session.sid_of
        program = session.program
        events_by_flow = result.events_by_flow()
        # every packet on its own, from a fresh state: one backend crossing
        stateless_of = iter(program.scan_packets(
            [packet.payload for flow in session.flows for packet in flow.packets]
        ))
        found_split = 0
        stateless_split = 0
        for flow in session.flows:
            key = ScanService.flow_key(flow.packets[0])
            streamed = {sid_of[event.string_number] for event in events_by_flow.get(key, ())}
            stateless = {
                sid_of[number] for _ in flow.packets for _, number in next(stateless_of)
            }
            for sid in flow.split_sids:
                found_split += sid in streamed
                stateless_split += sid in stateless

        num_flows = len(session.flows)
        print(f"backend                   : {args.backend}")
        print(
            f"scanned {result.packets} packets / {num_flows} flows "
            f"({result.bytes_scanned} bytes)"
        )
        _print_scan_summary(
            session,
            result,
            extra_lines=(
                f"split patterns detected   : {found_split}/{num_flows} (streaming)",
                f"split patterns detected   : {stateless_split}/{num_flows} (per-packet scan)",
            ),
        )
        if args.print_events:
            # the match report proper: identical for every backend on the same
            # workload (the equivalence the backend protocol guarantees)
            _print_event_report(result.events, sid_of)
    return 0


def _cmd_scan_pcap(args: argparse.Namespace) -> int:
    source = SourceSpec(kind="pcap", path=args.pcap)
    with Session.from_config(_pipeline_config(args, "stream", source)) as session:
        ruleset = session.ruleset
        result = session.run().scan_result
        capture = session.capture
        stats = session.capture_stats
        print(f"backend                   : {args.backend}")
        print(
            f"capture                   : {args.pcap} "
            f"({capture.fmt}, linktype {capture.linktype}, {stats.frames} frames)"
        )
        print(
            f"decoded {stats.decoded} packets / {_flow_count(session)} flows "
            f"({stats.payload_bytes} payload bytes)"
        )
        print(f"skipped frames            : {stats.skipped_total}"
              + (f" (fragments={stats.skipped_fragments}, "
                 f"other={stats.skipped_other})"
                 if stats.skipped_total else ""))
        _print_rules_loaded(session, len(ruleset), 26)
        _print_scan_summary(session, result)
        if args.print_events:
            _print_event_report(result.events, session.sid_of)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    _require_count("--max-packets", args.max_packets)
    _require_count("--batch-packets", args.batch_packets)

    chosen = [flag for flag, value in
              (("--tcp", args.tcp), ("--udp", args.udp), ("--pcap-tail", args.pcap_tail))
              if value]
    if len(chosen) != 1:
        print("serve needs exactly one live source: --tcp, --udp or --pcap-tail",
              file=sys.stderr)
        return 1
    if args.follow and not args.pcap_tail:
        print("--follow only applies to --pcap-tail", file=sys.stderr)
        return 1

    limits = dict(
        max_packets=args.max_packets,
        idle_timeout=args.idle_seconds,
        batch_packets=args.batch_packets,
    )
    if args.pcap_tail:
        source = SourceSpec(kind="pcap-tail", path=args.pcap_tail,
                            follow=args.follow, poll_interval=args.poll_interval,
                            **limits)
    else:
        host, port = _parse_endpoint(args.tcp or args.udp)
        source = SourceSpec(kind="tcp" if args.tcp else "udp", host=host, port=port,
                            **limits)

    with Session.from_config(_pipeline_config(args, "stream", source)) as session:
        ruleset = session.ruleset
        print(f"backend                   : {args.backend}")
        print(f"source                    : {source.kind} "
              + (args.pcap_tail if args.pcap_tail
                 else f"{source.host}:{source.port}")
              + (" (follow)" if args.follow else ""))
        _print_rules_loaded(session, len(ruleset), 26)
        report = session.serve()
        _print_serve_summary(report, 26)
        _print_scan_summary(session, report)
        if args.print_events:
            _print_event_report(report.events, session.sid_of)
    return 0


def _cmd_ids(args: argparse.Namespace) -> int:
    if args.rules and not args.pcap:
        # real rules only make sense against real traffic: the synthetic
        # flow generator injects patterns from the synthetic ruleset
        print("--rules requires --pcap (a capture to match against)",
              file=sys.stderr)
        return 1
    if args.pcap:
        # replay a capture through the stateful pipeline instead of
        # generating flows (no injection ground truth on the wire)
        source = SourceSpec(kind="pcap", path=args.pcap)
    else:
        source = _flow_source(args)
    with Session.from_config(_pipeline_config(args, "ids", source)) as session:
        ids = session.ids
        flows = session.flows
        alerts = session.run().alerts

        print(f"backend              : {args.backend}")
        if args.pcap:
            stats = session.capture_stats
            print(
                f"capture              : {args.pcap} "
                f"({stats.frames} frames, {stats.skipped_total} skipped)"
            )
        print(
            f"processed {ids.stats.packets_processed} packets / "
            f"{_flow_count(session)} flows ({ids.stats.payload_bytes} payload bytes)"
        )
        _print_rules_loaded(session, len(ids.rules), 21)
        if session.specs is not None:
            skipped = session.skipped_rules
            ignored = sum(len(e.unparsed_options) for e in session.specs)
            if skipped:
                print(f"rules skipped        : {skipped} (no positive content)")
            if ignored:
                print(f"options ignored      : {ignored} "
                      "(lenient parse; --strict-rules rejects them)")
        _print_reassembly_summary(session, 21)
        print(f"alerts raised        : {len(alerts)}")
        if flows is not None:
            alerted_sids = {alert.sid for alert in alerts}
            split_detected = sum(
                1 for flow in flows for sid in flow.split_sids if sid in alerted_sids
            )
            split_total = sum(len(flow.split_sids) for flow in flows)
            print(f"split-pattern alerts : {split_detected}/{split_total}")
    if args.print_alerts:
        print("alert report:")
        for alert in alerts:
            print(f"  packet={alert.packet_id} sid={alert.sid}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    with Session.from_config(config) as session:
        run = session.run()
        print(f"pipeline              : {args.config}")
        print(f"version               : {repro_version()}")
        print(f"mode                  : {config.mode}")
        print(f"backend               : {config.engine.backend}")
        print(f"rules loaded          : {len(session.ruleset)}")
        if run.ingest is not None:  # a live source: what serve() reported
            _print_serve_summary(run.ingest, 22)
        else:
            print(f"packets               : {len(session.packets)}")
        if config.mode == "ids":
            print(f"alerts raised         : {len(run.alerts)}")
        else:
            print(f"match events          : {len(run.events)}")
        for index, (spec, output) in enumerate(zip(config.sinks, run.sinks)):
            if spec.kind == "ndjson":
                summary = f"wrote {output['records']} {output['what']} to {output['path']}"
            elif spec.kind == "pcap":
                summary = f"wrote {output['frames']} frames to {output['path']}"
            else:
                summary = f"collected {len(output)} {spec.kind}"
            print(f"sink[{index}] {spec.kind:<13s}: {summary}")
    return 0


def _ruleset_for_check(args: argparse.Namespace):
    """The ruleset ``lint``/``verify`` operate on: a Snort rules file when
    ``--rules`` is given, else the synthetic ``--size``/``--seed`` ruleset.
    Parse errors raise their raw tracebacks (the bad-input idiom)."""
    if args.rules:
        from .rulesets import parse_rules, ruleset_from_specs

        with open(args.rules, "r", encoding="utf-8") as handle:
            return ruleset_from_specs(parse_rules(handle))
    return generate_snort_like_ruleset(args.size, seed=args.seed)


def _write_report_json(report, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")


def _cmd_lint(args: argparse.Namespace) -> int:
    from .check import check_paths, lint_rule_file, lint_ruleset

    if args.code:
        report = check_paths(args.code)
    elif args.rules:
        report = lint_rule_file(args.rules)
    else:
        report = lint_ruleset(generate_snort_like_ruleset(args.size, seed=args.seed))
    _write_report_json(report, args.json)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .check import merge_reports, verify_cross_backend, verify_program

    ruleset = _ruleset_for_check(args)
    # the registry compiles what Session(backend=...) scans; for dtp the
    # device's blocks get the hardware audit as well
    names = backend_names() if args.backend == "all" else [args.backend]
    programs = [get_backend(name).compile(ruleset) for name in names]
    if any(isinstance(program, DTPAutomaton) for program in programs):
        programs.append(compile_ruleset(ruleset, get_device(args.device)))
    reports = [verify_program(program) for program in programs]
    reports.append(verify_cross_backend(ruleset))
    report = merge_reports(
        f"verify {args.backend} over {len(ruleset)} pattern(s) "
        f"({ruleset.name})",
        reports,
    )
    _write_report_json(report, args.json)
    print(report.render())
    for sub in reports:
        status = "proved" if sub.ok else "FAILED"
        print(f"  {status}: {sub.subject}")
    return 0 if report.ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for device in (CYCLONE_III, STRATIX_III):
        measured = table1_row(device).as_dict()
        reference = PAPER_TABLE1_REFERENCE[device.family]
        measured["paper_logic"] = f"{reference['logic_used']:,}"
        measured["paper_m9k"] = reference["m9k_used"]
        rows.append(measured)
    print(format_table(rows, title="Table I — resource utilisation (model vs paper)"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    sizes = TABLE2_STRATIX_SIZES if device is STRATIX_III else TABLE2_CYCLONE_SIZES
    family = generate_paper_rulesets(seed=args.seed)
    rows = []
    for size in sizes:
        row = table2_row(family[size], device).as_dict()
        reference = PAPER_TABLE2_REFERENCE[device.family].get(size, {})
        row["paper_blocks"] = reference.get("blocks", "-")
        row["paper_speed"] = reference.get("speed_gbps", "-")
        rows.append(row)
    print(format_table(rows, title=f"Table II — {device.family}"))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    family = generate_paper_rulesets(seed=args.seed)
    workload = reduce_to_character_count(family[6275], 19_124, seed=args.seed)
    rows = [row.as_dict() for row in table3_rows(workload, (CYCLONE_III, STRATIX_III))]
    print(format_table(rows, title="Table III — comparison at ~19,124 characters"))
    print()
    print(format_table(PAPER_TABLE3_REFERENCE, title="Table III — as reported in the paper"))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    family = generate_paper_rulesets(seed=args.seed)
    for size in sorted(family):
        histogram = family[size].bucketed_histogram()
        print(format_histogram(histogram, title=f"Figure 6 — {size} strings"))
        print()
    return 0


def _power_figure(device, sizes: Sequence[int], seed: int) -> str:
    family = generate_paper_rulesets(seed=seed)
    blocks: Dict[str, int] = {}
    for size in sizes:
        program = compile_ruleset(family[size], device)
        blocks[f"{size} strings"] = program.blocks_per_group
    output: List[str] = []
    for curve in power_curves(device, blocks):
        output.append(
            format_table(
                curve.points,
                title=f"{device.family} — {curve.label} ({curve.blocks_per_group} block(s)/group)",
            )
        )
        output.append(
            ascii_chart(curve.points, "power_watts", "throughput_gbps", label=curve.label)
        )
        output.append("")
    return "\n".join(output)


def _cmd_fig7(args: argparse.Namespace) -> int:
    print("Figure 7 — power vs throughput, Cyclone III")
    print(_power_figure(CYCLONE_III, (500, 1204, 2588), args.seed))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    print("Figure 8 — power vs throughput, Stratix III")
    print(_power_figure(STRATIX_III, (634, 1603, 2588, 6275), args.seed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    version = repro_version()
    parser = argparse.ArgumentParser(
        prog="repro-dpi",
        description="Reproduction of 'Ultra-High Throughput String Matching for DPI' (DATE 2010)",
        epilog=f"version {version} — pipeline configs produced by this build "
               "record it in their 'version' field (see `run` and repro.api)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {version}",
        help="print the package version and exit",
    )
    parser.set_defaults(**_PIPELINE_DEFAULTS)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate-ruleset", help="synthesise a Snort-like ruleset")
    _add_ruleset_arguments(generate)
    generate.add_argument("--output", help="file to write rules to (stdout if omitted)")
    generate.set_defaults(handler=_cmd_generate_ruleset)

    compile_parser = subparsers.add_parser("compile", help="compile a ruleset for a device")
    _add_ruleset_arguments(compile_parser)
    compile_parser.add_argument("--device", default="stratix3", choices=sorted(DEVICES))
    compile_parser.set_defaults(handler=_cmd_compile)

    scan = subparsers.add_parser("scan", help="scan synthetic traffic with any backend")
    _add_ruleset_arguments(scan)
    _add_backend_argument(scan)
    scan.add_argument("--packets", type=int, default=60)
    scan.add_argument("--payload", type=int, default=300, help="mean payload bytes")
    scan.add_argument("--attack-rate", type=float, default=0.3)
    scan.set_defaults(handler=_cmd_scan)

    scan_stream = subparsers.add_parser(
        "scan-stream", help="stateful flow scanning with cross-packet patterns"
    )
    _add_ruleset_arguments(scan_stream)
    _add_backend_argument(scan_stream)
    _add_service_arguments(scan_stream)
    scan_stream.add_argument("--flows", type=int, default=24, help="concurrent flows")
    scan_stream.add_argument("--packets-per-flow", type=int, default=4)
    scan_stream.add_argument(
        "--split-segments", type=int, default=2, choices=(2, 3),
        help="segments each injected pattern is split across",
    )
    scan_stream.add_argument("--segment-bytes", type=int, default=None)
    scan_stream.add_argument("--export-pcap", metavar="PATH",
                             help="also write the generated workload as a capture "
                                  "(pcapng when PATH ends in .pcapng, else pcap; "
                                  "replayable with scan-pcap)")
    scan_stream.set_defaults(handler=_cmd_scan_stream)

    scan_pcap = subparsers.add_parser(
        "scan-pcap", help="replay a pcap/pcapng capture through the scan service"
    )
    scan_pcap.add_argument("pcap", help="capture file (pcap or pcapng, auto-detected)")
    _add_rules_file_arguments(scan_pcap)
    _add_ruleset_arguments(scan_pcap)
    _add_backend_argument(scan_pcap)
    _add_service_arguments(scan_pcap)
    scan_pcap.add_argument("--strict", action="store_true",
                           help="fail on frames that cannot be decoded "
                                "(default: skip and count them)")
    _add_reassembly_arguments(scan_pcap)
    scan_pcap.set_defaults(handler=_cmd_scan_pcap)

    serve = subparsers.add_parser(
        "serve", help="scan a live source: socket listeners or a growing capture"
    )
    serve.add_argument("--tcp", metavar="HOST:PORT",
                       help="listen for TCP connections (each connection is one "
                            "flow; port 0 binds an ephemeral port)")
    serve.add_argument("--udp", metavar="HOST:PORT",
                       help="listen for UDP datagrams (each peer address is one flow)")
    serve.add_argument("--pcap-tail", metavar="PATH",
                       help="stream records from a pcap capture as they are "
                            "written (classic pcap only, not pcapng)")
    serve.add_argument("--follow", action="store_true",
                       help="with --pcap-tail: keep polling for appended records "
                            "instead of stopping at end of file")
    serve.add_argument("--poll-interval", type=float, default=0.2,
                       help="with --follow: seconds between polls for new records")
    _add_rules_file_arguments(serve)
    _add_ruleset_arguments(serve)
    _add_backend_argument(serve)
    _add_service_arguments(serve)
    serve.add_argument("--max-packets", type=int, default=None,
                       help="stop after scanning this many packets")
    serve.add_argument("--idle-seconds", type=float, default=None,
                       help="stop after this long with no arrivals")
    serve.add_argument("--batch-packets", type=int, default=256,
                       help="scan a batch once this many packets are queued")
    serve.add_argument("--strict", action="store_true",
                       help="with --pcap-tail: fail on frames that cannot be "
                            "decoded (default: skip and count them)")
    _add_reassembly_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    ids = subparsers.add_parser(
        "ids", help="run the mini IDS pipeline over streamed flows"
    )
    ids.add_argument("--size", type=int, default=80, help="number of strings")
    ids.add_argument("--seed", type=int, default=2010, help="generation seed")
    _add_backend_argument(ids)
    ids.add_argument("--flows", type=int, default=12, help="concurrent flows")
    ids.add_argument("--packets-per-flow", type=int, default=3)
    ids.add_argument("--pcap", metavar="PATH",
                     help="replay this capture instead of generating flows")
    _add_rules_file_arguments(
        ids, "build the IDS from this Snort rules file instead of "
             "the synthetic ruleset (requires --pcap)")
    ids.add_argument("--strict", action="store_true",
                     help="with --pcap: fail on frames that cannot be decoded "
                          "(default: skip and count them)")
    _add_reassembly_arguments(ids)
    ids.add_argument("--print-alerts", action="store_true",
                     help="print every alert (backend-independent report)")
    ids.set_defaults(handler=_cmd_ids)

    run = subparsers.add_parser(
        "run", help="execute a declarative pipeline config file (JSON or TOML)"
    )
    run.add_argument("config",
                     help="pipeline config file; relative paths inside it "
                          "resolve against its own directory")
    run.set_defaults(handler=_cmd_run)

    lint = subparsers.add_parser(
        "lint", help="lint a ruleset (or code paths) without compiling it"
    )
    lint.add_argument("--rules", metavar="FILE",
                      help="Snort rules file to lint line by line (default: "
                           "the synthetic --size/--seed ruleset)")
    _add_ruleset_arguments(lint)
    lint.add_argument("--code", nargs="+", metavar="PATH",
                      help="run the CLI error-idiom AST checker over these "
                           "files/directories instead of linting a ruleset")
    lint.add_argument("--json", metavar="PATH",
                      help="also write the diagnostics as a JSON report")
    lint.set_defaults(handler=_cmd_lint)

    verify = subparsers.add_parser(
        "verify", help="statically prove a compiled program correct "
                       "(no traffic scanned)"
    )
    verify.add_argument("--rules", metavar="FILE",
                        help="Snort rules file to compile and verify (default: "
                             "the synthetic --size/--seed ruleset)")
    _add_ruleset_arguments(verify)
    verify.add_argument("--backend", default="dtp",
                        choices=backend_names() + ["all"],
                        help="backend to verify; 'dtp' adds the hardware-level "
                             "checks, 'all' proves cross-backend equivalence")
    verify.add_argument("--device", default="stratix3", choices=sorted(DEVICES))
    verify.add_argument("--json", metavar="PATH",
                        help="also write the diagnostics as a JSON report")
    verify.set_defaults(handler=_cmd_verify)

    table1 = subparsers.add_parser("table1", help="regenerate Table I")
    table1.set_defaults(handler=_cmd_table1)

    table2 = subparsers.add_parser("table2", help="regenerate Table II")
    table2.add_argument("--device", default="stratix3", choices=sorted(DEVICES))
    table2.add_argument("--seed", type=int, default=2010)
    table2.set_defaults(handler=_cmd_table2)

    table3 = subparsers.add_parser("table3", help="regenerate Table III")
    table3.add_argument("--seed", type=int, default=2010)
    table3.set_defaults(handler=_cmd_table3)

    fig6 = subparsers.add_parser("fig6", help="regenerate Figure 6")
    fig6.add_argument("--seed", type=int, default=2010)
    fig6.set_defaults(handler=_cmd_fig6)

    fig7 = subparsers.add_parser("fig7", help="regenerate Figure 7")
    fig7.add_argument("--seed", type=int, default=2010)
    fig7.set_defaults(handler=_cmd_fig7)

    fig8 = subparsers.add_parser("fig8", help="regenerate Figure 8")
    fig8.add_argument("--seed", type=int, default=2010)
    fig8.set_defaults(handler=_cmd_fig8)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EmptyRulesetError as exc:  # an empty-result error, whatever the preset
        print(exc, file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # the way out of an unbounded `serve` / live `run`
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
