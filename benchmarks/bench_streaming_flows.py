"""E13 — streaming flow scan: throughput vs concurrent-flow count.

Not a paper artefact: this measures the flow-scan subsystem layered on top of
the compiled automaton.  Interleaved multi-packet flows (each carrying one
pattern deliberately split across a segment boundary) are pushed through a
:class:`repro.streaming.ScanService`, sweeping the number of
concurrent flows.  Reported per point: scan throughput, cross-segment
detection rate, and flow-table behaviour — including an over-capacity point
where LRU eviction kicks in.

Standalone ``--smoke`` mode is the CI throughput-regression gate for the
batched streaming hot path: it times the dense backend scanning the workload
bare (one ``program.scan_packets`` crossing over every segment, each from a
fresh state: no flow table, no resumed state) and the full
:class:`ScanService` over the identical segments, writes
``BENCH_streaming_smoke.json`` with the service-vs-raw-backend ratio, and
exits non-zero if the service falls past a deliberately generous threshold —
CI containers are noisy, so the gate only catches a real return of the
per-packet-overhead regime, not run-to-run jitter.  It also scans the same
segments through a flow table of half as many slots as flows, so every
batch evicts, and gates the evicting ÷ fitting service seconds: a batch is
one backend crossing either way.

    PYTHONPATH=src python benchmarks/bench_streaming_flows.py --smoke
"""

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, Optional, Sequence

from repro.analysis import format_table
from repro.backend import get_backend
from repro.rulesets import generate_snort_like_ruleset
from repro.streaming import ScanService
from repro.traffic import TrafficGenerator

DEFAULT_SMOKE_OUTPUT = (
    pathlib.Path(__file__).parent / "results" / "BENCH_streaming_smoke.json"
)

BENCH_SEED = 2010
RULESET_SIZE = 200
SEGMENTS_PER_FLOW = 4
SEGMENT_BYTES = 128

#: (concurrent flows, flow-table capacity); the last point forces LRU
#: eviction by giving the table room for only half the flows.
SWEEP = ((16, 4096), (64, 4096), (256, 4096), (512, 4096), (512, 256))

SMOKE_RULESET_SIZE = 40
SMOKE_FLOWS = 32
SMOKE_SEGMENTS_PER_FLOW = 4
SMOKE_SEGMENT_BYTES = 256
SMOKE_REPEATS = 3
#: service may be at most this many times slower than the raw backend before
#: the smoke gate fails; the batched hot path sits near 1.0x, the old
#: per-packet loop sat near 6x, so 3.0 has headroom for CI noise on both
#: sides.
SMOKE_MAX_RATIO = 3.0
#: the over-capacity point's flow table: half the flows, so the batch evicts
SMOKE_EVICTING_CAPACITY = SMOKE_FLOWS // 2
#: evicting ÷ fitting service seconds may be at most this: a batch that
#: evicts is still one crossing (its jobs one segment each here, ~1.1-1.3x),
#: where the per-segment loop it replaced sat near 8x
SMOKE_MAX_EVICTION_RATIO = 2.0
#: rules in the confirm-stage gate's ruleset (positional windows + negation
#: on every rule, patterns absent from the traffic: a pure no-hit workload)
SMOKE_CONFIRM_RULES = 16


def _confirm_rule_lines(count: int):
    """Synthesize confirm-heavy rules whose contents never occur in the
    smoke traffic: every rule carries an anchored window and a negated
    relative content, so the IDS runs the full two-stage pipeline with the
    prefilter reporting nothing — the hot path the gate protects."""
    lines = []
    for index in range(count):
        positive = f"|F0 {index:02X} C3 5A|"
        negated = f"|E1 {index:02X} 99|"
        lines.append(
            "alert ip any any -> any any "
            f'(content:"{positive}"; offset:0; depth:400; '
            f'content:!"{negated}"; distance:0; within:64; '
            f"sid:{9000 + index};)"
        )
    return lines


def run_smoke(repeats: int = SMOKE_REPEATS) -> Dict:
    """Raw dense backend vs full ScanService on identical segments."""
    ruleset = generate_snort_like_ruleset(SMOKE_RULESET_SIZE, seed=BENCH_SEED)
    program = get_backend("dense").compile(ruleset.patterns)
    generator = TrafficGenerator(ruleset, seed=BENCH_SEED + SMOKE_FLOWS)
    flows = generator.flows(
        SMOKE_FLOWS,
        num_packets=SMOKE_SEGMENTS_PER_FLOW,
        split_patterns=1,
        segment_bytes=SMOKE_SEGMENT_BYTES,
    )
    packets = TrafficGenerator.interleave(flows)
    payloads = [packet.payload for packet in packets]
    payload_bytes = sum(len(payload) for payload in payloads)

    from repro.ids import IntrusionDetectionSystem
    from repro.rulesets import parse_rules

    confirm_specs = parse_rules(_confirm_rule_lines(SMOKE_CONFIRM_RULES))

    raw_best = float("inf")
    service_best = float("inf")
    evicting_best = float("inf")
    ids_best = float("inf")
    cross_segment = 0
    evicted = 0
    prefilter_hits = 0
    confirm_alerts = 0
    for _ in range(repeats):
        start = time.perf_counter()
        program.scan_packets(payloads)
        raw_best = min(raw_best, time.perf_counter() - start)

        service = ScanService(program)
        start = time.perf_counter()
        service.scan(packets)
        service_best = min(service_best, time.perf_counter() - start)
        cross_segment = service.stats()["cross_segment_matches"]

        # the same segments through a table of half as many slots as flows
        service = ScanService(program, flow_capacity=SMOKE_EVICTING_CAPACITY)
        start = time.perf_counter()
        service.scan(packets)
        evicting_best = min(evicting_best, time.perf_counter() - start)
        evicted = service.stats()["evicted_flows"]

        # the full two-stage pipeline over the same segments: the confirm
        # rules never hit, so this times prefilter + per-packet candidacy
        # gating + end-of-flow negation finalization on the no-hit path
        ids = IntrusionDetectionSystem.from_specs(confirm_specs, backend="dense")
        start = time.perf_counter()
        alerts = ids.scan_flow(packets) + ids.finish()
        ids_best = min(ids_best, time.perf_counter() - start)
        prefilter_hits = ids.stats.content_matches
        confirm_alerts = len(alerts)

    raw_mb = payload_bytes / raw_best / 1e6
    service_mb = payload_bytes / service_best / 1e6
    ids_mb = payload_bytes / ids_best / 1e6
    ratio = raw_mb / service_mb
    ids_ratio = raw_mb / ids_mb
    eviction_ratio = evicting_best / service_best
    return {
        "generated_by": "benchmarks/bench_streaming_flows.py --smoke",
        "seed": BENCH_SEED,
        "backend": "dense",
        "ruleset_size": SMOKE_RULESET_SIZE,
        "flows": SMOKE_FLOWS,
        "segments_per_flow": SMOKE_SEGMENTS_PER_FLOW,
        "segment_bytes": SMOKE_SEGMENT_BYTES,
        "repeats": repeats,
        "payload_bytes": payload_bytes,
        "cross_segment_matches": cross_segment,
        "raw_backend_mb_per_s": raw_mb,
        "service_mb_per_s": service_mb,
        "service_vs_raw_backend_ratio": ratio,
        "evicting_capacity": SMOKE_EVICTING_CAPACITY,
        "evicted_flows": evicted,
        "evicting_service_mb_per_s": payload_bytes / evicting_best / 1e6,
        "evicting_vs_fitting_ratio": eviction_ratio,
        "max_eviction_ratio": SMOKE_MAX_EVICTION_RATIO,
        "confirm_rules": SMOKE_CONFIRM_RULES,
        "confirm_prefilter_hits": prefilter_hits,
        "confirm_alerts": confirm_alerts,
        "ids_confirm_mb_per_s": ids_mb,
        "ids_confirm_vs_raw_backend_ratio": ids_ratio,
        "max_ratio": SMOKE_MAX_RATIO,
        "within_threshold": ratio <= SMOKE_MAX_RATIO
        and ids_ratio <= SMOKE_MAX_RATIO
        and eviction_ratio <= SMOKE_MAX_EVICTION_RATIO,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="hot-path regression smoke: raw backend vs service")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_SMOKE_OUTPUT)
    parser.add_argument("--repeats", type=int, default=SMOKE_REPEATS)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("the full sweep runs under pytest-benchmark; use --smoke here")

    report = run_smoke(repeats=args.repeats)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"streaming hot-path smoke: raw {report['raw_backend_mb_per_s']:.2f} MB/s, "
        f"service {report['service_mb_per_s']:.2f} MB/s, ratio "
        f"{report['service_vs_raw_backend_ratio']:.2f}x "
        f"(max {report['max_ratio']}x)"
    )
    print(
        f"over-capacity smoke: {report['evicting_capacity']} slots for "
        f"{report['flows']} flows ({report['evicted_flows']} evicted), service "
        f"{report['evicting_service_mb_per_s']:.2f} MB/s, evicting/fitting "
        f"{report['evicting_vs_fitting_ratio']:.2f}x (max {report['max_eviction_ratio']}x)"
    )
    print(
        f"confirm-stage no-hit smoke: ids {report['ids_confirm_mb_per_s']:.2f} "
        f"MB/s over {report['confirm_rules']} windowed+negated rules, ratio "
        f"{report['ids_confirm_vs_raw_backend_ratio']:.2f}x "
        f"(max {report['max_ratio']}x, {report['confirm_prefilter_hits']} "
        f"prefilter hits, {report['confirm_alerts']} alerts)"
    )
    print(f"wrote {args.output}")
    if not report["within_threshold"]:
        print("REGRESSION: service throughput fell past the hot-path threshold",
              file=sys.stderr)
        return 1
    return 0


def test_streaming_smoke_gate(results_dir):
    """The CI gate's report must be structurally sound and within threshold
    on a quiet machine; ratio near 1.0 is the batched hot path working."""
    report = run_smoke()
    path = results_dir / "BENCH_streaming_smoke.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    assert report["raw_backend_mb_per_s"] > 0
    assert report["service_mb_per_s"] > 0
    assert report["cross_segment_matches"] > 0
    assert report["evicted_flows"] > 0
    # the confirm ruleset is built to never hit: all its cost is hot path
    assert report["confirm_prefilter_hits"] == 0
    assert report["confirm_alerts"] == 0
    assert report["within_threshold"], (
        f"service is {report['service_vs_raw_backend_ratio']:.2f}x and the "
        f"confirm-stage ids {report['ids_confirm_vs_raw_backend_ratio']:.2f}x "
        f"slower than the raw backend (max {report['max_ratio']}x); evicting "
        f"is {report['evicting_vs_fitting_ratio']:.2f}x the fitting service "
        f"(max {report['max_eviction_ratio']}x)"
    )


def test_streaming_flow_scaling(benchmark, write_result):
    ruleset = generate_snort_like_ruleset(RULESET_SIZE, seed=BENCH_SEED)
    program = get_backend("dtp").compile(ruleset)
    sid_of = {number: rule.sid for number, rule in enumerate(ruleset)}

    # pre-generate every workload so the timed region is scanning only
    workloads = {}
    for flow_count, capacity in SWEEP:
        generator = TrafficGenerator(ruleset, seed=BENCH_SEED + flow_count + capacity)
        flows = generator.flows(
            flow_count,
            num_packets=SEGMENTS_PER_FLOW,
            split_patterns=1,
            segment_bytes=SEGMENT_BYTES,
        )
        workloads[(flow_count, capacity)] = (
            flows,
            TrafficGenerator.interleave(flows),
        )

    def sweep():
        rows = []
        for flow_count, capacity in SWEEP:
            flows, packets = workloads[(flow_count, capacity)]
            service = ScanService(program, flow_capacity=capacity)
            start = time.perf_counter()
            result = service.scan(packets)
            elapsed = time.perf_counter() - start

            stats = service.stats()
            detected = 0
            events_by_flow = result.events_by_flow()
            for flow in flows:
                key = ScanService.flow_key(flow.packets[0])
                streamed = {
                    sid_of[event.string_number]
                    for event in events_by_flow.get(key, ())
                }
                detected += all(sid in streamed for sid in flow.split_sids)
            rows.append(
                {
                    "flows": flow_count,
                    "capacity": capacity,
                    "packets": result.packets,
                    "kbytes": round(result.bytes_scanned / 1024, 1),
                    "mbit_per_s": round(result.bytes_scanned * 8 / elapsed / 1e6, 2),
                    "events": len(result.events),
                    "cross_segment": stats["cross_segment_matches"],
                    "split_detected": f"{detected}/{flow_count}",
                    "active_flows": stats["active_flows"],
                    "evicted": stats["evicted_flows"],
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=3, iterations=1)
    write_result(
        "streaming_flow_scaling.txt",
        format_table(rows, title="Streaming scan throughput vs concurrent flows"),
    )

    by_key = {(row["flows"], row["capacity"]): row for row in rows}
    # with ample flow-table capacity every split pattern is caught statefully
    for flow_count, capacity in SWEEP[:-1]:
        row = by_key[(flow_count, capacity)]
        assert row["split_detected"] == f"{flow_count}/{flow_count}"
        assert row["evicted"] == 0
        assert row["cross_segment"] >= flow_count
    # the over-capacity point must actually exercise LRU eviction
    assert by_key[(512, 256)]["evicted"] > 0
    assert by_key[(512, 256)]["active_flows"] == 256


if __name__ == "__main__":
    sys.exit(main())
