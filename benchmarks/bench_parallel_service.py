"""Parallel shard executor sweep: serial ScanService vs 1/2/4-worker scaling.

Interleaved multi-packet flows are scanned through the serial
:class:`repro.streaming.ScanService` and through
:class:`repro.streaming.ParallelScanService` at several worker counts, over a
sweep of traffic sizes and over two backends (the paper's dtp program and the
software dense automaton).  The machine-readable ``BENCH_parallel.json``
records throughput, the speedup of every worker count against the serial
walk, and — because the two front-ends promise byte-identical reports —
whether the event streams actually matched.

The headline number is ``speedup_at_4_workers_largest``: with ≥4 usable cores
it is expected comfortably above 1.5x (the scan is pure CPU and shards share
nothing).  The report stores ``cpu_count`` next to it because the number is
meaningless without it — on a 1-core container the 4-worker run measures
pure executor overhead, not scaling, and ``cpu_limited`` is set so a
regression gate can tell the two situations apart.

The ``hot_path`` section answers a different question: how much does the
streaming service layer (flow table, sharding, event objects) cost on top of
the raw backend?  It times the dense backend scanning the same segments bare
— ``program.scan(payload)`` per packet, no flow state — and divides by the
serial service throughput on the largest sweep point.  With the batched
``scan_batch`` hot path the ratio sits near 1.0; the recorded target is a
conservative 2.0.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_parallel_service.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_parallel_service.py --smoke    # CI smoke

or through pytest (smoke-sized, asserts the artifact structure):

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_service.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.backend import get_backend
from repro.core import compile_ruleset
from repro.fpga import STRATIX_III
from repro.rulesets import generate_snort_like_ruleset
from repro.streaming import ParallelScanService, ScanService
from repro.traffic import TrafficGenerator

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_parallel.json"

BENCH_SEED = 2010
NUM_SHARDS = 4
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_TARGET = 1.5
BACKENDS = ("dtp", "dense")
HOT_PATH_BACKEND = "dense"
HOT_PATH_TARGET_RATIO = 2.0

FULL_RULESET_SIZE = 200
FULL_FLOW_COUNTS = (64, 256, 1024)
FULL_SEGMENTS_PER_FLOW = 8
FULL_SEGMENT_BYTES = 512

SMOKE_RULESET_SIZE = 40
SMOKE_FLOW_COUNTS = (8,)
SMOKE_SEGMENTS_PER_FLOW = 4
SMOKE_SEGMENT_BYTES = 256


def build_workload(ruleset, flow_count: int, segments: int, segment_bytes: int):
    """Deterministic interleaved flows, each with one boundary-split pattern."""
    generator = TrafficGenerator(ruleset, seed=BENCH_SEED + flow_count)
    flows = generator.flows(
        flow_count,
        num_packets=segments,
        split_patterns=1,
        segment_bytes=segment_bytes,
    )
    return TrafficGenerator.interleave(flows)


def compile_backends(ruleset) -> Dict[str, object]:
    """The two programs under test: the paper's dtp pipeline compile and the
    software dense automaton (the fastest pure-python backend)."""
    return {
        "dtp": compile_ruleset(ruleset, STRATIX_III),
        "dense": get_backend("dense").compile(ruleset.patterns),
    }


def timed_scan(service, packets):
    """Scan one batch on a fresh service; return (seconds, sorted events)."""
    start = time.perf_counter()
    result = service.scan(packets)
    return time.perf_counter() - start, result.events


def raw_backend_mb_per_s(program, packets, repeats: int) -> float:
    """Throughput of the bare backend over the same segments: one
    ``program.scan`` per packet, no flow table, no service machinery."""
    payload_bytes = sum(len(packet.payload) for packet in packets)
    payloads = [packet.payload for packet in packets]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for payload in payloads:
            program.scan(payload)
        best = min(best, time.perf_counter() - start)
    return payload_bytes / best / 1e6


def bench_point(program, packets, repeats: int, worker_counts: Sequence[int]) -> Dict:
    payload_bytes = sum(len(packet.payload) for packet in packets)

    serial_best = float("inf")
    serial_events = None
    for _ in range(repeats):
        seconds, serial_events = timed_scan(
            ScanService(program, num_shards=NUM_SHARDS), packets
        )
        serial_best = min(serial_best, seconds)

    point = {
        "flows": len({event.flow for event in serial_events}) or None,
        "packets": len(packets),
        "payload_bytes": payload_bytes,
        "events": len(serial_events),
        "serial": {
            "seconds": serial_best,
            "mb_per_s": payload_bytes / serial_best / 1e6,
        },
        "workers": {},
    }
    for workers in worker_counts:
        best = float("inf")
        identical = True
        for _ in range(repeats):
            with ParallelScanService(
                program, num_shards=NUM_SHARDS, workers=workers
            ) as service:
                seconds, events = timed_scan(service, packets)
            best = min(best, seconds)
            identical = identical and events == serial_events
        point["workers"][str(workers)] = {
            "seconds": best,
            "mb_per_s": payload_bytes / best / 1e6,
            "speedup_vs_serial": serial_best / best,
            "events_identical": identical,
        }
    return point


def run_sweep(smoke: bool = False, repeats: Optional[int] = None) -> Dict:
    ruleset_size = SMOKE_RULESET_SIZE if smoke else FULL_RULESET_SIZE
    flow_counts = SMOKE_FLOW_COUNTS if smoke else FULL_FLOW_COUNTS
    segments = SMOKE_SEGMENTS_PER_FLOW if smoke else FULL_SEGMENTS_PER_FLOW
    segment_bytes = SMOKE_SEGMENT_BYTES if smoke else FULL_SEGMENT_BYTES
    repeats = repeats if repeats is not None else 2  # best-of, noise-resistant

    ruleset = generate_snort_like_ruleset(ruleset_size, seed=BENCH_SEED)
    programs = compile_backends(ruleset)

    workloads = {
        flow_count: build_workload(ruleset, flow_count, segments, segment_bytes)
        for flow_count in flow_counts
    }
    sweeps: Dict[str, List[Dict]] = {}
    for name in BACKENDS:
        sweeps[name] = [
            bench_point(programs[name], workloads[flow_count], repeats, WORKER_COUNTS)
            for flow_count in flow_counts
        ]

    # hot-path gate: the serial service vs the bare backend, largest workload
    largest_packets = workloads[flow_counts[-1]]
    raw_mb = raw_backend_mb_per_s(programs[HOT_PATH_BACKEND], largest_packets, repeats)
    service_mb = sweeps[HOT_PATH_BACKEND][-1]["serial"]["mb_per_s"]
    hot_path_ratio = raw_mb / service_mb

    cpu_count = os.cpu_count() or 1
    largest = sweeps["dtp"][-1]
    headline = largest["workers"][str(WORKER_COUNTS[-1])]["speedup_vs_serial"]
    report = {
        "generated_by": "benchmarks/bench_parallel_service.py",
        "mode": "smoke" if smoke else "full",
        "seed": BENCH_SEED,
        "ruleset_size": ruleset_size,
        "num_shards": NUM_SHARDS,
        "worker_counts": list(WORKER_COUNTS),
        "segments_per_flow": segments,
        "segment_bytes": segment_bytes,
        "repeats": repeats,
        "cpu_count": cpu_count,
        "backends": list(BACKENDS),
        "sweeps": sweeps,
        "speedup_at_4_workers_largest": headline,
        "speedup_target": SPEEDUP_TARGET,
        "meets_speedup_target": headline >= SPEEDUP_TARGET,
        "cpu_limited": cpu_count < WORKER_COUNTS[-1],
        "hot_path": {
            "backend": HOT_PATH_BACKEND,
            "flows": flow_counts[-1],
            "raw_backend_mb_per_s": raw_mb,
            "serial_service_mb_per_s": service_mb,
            "raw_vs_service_ratio": hot_path_ratio,
            "target_max_ratio": HOT_PATH_TARGET_RATIO,
            "within_target": hot_path_ratio <= HOT_PATH_TARGET_RATIO,
        },
        "events_identical_everywhere": all(
            entry["events_identical"]
            for points in sweeps.values()
            for point in points
            for entry in point["workers"].values()
        ),
    }
    return report


def format_report(report: Dict) -> str:
    lines = [
        f"parallel executor sweep ({report['mode']}): {report['ruleset_size']} strings, "
        f"{report['num_shards']} shards, cpu_count={report['cpu_count']}"
    ]
    header = f"{'backend':>8s} {'payload':>10s} {'serial MB/s':>12s}" + "".join(
        f"{f'{workers}w MB/s':>12s}{f'{workers}w x':>8s}"
        for workers in report["worker_counts"]
    )
    lines.append(header)
    for backend in report["backends"]:
        for point in report["sweeps"][backend]:
            row = (
                f"{backend:>8s} {point['payload_bytes']:>10d} "
                f"{point['serial']['mb_per_s']:>12.2f}"
            )
            for workers in report["worker_counts"]:
                entry = point["workers"][str(workers)]
                row += f"{entry['mb_per_s']:>12.2f}{entry['speedup_vs_serial']:>8.2f}"
            lines.append(row)
    lines.append(
        f"speedup at {report['worker_counts'][-1]} workers on largest payload: "
        f"{report['speedup_at_4_workers_largest']:.2f}x "
        f"(target {report['speedup_target']}x"
        + (", CPU-LIMITED: fewer cores than workers)" if report["cpu_limited"] else ")")
    )
    hot = report["hot_path"]
    lines.append(
        f"hot path ({hot['backend']}, {hot['flows']} flows): raw backend "
        f"{hot['raw_backend_mb_per_s']:.2f} MB/s vs serial service "
        f"{hot['serial_service_mb_per_s']:.2f} MB/s — ratio "
        f"{hot['raw_vs_service_ratio']:.2f}x (target ≤ {hot['target_max_ratio']}x"
        + (")" if hot["within_target"] else ", EXCEEDED)")
    )
    lines.append(
        "event streams byte-identical: "
        + ("yes" if report["events_identical_everywhere"] else "NO — BUG")
    )
    return "\n".join(lines)


def write_report(report: Dict, output: pathlib.Path) -> pathlib.Path:
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return output


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI smoke runs")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    report = run_sweep(smoke=args.smoke, repeats=args.repeats)
    path = write_report(report, args.output)
    print(format_report(report))
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized so the full benchmark run stays fast)
# ----------------------------------------------------------------------
def test_parallel_service_sweep_smoke(results_dir):
    report = run_sweep(smoke=True)
    path = write_report(report, results_dir / "BENCH_parallel_smoke.json")
    assert path.exists()
    assert report["events_identical_everywhere"], (
        "parallel event streams must be byte-identical to the serial service"
    )
    for backend in report["backends"]:
        for point in report["sweeps"][backend]:
            assert point["serial"]["mb_per_s"] > 0
            for entry in point["workers"].values():
                assert entry["mb_per_s"] > 0
    assert "speedup_at_4_workers_largest" in report
    assert report["hot_path"]["raw_backend_mb_per_s"] > 0
    assert report["hot_path"]["serial_service_mb_per_s"] > 0
    # scaling is hardware-dependent (CI containers are often 1-2 cores), so
    # the smoke gate checks correctness and structure, not the speedup itself;
    # the hot-path ratio is gated with a generous threshold by
    # bench_streaming_flows.py --smoke instead


if __name__ == "__main__":
    sys.exit(main())
