"""Session facade overhead: declarative dispatch vs direct composition.

The promise of :mod:`repro.api` is that the facade adds *configuration*,
never cost: a :class:`repro.api.Session` built from a
:class:`~repro.api.PipelineConfig` drives the identical
:class:`repro.streaming.ScanService` a caller would construct by hand.  This
benchmark measures that claim over a sweep of workload sizes: the same
interleaved-flow traffic is scanned through a hand-wired ``ScanService`` and
through ``Session.scan()`` (construction excluded on both sides — the
dispatch path is what the facade could plausibly slow down), and
``BENCH_api.json`` records the per-point overhead plus whether the event
streams matched.

The headline number is ``overhead_at_largest``: the facade must stay within
5 % of direct composition on the largest payload (the gate
``tests``/CI enforce structurally; the JSON carries the measured ratio).
One-time costs — config parsing, lazy compilation — are reported separately
as ``session_setup_seconds`` for context.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_api_overhead.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_api_overhead.py --smoke    # CI smoke

or through pytest (smoke-sized, asserts the artifact structure):

    PYTHONPATH=src python -m pytest benchmarks/bench_api_overhead.py -q
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.api import EngineSpec, PipelineConfig, RulesSpec, Session, SourceSpec
from repro.core import compile_ruleset
from repro.fpga import STRATIX_III
from repro.rulesets import generate_snort_like_ruleset
from repro.streaming import ScanService
from repro.traffic import TrafficGenerator

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_api.json"

BENCH_SEED = 2010
OVERHEAD_TARGET = 0.05  # the facade must stay within 5% on the largest payload

FULL_RULESET_SIZE = 200
FULL_FLOW_COUNTS = (64, 256, 1024)
FULL_SEGMENTS_PER_FLOW = 8
FULL_SEGMENT_BYTES = 512

SMOKE_RULESET_SIZE = 40
SMOKE_FLOW_COUNTS = (8,)
SMOKE_SEGMENTS_PER_FLOW = 4
SMOKE_SEGMENT_BYTES = 256


def build_config(ruleset_size: int, flow_count: int, segments: int,
                 segment_bytes: int) -> PipelineConfig:
    return PipelineConfig(
        mode="stream",
        source=SourceSpec(
            kind="generator",
            flows=flow_count,
            packets_per_flow=segments,
            split_patterns=1,
            segment_bytes=segment_bytes,
            seed=BENCH_SEED + flow_count,
        ),
        rules=RulesSpec(kind="synthetic", size=ruleset_size, seed=BENCH_SEED),
        engine=EngineSpec(backend="dtp"),
    )


def bench_point(config: PipelineConfig, ruleset, repeats: int) -> Dict:
    """Best-of-``repeats`` scan seconds for direct vs Session dispatch.

    Both sides scan on a fresh service per repeat (flow tables are stateful)
    and both get their program compiled outside the timed region, so the
    measurement isolates the dispatch path.
    """
    program = compile_ruleset(ruleset, STRATIX_III)
    generator = TrafficGenerator(ruleset, seed=config.source.seed)
    flows = generator.flows(
        config.source.flows,
        num_packets=config.source.packets_per_flow,
        split_patterns=1,
        segment_bytes=config.source.segment_bytes,
    )
    packets = TrafficGenerator.interleave(flows)
    payload_bytes = sum(len(packet.payload) for packet in packets)

    direct_best = float("inf")
    direct_events = None
    for _ in range(repeats):
        service = ScanService(program)
        start = time.perf_counter()
        direct_events = service.scan(packets).events
        direct_best = min(direct_best, time.perf_counter() - start)

    session_best = float("inf")
    setup_seconds = None
    identical = True
    for _ in range(repeats):
        setup_start = time.perf_counter()
        with Session.from_config(config) as session:
            session.packets  # load the source
            session.service  # build the engine
            if setup_seconds is None:
                setup_seconds = time.perf_counter() - setup_start
            start = time.perf_counter()
            events = session.scan().events
            session_best = min(session_best, time.perf_counter() - start)
        identical = identical and events == direct_events

    overhead = session_best / direct_best - 1.0
    return {
        "flows": config.source.flows,
        "packets": len(packets),
        "payload_bytes": payload_bytes,
        "events": len(direct_events),
        "direct": {
            "seconds": direct_best,
            "mb_per_s": payload_bytes / direct_best / 1e6,
        },
        "session": {
            "seconds": session_best,
            "mb_per_s": payload_bytes / session_best / 1e6,
            "setup_seconds": setup_seconds,
        },
        "overhead": overhead,
        "events_identical": identical,
    }


def run_sweep(smoke: bool = False, repeats: Optional[int] = None) -> Dict:
    ruleset_size = SMOKE_RULESET_SIZE if smoke else FULL_RULESET_SIZE
    flow_counts = SMOKE_FLOW_COUNTS if smoke else FULL_FLOW_COUNTS
    segments = SMOKE_SEGMENTS_PER_FLOW if smoke else FULL_SEGMENTS_PER_FLOW
    segment_bytes = SMOKE_SEGMENT_BYTES if smoke else FULL_SEGMENT_BYTES
    repeats = repeats if repeats is not None else 3  # best-of, noise-resistant

    ruleset = generate_snort_like_ruleset(ruleset_size, seed=BENCH_SEED)
    sweeps: List[Dict] = []
    for flow_count in flow_counts:
        config = build_config(ruleset_size, flow_count, segments, segment_bytes)
        sweeps.append(bench_point(config, ruleset, repeats))

    headline = sweeps[-1]["overhead"]
    return {
        "generated_by": "benchmarks/bench_api_overhead.py",
        "mode": "smoke" if smoke else "full",
        "seed": BENCH_SEED,
        "ruleset_size": ruleset_size,
        "segments_per_flow": segments,
        "segment_bytes": segment_bytes,
        "repeats": repeats,
        "sweeps": sweeps,
        "overhead_at_largest": headline,
        "overhead_target": OVERHEAD_TARGET,
        "meets_overhead_target": headline <= OVERHEAD_TARGET,
        "events_identical_everywhere": all(
            point["events_identical"] for point in sweeps
        ),
    }


def format_report(report: Dict) -> str:
    lines = [
        f"session facade overhead sweep ({report['mode']}): "
        f"{report['ruleset_size']} strings"
    ]
    lines.append(
        f"{'payload':>10s} {'direct MB/s':>12s} {'session MB/s':>13s} {'overhead':>9s}"
    )
    for point in report["sweeps"]:
        lines.append(
            f"{point['payload_bytes']:>10d} {point['direct']['mb_per_s']:>12.2f} "
            f"{point['session']['mb_per_s']:>13.2f} {point['overhead']:>8.2%}"
        )
    lines.append(
        f"overhead on largest payload: {report['overhead_at_largest']:.2%} "
        f"(target ≤ {report['overhead_target']:.0%}, "
        + ("met)" if report["meets_overhead_target"] else "MISSED)")
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
def test_api_overhead_sweep_smoke(results_dir):
    report = run_sweep(smoke=True)
    path = write_report(report, results_dir / "BENCH_api_smoke.json")
    assert path.exists()
    assert report["events_identical_everywhere"], (
        "Session events must be byte-identical to direct composition"
    )
    for point in report["sweeps"]:
        assert point["direct"]["mb_per_s"] > 0
        assert point["session"]["mb_per_s"] > 0
    assert "overhead_at_largest" in report
    # the overhead itself is timing-noise-sensitive on shared CI boxes; the
    # committed full-mode BENCH_api.json carries the representative number


if __name__ == "__main__":
    sys.exit(main())
