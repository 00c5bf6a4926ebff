"""The DTP kernel's guaranteed rate: a depth-3 storm against benign chatter.

The paper's lookup table yields the depth-1, -2 and -3 defaults in one cycle,
so its one-byte-per-cycle rate holds whatever the traffic.  The software
form, at the kernel: the registry's ``dtp`` program for the end-to-end
benchmark's 500 synthetic rules scans two batches of the same shape through
``scan_many`` —

* **benign**: ``benign_bulk_dtp``'s flows (48 flows x 8 segments of 1460 B
  of protocol chatter, 0.56 MB), each flow one job;
* **storm**: the same number of jobs and bytes, drawn as a random walk over
  the depth-3 defaults' triples: after each byte pair the walk takes a byte
  whose depth-3 default fires on that pair where one exists, else a byte
  that makes the pair with the last one that a depth-3 default ends in, and
  starts a fresh triple only when neither exists —

alternating, in one process, and fails (exit 1) when the storm's median
ns/B exceeds the benign one's by more than :data:`MAX_STORM_RATIO`.  A ratio
taken on one machine in one process cannot be tripped by a slow runner nor
excused by a fast one.  Both batches' matches are also checked against the
``ac`` backend's, job for job.

The storm makes 99 % of its byte pairs ones after which a depth-3 default
may fire, and a third of its bytes complete a depth-3 default's triple
(benign chatter: 6 % and 1 %).  Readings on a shared 2-core x86-64 host
(median of 7 alternating rounds, seven runs a side): 1.28-1.53 while the
kernel fixed up those *escape* cells with a gather whose size followed the
traffic; 0.76-0.90 since the transitions a depth-3 default prunes are
folded into the kernel's row-displacement table.

    PYTHONPATH=src python benchmarks/bench_dtp_escape_storm.py --output BENCH_dtp_escape_storm.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.backend import ScanState, get_backend

#: the end-to-end benchmark's inputs module, whose rules and chatter this
#: gate shares
E2E = pathlib.Path(__file__).parent / "e2e"

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_dtp_escape_storm.json"

#: item 6's kernel criterion: a storm may cost at most this much more a byte
MAX_STORM_RATIO = 1.15
ROUNDS = 7
SEED = 1


def storm(program, rng: random.Random, size: int) -> bytes:
    """``size`` bytes of a random walk over the depth-3 defaults' triples
    (see the module docstring)."""
    triples = sorted(
        {(*entry.preceding_bytes, byte) for byte, entry in program.defaults.d3.items()}
    )
    firing: Dict[tuple, List[int]] = {}
    ending: Dict[int, List[int]] = {}
    for first, second, byte in triples:
        firing.setdefault((first, second), []).append(byte)
        ending.setdefault(second, []).append(byte)
    out = bytearray(rng.choice(triples))
    while len(out) < size:
        pair = (out[-2], out[-1])
        if pair in firing:
            out.append(rng.choice(firing[pair]))
        elif out[-1] in ending:
            out.append(rng.choice(ending[out[-1]]))
        else:
            out += bytes(rng.choice(triples))
    return bytes(out[:size])


def batches():
    """``(program, ac, {"benign": jobs, "storm": jobs})`` for the benchmark's
    rules: one job per flow, fresh scan states."""
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    from e2e_inputs import WORKLOADS, benign_flows, synthetic_rules

    sizes = WORKLOADS["benign_bulk_dtp"]["sizes"]
    ruleset = synthetic_rules(SEED, sizes["rules"])
    program = get_backend("dtp").compile(ruleset)
    ac = get_backend("ac").compile(ruleset)
    flows = benign_flows(SEED, sizes["flows"], sizes["rounds"], sizes["segment"])
    benign = [b"".join(packet.payload for packet in flow.packets) for flow in flows]
    rng = random.Random(f"storm:{SEED}")
    storms = [storm(program, rng, len(chunk)) for chunk in benign]
    jobs = {
        name: [(ScanState(), chunk) for chunk in chunks]
        for name, chunks in (("benign", benign), ("storm", storms))
    }
    return program, ac, jobs


def run() -> Dict:
    program, ac, jobs = batches()
    correct = {}
    for name, batch in jobs.items():
        found = [matches for matches, _ in program.scan_many(batch)]
        correct[name] = found == [sorted(ac.match(chunk)) for _, chunk in batch]
    samples: Dict[str, List[float]] = {name: [] for name in jobs}
    for _ in range(ROUNDS):
        for name, batch in jobs.items():
            size = sum(len(chunk) for _, chunk in batch)
            start = time.perf_counter()
            program.scan_many(batch)
            samples[name].append((time.perf_counter() - start) * 1e9 / size)
    medians = {name: statistics.median(values) for name, values in samples.items()}
    ratio = medians["storm"] / medians["benign"]
    return {
        "bytes_per_batch": sum(len(chunk) for _, chunk in jobs["benign"]),
        "jobs": len(jobs["benign"]),
        "rounds": ROUNDS,
        "benign_ns_per_byte": medians["benign"],
        "storm_ns_per_byte": medians["storm"],
        "samples_ns_per_byte": samples,
        "storm_over_benign": ratio,
        "max_ratio": MAX_STORM_RATIO,
        "correct": correct,
        "within_threshold": ratio <= MAX_STORM_RATIO and all(correct.values()),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = run()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"dtp kernel: benign {report['benign_ns_per_byte']:.2f} ns/B, storm "
        f"{report['storm_ns_per_byte']:.2f} ns/B, storm / benign "
        f"{report['storm_over_benign']:.2f} (bound {report['max_ratio']:g}); "
        f"matches equal ac's: {report['correct']}"
    )
    print(f"wrote {args.output}")
    if not all(report["correct"].values()):
        print("bench_dtp_escape_storm: the kernel's matches differ from ac's", file=sys.stderr)
        return 1
    if not report["within_threshold"]:
        print("bench_dtp_escape_storm: storm / benign above the bound", file=sys.stderr)
        return 1
    return 0


def test_dtp_escape_storm_gate(results_dir):
    """The gate's report is sound and within its bound on a quiet machine."""
    report = run()
    path = results_dir / "BENCH_dtp_escape_storm.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    assert all(report["correct"].values()), report["correct"]
    assert report["within_threshold"], report["storm_over_benign"]


if __name__ == "__main__":
    sys.exit(main())
