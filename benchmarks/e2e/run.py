#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --seed 7                  # all workloads
    python3 benchmarks/e2e/run.py --workload hit_heavy_confirm --seed 7 \\
        --seconds 8 --trace 0                               # the driver's form

For each workload this process generates the inputs from ``--seed`` (rules
file, pcap, reference output — see ``e2e_inputs``), then starts one fresh
measuring process per run (``e2e_measure``) that drives the real
``Session.from_config(...)`` path over those files and checks its ndjson
against the reference.  ``--trace 0`` yields the end-to-end metrics,
``--trace 1`` the per-layer ledger; without ``--workload`` both runs are made
for every workload in ``BENCHMARK.json``.

The last line of standard output is one JSON object.  With ``--workload`` it
has exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: generated inputs live here while a run lasts: the benchmark may write only
#: inside its checkout, so not under /tmp; git-ignored, removed on exit
WORK_ROOT = BENCH_DIR / ".work"

#: a measuring process must leave the driver's 180 s per-run limit intact
CHILD_TIMEOUT_S = 150


def _measure(workdir: str, seconds: float, trace: bool, trace_out: Optional[str]) -> Dict:
    """One fresh measuring process; returns the result document it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "e2e_measure.py"),
            workdir, repr(seconds), "1" if trace else "0", trace_out or "",
        ],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traces: Sequence[bool],
    trace_out: Optional[str] = None,
) -> Dict:
    """Generate one workload's inputs, then measure it once per ``traces``."""
    from e2e_inputs import build_workload

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    try:
        manifest = build_workload(name, seed, workdir)
        document = {
            "inputs": {
                key: manifest[key]
                for key in (
                    "seed", "mode", "serve", "backend", "sizes", "flows",
                    "frames", "payload_bytes", "planted_pairs", "reference_records",
                    "properties", "sha256",
                )
            }
        }
        for trace in traces:
            document["traced" if trace else "untraced"] = _measure(
                workdir, seconds, trace, trace_out if trace else None
            )
        return document
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def print_metrics(name: str, result: Dict) -> None:
    driver = result["driver"]
    print(
        f"[{name}] {'traced' if result['trace'] else 'untraced'}: "
        f"failed_flows_share {result['failed_flows_share']:.6f} "
        f"({driver['failed']}/{driver['attempted']} flows), "
        f"output_stable {result['output_stable']}"
    )
    summary, raw = result["summary"], result["raw_summary"]
    for metric, entry in driver["metrics"].items():
        extra = ""
        if metric in raw:
            stats = summary[metric]
            extra = (f"  [q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['samples']}; "
                     f"as the clock read: {raw[metric]['median']:.6g}]")
        print(f"  {metric:<34s} {entry['value']:>14.6g} {entry['unit']}{extra}")


def _git_commit() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"  # a bare checkout: do not let git search parent directories
    completed = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return completed.stdout.strip() or "unknown"


def environment() -> Dict:
    import numpy

    return {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_suite(contract: Dict, args: argparse.Namespace) -> Dict:
    """Both runs of every workload in ``BENCHMARK.json``, in its order."""
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    document = {"environment": environment(), "seed": args.seed, "seconds": seconds,
                "workloads": {}}
    for entry in contract["workloads"]:
        name = entry["name"]
        result = run_workload(
            name, args.seed, seconds, (False, True),
            args.trace_out and f"{args.trace_out}.{name}",
        )
        document["workloads"][name] = result
        print_metrics(name, result["untraced"])
        print_metrics(name, result["traced"])
    return document


def medians(document: Dict) -> Dict[str, Dict[str, float]]:
    """``workload -> end-to-end metric -> value`` of one suite document."""
    return {
        name: {
            metric: entry["value"]
            for metric, entry in result["untraced"]["driver"]["metrics"].items()
        }
        for name, result in document["workloads"].items()
    }


def repeat_check(contract: Dict, first: Dict, second: Dict) -> List[str]:
    """Every end-to-end metric of two suite runs agrees within its bound, and
    no flow failed: the acceptance check, runnable by anyone."""
    problems = []
    a, b = medians(first), medians(second)
    for name in a:
        for metric in contract["end_to_end"]:
            base, other = a[name][metric["name"]], b[name][metric["name"]]
            drift = abs(other - base) / base
            verdict = "ok" if drift <= metric["bound"] else "DIFFERS"
            print(
                f"  {name:<24s} {metric['name']:<18s} {base:>12.6g} {other:>12.6g} "
                f"{drift:>7.2%} (bound {metric['bound']:.0%}) {verdict}"
            )
            if drift > metric["bound"]:
                problems.append(f"{name}.{metric['name']} differs by {drift:.2%}")
    for label, document in (("first", first), ("second", second)):
        for name, result in document["workloads"].items():
            for run in ("untraced", "traced"):
                if not result[run]["driver"]["correct"]:
                    problems.append(f"{name} ({label} set, {run}) produced wrong output")
    return problems


def append_history(path: str, document: Dict) -> None:
    row = dict(document["environment"], seed=document["seed"], seconds=document["seconds"],
               workloads=medians(document))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1, help="drives every generated input")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer ledger")
    parser.add_argument("--output", help="write the full result document (JSON) here")
    parser.add_argument("--history", help="append one row per run to this JSON-lines file")
    parser.add_argument("--trace-out", help="write the last traced pass's spans (JSON lines); without "
                             "--workload one file per workload, PATH.<workload>")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the whole set twice; exit 1 if a metric differs "
                             "by more than its bound")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro").is_dir() or not (REPO_ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no program to measure under {REPO_ROOT} (need src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from e2e_measure import load_contract

    contract = load_contract()

    if args.workload:
        names = [entry["name"] for entry in contract["workloads"]]
        if args.workload not in names:
            print(f"run.py: unknown workload {args.workload!r}; available: "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
        trace = bool(args.trace)
        result = run_workload(
            args.workload, args.seed, seconds, (trace,), args.trace_out
        )
        measured = result["traced" if trace else "untraced"]
        print_metrics(args.workload, measured)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(dict(result, environment=environment()), handle, indent=1)
        print(json.dumps(measured["driver"]))
        return 0

    sets = [run_suite(contract, args)]
    problems: List[str] = []
    if args.repeat_check:
        sets.append(run_suite(contract, args))
        print("repeat check: first set vs second set")
        problems = repeat_check(contract, *sets)
    else:
        problems = [
            f"{name} ({run}) produced wrong output"
            for name, result in sets[0]["workloads"].items()
            for run in ("untraced", "traced")
            if not result[run]["driver"]["correct"]
        ]
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    if args.history:
        for document in sets:
            append_history(args.history, document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(sets[0] if len(sets) == 1 else {"sets": sets, "problems": problems},
                      handle, indent=1)
    print(json.dumps({"correct": not problems, "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
