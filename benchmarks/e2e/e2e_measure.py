"""The measuring process: drive the real path, check it, time it, trace it.

Runs in a fresh process per workload (``peak_rss_mb`` is then the
program's, not the input generator's).  It receives only the files
``e2e_inputs`` wrote: every pass builds a *new* ``Session`` from
``pipeline.json`` (empty flow state), times ``Session.from_config`` plus the
first touch of the engine as ``setup_s``, then times ``run()`` — or
``serve()`` plus the ndjson sink for the live workload — from call to
return, and compares the written ndjson with the reference flow by flow.
Every reading is kept as the clock gave it and, beside it, corrected for the
contention a calibration loop saw around it (``correct``).

With tracing on, a first group of passes runs untraced (the base for
``trace.overhead_share``), then the layers' public callables are wrapped
(see ``install_tracing``) and a second group produces the per-layer ledger.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from e2e_inputs import failed_flows, flow_sets_from_ndjson
from e2e_trace import Tracer

#: the one place metric names, units and bounds are declared
CONTRACT_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: metrics of the traced setup span (everything else comes from the pass)
_SETUP_SECONDS = ("rulesets.parse_s", "backend.compile_s", "api.setup_other_s")


def load_contract() -> Dict:
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def units(contract: Dict, section: str) -> Dict[str, str]:
    """``metric name -> unit`` of one section of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in contract[section]}


# ----------------------------------------------------------------------
# driving the program
# ----------------------------------------------------------------------
def open_session(manifest: Dict):
    """``Session.from_config`` on the config *file* + first touch of the engine."""
    from repro.api import Session

    session = Session.from_config(manifest["config"])
    if manifest["mode"] == "ids":
        session.ids
    else:
        session.service
        session.reassembler
    return session


def run_pass(session, manifest: Dict, on_batch: Optional[Callable] = None):
    """One end-to-end pass: source file in, ndjson out.  Returns the stats."""
    if not manifest["serve"]:
        return session.run().stats
    # serve() has no sinks of its own: emit the configured ones over the
    # report's events, which is what an operator's on_batch hook would do
    from repro.api import RunResult
    from repro.api.config import get_sink

    report = session.serve(on_batch=on_batch)
    run = RunResult(mode="stream", events=report.events)
    for spec in session.config.sinks:
        get_sink(spec.kind).emit(session, spec, run)
    stats = session.stats()
    stats["capture"] = {
        "frames": report.source_stats["records"] + report.source_stats["skipped_frames"],
        "skipped": {"undecodable": report.source_stats["skipped_frames"]},
    }
    return stats


def check_output(manifest: Dict) -> Tuple[int, str]:
    """``(failed flows, sha256 of the ndjson)`` for the pass just run."""
    with open(manifest["sink"], "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    try:
        observed = flow_sets_from_ndjson(
            manifest["sink"], manifest["mode"], manifest["packet_flow"]
        )
    except (ValueError, KeyError, IndexError, TypeError):
        return manifest["flows"], digest  # unreadable output fails every flow
    return failed_flows(manifest["reference"], observed), digest


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def install_tracing(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public callables; returns the undo function."""
    import repro.api.config as api_config
    import repro.capture.pcap as capture_pcap
    import repro.capture.replay as capture_replay
    import repro.core.accelerator_config as accelerator_config
    import repro.ids.pipeline as ids_pipeline
    import repro.rulesets.parser as rules_parser
    from repro.backend import Backend, CompiledProgramMixin
    from repro.ids.classifier import HeaderClassifier
    from repro.ids.confirm import ConfirmStage
    from repro.proto.reassembly import TcpReassembler
    from repro.streaming.ingest import LiveIngestor, PcapTailSource
    from repro.streaming.scanner import StreamScanner
    from repro.streaming.service import ScanService

    second_len = lambda self, items, *rest: len(items)
    tracer.wrap(capture_pcap, "read_capture", "capture.read_capture")
    tracer.wrap(capture_replay, "load_packets", "capture.load_packets")
    tracer.wrap_async(PcapTailSource, "run", "capture.tail_read")
    tracer.wrap(TcpReassembler, "process", "proto.process", second_len)
    tracer.wrap(TcpReassembler, "flush_all", "proto.flush_all")
    tracer.wrap(ScanService, "scan", "streaming.service_scan", second_len)
    tracer.wrap(StreamScanner, "scan_batch", "streaming.scan_batch", second_len)
    tracer.wrap(CompiledProgramMixin, "scan_chunk", "backend.scan_chunk",
                lambda self, states, chunk: len(chunk))
    tracer.wrap(HeaderClassifier, "classify", "ids.classify")
    tracer.wrap(ConfirmStage, "check", "ids.check")
    tracer.wrap(ConfirmStage, "finalize_flow", "ids.finalize_flow")
    tracer.wrap(ids_pipeline.IntrusionDetectionSystem, "scan_flow", "ids.scan_flow")
    tracer.wrap(ids_pipeline.IntrusionDetectionSystem, "finish", "ids.finish")
    tracer.wrap(LiveIngestor, "serve", "ingest.serve")
    # setup-time callables
    tracer.wrap(rules_parser, "parse_rules", "rulesets.parse_rules")
    tracer.wrap(Backend, "compile", "backend.compile")
    tracer.wrap(accelerator_config, "compile_ruleset", "backend.compile")
    tracer.wrap(ids_pipeline, "compile_ruleset", "backend.compile")
    # sinks live in a registry of frozen factories: swap the entry
    ndjson = api_config.get_sink("ndjson")
    api_config.register_sink(
        dataclasses.replace(ndjson, emit=tracer.wrapped(ndjson.emit, "api.sink"))
    )

    def undo() -> None:
        api_config.register_sink(ndjson)
        tracer.uninstall()

    return undo


def _percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_ledger(
    names: List[str], traced: Dict, wall: float, setup_factor: float, pass_factor: float
) -> Dict[str, float]:
    """One traced pass's per-layer metrics from its spans and the program's
    own counters (``traced``: what :func:`measure` kept of the pass).

    ``wall`` and every span second are clock readings; the ledger's seconds
    are corrected by the same factors as the pass (:func:`correct`).
    """
    setup, run, stats = traced["setup"], traced["run"], traced["stats"]
    calls, amount = run["calls"], run["amount"]
    out = dict.fromkeys(names, 0.0)
    for name in _SETUP_SECONDS:
        out[name] = setup_factor * setup["seconds"].get(name, 0.0)
    for name, value in run["seconds"].items():
        if name not in _SETUP_SECONDS:
            out[name] = pass_factor * value

    out["backend.table_mb"] = traced["table_bytes"] / 1e6
    out["streaming.evicted_flows"] = traced["evicted_flows"]

    capture = stats.get("capture", {})
    out["capture.frames"] = capture.get("frames", 0)
    out["capture.skipped_frames"] = sum(capture.get("skipped", {}).values())
    out["capture.us_per_frame"] = 1e6 * _ratio(out["capture.decode_s"], out["capture.frames"])

    reassembly = stats.get("reassembly", {})
    for name in ("segments_in", "reordered", "retransmits", "hole_flushes", "evicted_flows"):
        out[f"proto.{name}"] = reassembly.get(name, 0)
    out["proto.us_per_segment"] = 1e6 * _ratio(out["proto.reassembly_s"], out["proto.segments_in"])

    out["backend.scan_calls"] = calls.get("backend.scan_chunk", 0.0)
    out["backend.scan_bytes"] = amount.get("backend.scan_chunk", 0.0)
    out["backend.ns_per_byte"] = 1e9 * _ratio(out["backend.scan_s"], out["backend.scan_bytes"])

    segments = amount.get("streaming.scan_batch", 0.0)
    out["streaming.us_per_segment"] = 1e6 * _ratio(out["streaming.self_s"], segments)
    out["streaming.segments_per_scan_call"] = _ratio(segments, out["backend.scan_calls"])

    out["ids.classify_calls"] = calls.get("ids.classify", 0.0)
    out["ids.confirm_checks"] = calls.get("ids.check", 0.0)
    out["ids.alerts"] = stats.get("ids", {}).get("alerts_raised", 0)
    out["ids.check_yield"] = _ratio(out["ids.alerts"], out["ids.confirm_checks"])

    batch_times = traced["batch_times"]
    gaps = [1e3 * pass_factor * (b - a) for a, b in zip(batch_times, batch_times[1:])]
    out["ingest.batches"] = len(batch_times)
    out["ingest.batch_p50_ms"] = _percentile(gaps, 0.5)
    out["ingest.batch_p90_ms"] = _percentile(gaps, 0.9)

    out["trace.coverage_share"] = 1.0 - _ratio(out["api.self_s"], pass_factor * wall)
    unknown = sorted(set(out) - set(names))
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return out


# ----------------------------------------------------------------------
# the measurement loop
# ----------------------------------------------------------------------
#: the calibration loop, and the machine speed every corrected time is stated
#: at: a machine on which the loop takes 25 ms.  The baseline's box runs it in
#: 24.4 ms at its very best, 30-31 ms on a quiet day and 38-52 ms for minutes
#: at a time when its neighbours are busy.  The constant only fixes the unit:
#: it cancels in every comparison between two commits.
CALIBRATION_ITERATIONS = 1_000_000
REFERENCE_LOOP_S = 0.025


def calibration_loop() -> Tuple[float, float]:
    """``(wall, CPU)`` seconds a fixed pure-Python loop takes *right now*.

    The sandbox's cores are shared with other tenants: the same pass reads
    14-34 % longer in one half-hour than in the next (CPU time inflates with
    the wall clock; ``/proc/stat`` shows no steal and an idle sibling core).
    The loop is the witness of that: it is timed right before and after each
    measured region, see :func:`correct`.
    """
    cpu = time.process_time()
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x += i & 7
    return time.perf_counter() - start, time.process_time() - cpu


def correct(rows: List[Dict]) -> Dict[str, float]:
    """Add contention-corrected seconds to every pass of one run, in place.

    A region's reading is multiplied by ``REFERENCE_LOOP_S / mean of the two
    loop readings around it``, i.e. re-stated at the reference machine speed:
    what slows the loop slows the pass with it (README, "Contention").  Wall
    readings are corrected with the loop's wall time, CPU readings with its
    CPU time.  The clock's own readings stay beside the corrected ones.
    Returns the calibration figures for the result document.
    """
    for row in rows:
        before, between, after = row["loops"]
        row["setup_factor"] = 2 * REFERENCE_LOOP_S / (before[0] + between[0])
        row["pass_factor"] = 2 * REFERENCE_LOOP_S / (between[0] + after[0])
        row["setup_s"] = row["setup_factor"] * row["raw_setup_s"]
        row["wall_s"] = row["pass_factor"] * row["raw_wall_s"]
        row["cpu_s"] = 2 * REFERENCE_LOOP_S / (between[1] + after[1]) * row["raw_cpu_s"]
    loops = [wall for row in rows for wall, _ in row["loops"]]
    return {
        "iterations": CALIBRATION_ITERATIONS,
        "reference_loop_s": REFERENCE_LOOP_S,
        "fastest_loop_s": min(loops),
        "median_loop_s": statistics.median(loops),
        "loops": len(loops),
    }


def peak_rss_mb() -> float:
    """This process's resident high-water mark.

    ``VmHWM`` belongs to the address space ``exec`` created, so it is the
    measuring process's own; ``ru_maxrss`` also carries over the spawning
    (input-generating) process's peak, and is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(samples: List[float]) -> Dict[str, float]:
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def measure(
    manifest: Dict,
    contract: Dict,
    seconds: float,
    trace: bool,
    min_passes: int = 5,
    trace_out: Optional[str] = None,
) -> Dict:
    """Run one workload's passes; returns the result document.

    One warm-up pass, then passes until the loop has run ``seconds`` (at
    least ``min_passes``); every pass is a new ``Session`` and yields one
    ``setup_s`` and one pass sample.  Traced: a third of the budget goes to
    untraced passes (the base of ``trace.overhead_share``), the rest to
    passes with spans recorded.
    """
    payload = manifest["payload_bytes"]
    digests = set()
    failed = attempted = 0
    last_loop = calibration_loop()

    def one_pass(tracer: Optional[Tracer] = None) -> Dict:
        nonlocal failed, attempted, last_loop
        gc.collect()
        traced = None
        batch_times: List[float] = []
        loop_before = last_loop  # taken right after the previous pass
        # the set-up ends with a full collection, so it pays for its own
        # garbage: left to the collector, that walk of the compiled program
        # lands in the set-up on one seed and in the pass on the next (8 % of
        # a dtp pass)
        start = time.perf_counter()
        if tracer is None:
            session = open_session(manifest)
            gc.collect()
        else:
            tracer.reset()
            with tracer.span("setup"):
                session = open_session(manifest)
                gc.collect()
            traced = {"setup": tracer.aggregate()}
            tracer.reset()
        setup = time.perf_counter() - start
        try:
            loop_between = calibration_loop()
            cpu_start = time.process_time()
            start = time.perf_counter()
            if tracer is None:
                stats = run_pass(session, manifest)
            else:
                on_batch = lambda result, packets: batch_times.append(time.perf_counter())
                with tracer.span("api.run"):
                    stats = run_pass(session, manifest, on_batch)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            last_loop = calibration_loop()
            if traced is not None:
                if manifest["mode"] == "ids":
                    program = session.ids.program
                    evicted = session.ids.flow_scanner.flows.stats.evicted
                else:
                    program = session.program
                    evicted = stats["service"]["evicted_flows"]
                memory = getattr(program, "memory_bytes", None) or program.total_memory_bytes
                traced.update(
                    run=tracer.aggregate(), stats=stats, batch_times=batch_times,
                    table_bytes=memory(), evicted_flows=evicted,
                )
        finally:
            session.close()
        bad, digest = check_output(manifest)
        failed += bad
        attempted += manifest["flows"]
        digests.add(digest)
        return {
            "raw_setup_s": setup, "raw_wall_s": wall, "raw_cpu_s": cpu,
            "loops": (loop_before, loop_between, last_loop), "traced": traced,
        }

    def timed_loop(budget: float, floor: int, tracer: Optional[Tracer] = None) -> List[Dict]:
        rows: List[Dict] = []
        begun = time.perf_counter()
        while len(rows) < floor or time.perf_counter() - begun < budget:
            rows.append(one_pass(tracer))
        return rows

    def column(rows: List[Dict], key: str) -> List[float]:
        return [row[key] for row in rows]

    one_pass()  # warm-up: imports, caches, allocator
    failed = attempted = 0
    rows = timed_loop(
        seconds / 3 if trace else seconds, min(3, min_passes) if trace else min_passes
    )
    traced_rows: List[Dict] = []
    if trace:
        tracer = Tracer()
        tracer.calibrate()
        undo = install_tracing(tracer)
        try:
            traced_rows = timed_loop(2 * seconds / 3, min_passes, tracer)
            if trace_out:
                with open(trace_out, "w", encoding="utf-8") as handle:
                    for row in tracer.rows():  # the last pass's spans
                        handle.write(json.dumps(row) + "\n")
        finally:
            undo()
    calibration = correct(rows + traced_rows)
    untraced_wall = statistics.median(column(rows, "wall_s"))

    result: Dict = {
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "trace": trace,
        "payload_bytes": payload,
        "flows": manifest["flows"],
        "calibration": calibration,
        # (a traced run's own passes are not in here: only its untraced third)
        "samples": {
            key: column(rows, key)
            for key in ("setup_s", "wall_s", "cpu_s", "raw_setup_s", "raw_wall_s",
                        "raw_cpu_s", "loops")
        },
    }
    peak_rss = peak_rss_mb()
    mb_per_s = lambda key: _summary([payload / 1e6 / row[key] for row in rows])
    ns_per_byte = lambda key: _summary([1e9 * row[key] / payload for row in rows])
    result["summary"] = {
        "setup_s": _summary(column(rows, "setup_s")),
        "throughput_mb_s": mb_per_s("wall_s"),
        "cpu_ns_per_byte": ns_per_byte("cpu_s"),
        "peak_rss_mb": {"median": peak_rss, "q1": peak_rss, "q3": peak_rss, "samples": 1},
    }
    # the same three as the clock read them, contention included
    result["raw_summary"] = {
        "setup_s": _summary(column(rows, "raw_setup_s")),
        "throughput_mb_s": mb_per_s("raw_wall_s"),
        "cpu_ns_per_byte": ns_per_byte("raw_cpu_s"),
    }
    if not trace:
        metrics = {
            name: {"value": result["summary"][name]["median"], "unit": unit}
            for name, unit in units(contract, "end_to_end").items()
        }
    else:
        layer_units = units(contract, "per_layer")
        ledgers = [
            layer_ledger(
                list(layer_units), row["traced"], row["raw_wall_s"],
                row["setup_factor"], row["pass_factor"],
            )
            for row in traced_rows
        ]
        layers = {
            name: statistics.median(ledger[name] for ledger in ledgers)
            for name in layer_units
        }
        traced_wall = statistics.median(column(traced_rows, "wall_s"))
        layers["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
        result["span_cost_us"] = {
            "inner": 1e6 * tracer.inner_cost, "outer": 1e6 * tracer.outer_cost,
        }
        # with the recorder's own cost taken out, the layers' seconds should
        # add up to the *untraced* wall
        result["ledger_seconds"] = sum(
            layers[name] for name, unit in layer_units.items()
            if unit == "s" and name not in _SETUP_SECONDS
        )
        result["traced_passes"] = len(traced_rows)
        result["traced_wall_s"] = traced_wall
        result["untraced_wall_s"] = untraced_wall
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in layer_units.items()
        }

    result["failed_flows_share"] = failed / attempted
    # a deterministic program writes the same bytes on every pass, traced or not
    result["output_stable"] = len(digests) == 1
    result["output_sha256"] = sorted(digests)
    result["driver"] = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result


def main(argv: List[str]) -> int:
    workdir, seconds, trace, trace_out = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    result = measure(manifest, load_contract(), seconds, trace, trace_out=trace_out or None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # spawned by run.py with the checkout's src/ already on PYTHONPATH
    sys.exit(main(sys.argv[1:]))
