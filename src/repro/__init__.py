"""Reproduction of "Ultra-High Throughput String Matching for Deep Packet
Inspection" (Kennedy, Wang, Liu, Liu — DATE 2010).

The package is organised as:

* :mod:`repro.api`      — the declarative pipeline layer: a
  :class:`PipelineConfig` (source + rules + engine + sinks, JSON/TOML
  round-trippable) and the :class:`Session` facade that runs it;
* :mod:`repro.backend`  — the unified :class:`MatcherBackend` /
  :class:`CompiledProgram` protocol and the registry every scan layer
  (streaming, IDS, hardware, CLI) is written against;
* :mod:`repro.core`     — the paper's contribution: the DTP-compressed
  Aho-Corasick automaton, its memory layout, the ruleset -> accelerator
  compiler and the compiled dense-table fast path;
* :mod:`repro.automata` — the Aho-Corasick substrates and Table III's baselines;
* :mod:`repro.rulesets` — synthetic Snort-like rulesets (the paper's workload);
* :mod:`repro.hardware` — cycle-level simulation of the engines/blocks;
* :mod:`repro.fpga`     — device, resource, power and throughput models;
* :mod:`repro.traffic`  — packets, multi-packet flows and traffic generation;
* :mod:`repro.capture`  — pcap/pcapng capture I/O, frame en/decoding and
  replay through every scan layer;
* :mod:`repro.streaming`— stateful flow scanning: cross-packet matching, the
  LRU flow table and the scan service;
* :mod:`repro.ids`      — an end-to-end mini intrusion detection pipeline;
* :mod:`repro.analysis` — the metrics behind every table and figure.

Quick start — compile a synthetic ruleset for a device, then scan a payload
with the registry's program over the same rules:

    >>> from repro import generate_snort_like_ruleset, compile_ruleset, STRATIX_III
    >>> ruleset = generate_snort_like_ruleset(64, seed=7)
    >>> device_program = compile_ruleset(ruleset, STRATIX_III)
    >>> device_program.blocks_per_group
    1
    >>> device_program.throughput_gbps > 40.0
    True
    >>> from repro import get_backend
    >>> program = get_backend("dtp").compile(ruleset)
    >>> pattern = ruleset[0].pattern
    >>> (2 + len(pattern), 0) in program.match(b">>" + pattern + b"<<")
    True

Streaming: a pattern split across packets of one flow is missed by the
per-packet scan but found by the stateful scan service:

    >>> from repro import ScanService, TrafficGenerator
    >>> flow = TrafficGenerator(ruleset, seed=5).flow(num_packets=3, split_patterns=1)
    >>> result = ScanService(program).scan(flow.packets)
    >>> streamed = {ruleset[e.string_number].sid for e in result.events}
    >>> set(flow.split_sids) <= streamed
    True
    >>> per_packet = {ruleset[number].sid
    ...               for packet in flow.packets
    ...               for _, number in program.match(packet.payload)}
    >>> set(flow.split_sids) & per_packet
    set()

Captures round-trip: the flow written as a pcap, read back and replayed,
reports the identical events:

    >>> import io
    >>> from repro import load_packets, write_packets
    >>> capture = io.BytesIO()
    >>> write_packets(capture, flow.packets)
    3
    >>> _ = capture.seek(0)
    >>> replayed, stats = load_packets(capture)
    >>> [p.payload for p in replayed] == [p.payload for p in flow.packets]
    True
    >>> ScanService(program).scan(replayed).events == result.events
    True
"""

__version__ = "0.2.0"

from .api import (
    ContentRule,
    EngineSpec,
    PipelineConfig,
    RulesSpec,
    RunResult,
    Session,
    SinkSpec,
    SourceSpec,
    load_config,
)
from .automata import (
    AhoCorasickDFA,
    AhoCorasickNFA,
    BitmapAhoCorasick,
    PathCompressedAhoCorasick,
    Trie,
)
from .backend import (
    Backend,
    CompiledProgram,
    ScanState,
    all_backends,
    backend_names,
    get_backend,
    register_backend,
)
from .capture import (
    CaptureFile,
    CaptureRecord,
    load_packets,
    read_capture,
    replay_ids,
    replay_scan,
    replay_stream,
    write_packets,
    write_pcap,
    write_pcapng,
)
from .core import (
    AcceleratorProgram,
    CompiledDenseProgram,
    DTPAutomaton,
    DefaultTransitionTable,
    MatchMemory,
    PackedStateMachine,
    build_default_transition_table,
    compile_ruleset,
    pack_state_machine,
    partition_ruleset,
)
from .fpga import (
    CYCLONE_III,
    STRATIX_III,
    FPGADevice,
    PowerModel,
    estimate_resources,
    get_device,
)
from .hardware import HardwareAccelerator, StringMatchingBlock, StringMatchingEngine
from .ids import IDSRule, IntrusionDetectionSystem
from .rulesets import (
    RuleSet,
    generate_paper_rulesets,
    generate_snort_like_ruleset,
    parse_rule,
    reduce_ruleset,
    reduce_to_character_count,
)
from .streaming import (
    FlowEntry,
    FlowKey,
    FlowTable,
    ScanService,
    StreamMatch,
    StreamScanner,
    StreamScanResult,
)
from .traffic import GeneratedFlow, Packet, TrafficGenerator, TrafficProfile

__all__ = [
    "ContentRule",
    "EngineSpec",
    "PipelineConfig",
    "RulesSpec",
    "RunResult",
    "Session",
    "SinkSpec",
    "SourceSpec",
    "load_config",
    "AhoCorasickDFA",
    "AhoCorasickNFA",
    "BitmapAhoCorasick",
    "PathCompressedAhoCorasick",
    "Trie",
    "Backend",
    "CaptureFile",
    "CaptureRecord",
    "load_packets",
    "read_capture",
    "replay_ids",
    "replay_scan",
    "replay_stream",
    "write_packets",
    "write_pcap",
    "write_pcapng",
    "CompiledProgram",
    "all_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "AcceleratorProgram",
    "CompiledDenseProgram",
    "DTPAutomaton",
    "DefaultTransitionTable",
    "MatchMemory",
    "PackedStateMachine",
    "ScanState",
    "build_default_transition_table",
    "compile_ruleset",
    "pack_state_machine",
    "partition_ruleset",
    "CYCLONE_III",
    "STRATIX_III",
    "FPGADevice",
    "PowerModel",
    "estimate_resources",
    "get_device",
    "HardwareAccelerator",
    "StringMatchingBlock",
    "StringMatchingEngine",
    "IDSRule",
    "IntrusionDetectionSystem",
    "RuleSet",
    "generate_paper_rulesets",
    "generate_snort_like_ruleset",
    "parse_rule",
    "reduce_ruleset",
    "reduce_to_character_count",
    "FlowEntry",
    "FlowKey",
    "FlowTable",
    "ScanService",
    "StreamMatch",
    "StreamScanner",
    "StreamScanResult",
    "GeneratedFlow",
    "Packet",
    "TrafficGenerator",
    "TrafficProfile",
    "__version__",
]
