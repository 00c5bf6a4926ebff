"""Tests for the unified MatcherBackend protocol and the dense fast path.

The heart of this file is the randomized cross-backend equivalence test: for
seeded random pattern sets and payloads — delivered whole and chunked at
every split point — every registered backend must report the identical match
set as the reference Aho-Corasick DFA.  That property is what lets the
streaming layer, the IDS and the CLI treat backends as interchangeable.
"""

import ast
import hashlib
import json
import random
import re
from pathlib import Path
from typing import List, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.api import ConfigError, EngineSpec, PipelineConfig, RulesSpec, Session, SourceSpec
from repro.automata import AhoCorasickDFA
from repro.backend import (
    ScanState,
    all_backends,
    backend_names,
    get_backend,
)
from repro.check import verify_cross_backend
from repro.cli import main
from repro.core import CompiledDenseProgram, DTPAutomaton, compile_ruleset
from repro.core import compiled, lanes
from repro.core.dtp_automaton import HARDWARE_MAX_POINTERS
from repro.fpga import CYCLONE_III, STRATIX_III
from repro.hardware import HardwareAccelerator
from repro.ids import IDSRule, IntrusionDetectionSystem
from repro.ids.classifier import HeaderPattern
from repro.proto import TcpReassembler
from repro.rulesets import RuleSet, generate_snort_like_ruleset
from repro.streaming import FlowKey, StreamScanner
from repro.traffic import FiveTuple, Packet, TrafficGenerator

from tests.conftest import (
    EscapeDtpViews,
    FullWarmupLaneCut,
    ReferenceDtpViews,
    block_automaton,
    escape_dtp_lane_hits,
    escape_dtp_scan_lanes,
    full_warmup_dense_scan_lanes,
    full_warmup_dtp_lane_hits,
    full_warmup_dtp_scan_lanes,
    reference_dtp_scan_lanes,
    reference_iter_states,
    reference_scalar_scan,
    reference_scan_packets,
    segment_batch,
    sequenced_scan,
    slab_dtp_lane_hits,
    slab_dtp_scan_lanes,
)

ALL_BACKENDS = tuple(backend_names())


def random_patterns(rng, count, alphabet=b"abcd", max_len=6):
    patterns = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        patterns.append(bytes(rng.choice(alphabet) for _ in range(length)))
    # duplicates are legal; keep them to exercise duplicate pattern ids
    return patterns


def random_payload(rng, patterns, length=90, alphabet=b"abcd"):
    payload = bytearray(rng.choice(alphabet) for _ in range(length))
    # embed a few patterns so the match set is never trivially empty
    for pattern in rng.sample(patterns, min(3, len(patterns))):
        position = rng.randrange(0, max(1, length - len(pattern)))
        payload[position:position + len(pattern)] = pattern
    return bytes(payload)


class TestRegistry:
    def test_all_six_backends_registered(self):
        """The registry holds the five automata, in registration order (the
        sixth, Wu-Manber, is retired); ``verify --backend all`` proves them
        in this order."""
        assert backend_names() == ["ac", "dense", "bitmap", "path", "dtp"]

    def test_unknown_backend_raises_with_listing(self):
        with pytest.raises(KeyError, match="dense"):
            get_backend("no-such-backend")

    def test_compiled_programs_expose_protocol_surface(self):
        patterns = (b"abc", b"bd")
        for backend in all_backends():
            program = backend.compile(patterns)
            assert program.backend_name == backend.name
            assert tuple(program.patterns) == patterns
            matches, state = program.scan_chunk(ScanState(), b"xabc")
            assert matches == [(4, 0)]
            assert isinstance(state, ScanState) and state.offset == 4


class TestCrossBackendEquivalence:
    """Satellite: seeded random workloads, all backends vs the reference DFA."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_whole_payload_equivalence(self, seed):
        rng = random.Random(seed)
        patterns = random_patterns(rng, count=8)
        reference = AhoCorasickDFA.from_patterns(patterns)
        payload = random_payload(rng, patterns)
        expected = sorted(reference.match(payload))
        assert expected, "workload should produce matches"
        for name in ALL_BACKENDS:
            program = get_backend(name).compile(patterns)
            assert sorted(program.match(payload)) == expected, name

    @pytest.mark.parametrize("seed", [3, 11])
    def test_chunked_delivery_at_every_split_point(self, seed):
        rng = random.Random(seed)
        patterns = random_patterns(rng, count=6)
        reference = AhoCorasickDFA.from_patterns(patterns)
        payload = random_payload(rng, patterns, length=60)
        expected = sorted(reference.match(payload))
        for name in ALL_BACKENDS:
            program = get_backend(name).compile(patterns)
            for split in range(len(payload) + 1):
                states = ScanState()
                first, states = program.scan_chunk(states, payload[:split])
                second, states = program.scan_chunk(states, payload[split:])
                assert sorted(list(first) + list(second)) == expected, (name, split)

    def test_three_chunk_delivery(self):
        rng = random.Random(99)
        patterns = random_patterns(rng, count=5)
        reference = AhoCorasickDFA.from_patterns(patterns)
        payload = random_payload(rng, patterns, length=45)
        expected = sorted(reference.match(payload))
        cuts = (0, 10, 17, 31, len(payload))
        for name in ALL_BACKENDS:
            program = get_backend(name).compile(patterns)
            states = ScanState()
            collected = []
            for start, stop in zip(cuts, cuts[1:]):
                matches, states = program.scan_chunk(states, payload[start:stop])
                collected.extend(matches)
            assert sorted(collected) == expected, name

    def test_device_compiled_program_matches_generic_backends(self):
        """The two-block device program's cycle model and the registry's
        ``dtp`` program, compiled from a ``RuleSet``, report what ``dense``
        reports, whole and resumed."""
        ruleset = generate_snort_like_ruleset(40, seed=9)
        program = get_backend("dtp").compile(ruleset)
        accelerator = HardwareAccelerator(compile_ruleset(ruleset, STRATIX_III, blocks_per_group=2))
        dense = get_backend("dense").compile(ruleset.patterns)
        payload = b"##".join(rule.pattern for rule in ruleset)[:400]
        expected = sorted(dense.match(payload))
        assert sorted(program.match(payload)) == sorted(accelerator.match(payload)) == expected
        for split in (0, 13, 200, len(payload)):
            states = ScanState()
            first, states = program.scan_chunk(states, payload[:split])
            second, states = program.scan_chunk(states, payload[split:])
            assert sorted(list(first) + list(second)) == expected


    @pytest.mark.parametrize("short_lanes", (False, True))
    def test_scan_packets_is_one_scan_many_over_fresh_states(
        self, monkeypatch, force_short_lanes, short_lanes
    ):
        """``scan_packets`` crosses into the backend once, every job from a
        fresh state, and reports per payload exactly what one ``match`` a
        payload did (the reference), in the same order."""
        ruleset = generate_snort_like_ruleset(40, seed=9)
        packets = TrafficGenerator(ruleset, seed=10).packets(30)
        payloads = [packet.payload for packet in packets] + [b""]
        programs = [get_backend(name).compile(ruleset.patterns) for name in ALL_BACKENDS]
        for program in programs:
            if short_lanes and hasattr(program, "warmup"):
                force_short_lanes(program)
            crossings = []
            scan_many = program.scan_many

            def counting(jobs, scan_many=scan_many):
                crossings.append([states for states, _ in jobs])
                return scan_many(jobs)

            monkeypatch.setattr(program, "scan_many", counting)
            expected = reference_scan_packets(program, payloads)
            assert any(expected), program.backend_name
            assert program.scan_packets(payloads) == expected, program.backend_name
            (jobs,) = crossings
            assert jobs == [ScanState()] * len(payloads)


#: The one flow :func:`stream_checkpoint` scans.
STREAM_HEADER = FiveTuple("10.0.0.1", "10.0.1.1", 4000, 80, "tcp")


def stream_config(backend: str) -> PipelineConfig:
    """A stream-mode session over 20 synthetic rules on ``backend``."""
    return PipelineConfig(
        mode="stream",
        source=SourceSpec(kind="packets", packets=()),
        rules=RulesSpec(kind="synthetic", size=20, seed=8),
        engine=EngineSpec(backend=backend),
    )


def stream_checkpoint(backend: str, payload: bytes) -> dict:
    """The JSON checkpoint of a stream session that scanned ``payload`` as
    one segment of :data:`STREAM_HEADER`'s flow."""
    with Session.from_config(stream_config(backend)) as session:
        session.scan([Packet(payload=payload, header=STREAM_HEADER, packet_id=0)])
        return json.loads(json.dumps(session.checkpoint()))


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize(
    "values, field",
    (
        ([-1, None, None, 0], "ScanState.state must"),
        ([10**6, None, None, 0], "ScanState.state must"),
        ([0, None, None, -5], "ScanState.offset must"),
        ([0, 300, None, 1], "ScanState.prev1 must"),
        ([0, 97, -1, 2], "ScanState.prev2 must"),
        ([0, 97, 256, 2], "ScanState.prev2 must"),
        ([0, None, None], "takes 4 elements, got 3$"),
        ([0, None, None, 0, "6162"], "got 5: the 5th is a retired Wu-Manber tail"),
        ([0, None, None, 0, None, 0], "takes 4 elements, got 6$"),
    ),
    ids=(
        "state-1", "state-1e6", "offset-5", "prev1-300", "prev2-1", "prev2-256",
        "3-elements", "5-elements", "6-elements",
    ),
)
def test_restore_refuses_a_scan_state_out_of_range(backend, values, field):
    """A checkpointed flow state whose field is out of range — a negative
    state id or offset, a state id at or past the program's state count, a
    history byte outside 0..255, a wrong element count — is refused by
    ``Session.restore``, naming the flow and the field, rather than resumed
    from a state no scan can reach."""
    saved = stream_checkpoint(backend, b"GET / HTTP/1.1")
    (flow,) = saved["flows"]
    flow["states"] = [values]
    with Session.from_config(stream_config(backend)) as session:
        with pytest.raises(ValueError, match=field) as refused:
            session.restore(saved)
    assert repr(FlowKey.from_header(STREAM_HEADER).as_tuple()) in str(refused.value)


#: Two rules over the prefilter strings ``GET`` (0) and ``cmd`` (1).
CONFIRM_RULES = (
    IDSRule(sid=1, header=HeaderPattern(), contents=(b"GET",)),
    IDSRule(sid=2, header=HeaderPattern(), contents=(b"cmd",)),
)


def ids_checkpoint() -> dict:
    """The JSON checkpoint of an IDS over :data:`CONFIRM_RULES` that scanned
    one segment of :data:`STREAM_HEADER`'s flow."""
    with IntrusionDetectionSystem(CONFIRM_RULES, backend="dense") as ids:
        ids.scan_flow([Packet(payload=b"GET / HTTP/1.1", header=STREAM_HEADER, packet_id=0)])
        return json.loads(json.dumps(ids.checkpoint()))


@pytest.mark.parametrize(
    "field, value, message",
    (
        ("candidates", [1, 2, 999], "candidates: sid 999 is not a loaded rule's"),
        ("alerted", [999], "alerted: sid 999 is not a loaded rule's"),
        ("positions", {"0": [3], "2": [9]}, "positions: string 2 is not one of the program's 2"),
        ("lower_positions", {"-1": [3]}, "lower_positions: string -1 is not one"),
        ("key", ["10.9.9.9", "10.0.1.1", 4000, 80, "tcp"], "key: not in the flow table"),
    ),
    ids=("candidates", "alerted", "positions", "lower_positions", "key"),
)
def test_restore_refuses_a_confirm_flow_out_of_range(field, value, message):
    """A confirm flow naming a sid no rule has, a string number the program
    lacks, or a flow the checkpoint's table never held is refused by the
    IDS's restore, naming the flow and the field, and nothing is restored."""
    saved = ids_checkpoint()
    (flow,) = saved["confirm"]["flows"]
    assert (flow["candidates"], flow["alerted"], flow["positions"]) == ([1, 2], [1], {"0": [3]})
    flow[field] = value
    with IntrusionDetectionSystem(CONFIRM_RULES, backend="dense") as ids:
        with pytest.raises(ValueError, match=message) as refused:
            ids.restore(saved)
        assert len(ids.flow_scanner.flows) == 0
    assert repr(FlowKey(*flow["key"]).as_tuple()) in str(refused.value)


def restore_stream_key(key):
    """``Session.restore`` (``FlowEntry.from_dict``) of a service flow keyed ``key``."""
    saved = stream_checkpoint("dense", b"GET / HTTP/1.1")
    saved["flows"][0]["key"] = key
    with Session.from_config(stream_config("dense")) as session:
        session.restore(saved)


def restore_reassembly_key(max_flows):
    """``TcpReassembler.restore`` (``_FlowState.from_dict``) into ``max_flows``
    flows of a checkpoint whose least recently used flow is keyed ``key``:
    kept, or dropped for capacity."""
    def restore(key):
        reassembler = TcpReassembler()
        for port in (4000, 4001):
            header = FiveTuple("10.0.0.1", "10.0.1.1", port, 80, "tcp")
            reassembler.feed(Packet(payload=b"GET", header=header, tcp_seq=100, tcp_flags=0x10))
        saved = json.loads(json.dumps(reassembler.checkpoint()))
        saved["flows"][0]["key"] = key
        TcpReassembler.restore(saved, max_flows=max_flows)
    return restore


def restore_ids_key(part):
    """``IntrusionDetectionSystem.restore`` of a checkpoint whose ``part`` —
    the flow table's flow (the ``held`` set) or the confirm stage's
    (``ConfirmStage.restore``) — is keyed ``key``."""
    def restore(key):
        saved = ids_checkpoint()
        saved[part]["flows"][0]["key"] = key
        with IntrusionDetectionSystem(CONFIRM_RULES, backend="dense") as ids:
            ids.restore(saved)
    return restore


@pytest.mark.parametrize(
    "restore",
    (restore_stream_key, restore_reassembly_key(2), restore_reassembly_key(1),
     restore_ids_key("service"), restore_ids_key("confirm")),
    ids=("flow-table", "reassembler", "reassembler-dropped", "ids-held", "confirm"),
)
@pytest.mark.parametrize(
    "key, message",
    (
        (["10.0.0.1", "10.0.1.1", 4000], "key: a flow key is the 5 fields src_ip, dst_ip, "),
        (["10.0.0.1", "10.0.1.1", 70000, 80, "tcp"], "key: src_port 70000 out of range"),
        (["10.0.0.1", "10.0.1.1", 4000, "x", "tcp"], "key: dst_port 'x' is not an integer"),
        (["10.0.0.1", "10.0.1.1", 80.5, 80, "tcp"], "key: src_port 80.5 is not an integer"),
    ),
    ids=("3-fields", "port-70000", "port-x", "port-80.5"),
)
def test_restore_refuses_a_flow_key_from_outside(restore, key, message):
    """Every reader of a checkpointed flow key takes it through one checked
    path (``FiveTuple.from_checkpoint``): a key that is not five fields, or
    whose port is not an integer in 0..65535, is a ``ValueError`` naming the
    flow and the field — never a bare ``TypeError``, a truncated port or a
    port past 65535 resumed as a flow."""
    with pytest.raises(ValueError, match=re.escape(message)) as refused:
        restore(key)
    assert repr(key) in str(refused.value)


def test_the_retired_wu_manber_backend_fails_by_name(capsys):
    """Wu-Manber is retired, and every way in names it: a 5-element
    checkpoint (its ``tail``), the engine's ``backend`` key, the CLI's
    ``--backend`` and the import."""
    with pytest.raises(ValueError, match="the 5th is a retired Wu-Manber tail"):
        ScanState.from_tuple([0, None, None, 0, "6162"])
    with pytest.raises(ConfigError, match="unknown backend 'wu-manber'"):
        EngineSpec(backend="wu-manber")
    for command in ("scan-stream", "verify"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--backend", "wu-manber"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'wu-manber'" in capsys.readouterr().err
    with pytest.raises(ImportError, match="WuManber"):
        from repro.automata import WuManber  # noqa: F401


class TestScanState:
    def test_from_tuple_coerces_floats(self):
        """Satellite: JSON checkpoints with float fields must not poison
        the integer history comparisons of the default-transition lookup."""
        restored = ScanState.from_tuple((3.0, 97.0, 98.0, 12.0))
        assert restored == ScanState(state=3, prev1=97, prev2=98, offset=12)
        assert isinstance(restored.prev1, int)
        assert isinstance(restored.prev2, int)

    def test_from_tuple_keeps_none_history(self):
        restored = ScanState.from_tuple((0, None, None, 0))
        assert restored.prev1 is None and restored.prev2 is None

    def test_float_checkpoint_resumes_identically(self):
        dtp = DTPAutomaton.from_patterns([b"abab", b"bab"])
        stream = b"xxababxbabab"
        _, mid = dtp.scan_chunk(ScanState(), stream[:5])
        # simulate a float-typed JSON round trip of the checkpoint
        contaminated = ScanState.from_tuple(tuple(map(
            lambda v: float(v) if v is not None else None, mid.as_tuple()
        )))
        clean_matches, _ = dtp.scan_chunk(mid, stream[5:])
        restored_matches, _ = dtp.scan_chunk(contaminated, stream[5:])
        assert restored_matches == clean_matches

    def test_legacy_four_tuple_still_restores(self):
        assert ScanState.from_tuple((5, 1, 2, 9)) == ScanState(5, 1, 2, 9)


class TestStreamingAcrossBackends:
    @pytest.mark.parametrize("name", ["dense", "ac", "bitmap", "path"])
    def test_stream_scanner_equals_dtp_on_split_flows(self, name):
        from tests.conftest import assert_equivalent_events

        ruleset = generate_snort_like_ruleset(30, seed=6)
        flows = TrafficGenerator(ruleset, seed=7).flows(
            5, num_packets=3, split_patterns=1
        )
        packets = TrafficGenerator.interleave(flows)
        reference = assert_equivalent_events(
            ruleset,
            packets,
            backends=("dtp", name),
            sources=("memory",),
        )
        assert reference.events, "boundary-split flows should produce events"

    @pytest.mark.parametrize("name", backend_names())
    def test_flow_checkpoint_resumes_a_split_string(self, name):
        """A flow stopped mid-string resumes from its JSON flow-table
        checkpoint: the four registers alone carry the partial match."""
        program = get_backend(name).compile([b"needle"])
        scanner = StreamScanner(program, flow_capacity=4)
        key = FlowKey("1.1.1.1", "2.2.2.2", 1, 2, "tcp")
        assert sequenced_scan(scanner, segment_batch([(key, b"xxxxneed", 0)]))[:2] == ({}, [])
        checkpoint = json.loads(json.dumps(scanner.flows.checkpoint()))
        scanner.restore(checkpoint)
        hits, _, _ = sequenced_scan(scanner, segment_batch([(key, b"le-and-more", 1)]))
        assert [(m.end_offset, m.string_number) for m in hits[0]] == [(10, 0)]


class TestDenseProgram:
    def test_from_automaton_accepts_dfa_and_dtp(self):
        patterns = [b"cat", b"attack"]
        dfa = AhoCorasickDFA.from_patterns(patterns)
        payload = b"a cat attack!"
        expected = sorted(dfa.match(payload))
        from_dfa = CompiledDenseProgram.from_automaton(dfa)
        from_dtp = CompiledDenseProgram.from_automaton(DTPAutomaton(dfa))
        assert sorted(from_dfa.match(payload)) == expected
        assert sorted(from_dtp.match(payload)) == expected

    def test_from_automaton_rejects_unknown_objects(self):
        with pytest.raises(TypeError):
            CompiledDenseProgram.from_automaton(object())

    def test_packed_match_arrays_mirror_outputs(self):
        program = CompiledDenseProgram.from_patterns([b"ab", b"b", b"ab"])
        dfa = AhoCorasickDFA.from_patterns([b"ab", b"b", b"ab"])
        for state in range(program.num_states):
            assert sorted(program.matches_of(state)) == sorted(dfa.outputs[state])

    def test_memory_accounting(self):
        program = CompiledDenseProgram.from_patterns([b"abc"])
        arrays = (
            program.premultiplied, program.match_flags, program.value_depth,
            program.match_index, program.match_pids,
        )
        array_bytes = sum(array.nbytes for array in arrays)
        assert program.memory_bytes() == array_bytes
        assert program.match(b"xxabcx") == [(5, 0)]  # a scan builds nothing
        assert program.memory_bytes() == array_bytes
        assert program.memory_words() == -(-program.memory_bytes() * 8 // 324)

    def test_memory_accounting_counts_boxed_matching_targets(self):
        """A match past CPython's small-int cache (a matching target ``t =
        8``) once cost a boxed int in a scalar row; the kernel holds no rows,
        so the footprint is the arrays' before and after the scan."""
        program = CompiledDenseProgram.from_patterns([b"abcdefgh"])
        array_bytes = sum(
            array.nbytes for array in (
                program.premultiplied, program.match_flags, program.value_depth,
                program.match_index, program.match_pids,
            )
        )
        assert program.memory_bytes() == array_bytes
        assert program.match(b"abcdefgh") == [(8, 0)]
        assert program.memory_bytes() == array_bytes

    def test_premultiplied_index_never_wraps(self):
        """A flagged index ``(t << 8) + N + byte`` stays below ``2 * N``
        (``N = states * 256``), so ``int32`` holds it up to 2**22 states: from
        there on the table must be built in ``int64``, not wrap silently."""
        import numpy as np

        limit = compiled.INT32_MAX_STATES
        assert compiled.premultiplied_dtype(limit) == np.int32
        size = limit * 256
        assert ((limit - 1) << 8) + size + 255 == 2 * size - 1 == np.iinfo(np.int32).max
        assert compiled.premultiplied_dtype(limit + 1) == np.int64  # 2 * N + 511 would wrap
        assert compiled.premultiplied_dtype(10 * limit) == np.int64

    def test_int64_fallback_scans_identically(self, monkeypatch):
        """The same kernel over an ``int64`` table, chosen through a small
        state limit: identical matches and final states on a batch of flows
        that resume mid-pattern and cross every slab of the walk."""
        import numpy as np

        ruleset = generate_snort_like_ruleset(40, seed=31)
        narrow = CompiledDenseProgram.from_patterns(ruleset.patterns)
        monkeypatch.setattr(compiled, "INT32_MAX_STATES", 16)
        wide = CompiledDenseProgram.from_patterns(ruleset.patterns)
        assert (narrow.premultiplied.dtype, wide.premultiplied.dtype) == (np.int32, np.int64)
        assert np.array_equal(narrow.premultiplied, wide.premultiplied)
        monkeypatch.setattr(lanes, "SLAB_CELLS", 64)
        rng = random.Random(32)
        jobs = []
        for _ in range(12):
            body = random_payload(rng, list(ruleset.patterns), length=rng.randrange(600, 1400))
            _, states = reference_scalar_scan(narrow, ScanState(), body[:7])
            jobs.append((states, body[7:]))
        found = narrow.scan_many(jobs)
        assert found == wide.scan_many(jobs)
        assert found == [reference_scalar_scan(narrow, states, body) for states, body in jobs]
        assert any(matches for matches, _ in found)

    def test_kernel_walks_an_int64_table(self, monkeypatch):
        """The wide-index variant is the same kernel over another dtype."""
        import numpy as np

        monkeypatch.setattr(compiled, "premultiplied_dtype", lambda n: np.dtype(np.int64))
        patterns = [b"he", b"she", b"hers", b"his"]
        program = CompiledDenseProgram.from_patterns(patterns)
        assert program.premultiplied.dtype == np.int64
        payload = b"ushers and his sheep; she said hers" * 7
        assert program.match(payload) == AhoCorasickDFA.from_patterns(patterns).match(payload)


# ----------------------------------------------------------------------
# the lane kernel: every cut a batch can make, against the reference DFA
# ----------------------------------------------------------------------
LANE_PATTERNS = [
    b"he", b"she", b"hers", b"e", b"abcdef", b"cde", b"ef", b"\x00\x00", b"\x00\x00\x01",
]


def final_state(reference, payload):
    """The reference DFA's state after ``payload`` from the root."""
    state = 0
    for state in reference.iter_states(payload):
        pass
    return state


class TestLaneKernel:
    """The dense kernel; :class:`TestDtpLaneKernel` reruns every test here
    on the DTP kernel through the same driver."""

    compile = staticmethod(CompiledDenseProgram.from_patterns)
    lanes_per_tile = 3
    slab_rows = 4

    @pytest.fixture(autouse=True)
    def against_the_references(self, monkeypatch):
        """Every kernel call of every test here is also held to the driver
        and walk that warmed every lane up over the longest pattern."""
        kernel = CompiledDenseProgram._scan_lanes

        def checked(program, flow_states, batch):
            found = kernel(program, flow_states, batch)
            assert found == full_warmup_dense_scan_lanes(program, flow_states, batch)
            return found

        monkeypatch.setattr(CompiledDenseProgram, "_scan_lanes", checked)

    @pytest.fixture
    def short_lanes(self, force_short_lanes):
        """The kernel on every call, 6-byte lanes, three lanes a tile, slabs
        of four steps (a slab edge two bytes before every lane's end)."""
        program = self.compile(LANE_PATTERNS)
        lane_len = force_short_lanes(program, self.lanes_per_tile, self.slab_rows)
        assert lane_len == 6
        return program, AhoCorasickDFA.from_patterns(LANE_PATTERNS), lane_len

    def test_every_pattern_at_every_offset_across_cuts_and_tiles(self, short_lanes):
        """One job of eight lanes (three tiles): each pattern slides over
        every lane cut and tile boundary; match lists are compared in order,
        so patterns ending on the same byte must come out in output order."""
        program, reference, lane_len = short_lanes
        length = 8 * lane_len + 3  # not a whole number of lanes either
        for pattern in LANE_PATTERNS:
            for offset in range(length - len(pattern) + 1):
                payload = bytearray(b"x" * length)
                payload[offset:offset + len(pattern)] = pattern
                payload = bytes(payload)
                expected = reference.match(payload)
                assert expected
                assert program.match(payload) == expected, (pattern, offset)
                assert reference_scalar_scan(program, ScanState(), payload)[0] == expected

    def test_padding_is_never_reported(self, short_lanes):
        """A short last lane walks zero padding: the all-zero pattern must
        not match there, nor in the lead before the first job — and a fresh
        flow has no bytes before its first: the zeros in front of it in the
        packed buffer must not complete ``00 00`` or ``00 00 01`` (for the
        dtp kernel: fire a depth-2/3 default)."""
        program, reference, lane_len = short_lanes
        for length in range(1, 3 * lane_len):
            for payload in (b"\x00" * length, b"\x00" * (length - 1) + b"\x01"):
                assert program.match(payload) == reference.match(payload), payload
        # ... nor when the fresh flows sit behind other jobs' bytes and padding
        payloads = [b"\x00", b"\x01", b"\x00\x01", b"\x00\x00", b"\x01\x00\x00\x01", b"\x00"]
        results = program.scan_many([(ScanState(), p) for p in payloads])
        assert [m for m, _ in results] == [reference.match(p) for p in payloads]
        assert [s.state for _, s in results] == [final_state(reference, p) for p in payloads]

    def test_jobs_of_every_awkward_length_with_carried_state(self, short_lanes):
        """scan_many over jobs of length 0, 1, lane_len - 1, lane_len,
        lane_len + 1, ...: each resumes a different flow mid-pattern, so the
        first byte of a job completes a match only through its carried state,
        and a pattern straddles every job boundary of the packed buffer."""
        program, reference, lane_len = short_lanes
        period = b"xshersxabcdefx"
        stream = period * 12
        lengths = [0, 1, 2, lane_len - 1, lane_len, lane_len + 1, 2 * lane_len,
                   3 * lane_len + 2, 0, 5, 1]
        for head in range(1, len(period) + 1):
            jobs, expected = [], []
            for flow, length in enumerate(lengths):
                prefix = stream[flow:flow + head]  # a different phase per flow
                body = stream[flow + head:flow + head + length]
                before, states = reference_scalar_scan(program, ScanState(), prefix)
                jobs.append((states, body))
                expected.append(reference.match(prefix + body)[len(before):])
            results = program.scan_many(jobs)
            assert [matches for matches, _ in results] == expected, head
            for (states, body), (_, after) in zip(jobs, results):
                # state id, history and offset all carry on
                assert after == reference_scalar_scan(program, states, body)[1]

    def test_one_shot_streamed_batched_and_scalar_agree(self, short_lanes):
        program, reference, lane_len = short_lanes
        rng = random.Random(77)
        for _ in range(40):
            payload = random_payload(
                rng, LANE_PATTERNS[:7], length=5 * lane_len + rng.randrange(7),
                alphabet=b"hesrabcdf",
            )
            expected = reference.match(payload)
            ended = final_state(reference, payload)
            assert program.match(payload) == expected
            one_shot = program.scan_chunk(ScanState(), payload)
            assert one_shot == reference_scalar_scan(program, ScanState(), payload)
            assert (one_shot[0], one_shot[1].state) == (expected, ended)
            cuts = sorted(rng.sample(range(len(payload) + 1), 3))
            pieces = [payload[a:b] for a, b in zip([0] + cuts, cuts + [len(payload)])]
            states, streamed = ScanState(), []
            for piece in pieces:
                found, states = program.scan_chunk(states, piece)
                streamed.extend(found)
            assert (streamed, states) == one_shot
            # the same pieces as four independent flows in one batch
            batched = program.scan_many(
                [(ScanState(), piece) for piece in pieces]
            )
            assert [m for m, _ in batched] == [reference.match(piece) for piece in pieces]

    def test_final_state_on_a_slab_edge(self, short_lanes):
        """Jobs whose last byte is a slab's last row — the row the next slab
        starts from — and the rows either side of it, in a job's first lane
        and in later ones, each resuming a flow mid-pattern: every final
        state, history and offset is the scalar loop's."""
        program, reference, lane_len = short_lanes
        stream = b"xshersxabcdefxhe" * 4
        edge = min(self.slab_rows, lane_len)
        lengths = [
            whole * lane_len + edge + delta
            for whole in (0, 1, 2) for delta in (-1, 0, 1) if edge + delta > 0
        ]
        for head in range(1, 16):
            jobs = [
                (reference_scalar_scan(program, ScanState(), stream[:head])[1],
                 stream[head:head + length])
                for length in lengths
            ]
            results = program.scan_many(jobs)
            assert results == [
                reference_scalar_scan(program, states, body) for states, body in jobs
            ]

    def test_hits_in_the_first_and_last_cell_of_a_slab(self, short_lanes):
        """A slab with no hit, then one that reports in its first cell (first
        lane, first row), its last (last lane, last row), or both: each is
        found and mapped back to its lane and byte."""
        program, reference, lane_len = short_lanes
        first = self.slab_rows
        last = (self.lanes_per_tile - 1) * lane_len + min(2 * self.slab_rows, lane_len) - 1
        for cells in ((first,), (last,), (first, last)):
            payload = bytearray(b"x" * (self.lanes_per_tile * lane_len))
            for cell in cells:
                payload[cell] = ord("e")
            payload = bytes(payload)
            expected = reference.match(payload)
            assert [end for end, _ in expected] == [cell + 1 for cell in cells]
            assert program.match(payload) == expected
            # ... and with the tile's lanes spread over three jobs
            pieces = [payload[low:low + lane_len] for low in range(0, len(payload), lane_len)]
            results = program.scan_many([(ScanState(), p) for p in pieces])
            assert [m for m, _ in results] == [reference.match(p) for p in pieces]

    def test_matches_the_tiled_walk_on_random_batches(self, short_lanes):
        """Randomized batches — empty, short and multi-lane jobs, each
        resuming a flow mid-stream — against the driver and walk this kernel
        had before slab-rolled history (``tests/conftest.py``), with the
        forced geometry here and the derived one below."""
        program, reference, lane_len = short_lanes
        rng = random.Random(41)
        for _ in range(30):
            jobs = []
            for _ in range(rng.randrange(1, 9)):
                length = rng.choice((0, 1, lane_len - 1, rng.randrange(40)))
                stream = random_payload(
                    rng, LANE_PATTERNS, length=length + 12, alphabet=b"hesrabcdfx\x00\x01"
                )
                head = rng.randrange(12)
                _, states = reference_scalar_scan(program, ScanState(), stream[:head])
                jobs.append((states, stream[head:head + length]))
            batch = lanes.LaneBatch([chunk for _, chunk in jobs])
            flow_states = [states for states, _ in jobs]
            assert program._scan_lanes(flow_states, batch) == self.tiled_walk(
                program, flow_states, batch
            )

    def test_matches_the_tiled_walk_on_real_sized_batches(self):
        """Nothing forced: a 60-rule program over batches of up to 60 flows
        of up to 4 KB with planted strings, against the previous driver."""
        ruleset = generate_snort_like_ruleset(60, seed=43)
        program = self.compile(ruleset.patterns)
        patterns = list(ruleset.patterns)
        rng = random.Random(44)
        for _ in range(4):
            jobs = []
            for _ in range(rng.randrange(20, 60)):
                body = bytearray(rng.randbytes(rng.choice((0, 5, rng.randrange(4096)))))
                for pattern in rng.sample(patterns, 3):
                    if len(body) > len(pattern):
                        offset = rng.randrange(len(body) - len(pattern))
                        body[offset:offset + len(pattern)] = pattern
                head = rng.choice(patterns)[: rng.randrange(1, 8)]
                _, states = reference_scalar_scan(program, ScanState(), head)
                jobs.append((states, bytes(body)))
            batch = lanes.LaneBatch([chunk for _, chunk in jobs])
            flow_states = [states for states, _ in jobs]
            found = program._scan_lanes(flow_states, batch)
            assert found == self.tiled_walk(program, flow_states, batch)
            assert any(matches for matches, _ in found)

    @staticmethod
    def tiled_walk(program, flow_states, batch):
        from tests.conftest import reference_dense_scan_lanes

        return reference_dense_scan_lanes(program, flow_states, batch)

    def test_a_pattern_longer_than_any_derived_lane(self):
        """Nothing forced: the derived lane length must stay >= the longest
        pattern, or a lane's warm-up would start mid-pattern and the match
        ending just after a cut would silently vanish."""
        rng = random.Random(3)
        long_pattern = bytes(rng.randrange(1, 256) for _ in range(700))
        patterns = [long_pattern, b"needle"]
        program = self.compile(patterns)
        reference = AhoCorasickDFA.from_patterns(patterns)
        for total in (0, 1, 700, 4096, 1 << 16, 1 << 24):
            assert lanes.lane_length(program.warmup, total) >= program.warmup == 700
        size = 3 * 4096
        lane_len = lanes.lane_length(program.warmup, size)
        for offset in (lane_len - 699, lane_len - 350, lane_len - 1, lane_len, 2 * lane_len + 5):
            payload = bytearray(b"y" * size)
            payload[offset:offset + 700] = long_pattern
            payload[offset + 700:offset + 706] = b"needle"
            assert program.match(bytes(payload)) == reference.match(bytes(payload)), offset

    def test_derived_lanes_on_a_real_sized_batch(self):
        """Nothing forced: 40 flows x 2 KB with planted strings, one
        scan_many call vs one reference match per flow."""
        ruleset = generate_snort_like_ruleset(60, seed=12)
        program = self.compile(ruleset.patterns)
        reference = AhoCorasickDFA.from_patterns(ruleset.patterns)
        rng = random.Random(13)
        payloads = []
        for _ in range(40):
            body = bytearray(rng.randrange(256) for _ in range(2048 + rng.randrange(64)))
            for pattern in rng.sample(list(ruleset.patterns), 4):
                offset = rng.randrange(len(body) - len(pattern))
                body[offset:offset + len(pattern)] = pattern
            payloads.append(bytes(body))
        results = program.scan_many(
            [(ScanState(), payload) for payload in payloads]
        )
        assert [m for m, _ in results] == [reference.match(p) for p in payloads]
        assert any(m for m, _ in results)


class TestDtpLaneKernel(TestLaneKernel):
    """Every cut above through the DTP kernel — stored pointers in the
    row-displacement table, everything else by default transition — plus what
    only that kernel has: the two-byte history a default compares.

    Every kernel call of every test here is also held to the previous DTP
    kernels in ``tests/conftest.py``: the one that resolved depth-3 defaults
    as escape cells, on this driver and on the full-warm-up one, the
    six-call step of the slab-rolled driver, and the whole-lane tiles before
    it."""

    compile = staticmethod(DTPAutomaton.from_patterns)

    @pytest.fixture(autouse=True)
    def against_the_references(self, monkeypatch):
        kernel = DTPAutomaton._scan_lanes

        def checked(program, flow_states, batch):
            found = kernel(program, flow_states, batch)
            assert found == escape_dtp_scan_lanes(program, flow_states, batch)
            assert found == full_warmup_dtp_scan_lanes(program, flow_states, batch)
            assert found == slab_dtp_scan_lanes(program, flow_states, batch)
            assert found == reference_dtp_scan_lanes(program, flow_states, batch)
            return found

        monkeypatch.setattr(DTPAutomaton, "_scan_lanes", checked)

    @staticmethod
    def tiled_walk(program, flow_states, batch):
        return slab_dtp_scan_lanes(program, flow_states, batch)

    def test_kernel_is_the_step_loop(self, short_lanes):
        """Byte for byte the state ``step()`` reaches, on traffic where both
        pointer kinds are exercised at every step parity."""
        program, reference, lane_len = short_lanes
        rng = random.Random(5)
        payload = random_payload(
            rng, LANE_PATTERNS, length=9 * lane_len + 1, alphabet=b"hesrabcdf\x00\x01"
        )
        walked = list(reference_iter_states(program, payload))
        assert walked == list(reference.iter_states(payload))
        for stop in range(len(payload) + 1):
            _, state = program.scan_chunk(ScanState(), payload[:stop])
            assert state.state == ([0] + walked)[stop], stop
            assert (state.prev1, state.prev2) == (
                payload[stop - 1] if stop >= 1 else None,
                payload[stop - 2] if stop >= 2 else None,
            )

    def test_depth3_default_straddling_a_job_boundary(self, short_lanes):
        """A job whose first byte comes one or two bytes after a depth-3
        default's prefix began in the flow's previous segment: the default can
        only fire on the carried ``prev1``/``prev2`` (the bytes before the job
        in the packed buffer are another flow's), and must fire."""
        self.assert_depth3_defaults_fire_across_jobs(*short_lanes)

    @pytest.mark.parametrize("slab_rows", (1, 2))
    def test_slab_edge_one_and_two_bytes_into_a_first_lane(
        self, short_lanes, force_short_lanes, slab_rows
    ):
        """A job's first lane reads the carried ``prev2`` and ``prev1`` on its
        first step and ``prev1`` again on its second: a slab edge after its
        first or second byte must not lose them from the next slab's bytes."""
        program, reference, lane_len = short_lanes
        force_short_lanes(program, self.lanes_per_tile, slab_rows)
        self.assert_depth3_defaults_fire_across_jobs(program, reference, lane_len)

    @staticmethod
    def assert_depth3_defaults_fire_across_jobs(program, reference, lane_len):
        assert program.defaults.d3
        jobs, expected = [], []
        for byte, entry in sorted(program.defaults.d3.items()):
            triple = bytes(entry.preceding_bytes) + bytes([byte])
            before = reference.table[reference.table[0][triple[0]]][triple[1]]
            assert byte not in program.stored[before], "the transition must be pruned"
            stream = b"zz" + triple + b"zz" * lane_len
            for cut in (3, 4):  # one and two bytes into the triple
                found, states = reference_scalar_scan(program, ScanState(), stream[:cut])
                jobs.append((states, stream[cut:]))
                expected.append(reference.match(stream)[len(found):])
                # the neighbour in the packed buffer ends in the same prefix:
                # a fresh flow starting with the default's byte must stay shallow
                jobs.append((ScanState(), stream[cut:]))
                expected.append(reference.match(stream[cut:]))
        results = program.scan_many(jobs)
        assert [m for m, _ in results] == expected
        for (states, body), (_, after) in zip(jobs, results):
            assert after == reference_scalar_scan(program, states, body)[1]

    def test_checkpoint_hand_over_dtp_dense_dtp(self, short_lanes):
        """A flow changes backend twice mid-pattern, through JSON-shaped
        checkpoints, every leg on its lane kernel: dense keeps the history
        the DTP kernel needs when it takes the flow back."""
        program, reference, lane_len = short_lanes
        dense = CompiledDenseProgram.from_patterns(LANE_PATTERNS)
        stream = (b"xushersx\x00\x00\x01abcdefx" * 4)[: 7 * lane_len]
        for first in range(1, len(stream) - 1, 5):
            for second in range(first + 1, len(stream), 7):
                found, state = [], ScanState()
                legs = ((program, stream[:first]), (dense, stream[first:second]),
                        (program, stream[second:]))
                for backend, piece in legs:
                    restored = ScanState.from_tuple(json.loads(json.dumps(state.as_tuple())))
                    ((matches, state),) = backend.scan_many([(restored, piece)])
                    found.extend(matches)
                assert found == reference.match(stream), (first, second)
                assert state.state == final_state(reference, stream)


#: Patterns that share their first three bytes with others, so the depth-3
#: defaults have popular targets, and longer ones through those targets.
STORM_PATTERNS = [
    b"she", b"shell", b"shed", b"he", b"hers", b"the", b"then", b"them", b"ther",
    b"abc", b"abcab", b"bca", b"cab", b"cabin", b"\x00\x00\x01", b"\x00\x00\x01\x02",
]


@pytest.fixture(scope="module")
def storm_programs():
    """``STORM_PATTERNS`` as the registry's dtp automaton and as a two-block
    Cyclone III device program (the hardware view)."""
    accelerator = compile_ruleset(
        RuleSet.from_patterns(STORM_PATTERNS), CYCLONE_III, blocks_per_group=2
    )
    return {"dtp": DTPAutomaton.from_patterns(STORM_PATTERNS), "accelerator": accelerator}


def storm_automata(program):
    """The automata scanned in place of ``program``: itself, or the one of
    each device block's strings (a block holds no kernel views)."""
    if isinstance(program, DTPAutomaton):
        return [program]
    return [block_automaton(block) for block in program.blocks]


@pytest.mark.parametrize("kind", ("dtp", "accelerator"))
def test_the_kernel_table_holds_the_depth3_defaults(storm_programs, kind):
    """The pair table holds depth-1/2 defaults only: no escape codes.  The
    row-displacement table holds the stored pointers plus every transition a
    depth-3 default prunes — Table II's ``after_d1_d2`` count where no
    pointer limit moved a default."""
    for dtp in storm_automata(storm_programs[kind]):
        assert dtp.defaults.d3
        assert (dtp.pair_default >= 0).all()
        held = int((dtp.check >= 0).sum())
        assert held > dtp.stored_pointer_count()
        if kind == "dtp":
            assert held == dtp.staged_counts().after_d1_d2


@pytest.mark.parametrize("slab_rows", (4, 1))
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_dtp_escapes_every_few_bytes(storm_programs, force_short_lanes, slab_rows, data):
    """A depth-3 storm: a stream spliced from the depth-3 defaults' triples,
    their pairs, stray bytes and the patterns that complete through a
    depth-3 target, so the pairs after which a depth-3 default may fire (the
    escape cells of the kernel before the fold) come every few bytes, fire or
    not, and straddle lane cuts, slab edges and job boundaries; each job
    resumes its flow.  On the automaton, the kernel, which never resolves a
    depth-3 default, must be the scalar loop, which does so at run time, job
    for job, ``ac`` over the whole stream and the previous DTP kernels', batch
    for batch; the two-block program's cycle model, whose engines resolve
    every default from the lookup table, must be ``ac`` over the stream."""
    triples = sorted({
        bytes(entry.preceding_bytes) + bytes([byte])
        for program in storm_programs.values()
        for dtp in storm_automata(program) for byte, entry in dtp.defaults.d3.items()
    })
    through = [p for p in STORM_PATTERNS if p[:3] in triples]
    assert through
    pieces = st.one_of(
        st.sampled_from(triples),
        st.sampled_from(triples).map(lambda triple: triple[1:]),
        st.sampled_from(through),
        st.binary(min_size=1, max_size=2),
    )
    stream = b"".join(data.draw(st.lists(pieces, min_size=1, max_size=40)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), min_size=1, max_size=6)))
    bounds = [0] + cuts + [len(stream)]
    expected = sorted(get_backend("ac").compile(STORM_PATTERNS).match(stream))
    program = storm_programs["dtp"]
    force_short_lanes(program, 3, slab_rows)
    flow_states, chunks = [], []
    for head, end in zip(bounds, bounds[1:]):
        flow_states.append(reference_scalar_scan(program, ScanState(), stream[:head])[1])
        chunks.append(stream[head:end])
    batch = lanes.LaneBatch(chunks)
    found = program._scan_lanes(flow_states, batch)
    assert found == [
        reference_scalar_scan(program, s, chunk) for s, chunk in zip(flow_states, chunks)
    ]
    assert sorted(m for matches, _ in found for m in matches) == expected
    assert found == escape_dtp_scan_lanes(program, flow_states, batch)
    assert found == slab_dtp_scan_lanes(program, flow_states, batch)
    assert found == reference_dtp_scan_lanes(program, flow_states, batch)
    assert sorted(HardwareAccelerator(storm_programs["accelerator"]).match(stream)) == expected


class TestLaneKernelOneRowSlab(TestLaneKernel):
    """Every dense test above with a slab edge after every byte: the
    history the driver keeps is one step deep."""

    slab_rows = 1


class TestDtpLaneKernelOneRowSlab(TestDtpLaneKernel):
    """... and every DTP one."""

    slab_rows = 1


class TestAcceleratorLaneKernel:
    """The registry's ``dtp`` program over rulesets the device splits into
    blocks: one automaton, one kernel run a batch; the blocks are the cycle
    model's, which merges their hits into what the automaton reports."""

    @pytest.mark.parametrize("blocks_per_group", (1, 2, 3))
    def test_multi_block_batches_merge_in_order(self, force_short_lanes, blocks_per_group):
        """However many blocks the device takes, one automaton scans: flows
        resumed mid-stream, one batch, equal to the scalar loop job for job
        and to ``dense`` over the whole stream.  The cycle model, each of
        whose blocks holds a share of the strings, merges their hits per
        payload in ``(end_offset, string_number)`` order into exactly the
        automaton's list."""
        ruleset = generate_snort_like_ruleset(40, seed=21)
        device_program = compile_ruleset(ruleset, STRATIX_III, blocks_per_group=blocks_per_group)
        assert len(device_program.blocks) == blocks_per_group
        program = get_backend("dtp").compile(ruleset)
        lane_len = force_short_lanes(program, lanes_per_tile=8)
        assert lane_len == max(map(len, ruleset.patterns))
        dense = get_backend("dense").compile(ruleset.patterns)
        rng = random.Random(22)
        patterns = list(ruleset.patterns)
        streams = []
        for flow in range(6):
            body = bytearray(rng.randrange(256) for _ in range(3 * lane_len + 7 * flow))
            for pattern in rng.sample(patterns, 5):
                offset = rng.randrange(len(body) - len(pattern))
                body[offset:offset + len(pattern)] = pattern
            streams.append(bytes(body) + patterns[flow] + patterns[-1 - flow])
        heads = [reference_scalar_scan(program, ScanState(), s[:flow + 1])
                 for flow, s in enumerate(streams)]
        jobs = [(states, s[flow + 1:]) for flow, (s, (_, states)) in enumerate(zip(streams, heads))]
        results = program.scan_many(jobs)
        for (found, after), (states, body), stream, (head, _) in zip(results, jobs, streams, heads):
            assert (found, after) == reference_scalar_scan(program, states, body)
            assert head + found == sorted(dense.match(stream))
        assert any(found for found, _ in results)
        merged = HardwareAccelerator(device_program).scan_packets(streams)
        assert merged == [program.match(s) for s in streams]
        # every block contributes to the merge
        owner = {
            number: block.index
            for block in device_program.blocks for number in block.string_numbers.values()
        }
        assert {owner[number] for found in merged for _, number in found} == set(
            range(blocks_per_group)
        )

    def test_paper_sized_program_shares_one_cut(self):
        """2 588 strings (three Cyclone III blocks), one automaton with
        states over a word's 13 pointers and one cut for the batch: its
        kernel is the previous kernels' on the same batch — the escape-cell
        kernel's, on this driver and on the full-warm-up one, and the slab
        kernel's — hits and final states, and the batch is the scalar loop's
        job for job."""
        ruleset = generate_snort_like_ruleset(2588, seed=7)
        assert len(compile_ruleset(ruleset, CYCLONE_III).blocks) == 3
        program = get_backend("dtp").compile(ruleset)
        assert program.max_pointers_per_state() > HARDWARE_MAX_POINTERS
        patterns = list(ruleset.patterns)
        rng = random.Random(23)
        jobs = []
        for _ in range(24):
            body = bytearray(rng.randbytes(rng.choice((0, 1, 2, rng.randrange(3000)))))
            for pattern in rng.sample(patterns, 6):
                if len(body) > len(pattern):
                    offset = rng.randrange(len(body) - len(pattern))
                    body[offset:offset + len(pattern)] = pattern
            head = rng.choice(patterns)[: rng.randrange(1, 8)]
            _, states = reference_scalar_scan(program, ScanState(), head)
            jobs.append((states, bytes(body)))
        batch = lanes.LaneBatch([chunk for _, chunk in jobs])
        scan_states = [state for state, _ in jobs]
        (found_jobs, ends, pids), final = program.lane_hits(
            lanes.LaneCut(batch, program.warmup, history=1), scan_states
        )
        escape_views = EscapeDtpViews(program)
        full_cut = FullWarmupLaneCut(batch, program.warmup, history=2)
        for (want_jobs, want_ends, want_pids), want_final in (
            escape_dtp_lane_hits(
                escape_views, lanes.LaneCut(batch, program.warmup, history=2), scan_states
            ),
            full_warmup_dtp_lane_hits(escape_views, full_cut, scan_states),
            slab_dtp_lane_hits(ReferenceDtpViews(program), full_cut, scan_states),
        ):
            assert np.array_equal(found_jobs, want_jobs) and np.array_equal(ends, want_ends)
            assert np.array_equal(pids, want_pids) and np.array_equal(final, want_final)
        assert len(pids)
        found = program._scan_lanes([states for states, _ in jobs], batch)
        assert found == [reference_scalar_scan(program, states, body) for states, body in jobs]

    def test_one_batch_is_one_kernel_run_and_the_cycle_model_agrees(self, monkeypatch):
        """1 000 strings, two Cyclone III blocks: one ``scan_many`` batch
        enters ``LaneCut.run`` exactly once (the blocks were one run each),
        and the cycle model on the two-block program reports the events the
        registry's program and ``ac`` report."""
        ruleset = generate_snort_like_ruleset(1000, seed=2010)
        device_program = compile_ruleset(ruleset, CYCLONE_III)
        assert len(device_program.blocks) == 2
        program = get_backend("dtp").compile(ruleset)
        rng = random.Random(24)
        patterns = list(ruleset.patterns)
        payloads = []
        for _ in range(8):
            body = bytearray(rng.randbytes(1024))
            for pattern in rng.sample(patterns, 4):
                offset = rng.randrange(len(body) - len(pattern))
                body[offset:offset + len(pattern)] = pattern
            payloads.append(bytes(body))
        runs = []
        run = lanes.LaneCut.run

        def counting(self, *args):
            runs.append(self)
            return run(self, *args)

        monkeypatch.setattr(lanes.LaneCut, "run", counting)
        results = program.scan_many([(ScanState(), p) for p in payloads])
        assert len(runs) == 1
        ac = get_backend("ac").compile(ruleset)
        expected = [sorted(ac.match(payload)) for payload in payloads]
        assert all(expected)
        assert [matches for matches, _ in results] == expected
        cycle_model = HardwareAccelerator(device_program).scan_packets(payloads)
        assert [sorted(matches) for matches in cycle_model] == expected

    def test_wrong_state_count_is_rejected_on_both_paths(self, monkeypatch):
        """A flow state is one ScanState, whether the flow's batch is small
        (2 KB) or large (8 KB): either is one kernel job, its checkpoint
        carries one state, and one carrying two (a multi-block flow's) is
        refused by restore, naming the flow."""
        kernel_jobs = []
        kernel = DTPAutomaton._scan_lanes

        def counting(program, scan_states, batch):
            kernel_jobs.append(len(scan_states))
            return kernel(program, scan_states, batch)

        monkeypatch.setattr(DTPAutomaton, "_scan_lanes", counting)
        for size in (2048, 8192):
            kernel_jobs.clear()
            saved = stream_checkpoint("dtp", bytes(range(256)) * (size // 256))
            assert kernel_jobs == [1]
            (flow,) = saved["flows"]
            flow["states"] *= 2
            with Session.from_config(stream_config("dtp")) as session:
                with pytest.raises(ValueError, match="checkpoints 2 states") as refused:
                    session.restore(saved)
            assert repr(FlowKey.from_header(STREAM_HEADER).as_tuple()) in str(refused.value)


# ----------------------------------------------------------------------
# the short warm-up's cut check and repair walk
# ----------------------------------------------------------------------
#: A pattern of period 10: on a stream of its whole periods every state past
#: byte 40 is 31-40 deep, so every lane cut there is repaired.  The others
#: report inside repaired stretches, and take the other blocks of a
#: three-block device program.
REPAIR_LONG = b"abcdefghij" * 4
REPAIR_PATTERNS = [REPAIR_LONG, b"cdefghijabcd", b"ijabcdefghijab", b"fghij", b"ja", b"e"]


@pytest.fixture(scope="module")
def repair_programs():
    """``REPAIR_PATTERNS`` compiled dense and dtp, and the automaton of the
    strings of the one block of a three-block Cyclone III program that
    holds ``REPAIR_LONG`` alone — what that hardware block scans, on its
    own."""
    accelerator = compile_ruleset(
        RuleSet.from_patterns(REPAIR_PATTERNS), CYCLONE_III, blocks_per_group=3
    )
    assert len(accelerator.blocks) == 3
    (block,) = [b for b in accelerator.blocks if REPAIR_LONG in b.ruleset.patterns]
    assert block.ruleset.patterns == [REPAIR_LONG] and block.string_numbers == {0: 0}
    return {
        "dense": CompiledDenseProgram.from_patterns(REPAIR_PATTERNS),
        "dtp": DTPAutomaton.from_patterns(REPAIR_PATTERNS),
        "accelerator": block_automaton(block),
    }


class Walked(NamedTuple):
    """One kernel walk: its warm-up, its lanes and the steps after it."""

    warm: int
    lanes: int
    steps: int


@pytest.fixture
def walked(monkeypatch) -> List[Walked]:
    """Every walk the lane driver runs, in order; a repair walk is one with
    no warm-up."""
    calls: List[Walked] = []
    run = lanes.LaneCut.run

    def counting_run(self, carried, offsets, root, walk, reports, depths):
        def counted(window, history, warm, start, first_lanes, first_jobs):
            steps = 0
            for count in walk(window, history, warm, start, first_lanes, first_jobs):
                steps += count
                yield count
            calls.append(Walked(warm, window.shape[1], steps))

        return run(self, carried, offsets, root, counted, reports, depths)

    monkeypatch.setattr(lanes.LaneCut, "run", counting_run)
    return calls


def assert_lanes_are_exact(program, stream: bytes, bounds: Sequence[int]):
    """Jobs ``stream[a:b]`` between consecutive ``bounds``, each resuming its
    flow, in one kernel call: equal to the scalar loop job for job, and to
    the full-warm-up driver's kernel where the program has one."""
    flow_states, chunks = [], []
    for head, end in zip(bounds, bounds[1:]):
        flow_states.append(reference_scalar_scan(program, ScanState(), stream[:head])[1])
        chunks.append(stream[head:end])
    batch = lanes.LaneBatch(chunks)
    found = program._scan_lanes(flow_states, batch)
    assert found == [
        reference_scalar_scan(program, s, chunk) for s, chunk in zip(flow_states, chunks)
    ]
    reference = {
        CompiledDenseProgram: full_warmup_dense_scan_lanes,
        DTPAutomaton: full_warmup_dtp_scan_lanes,
    }.get(type(program))
    if reference is not None:
        assert found == reference(program, flow_states, batch)
    return found


@pytest.mark.parametrize("kind", ("dense", "dtp", "accelerator"))
@pytest.mark.parametrize("slab_rows", (4, 1))
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_repair_walk_on_cuts_deeper_than_the_warm_up(
    repair_programs, force_short_lanes, kind, slab_rows, data
):
    """Prefixes of one long pattern, whole periods of it, back to back: every
    lane cut sits 31-40 deep, so every lane that does not open a job is
    walked again, for 23-32 steps of its 40.  Jobs cut the stream anywhere
    and resume their flow, so last lanes end inside a repaired stretch and
    patterns complete there; slab edges fall every step or every four."""
    program = repair_programs[kind]
    force_short_lanes(program, 3, slab_rows)
    periods = data.draw(st.lists(st.integers(1, 4), min_size=3, max_size=20))
    stream = b"".join(REPAIR_LONG[:10 * count] for count in periods)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=5)))
    assert_lanes_are_exact(program, stream, [0] + cuts + [len(stream)])


class TestLaneRepair:
    """Fixed cuts around the short warm-up, on 40-byte lanes (one
    ``REPAIR_LONG``), three lanes a tile and four-step slabs."""

    @pytest.fixture(params=("dense", "dtp", "accelerator"))
    def program(self, request, repair_programs, force_short_lanes):
        program = repair_programs[request.param]
        assert force_short_lanes(program) == len(REPAIR_LONG)
        return program

    @pytest.mark.parametrize("depth", (8, 9, 11))
    @pytest.mark.parametrize("tail", (39, 31, 30, 20, 1))
    def test_a_cut_at_depth(self, program, walked, depth, tail):
        """A lane cut with ``depth`` bytes of ``REPAIR_LONG`` before it and
        the rest after it, the job ending ``tail`` bytes past the cut.  At
        depth 8 the short warm-up reads the whole prefix: nothing is walked
        again.  At depth 9 the dense lane is walked again, for 32 steps (a
        DTP lane may still be right: a default can read the byte before its
        warm-up), at depth 11 every lane is: the pattern completes inside
        that stretch (at tail 31 on the job's last byte at depth 9), and a
        job ending 30, 20 or 1 byte in ends inside it."""
        lane_len = len(REPAIR_LONG)
        stream = (b"x" * (lane_len - depth) + REPAIR_LONG + b"x" * lane_len)[:lane_len + tail]
        found = assert_lanes_are_exact(program, stream, [0, len(stream)])
        completed = [end for end, pid in found[0][0] if pid == 0]  # REPAIR_LONG
        assert completed == ([2 * lane_len - depth] if tail >= lane_len - depth else [])
        repaired = any(not walk.warm for walk in walked)
        if depth == 8 or depth == 11 or isinstance(program, CompiledDenseProgram):
            assert repaired == (depth > lanes.SHORT_WARMUP)

    def test_cut_states_are_told_apart_by_the_lane_before(self, program, walked):
        """Lanes that alternate: one ends on 15 bytes of ``REPAIR_LONG``, the
        next finishes the pattern and ends on the same last 10 bytes after
        ``x`` — so in the very state a warm-up over those bytes reaches at
        the 15-deep cut.  Only the 15-deep cuts are walked again (all the
        dense and dtp kernels repair): each lane is told apart by the lane
        right before it, not by itself nor by the lane before that."""
        lane_len = len(REPAIR_LONG)
        deep = b"x" * (lane_len - 15) + REPAIR_LONG[:15]
        finishing = REPAIR_LONG[15:] + b"x" * 5 + REPAIR_LONG[5:15]
        assert len(deep) == len(finishing) == lane_len
        stream = (deep + finishing) * 5
        found = assert_lanes_are_exact(program, stream, [0, len(stream)])
        assert [end for end, pid in found[0][0] if pid == 0] == [
            2 * lane_len * pair + 2 * lane_len - 15 for pair in range(5)
        ]
        # five lanes walked again, each for 32 steps: until the pattern ends
        assert sum(walk.lanes * walk.steps for walk in walked if not walk.warm) == 5 * 32


@pytest.mark.parametrize("kind", ("dense", "dtp"))
def test_all_deep_traffic_costs_at_most_the_full_warm_up(repair_programs, walked, kind):
    """Nothing forced; every lane cut 31-40 deep.  Every lane that does not
    open a job is walked again, and no lane walks more than ``warmup +
    lane_len`` cells — what every lane walked before the short warm-up, so
    the worst case is the old guaranteed cost."""
    program = repair_programs[kind]
    stream = REPAIR_LONG[:10] * 2000
    bounds = [0, 1, 2500, 2537, 9000, 9001, 15000, 20000]
    assert_lanes_are_exact(program, stream, bounds)
    chunks = [stream[head:end] for head, end in zip(bounds, bounds[1:])]
    cut = lanes.LaneCut(lanes.LaneBatch(chunks), program.warmup)
    main = [walk for walk in walked if walk.warm]
    repair = [walk for walk in walked if not walk.warm]
    assert main == [Walked(lanes.SHORT_WARMUP, cut.num_lanes, cut.lane_len)]
    assert repair[0].lanes == cut.num_lanes - len(cut.live)
    assert sum(walk.steps for walk in repair) <= program.warmup - lanes.SHORT_WARMUP


@pytest.mark.parametrize("kind", ("dense", "dtp", "accelerator"))
def test_repair_rounds_at_derived_geometry(repair_programs, walked, kind):
    """Nothing forced: 16 KB of lanes that each end on 9 bytes of
    ``REPAIR_LONG`` and finish the previous lane's, so every cut sits one
    byte deeper than the short warm-up reads.  Hundreds of lanes disagree,
    so the repair walks in rounds of 8, 8 and 16 steps, and a lane may leave
    only once its state is no deeper than 8 plus its steps — here when the
    pattern ends, 31 steps in, not one round early."""
    program = repair_programs[kind]
    size = 16 << 10
    lane_len = lanes.lane_length(program.warmup, size)
    stream = b"x" * (lane_len - 9) + REPAIR_LONG[:9]
    while len(stream) < size:
        stream += REPAIR_LONG[9:] + b"x" * (lane_len - len(REPAIR_LONG)) + REPAIR_LONG[:9]
    stream = stream[:size]
    found = assert_lanes_are_exact(program, stream, [0, size])
    assert len([end for end, pid in found[0][0] if pid == 0]) == size // lane_len - 1
    if kind == "dense":
        assert [walk.steps for walk in walked if not walk.warm] == [8, 8, 16]


#: benign_bulk's traffic (``benchmarks/e2e``): protocol words and short
#: binary runs.
CHATTER = (
    b"GET /index.html HTTP/1.1\r\n", b"Host: example.com\r\n", b"Accept: */*\r\n",
    b"Content-Type: text/html\r\n", b"the quick brown fox ", b"lorem ipsum dolor ",
    b"0123456789", b"abcdefghijklmnopqrstuvwxyz", b"\r\n\r\n",
)


def chatter(rng: random.Random, size: int) -> bytes:
    out = bytearray()
    while len(out) < size:
        out += rng.choice(CHATTER) if rng.random() < 0.7 else rng.randbytes(rng.randint(4, 16))
    return bytes(out[:size])


@pytest.mark.parametrize("compile", (CompiledDenseProgram.from_patterns, DTPAutomaton.from_patterns))
def test_benign_chatter_needs_no_repair(walked, compile):
    """Nothing forced: 48 flows of benign_bulk-shaped chatter through 500
    rules, none of whose strings it carries.  No lane is walked again and
    every lane walks ``SHORT_WARMUP + lane_len`` cells, not ``warmup +
    lane_len``."""
    ruleset = generate_snort_like_ruleset(500, seed=2)
    program = compile(ruleset.patterns)
    assert program.warmup > lanes.SHORT_WARMUP
    rng = random.Random(6)
    payloads = [chatter(rng, 4096) for _ in range(48)]
    results = program.scan_many([(ScanState(), p) for p in payloads])
    assert not any(matches for matches, _ in results)
    cut = lanes.LaneCut(lanes.LaneBatch(payloads), program.warmup)
    assert walked == [Walked(lanes.SHORT_WARMUP, cut.num_lanes, cut.lane_len)]


class TestConsumersThroughProtocol:
    def test_ids_alerts_identical_across_backends(self):
        ruleset = generate_snort_like_ruleset(25, seed=4)
        rules = [
            IDSRule(sid=rule.sid, header=HeaderPattern(), contents=(rule.pattern,))
            for rule in ruleset
        ]
        flows = TrafficGenerator(ruleset, seed=5).flows(4, num_packets=3, split_patterns=1)
        packets = TrafficGenerator.interleave(flows)

        def alerts_with(backend):
            ids = IntrusionDetectionSystem(rules, backend=backend)
            return [(a.packet_id, a.sid) for a in ids.scan_flow(packets)]

        reference = alerts_with("dtp")
        assert reference
        for name in ("dense", "ac", "bitmap"):
            assert alerts_with(name) == reference, name

    def test_ids_refuses_the_retired_hardware_model_keyword(self):
        """The cycle model never matched traffic for the IDS again after the
        stateless path moved onto the scan service; its switch is gone."""
        rules = [IDSRule(sid=1, header=HeaderPattern(), contents=(b"x",))]
        for backend in ("dtp", "dense"):
            with pytest.raises(TypeError, match="use_hardware_model"):
                IntrusionDetectionSystem(rules, use_hardware_model=True, backend=backend)

    def test_hardware_accelerator_protocol_front(self):
        ruleset = generate_snort_like_ruleset(20, seed=8)
        accelerator = HardwareAccelerator(compile_ruleset(ruleset, STRATIX_III))
        program = get_backend("dtp").compile(ruleset)
        ac = get_backend("ac").compile(ruleset)
        payloads = [b"xx" + rule.pattern + b"yy" for rule in list(ruleset)[:4]]
        # the cycle model's per-payload surface reports what the registry's
        # program and ac report
        assert accelerator.patterns == program.patterns
        for payload in payloads:
            expected = sorted(ac.match(payload))
            assert sorted(accelerator.match(payload)) == sorted(program.match(payload)) == expected
        batched = accelerator.scan_packets(payloads)
        assert [sorted(m) for m in batched] == [sorted(ac.match(p)) for p in payloads]


# ----------------------------------------------------------------------
# one meaning of a backend name: the registry compiles what every session
# scans, and ``repro verify`` proves it
# ----------------------------------------------------------------------
DTP_VIEWS = (
    "value_of", "check", "next", "id_of", "value_depth", "pair_default",
    "match_index", "match_pids", "pointer_index",
)


def automaton_views(dtp) -> str:
    """A digest of a dtp automaton's kernel views and pointer arrays."""
    digest = hashlib.sha256(repr((dtp.flagged, dtp.warmup)).encode())
    for array in [getattr(dtp, name) for name in DTP_VIEWS] + list(dtp.pointers):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestTheRegistryCompilesWhatScans:
    @pytest.fixture(scope="class")
    def ruleset(self):
        return generate_snort_like_ruleset(1000, seed=2010)  # 2 blocks on cyclone3

    @pytest.mark.parametrize("device", ("stratix3", "cyclone3"))
    @pytest.mark.parametrize("name", backend_names())
    def test_session_ids_and_registry_compile_one_program(self, ruleset, name, device):
        """Whatever the device, a session, the IDS and the registry compile
        one program; for ``dtp`` one automaton over every string."""
        session = Session(PipelineConfig(
            source=SourceSpec(kind="generator", count=1),
            rules=RulesSpec(kind="synthetic", size=len(ruleset), seed=2010),
            engine=EngineSpec(backend=name, device=device),
        ))
        ids = IntrusionDetectionSystem.from_ruleset(ruleset, backend=name)
        registry = get_backend(name).compile(ruleset)
        programs = (session.program, ids.program, registry)
        assert len({type(program) for program in programs}) == 1
        if name == "dtp":
            assert isinstance(registry, DTPAutomaton)
            assert len({automaton_views(program) for program in programs}) == 1

    @pytest.mark.parametrize("size", (500, 1000))
    def test_the_automaton_equals_a_one_block_device_program(self, size):
        """On Stratix III 500 or 1 000 strings fit one block, whose strings'
        automaton under the block's pointer limit (the program sessions
        scanned before the one automaton) is the registry's, array for
        array."""
        ruleset = generate_snort_like_ruleset(size, seed=2010)
        (block,) = compile_ruleset(ruleset, STRATIX_III).blocks
        assert block.ruleset.patterns == ruleset.patterns
        registry = get_backend("dtp").compile(ruleset)
        assert automaton_views(block_automaton(block)) == automaton_views(registry)

    def test_the_cycle_model_is_built_lazily_and_only_when_asked(self, monkeypatch):
        """A session scans without building the device's blocks; its cycle
        model compiles them on first use, once, for the configured device,
        whatever the backend."""
        import repro.api.session as session_module

        built = []
        compile_blocks = session_module.compile_ruleset

        def counting(ruleset, device):
            built.append(device)
            return compile_blocks(ruleset, device)

        monkeypatch.setattr(session_module, "compile_ruleset", counting)
        for backend in ("dtp", "dense"):
            built.clear()
            session = Session(PipelineConfig(
                source=SourceSpec(kind="generator", count=3, seed=4),
                rules=RulesSpec(kind="synthetic", size=20, seed=3),
                engine=EngineSpec(backend=backend, device="cyclone3"),
            ))
            session.program, session.scan()
            assert built == []
            assert session.hardware is session.hardware
            assert built == [CYCLONE_III]
            assert session.hardware.program.patterns == session.program.patterns

    def test_ids_cycle_model_holds_the_scanned_strings(self, tmp_path):
        """In ids mode the cycle model is built from the strings the IDS
        program scans (``ids.content_ruleset``), not from the session's
        per-content ruleset: a rule with only a negated content adds no
        prefilter string, so it adds none to the model either."""
        rules = tmp_path / "negated.rules"
        rules.write_text(
            'alert tcp any any -> any any (content:"attack"; sid:1;)\n'
            'alert tcp any any -> any any (content:!"zzqq"; sid:2;)\n'
            'alert tcp any any -> any any (content:"evil"; content:!"good"; sid:3;)\n'
        )
        session = Session(PipelineConfig(
            mode="ids",
            source=SourceSpec(kind="packets", packets=()),
            rules=RulesSpec(kind="file", path=str(rules)),
            engine=EngineSpec(backend="dense", device="cyclone3"),
        ))
        assert sorted(session.program.patterns) == [b"attack", b"evil", b"good"]
        assert list(session.hardware.program.ruleset.patterns) == list(session.program.patterns)


@pytest.mark.parametrize("name", ("dense", "dtp"))
def test_match_is_one_scan_chunk_crossing(monkeypatch, name):
    """``match`` (through ``scan``) crosses the profiled boundary,
    ``scan_chunk``, exactly once."""
    from repro.backend import CompiledProgramMixin

    calls = []
    scan_chunk = CompiledProgramMixin.scan_chunk

    def wrapped(self, states, chunk):
        calls.append(len(chunk))
        return scan_chunk(self, states, chunk)

    monkeypatch.setattr(CompiledProgramMixin, "scan_chunk", wrapped)
    program = get_backend(name).compile([b"abc"])
    assert program.match(b"xxabc") == [(5, 0)]
    assert calls == [5]


@pytest.mark.parametrize(
    "call",
    (
        lambda: get_backend("dtp").compile([b"ab"], device=STRATIX_III),
        lambda: verify_cross_backend([b"ab"], device=STRATIX_III),
        lambda: IntrusionDetectionSystem(
            [IDSRule(sid=1, header=HeaderPattern(), contents=(b"ab",))], device=STRATIX_III
        ),
    ),
    ids=("Backend.compile", "verify_cross_backend", "IntrusionDetectionSystem"),
)
def test_the_device_is_no_compile_option(call):
    """Nothing a scan runs reads a device: passing one is a TypeError that
    names it."""
    with pytest.raises(TypeError, match="device"):
        call()


def test_no_module_branches_on_the_dtp_name():
    """Outside the registry and the device compiler, code asks the program
    what it is: no comparison against the string ``"dtp"``."""
    root = Path(repro.__file__).parent
    allowed = {root / "backend.py", root / "core" / "accelerator_config.py"}
    branches = []
    for path in sorted(root.rglob("*.py")):
        if path in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                isinstance(leaf, ast.Constant) and leaf.value == "dtp"
                for operand in (node.left, *node.comparators)
                for leaf in ast.walk(operand)
            ):
                branches.append(f"{path.relative_to(root)}:{node.lineno}")
    assert branches == []


#: Names of the per-flow tuple protocol a flow's one ``ScanState`` replaced,
#: and of the retired Wu-Manber backend that gave ``ScanState`` a ``tail``.
RETIRED_STATE_NAMES = {
    "FlowState", "scan_from", "initial_scan_state", "initial_scan_states", "WuManber",
}


def retired_state_protocol(root: Path) -> List[str]:
    """Where the package under ``root`` names the retired per-flow tuple
    protocol or the Wu-Manber backend (``WuManber``, ``"wu-manber"``),
    reads or passes a ``tail`` (``.tail``, ``tail=``), or unpacks a
    one-element tuple of states (``(state,) = ...``, ``for (state,) in
    ...``)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {
                getattr(node, field, None)
                for field in ("id", "attr", "name", "asname", "arg")
            }
            if names & RETIRED_STATE_NAMES or (
                isinstance(node, (ast.Attribute, ast.keyword)) and "tail" in names
            ) or (
                isinstance(node, ast.Constant) and node.value == "wu-manber"
            ) or (
                isinstance(node, (ast.Tuple, ast.List))
                and isinstance(node.ctx, ast.Store)
                and len(node.elts) == 1
                and "state" in ast.unparse(node.elts[0]).lower()
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_a_flow_state_is_one_scan_state():
    """No module names ``FlowState``, ``scan_from``,
    ``initial_scan_state(s)`` or Wu-Manber, touches a ``tail``, nor unpacks
    a one-element tuple of states: a flow's resumable state is one
    four-register ``ScanState``, in one form."""
    assert retired_state_protocol(Path(repro.__file__).parent) == []


#: Names of the second scan path the lane kernel replaced: the size branch
#: and the scalar loops (now ``tests/conftest.py::reference_scalar_scan``).
RETIRED_SCAN_PATH_NAMES = {"_scan_scalar", "_SignedRows", "KERNEL_MIN_BYTES"}


def test_no_module_keeps_a_second_scan_path():
    """No module defines, reads or assigns ``_scan_scalar``,
    ``_SignedRows`` or ``KERNEL_MIN_BYTES``: the lane kernel is the ``dense``
    and ``dtp`` programs' one scan path."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
            if names & RETIRED_SCAN_PATH_NAMES:
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("backend", ("dense", "dtp"))
def test_every_call_takes_the_lane_kernel(monkeypatch, backend):
    """A 1-byte ``scan_chunk`` that completes a string, a 100-byte
    ``match``, an empty ``scan_many`` and one empty job each reach the
    program's ``_scan_lanes`` as one batch, and equal the byte-at-a-time
    reference."""
    ruleset = generate_snort_like_ruleset(40, seed=9)
    program = get_backend(backend).compile(ruleset.patterns)
    kernel = type(program)._scan_lanes
    batches = []

    def counting(self, scan_states, batch):
        batches.append(list(batch.chunks))
        return kernel(self, scan_states, batch)

    monkeypatch.setattr(type(program), "_scan_lanes", counting)
    pattern = ruleset.patterns[0]
    _, resumed = reference_scalar_scan(program, ScanState(), b"xy" + pattern[:-1])
    found = program.scan_chunk(resumed, pattern[-1:])
    assert found == reference_scalar_scan(program, resumed, pattern[-1:])
    assert found[0] == [(len(pattern) + 2, 0)]
    assert batches == [[pattern[-1:]]]

    payload = (b"." + b"..".join(ruleset.patterns)).ljust(100, b".")[:100]
    batches.clear()
    matches = program.match(payload)
    assert matches and matches == reference_scalar_scan(program, ScanState(), payload)[0]
    assert batches == [[payload]]

    batches.clear()
    assert program.scan_many([]) == []
    assert program.scan_many([(ScanState(), b"")]) == [
        reference_scalar_scan(program, ScanState(), b"")
    ]
    assert batches == [[], [b""]]
