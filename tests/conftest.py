"""Shared fixtures and the differential-equivalence harness.

Expensive artefacts (rulesets, compiled accelerator programs) are
session-scoped so the suite stays fast; tests that need to mutate state build
their own small instances.

:func:`assert_equivalent_events` is the regression gate for every streaming
optimisation: it scans one randomized workload through every requested
{backend} × {in-memory, pcap-replay} combination and asserts the event
streams, batch totals and service gauges are byte-identical.  The
scan-equivalence test families (backends, capture replay, pipeline API) all
call it instead of hand-rolling their own comparison loops.
"""

from __future__ import annotations

import io
import ipaddress
import itertools
import json
import random
import struct
from dataclasses import dataclass, field
from math import isqrt
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.automata import AhoCorasickDFA
from repro.automata.trie import ALPHABET_SIZE, ROOT
from repro.backend import get_backend
from repro.capture import (
    LINKTYPE_ETHERNET,
    LINKTYPE_LINUX_SLL,
    LINKTYPE_RAW,
    CaptureError,
    replay_scan,
    write_packets,
)
from repro.capture.frames import DecodedFrame
from repro.capture.replay import ReplayStats
from repro.core import DTPAutomaton, compile_ruleset, lanes
from repro.core import lanes as lane_driver
from repro.core.dtp_automaton import HARDWARE_MAX_POINTERS, NO_BYTE, displace_rows, state_values
from repro.core.lanes import LaneBatch
from repro.fpga import CYCLONE_III, STRATIX_III
from repro.ids.classifier import CANDIDATE_CACHE_LIMIT
from repro.ids.confirm import OccurrenceFn, RuleEvaluator, _Step
from repro.proto import HttpStream, TcpReassembler
from repro.proto.reassembly import _FIN, _RST, _SEQ_MASK, _SYN, _FlowState, _seq_delta
from repro.rulesets import RuleSet, generate_snort_like_ruleset
from repro.streaming import ScanService
from repro.streaming.flow import DEFAULT_FLOW_CAPACITY, FlowEntry, FlowKey, FlowTable
from repro.streaming.scanner import (
    ANONYMOUS_FLOW, BatchScan, Eviction, SegmentBatch, StreamMatch, StreamScanner,
)
from repro.traffic import Packet, TrafficGenerator
from repro.traffic.packet import FiveTuple, MatchEvent

#: The worked example of Figures 1 and 2.
PAPER_EXAMPLE_PATTERNS = [b"he", b"she", b"his", b"hers"]


@pytest.fixture(scope="session")
def example_patterns():
    return list(PAPER_EXAMPLE_PATTERNS)


@pytest.fixture(scope="session")
def example_dfa(example_patterns):
    return AhoCorasickDFA.from_patterns(example_patterns)


@pytest.fixture(scope="session")
def example_dtp(example_dfa):
    return DTPAutomaton(example_dfa)


@pytest.fixture(scope="session")
def small_ruleset() -> RuleSet:
    """A 120-string synthetic ruleset; cheap enough for most tests."""
    return generate_snort_like_ruleset(120, seed=99)


@pytest.fixture(scope="session")
def medium_ruleset() -> RuleSet:
    """A 400-string synthetic ruleset for integration-style tests."""
    return generate_snort_like_ruleset(400, seed=2024)


@pytest.fixture(scope="session")
def small_program(small_ruleset):
    """The small ruleset compiled for the Stratix III target."""
    return compile_ruleset(small_ruleset, STRATIX_III)


#: What only the scan program holds: the lane kernel's views and the scan
#: methods; a device block's pruned automaton has none of them.
KERNEL_VIEWS = (
    "warmup", "match_index", "match_pids", "flagged", "value_of", "check", "next", "id_of",
    "value_depth", "pair_default", "_scan_scalar", "lane_hits", "_scan_lanes", "scan_chunk",
    "scan_many", "match",
)


def block_automaton(block) -> DTPAutomaton:
    """The scan program of one device block's strings: the registry's
    automaton built with the block's pointer limit.  A block holds its
    pruned automaton only; this one's pointers and defaults are the block's
    (``test_a_block_holds_the_pruned_automaton_not_a_scan_program``)."""
    return DTPAutomaton.from_patterns(
        block.ruleset.patterns, max_stored_pointers=HARDWARE_MAX_POINTERS
    )


@pytest.fixture(scope="session")
def small_program_cyclone(small_ruleset):
    return compile_ruleset(small_ruleset, CYCLONE_III)


@pytest.fixture(scope="session")
def small_dtp(small_ruleset):
    """The small ruleset as the registry's ``dtp`` program: the one automaton
    a session scans (``small_program`` is its hardware view)."""
    return get_backend("dtp").compile(small_ruleset)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(12345)


def random_text(rng: random.Random, length: int, alphabet=range(97, 123)) -> bytes:
    alphabet = list(alphabet)
    return bytes(rng.choice(alphabet) for _ in range(length))


def text_with_patterns(rng: random.Random, patterns, length: int = 2000) -> bytes:
    """Random text with several of ``patterns`` spliced in at random offsets."""
    data = bytearray(random_text(rng, length, alphabet=range(0, 256)))
    for _ in range(min(8, len(patterns))):
        pattern = patterns[rng.randrange(len(patterns))]
        if len(pattern) >= length:
            continue
        offset = rng.randrange(0, length - len(pattern))
        data[offset:offset + len(pattern)] = pattern
    return bytes(data)


@pytest.fixture
def force_short_lanes(monkeypatch):
    """Private test hook for the lane kernels (the shared driver's module
    constants, not an option): every call takes the kernel, and
    ``force(program)`` makes its lanes exactly one warm-up long — the
    shortest legal — its tiles ``lanes_per_tile`` lanes wide and its history
    slabs ``slab_rows`` steps deep (a tile of fewer lanes gets deeper slabs),
    so a few dozen bytes cross lane cuts, tile boundaries and slab edges.
    Returns the lane length."""
    monkeypatch.setattr(lanes, "KERNEL_MIN_BYTES", 0)
    monkeypatch.setattr(lanes, "STEP_DISPATCH_CELLS", 1 << 40)

    def force(program, lanes_per_tile: int = 3, slab_rows: int = 4) -> int:
        lane_len = lanes.lane_length(program.warmup, 10_000)
        assert lane_len == program.warmup
        monkeypatch.setattr(lanes, "MAX_WIDTH", lanes_per_tile)
        monkeypatch.setattr(lanes, "SLAB_CELLS", lanes_per_tile * slab_rows)
        return lane_len

    return force


# ----------------------------------------------------------------------
# the differential-equivalence harness
# ----------------------------------------------------------------------
def renumbered(packets: Sequence[Packet]) -> List[Packet]:
    """Packets re-id'd in arrival order — the id convention a replay uses
    (ids are not on the wire, so capture order is the shared ground)."""
    return [
        Packet(p.payload, p.header, index, list(p.injected_sids),
               tcp_seq=p.tcp_seq, tcp_flags=p.tcp_flags)
        for index, p in enumerate(packets)
    ]


def build_program(ruleset: RuleSet, backend: str):
    """Compile ``ruleset`` for ``backend`` the way the pipeline API does:
    through the registry."""
    return get_backend(backend).compile(ruleset)


def equivalence_workload(
    num_rules: int = 40,
    flows: int = 6,
    num_packets: int = 3,
    seed: int = 5,
    **flow_kwargs,
) -> Tuple[RuleSet, List[Packet]]:
    """One randomized ruleset plus interleaved boundary-split flows over it
    (the canonical input to :func:`assert_equivalent_events`)."""
    flow_kwargs.setdefault("split_patterns", 1)
    ruleset = generate_snort_like_ruleset(num_rules, seed=seed)
    generator = TrafficGenerator(ruleset, seed=seed + 1)
    return ruleset, TrafficGenerator.interleave(
        generator.flows(flows, num_packets=num_packets, **flow_kwargs)
    )


class EquivalenceReference:
    """What :func:`assert_equivalent_events` proved everything equal *to*.

    ``results`` holds the reference combination's ``StreamScanResult`` per
    scanned batch (one entry unless ``batches > 1``); ``events`` flattens
    their event lists; ``stats`` is the reference service's final gauge dict;
    ``combinations`` counts how many configurations were compared.
    """

    def __init__(self, results, stats: Dict, combinations: int):
        self.results = results
        self.events = [event for result in results for event in result.events]
        self.stats = stats
        self.combinations = combinations

    @property
    def result(self):
        """The single reference result (``batches == 1`` convenience)."""
        (result,) = self.results
        return result


def assert_equivalent_events(
    ruleset: RuleSet,
    packets: Sequence[Packet],
    *,
    backends: Sequence[str] = ("dtp", "dense"),
    sources: Sequence[str] = ("memory", "pcap"),
    flow_capacity: int = 4096,
    track_nocase: bool = False,
    batches: int = 1,
    capture_fmt: str = "pcap",
) -> EquivalenceReference:
    """Differentially scan one workload through every requested combination.

    Every ``backend`` × ``source`` (``"memory"`` scans the packet list,
    ``"pcap"`` replays it from an in-memory capture) through a
    :class:`ScanService` must produce
    byte-identical events, batch totals and final service
    gauges; the first combination is the reference and every other one is
    asserted against it.  Returns the reference (see
    :class:`EquivalenceReference`) so callers can pile on workload-specific
    assertions — e.g. that the deliberately split patterns were actually
    found.

    ``batches > 1`` splits the packets into that many consecutive ``scan()``
    calls, pinning state carry-over *between* batches; it is memory-source
    only, because a capture replay is a single pass.  When ``"pcap"`` is
    among the sources, packets are renumbered in arrival order first — the
    id convention replay uses — so both sources report comparable events.
    """
    if batches > 1 and "pcap" in sources:
        raise ValueError("batches > 1 is memory-source only (replay is one pass)")
    packets = list(packets)
    if "pcap" in sources:
        packets = renumbered(packets)
        buffer = io.BytesIO()
        write_packets(buffer, packets, fmt=capture_fmt)
        capture = buffer.getvalue()

    split = max(1, (len(packets) + batches - 1) // batches)
    chunks = [packets[i : i + split] for i in range(0, len(packets), split)]

    def run(program, source: str):
        service = ScanService(
            program, flow_capacity=flow_capacity, track_nocase=track_nocase
        )
        if source == "memory":
            results = [service.scan(chunk) for chunk in chunks]
        else:
            results = [replay_scan(io.BytesIO(capture), service)]
        return results, service.stats()

    reference: Optional[EquivalenceReference] = None
    reference_label = None
    combinations = 0
    for backend in backends:
        program = build_program(ruleset, backend)
        for source in sources:
            label = f"backend={backend} source={source}"
            results, stats = run(program, source)
            combinations += 1
            if reference is None:
                reference = EquivalenceReference(results, stats, combinations)
                reference_label = label
                continue
            for got, want in zip(results, reference.results):
                assert got.events == want.events, (
                    f"{label} events differ from {reference_label}"
                )
                assert got.packets == want.packets
                assert got.bytes_scanned == want.bytes_scanned
            assert stats == reference.stats, (
                f"{label} service gauges differ from {reference_label}"
            )
    assert reference is not None, "no backend/source combinations given"
    reference.combinations = combinations
    return reference


# ----------------------------------------------------------------------
# the lane kernels as they were: whole-lane history tiles, flag gathers
# ----------------------------------------------------------------------
# Moved here verbatim (names prefixed, ``self`` the program) when the driver
# went to batch-wide tiles over a slab-rolled history and the dense kernel's
# state values took the match bit.  The differential tests in
# tests/test_backends.py hold the production kernels to these, batch by
# batch: hits, their order and every job's final state.
REFERENCE_TILE_CELLS = 1 << 18
REFERENCE_STEP_DISPATCH_CELLS = 256


def reference_lane_length(warmup: int, total_bytes: int) -> int:
    """Lane length for a batch of ``total_bytes``.

    With ``w`` warm-up steps, lane length ``l`` and ``n`` bytes in a tile
    (a batch larger than one tile repeats it), a pass takes ``w + l``
    steps of ``STEP_DISPATCH_CELLS + n / l`` cell-times each, least at
    ``l = sqrt(w * n / STEP_DISPATCH_CELLS)``.  The extra ``w`` under the
    root keeps the result from falling below ``w``: a lane's warm-up
    must stay inside its own job.
    """
    warmup = max(warmup, 1)
    cells = min(total_bytes, REFERENCE_TILE_CELLS)
    return isqrt(warmup * (warmup + cells // REFERENCE_STEP_DISPATCH_CELLS))


class ReferenceLaneCut:
    """One batch cut into lanes: the packed bytes and the lane geometry.

    Built once per batch; every kernel that scans the batch (one per block
    of a multi-block program) :meth:`run`\\ s over the same cut.  ``history``
    extra bytes are kept in front of each lane's warm-up for kernels whose
    step reads the bytes before the current one.
    """

    def __init__(self, batch: LaneBatch, warmup: int, history: int = 0):
        self.lead = warmup + history
        self.lane_len = lane_len = reference_lane_length(warmup, len(batch))
        self.data = batch.pack(lane_len, self.lead)
        # job j owns lanes first[j] .. first[j] + lanes_of[j] - 1
        self.lengths = lengths = np.fromiter(
            map(len, batch.chunks), dtype=np.int64, count=len(batch.chunks)
        )
        lanes_of = -(-lengths // lane_len)
        self.first = np.cumsum(lanes_of) - lanes_of
        self.num_lanes = int(lanes_of.sum())
        self.job_of_lane = np.repeat(np.arange(len(lengths)), lanes_of)
        self.live = live = np.flatnonzero(lanes_of)
        self.live_first = self.first[live]
        self.live_last = self.live_first + lanes_of[live] - 1
        # history row holding a job's final state: the one after its last byte
        self.live_last_row = lengths[live] - (lanes_of[live] - 1) * lane_len

    def run(
        self,
        carried: np.ndarray,
        offsets: np.ndarray,
        match_flags: np.ndarray,
        walk: Callable,
        lane_rows: int,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """Walk every lane with one kernel; return its hits and final states.

        ``carried`` / ``offsets`` hold each job's carried-in state id and
        stream offset; ``lane_rows`` is what one lane weighs in the tile
        budget.  Hits carry the *state* that reported; the final-state array
        has one id per job (an empty job ends where it started).
        """
        lane_len, num_lanes = self.lane_len, self.num_lanes
        live, live_first, live_last = self.live, self.live_first, self.live_last
        final = carried.copy()
        tile = max(1, min(num_lanes, REFERENCE_TILE_CELLS // lane_rows))
        history = np.empty((lane_len + 1, tile), dtype=carried.dtype)
        # the flag gather widens its indices to intp: eight slabs a tile keep
        # that temporary a quarter of the history's size
        slab = lane_len // 8 + 1
        hit_positions: List[np.ndarray] = []
        hit_states: List[np.ndarray] = []
        for low in range(0, num_lanes, tile):
            high = min(num_lanes, low + tile)
            windows = sliding_window_view(self.data, self.lead + lane_len)
            begin, end = np.searchsorted(live_first, (low, high))
            walk(
                windows[low * lane_len:high * lane_len:lane_len].T,
                history[:, :high - low],
                live_first[begin:end] - low,
                live[begin:end],
            )
            begin, end = np.searchsorted(live_last, (low, high))
            final[live[begin:end]] = history[
                self.live_last_row[begin:end], live_last[begin:end] - low
            ]
            entered = history[1:, :high - low]
            for top in range(0, lane_len, slab):
                part = entered[top:top + slab]
                steps, lanes = np.nonzero(match_flags.take(part))
                if len(steps):
                    hit_positions.append((lanes + low) * lane_len + steps + top)
                    hit_states.append(part[steps, lanes])

        if not hit_positions:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty, empty), final
        positions = np.concatenate(hit_positions)
        order = np.argsort(positions)
        positions = positions[order]
        jobs = self.job_of_lane[positions // lane_len]
        within = positions - self.first[jobs] * lane_len
        real = within < self.lengths[jobs]  # a short last lane also walked its padding
        jobs = jobs[real]
        return (
            jobs,
            offsets[jobs] + within[real] + 1,
            np.concatenate(hit_states)[order][real],
        ), final


def reference_dense_scan_lanes(self, scan_states, batch: LaneBatch):
    """``CompiledDenseProgram._scan_lanes`` as it was, over the plain
    ``state << 8`` view it walked (rebuilt here: the flagged table without
    its match bit)."""
    cut = ReferenceLaneCut(batch, self.warmup)
    premultiplied = self.premultiplied % len(self.premultiplied)
    dtype = premultiplied.dtype
    count = len(scan_states)
    carried = np.fromiter((s.state for s in scan_states), dtype, count)
    offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
    # the bound method skips np.take's Python wrapper, ~1.4 us a step
    add, take = np.add, premultiplied.take

    def walk(window, history, first_lanes, first_jobs):
        columns = np.ascontiguousarray(window)
        rows = list(history)
        lookup = np.empty_like(rows[0])
        # warm up from the root in place: these states report nothing
        state = rows[0]
        state.fill(0)
        for column in columns[:cut.lead]:
            add(state, column, out=lookup)
            take(lookup, out=state, mode="clip")
        state[first_lanes] = carried[first_jobs] << 8
        for state, column, following in zip(rows, columns[cut.lead:], rows[1:]):
            add(state, column, out=lookup)
            take(lookup, out=following, mode="clip")
        entered = history[1:]
        np.right_shift(entered, 8, out=entered)  # the walk is done with it

    hits, final = cut.run(carried, offsets, self.match_flags, walk, cut.lane_len + 1)
    return lanes.job_results(
        scan_states, batch,
        lanes.expand_hits(hits, self.match_index, self.match_pids), final,
    )


# ----------------------------------------------------------------------
# the DTP program's scalar walkers, as they were on the program
# ----------------------------------------------------------------------
def reference_iter_states(program: DTPAutomaton, data: bytes) -> Iterator[int]:
    """``DTPAutomaton.iter_states`` as it was: the state after each byte of
    the scalar ``step`` walk (mirrors ``AhoCorasickDFA.iter_states``)."""
    state = ROOT
    prev1: Optional[int] = None
    prev2: Optional[int] = None
    for byte in data:
        state = program.step(state, byte, prev1, prev2)
        yield state
        prev2 = prev1
        prev1 = byte


def reference_verify_equivalence(program: DTPAutomaton, data: bytes) -> bool:
    """``DTPAutomaton.verify_equivalence`` as it was: state-by-state agreement
    with the uncompressed DFA on ``data``, the DFA rebuilt from the program's
    patterns (the program no longer keeps it)."""
    dfa = AhoCorasickDFA.from_patterns(program.patterns)
    for ours, reference in zip(reference_iter_states(program, data), dfa.iter_states(data)):
        if ours != reference:
            return False
    return True


# ----------------------------------------------------------------------
# the DTP kernel's views as they were: plain state ids, stride-257 defaults
# ----------------------------------------------------------------------
# Both DTP references below walk these, rebuilt here from a program's stored
# pointers and lookup table, since the program now carries state-value views.
_SLOTS_PER_POINTER = 4
_STRIDE = NO_BYTE + 1


def reference_displace_rows(states, symbols, targets, num_states):
    """``dtp_automaton.displace_rows`` as it was (displacements may repeat)."""
    owners, counts = np.unique(states, return_counts=True)
    # larger rows first: np.unique keeps the first bidder for a slot
    by_size = np.argsort(-counts, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(len(owners))
    row = np.repeat(rank, counts)
    order = np.argsort(row, kind="stable")
    row, states, symbols, targets = row[order], states[order], symbols[order], targets[order]

    size = _SLOTS_PER_POINTER * len(states) + 256
    check = np.full(size + 256, -1, dtype=np.int32)
    following = np.zeros(size + 256, dtype=np.int32)
    displacement = np.zeros(len(owners), dtype=np.int64)
    pending = np.ones(len(owners), dtype=bool)
    rng = np.random.default_rng(0)
    rounds = 0
    while pending.any():
        if rounds and rounds % 32 == 0:
            check = np.concatenate([check, np.full(size, -1, dtype=np.int32)])
            following = np.concatenate([following, np.zeros(size, dtype=np.int32)])
            size *= 2
        rounds += 1
        trial = rng.integers(0, size, len(owners))
        bidding = np.flatnonzero(pending[row])
        slots = trial[row[bidding]] + symbols[bidding]
        outbid = np.ones(len(slots), dtype=bool)
        outbid[np.unique(slots, return_index=True)[1]] = False
        lost = np.zeros(len(owners), dtype=bool)
        lost[row[bidding[outbid | (check[slots] >= 0)]]] = True
        won = pending & ~lost
        kept = won[row[bidding]]
        check[slots[kept]] = states[bidding[kept]]
        following[slots[kept]] = targets[bidding[kept]]
        displacement[won] = trial[won]
        pending = lost
    base = np.zeros(num_states, dtype=np.int32)
    base[owners[by_size]] = displacement
    return base, check, following


def reference_default_views(defaults):
    """``dtp_automaton.default_views`` as it was: ``(default12, d3_key, d3_state)``."""
    default12 = np.tile(np.append(defaults.d1, ROOT).astype(np.int32), _STRIDE)
    for byte, entries in defaults.d2.items():
        for entry in reversed(entries):  # the resolver takes the first that fits
            default12[entry.preceding_byte * _STRIDE + byte] = entry.state
    d3_key = np.full(256, -1, dtype=np.int32)
    d3_state = np.zeros(256, dtype=np.int32)
    for byte, entry in defaults.d3.items():
        d3_key[byte] = entry.preceding_bytes[0] * _STRIDE + entry.preceding_bytes[1]
        d3_state[byte] = entry.state
    return default12, d3_key, d3_state


class ReferenceDtpViews:
    """A DTP program's kernel views as the references below read them off
    ``self``: ``base``/``check``/``next`` over plain ids, ``default12``,
    ``d3_key``/``d3_state`` and the ``match_flags`` vector."""

    def __init__(self, program: DTPAutomaton):
        pointers = [
            (state, byte, target)
            for state, row in enumerate(program.stored) for byte, target in sorted(row.items())
        ]
        states, symbols, targets = (
            np.array(column, dtype=np.int64) for column in zip(*pointers)
        ) if pointers else (np.empty(0, dtype=np.int64),) * 3
        self.base, self.check, self.next = reference_displace_rows(
            states, symbols, targets, program.num_states
        )
        self.default12, self.d3_key, self.d3_state = reference_default_views(program.defaults)
        self.match_index, self.match_pids = program.match_index, program.match_pids
        self.match_flags = np.diff(self.match_index) > 0
        self.warmup = program.warmup


def _reference_default_rows(self, columns: np.ndarray) -> np.ndarray:
    """``DTPAutomaton._default_rows`` as it was."""
    pairs = np.multiply(columns[:-1], _STRIDE, dtype=np.int32)
    pairs += columns[1:]  # pairs[i] = columns[i] * 257 + columns[i + 1]
    consumed = columns[2:]
    out = self.default12.take(pairs[1:], mode="clip")
    fires = self.d3_key.take(consumed, mode="clip") == pairs[:-1]
    np.copyto(out, self.d3_state.take(consumed, mode="clip"), where=fires)
    return out


def reference_dtp_lane_hits(self, cut: ReferenceLaneCut, scan_states):
    """``DTPAutomaton.lane_hits`` over whole-lane history tiles, as it was
    (``self``: a :class:`ReferenceDtpViews`)."""
    count = len(scan_states)
    carried = np.fromiter((s.state for s in scan_states), np.int32, count)
    offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
    prev1 = np.fromiter(
        (NO_BYTE if s.prev1 is None else s.prev1 for s in scan_states), np.int16, count
    )
    prev2 = np.fromiter(
        (NO_BYTE if None in (s.prev1, s.prev2) else s.prev2 for s in scan_states),
        np.int16, count,
    )
    warm = cut.lead - 2
    # the default rows of a whole tile would outweigh its state history:
    # they are made for an eighth of the steps at a time
    slab = (cut.lead + cut.lane_len) // 8 + 1
    # bound methods skip np.take's Python wrapper
    base, check, following_of = self.base.take, self.check.take, self.next.take
    add, differs, copyto = np.add, np.not_equal, np.copyto

    def walk(window, history, first_lanes, first_jobs):
        columns = window.astype(np.int16)
        # a job's first lane reads the carried history where the packed
        # buffer has another job's bytes
        columns[warm, first_lanes] = prev2[first_jobs]
        columns[warm + 1, first_lanes] = prev1[first_jobs]
        consumed = list(columns[2:])
        slot = np.empty(history.shape[1], dtype=np.int32)
        owner = np.empty_like(slot)
        pruned = np.empty(history.shape[1], dtype=bool)

        def advance(first, sources, targets):
            """Steps ``first`` .. ``first + len(sources) - 1``."""
            for top in range(0, len(sources), slab):
                low = first + top
                high = min(low + slab, first + len(sources))
                for state, column, default, following in zip(
                    sources[top:], consumed[low:high],
                    _reference_default_rows(self, columns[low:high + 2]), targets[top:],
                ):
                    base(state, out=slot, mode="clip")
                    add(slot, column, out=slot)
                    check(slot, out=owner, mode="clip")
                    differs(owner, state, out=pruned)
                    following_of(slot, out=following, mode="clip")
                    copyto(following, default, where=pruned)

        rows = list(history)
        # warm up from the root in place: these states report nothing
        state = rows[0]
        state.fill(ROOT)
        advance(0, [state] * warm, [state] * warm)
        state[first_lanes] = carried[first_jobs]
        advance(warm, rows[:-1], rows[1:])

    hits, final = cut.run(
        carried, offsets, self.match_flags, walk, cut.lead + cut.lane_len
    )
    return lanes.expand_hits(hits, self.match_index, self.match_pids), final


def reference_dtp_scan_lanes(program, scan_states, batch: LaneBatch):
    """``DTPAutomaton._scan_lanes`` over :func:`reference_dtp_lane_hits`."""
    hits, final = reference_dtp_lane_hits(
        ReferenceDtpViews(program), ReferenceLaneCut(batch, program.warmup, history=2),
        scan_states,
    )
    return lanes.job_results(scan_states, batch, hits, final)


# ----------------------------------------------------------------------
# the DTP kernel of the slab-rolled driver, as it was: plain state ids, a
# six-call step and default rows built from an int16 byte matrix
# ----------------------------------------------------------------------
# Moved here verbatim (``self`` a :class:`ReferenceDtpViews`) when the state
# value became its row displacement and took the match bit, and the defaults
# became one pair gather per byte.  It runs on the full-warm-up driver
# (:class:`FullWarmupLaneCut`), so it and :func:`full_warmup_dtp_lane_hits`
# differ in the kernel's step alone.
def _slab_default_rows(self, columns: np.ndarray) -> np.ndarray:
    """The default target of some consecutive steps of every lane.

    ``columns[i]`` is window byte ``i`` of every lane (``int16``, history
    may hold :data:`NO_BYTE`); step ``j`` consumes ``columns[j + 2]`` with
    ``columns[j + 1]`` and ``columns[j]`` before it.
    """
    pairs = np.multiply(columns[:-1], _STRIDE, dtype=np.int32)
    pairs += columns[1:]  # pairs[i] = columns[i] * 257 + columns[i + 1]
    consumed = columns[2:]
    out = self.default12.take(pairs[1:], mode="clip")
    fires = self.d3_key.take(consumed, mode="clip") == pairs[:-1]
    np.copyto(out, self.d3_state.take(consumed, mode="clip"), where=fires)
    return out


def slab_dtp_lane_hits(self, cut: "FullWarmupLaneCut", scan_states):
    """Run the kernel over ``cut`` (built with two history bytes), one
    scan state per job: ``(job, end offset, pattern id)`` hits in walk
    order and the final state id of every job."""
    count = len(scan_states)
    carried = np.fromiter((s.state for s in scan_states), np.int32, count)
    offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
    prev1 = np.fromiter(
        (NO_BYTE if s.prev1 is None else s.prev1 for s in scan_states), np.int16, count
    )
    prev2 = np.fromiter(
        (NO_BYTE if None in (s.prev1, s.prev2) else s.prev2 for s in scan_states),
        np.int16, count,
    )
    warm = cut.lead - 2
    # bound methods skip np.take's Python wrapper
    base, check, following_of = self.base.take, self.check.take, self.next.take
    add, differs, copyto = np.add, np.not_equal, np.copyto

    def walk(window, history, first_lanes, first_jobs):
        rows = list(history)
        slab = len(rows) - 1
        # the default rows of a whole slab would outweigh its states:
        # they are made for an eighth of its steps at a time
        part = slab // 8 + 1
        slot = np.empty(history.shape[1], dtype=np.int32)
        owner = np.empty_like(slot)
        pruned = np.empty(history.shape[1], dtype=bool)

        def advance(first, sources, targets):
            """Steps ``first`` .. ``first + len(sources) - 1``."""
            for top in range(0, len(sources), part):
                low = first + top
                columns = window[low:min(low + part, first + len(sources)) + 2]
                columns = columns.astype(np.int16)
                # a job's first lane reads the carried history where the
                # packed buffer has another job's bytes
                for row, carried_bytes in ((warm, prev2), (warm + 1, prev1)):
                    if low <= row < low + len(columns):
                        columns[row - low, first_lanes] = carried_bytes[first_jobs]
                for state, column, default, following in zip(
                    sources[top:], columns[2:], _slab_default_rows(self, columns),
                    targets[top:],
                ):
                    base(state, out=slot, mode="clip")
                    add(slot, column, out=slot)
                    check(slot, out=owner, mode="clip")
                    differs(owner, state, out=pruned)
                    following_of(slot, out=following, mode="clip")
                    copyto(following, default, where=pruned)

        # warm up from the root in place: these states report nothing
        state = rows[0]
        state.fill(ROOT)
        advance(0, [state] * warm, [state] * warm)
        state[first_lanes] = carried[first_jobs]
        for top in range(0, cut.lane_len, slab):
            steps = min(slab, cut.lane_len - top)
            advance(warm + top, rows[:steps], rows[1:steps + 1])
            yield steps

    hits, final = cut.run(carried, offsets, walk, self.match_flags.take)
    return lanes.expand_hits(hits, self.match_index, self.match_pids), final


def slab_dtp_scan_lanes(program, scan_states, batch: LaneBatch):
    """``DTPAutomaton._scan_lanes`` over :func:`slab_dtp_lane_hits`."""
    hits, final = slab_dtp_lane_hits(
        ReferenceDtpViews(program), FullWarmupLaneCut(batch, program.warmup, history=2),
        scan_states,
    )
    return lanes.job_results(scan_states, batch, hits, final)


# ----------------------------------------------------------------------
# the lane driver and both kernels as they were: every lane warmed up over
# the longest pattern
# ----------------------------------------------------------------------
# Moved here verbatim when a lane came to warm up ``SHORT_WARMUP`` bytes and
# be checked at its cut (and walked again where it disagrees).  The
# autouse fixtures of tests/test_backends.py's lane-kernel tests hold every
# production kernel call to these: hits, their order and every job's final
# state.
class FullWarmupLaneCut:
    """One batch cut into lanes: the packed bytes and the lane geometry.

    Built once per batch; every kernel that scans the batch (one per block
    of a multi-block program) :meth:`run`\\ s over the same cut.  ``history``
    extra bytes are kept in front of each lane's warm-up for kernels whose
    step reads the bytes before the current one.
    """

    def __init__(self, batch: LaneBatch, warmup: int, history: int = 0):
        self.lead = warmup + history
        self.lane_len = lane_len = lane_driver.lane_length(warmup, len(batch))
        self.data = batch.pack(lane_len, self.lead)
        # job j owns lanes first[j] .. first[j] + lanes_of[j] - 1
        self.lengths = lengths = np.fromiter(
            map(len, batch.chunks), dtype=np.int64, count=len(batch.chunks)
        )
        lanes_of = -(-lengths // lane_len)
        self.first = np.cumsum(lanes_of) - lanes_of
        self.num_lanes = int(lanes_of.sum())
        self.job_of_lane = np.repeat(np.arange(len(lengths)), lanes_of)
        self.live = live = np.flatnonzero(lanes_of)
        self.live_first = self.first[live]
        self.live_last = self.live_first + lanes_of[live] - 1
        # history row holding a job's final state: the one after its last byte
        self.live_last_row = lengths[live] - (lanes_of[live] - 1) * lane_len

    def run(
        self,
        carried: np.ndarray,
        offsets: np.ndarray,
        walk: Callable,
        reports: Callable,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """Walk every lane with one kernel; return its hits and final states.

        ``carried`` / ``offsets`` hold each job's carried-in state value and
        stream offset.  Hits carry the state *value* that reported; the
        final-state array has one value per job (an empty job ends where it
        started) — both in the kernel's encoding, which it decodes.
        """
        lane_len, num_lanes = self.lane_len, self.num_lanes
        live, live_first, live_last = self.live, self.live_first, self.live_last
        final = carried.copy()
        width = max(1, min(num_lanes, lane_driver.MAX_WIDTH))
        slab = max(1, min(lane_len, lane_driver.SLAB_CELLS // width))
        hit_positions: List[np.ndarray] = []
        hit_states: List[np.ndarray] = []
        for low in range(0, num_lanes, width):
            high = min(num_lanes, low + width)
            windows = sliding_window_view(self.data, self.lead + lane_len)
            history = np.empty((slab + 1, high - low), dtype=carried.dtype)
            begin, end = np.searchsorted(live_last, (low, high))  # jobs ending here
            ending, rows = live[begin:end], self.live_last_row[begin:end]
            ending_lanes = live_last[begin:end] - low
            begin, end = np.searchsorted(live_first, (low, high))
            top = 0
            for count in walk(
                windows[low * lane_len:high * lane_len:lane_len].T, history,
                live_first[begin:end] - low, live[begin:end],
            ):
                entered = history[1:count + 1]
                due = (rows > top) & (rows <= top + count)
                final[ending[due]] = history[rows[due] - top, ending_lanes[due]]
                mask = reports(entered)
                if mask is not None:
                    cells = np.flatnonzero(mask)
                    steps, lanes = np.divmod(cells, high - low)
                    hit_positions.append((lanes + low) * lane_len + top + steps)
                    hit_states.append(entered.take(cells))
                history[0] = history[count]
                top += count

        if not hit_positions:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty, empty), final
        positions = np.concatenate(hit_positions)
        order = np.argsort(positions)
        positions = positions[order]
        jobs = self.job_of_lane[positions // lane_len]
        within = positions - self.first[jobs] * lane_len
        real = within < self.lengths[jobs]  # a short last lane also walked its padding
        jobs = jobs[real]
        return (
            jobs,
            offsets[jobs] + within[real] + 1,
            np.concatenate(hit_states)[order][real],
        ), final


def full_warmup_dense_scan_lanes(self, scan_states, batch: LaneBatch):
    """``CompiledDenseProgram._scan_lanes`` as it was, on
    :class:`FullWarmupLaneCut`."""
    cut = FullWarmupLaneCut(batch, self.warmup)
    premultiplied, dtype = self.premultiplied, self.premultiplied.dtype
    # a state value at or above this carries the match bit
    flagged = len(premultiplied)
    count = len(scan_states)
    carried = np.fromiter((s.state for s in scan_states), dtype, count) << 8
    offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
    # the bound method skips np.take's Python wrapper, ~1.4 us a step
    add, take = np.add, premultiplied.take

    def walk(window, history, first_lanes, first_jobs):
        rows = list(history)
        lookup = np.empty_like(rows[0])
        # warm up from the root in place: these states report nothing
        state = rows[0]
        state.fill(0)
        for column in np.ascontiguousarray(window[:cut.lead]):
            add(state, column, out=lookup)
            take(lookup, out=state, mode="wrap")
        state[first_lanes] = carried[first_jobs]
        for top in range(cut.lead, len(window), len(rows) - 1):
            columns = np.ascontiguousarray(window[top:top + len(rows) - 1])
            for source, column, target in zip(rows, columns, rows[1:]):
                add(source, column, out=lookup)
                take(lookup, out=target, mode="wrap")
            yield len(columns)

    def reports(entered):
        return entered >= flagged if entered.max() >= flagged else None

    (jobs, ends, values), final = cut.run(carried, offsets, walk, reports)
    hits = lanes.expand_hits(
        (jobs, ends, (values - flagged) >> 8), self.match_index, self.match_pids
    )
    return lanes.job_results(scan_states, batch, hits, (final % flagged) >> 8)


def full_warmup_dtp_lane_hits(self, cut: FullWarmupLaneCut, scan_states):
    """Run the kernel over ``cut`` (built with two history bytes), one
    scan state per job: ``(job, end offset, pattern id)`` hits in walk
    order and the final state id of every job."""
    count = len(scan_states)
    carried = self.value_of.take(np.fromiter((s.state for s in scan_states), np.intp, count))
    offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
    prev1 = np.fromiter(
        (NO_BYTE if s.prev1 is None else s.prev1 for s in scan_states), np.intp, count
    )
    prev2 = np.fromiter(
        (NO_BYTE if None in (s.prev1, s.prev2) else s.prev2 for s in scan_states),
        np.intp, count,
    )
    warm = cut.lead - 2
    flagged = self.flagged
    # bound methods skip np.take's Python wrapper
    check, following_of = self.check.take, self.next.take
    add, differs, copyto = np.add, np.not_equal, np.copyto

    def walk(window, history, first_lanes, first_jobs):
        rows = list(history)
        slab = len(rows) - 1
        # a whole slab's defaults (and their intp pair index) would
        # outweigh its states: they are made an eighth of a slab at a time
        part = slab // 8 + 1
        # pairs[i] = window[i] * 256 + window[i + 1], read in place: a
        # big-endian uint16 over each byte and the next
        pairs = as_strided(
            window, (len(window) - 1, window.shape[1], 2), window.strides + (1,)
        ).view(">u2")[..., 0]
        slot = np.empty(history.shape[1], dtype=np.intp)
        owner = np.empty_like(rows[0])
        pruned = np.empty(history.shape[1], dtype=bool)
        # a job's first lane has the carried history where the packed
        # buffer has another job's bytes: the two steps that read it
        first_bytes = window[cut.lead, first_lanes].astype(np.intp)
        carried_history = (
            (warm, prev1[first_jobs], prev2[first_jobs]),
            (warm + 1, first_bytes, prev1[first_jobs]),
        )

        def advance(first, sources, targets):
            """Steps ``first`` .. ``first + len(sources) - 1``."""
            for top in range(0, len(sources), part):
                low = first + top
                high = min(low + part, first + len(sources))
                defaults = self._default_rows(pairs, low, high)
                for step, before, before_that in carried_history:
                    if low <= step < high:
                        defaults[step - low, first_lanes] = self._resolve(
                            window[step + 2, first_lanes], before, before_that
                        )
                columns = np.ascontiguousarray(window[low + 2:high + 2])
                for state, column, default, following in zip(
                    sources[top:], columns, defaults, targets[top:]
                ):
                    add(state, column, out=slot)
                    check(slot, out=owner, mode="wrap")
                    differs(owner, state, out=pruned)
                    following_of(slot, out=following, mode="wrap")
                    copyto(following, default, where=pruned)

        # warm up from the root in place: these states report nothing
        state = rows[0]
        state.fill(self.value_of[ROOT])
        advance(0, [state] * warm, [state] * warm)
        state[first_lanes] = carried[first_jobs]
        for top in range(0, cut.lane_len, slab):
            steps = min(slab, cut.lane_len - top)
            advance(warm + top, rows[:steps], rows[1:steps + 1])
            yield steps

    def reports(entered):
        return entered >= flagged if entered.max() >= flagged else None

    (jobs, ends, values), final = cut.run(carried, offsets, walk, reports)
    id_of = self.id_of
    hits = lanes.expand_hits(
        (jobs, ends, id_of.take(values)), self.match_index, self.match_pids
    )
    return hits, id_of.take(final)

def full_warmup_dtp_scan_lanes(self, scan_states, batch: LaneBatch):
    """``DTPAutomaton._scan_lanes`` as it was, over
    :func:`full_warmup_dtp_lane_hits` and the views of its day."""
    hits, final = full_warmup_dtp_lane_hits(
        EscapeDtpViews(self), FullWarmupLaneCut(batch, self.warmup, history=2),
        scan_states,
    )
    return lanes.job_results(scan_states, batch, hits, final)


# ----------------------------------------------------------------------
# the DTP kernel of the short-warm-up driver as it was: depth-3 defaults
# resolved at run time, as escape cells
# ----------------------------------------------------------------------
# Moved here verbatim when the transitions a depth-3 default prunes were
# folded into the kernel's row-displacement table, so that the pair table
# holds the depth-1/2 defaults only and a step reads one history byte.
# :class:`EscapeDtpViews` rebuilds that kernel's views off a program's
# stored pointers; :func:`full_warmup_dtp_lane_hits` reads them too.
def escape_default_views(
    defaults, value_of: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pair_default, escape_default)``: the lookup table as the kernel
    indexes it, in state values.  The (at most 256) pairs after which a
    depth-3 default may fire are *escapes*: their ``pair_default`` entry is
    ``~(byte * 257)``, and the cell's default is ``escape_default[byte * 257
    + prev2]`` (the depth-3 default where ``prev2`` fits it, else the
    depth-1/2 one; ``prev2`` may be :data:`NO_BYTE`)."""
    resolved = np.tile(defaults.d1, (NO_BYTE + 1, 1))  # [prev1, byte] -> state
    for byte, entries in defaults.d2.items():
        for entry in reversed(entries):  # the resolver takes the first that fits
            resolved[entry.preceding_byte, byte] = entry.state
    pair_default = value_of.take(resolved)
    # [byte, prev2]: what an escape pair resolves to, NO_BYTE included
    escape_default = np.zeros((ALPHABET_SIZE, NO_BYTE + 1), dtype=np.int32)
    for byte, entry in defaults.d3.items():
        prev2, prev1 = entry.preceding_bytes
        escape_default[byte] = pair_default[prev1, byte]
        escape_default[byte, prev2] = value_of[entry.state]
        pair_default[prev1, byte] = ~(byte * (NO_BYTE + 1))
    return pair_default.ravel(), escape_default.ravel()


class EscapeDtpViews:
    """A DTP program's kernel views before the fold: ``check`` / ``next``
    over its stored pointers only, the pair table with its escape codes and
    ``escape_default`` — ``self`` of :func:`escape_dtp_lane_hits` and
    :func:`full_warmup_dtp_lane_hits`."""

    def __init__(self, program: DTPAutomaton):
        self.flagged, self.value_of, self.check, self.next = state_values(
            *displace_rows(*program.pointers, program.num_states),
            np.diff(program.match_index) > 0,
        )
        self.id_of = np.full(2 * self.flagged, -1, dtype=np.int32)
        self.id_of[self.value_of] = np.arange(program.num_states)
        depth = lanes.depth_view(program.depth)
        self.value_depth = np.zeros(2 * self.flagged, dtype=depth.dtype)
        self.value_depth[self.value_of] = depth
        self.pair_default, self.escape_default = escape_default_views(
            program.defaults, self.value_of
        )
        self.match_index, self.match_pids = program.match_index, program.match_pids
        self.warmup = program.warmup

    def _resolve(self, byte: np.ndarray, prev1: np.ndarray, prev2: np.ndarray) -> np.ndarray:
        """Default values for arbitrary histories, :data:`NO_BYTE` included."""
        default = self.pair_default.take(prev1 * 256 + byte)
        escapes = np.flatnonzero(default < 0)
        default[escapes] = self.escape_default.take(~default[escapes] + prev2[escapes])
        return default

    def _default_rows(self, pairs: np.ndarray, low: int, high: int) -> np.ndarray:
        """The default value of steps ``low`` .. ``high - 1`` of every lane.

        Step ``j`` consumes the low byte of ``pairs[j + 1]``, after its high
        byte and the high byte of ``pairs[j]``.
        """
        index = pairs[low:high + 1].astype(np.intp, order="C")
        default = self.pair_default.take(index[1:])
        escapes = np.flatnonzero(default < 0)
        before = index.ravel().take(escapes)  # the same lane's pair one step earlier
        default.put(escapes, self.escape_default.take(~default.take(escapes) + (before >> 8)))
        return default


def escape_dtp_lane_hits(self, cut: lanes.LaneCut, scan_states):
    """Run the kernel over ``cut`` (built with two history bytes), one
    scan state per job: ``(job, end offset, pattern id)`` hits in walk
    order and the final state id of every job."""
    count = len(scan_states)
    carried = self.value_of.take(np.fromiter((s.state for s in scan_states), np.intp, count))
    offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
    prev1 = np.fromiter(
        (NO_BYTE if s.prev1 is None else s.prev1 for s in scan_states), np.intp, count
    )
    prev2 = np.fromiter(
        (NO_BYTE if None in (s.prev1, s.prev2) else s.prev2 for s in scan_states),
        np.intp, count,
    )
    flagged = self.flagged
    # bound methods skip np.take's Python wrapper
    check, following_of = self.check.take, self.next.take
    add, differs, copyto = np.add, np.not_equal, np.copyto

    def walk(window, history, warm, start, first_lanes, first_jobs):
        rows = list(history)
        slab = len(rows) - 1
        # a whole slab's defaults (and their intp pair index) would
        # outweigh its states: they are made an eighth of a slab at a time
        part = slab // 8 + 1
        # pairs[i] = window[i] * 256 + window[i + 1], read in place: a
        # big-endian uint16 over each byte and the next
        pairs = as_strided(
            window, (len(window) - 1, window.shape[1], 2), window.strides + (1,)
        ).view(">u2")[..., 0]
        slot = np.empty(history.shape[1], dtype=np.intp)
        owner = np.empty_like(rows[0])
        pruned = np.empty(history.shape[1], dtype=bool)
        # a job's first lane has the carried history where the packed
        # buffer has another job's bytes: the two steps that read it
        first_bytes = window[warm + 2, first_lanes].astype(np.intp)
        carried_history = (
            (warm, prev1[first_jobs], prev2[first_jobs]),
            (warm + 1, first_bytes, prev1[first_jobs]),
        )

        def advance(first, sources, targets):
            """Steps ``first`` .. ``first + len(sources) - 1``."""
            for top in range(0, len(sources), part):
                low = first + top
                high = min(low + part, first + len(sources))
                defaults = self._default_rows(pairs, low, high)
                for step, before, before_that in carried_history:
                    if low <= step < high:
                        defaults[step - low, first_lanes] = self._resolve(
                            window[step + 2, first_lanes], before, before_that
                        )
                columns = np.ascontiguousarray(window[low + 2:high + 2])
                for state, column, default, following in zip(
                    sources[top:], columns, defaults, targets[top:]
                ):
                    add(state, column, out=slot)
                    check(slot, out=owner, mode="wrap")
                    differs(owner, state, out=pruned)
                    following_of(slot, out=following, mode="wrap")
                    copyto(following, default, where=pruned)

        # warm up in place: these states report nothing
        state = rows[0]
        state[...] = start
        advance(0, [state] * warm, [state] * warm)
        state[first_lanes] = carried[first_jobs]
        walked = len(window) - 2 - warm
        for top in range(0, walked, slab):
            steps = min(slab, walked - top)
            advance(warm + top, rows[:steps], rows[1:steps + 1])
            yield steps

    def reports(entered):
        return entered >= flagged if entered.max() >= flagged else None

    (jobs, ends, values), final = cut.run(
        carried, offsets, self.value_of[ROOT], walk, reports, self.value_depth.take
    )
    id_of = self.id_of
    hits = lanes.expand_hits(
        (jobs, ends, id_of.take(values)), self.match_index, self.match_pids
    )
    return hits, id_of.take(final)


def escape_dtp_scan_lanes(program, scan_states, batch: LaneBatch):
    """``DTPAutomaton._scan_lanes`` as it was, over
    :func:`escape_dtp_lane_hits`."""
    hits, final = escape_dtp_lane_hits(
        EscapeDtpViews(program), lanes.LaneCut(batch, program.warmup, history=2),
        scan_states,
    )
    return lanes.job_results(scan_states, batch, hits, final)


# ----------------------------------------------------------------------
# the per-packet front end as it was: reference decoder and reassembler
# ----------------------------------------------------------------------
# Moved here verbatim when the production paths were fused (one decode pass
# by offset with interned flows; in-order segments delivered without the
# hole buffer; incremental hole bookkeeping), and the packet dataclass when
# it became a slots record.  The differential tests in
# tests/test_front_end.py hold the fast paths to these, frame by frame and
# packet by packet.
_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_VLAN = 0x8100
_IPPROTO_TCP = 6
_IPPROTO_UDP = 17
_IPV6_EXTENSIONS = {0, 43, 60}
_IPV6_FRAGMENT = 44
_PROTO_NAME = {_IPPROTO_TCP: "tcp", _IPPROTO_UDP: "udp"}


def reference_decode_frame(
    data: bytes, linktype: int = LINKTYPE_ETHERNET
) -> Tuple[Optional[DecodedFrame], Optional[str]]:
    """The decoder as it stood before the fused, flow-interning one: slice per
    layer, fresh ``ipaddress`` objects and a fresh ``FiveTuple`` per frame."""
    if linktype == LINKTYPE_ETHERNET:
        if len(data) < 14:
            return None, "truncated"
        (ethertype,) = struct.unpack_from("!H", data, 12)
        offset = 14
        while ethertype == _ETHERTYPE_VLAN:
            if len(data) < offset + 4:
                return None, "truncated"
            (ethertype,) = struct.unpack_from("!H", data, offset + 2)
            offset += 4
        packet = data[offset:]
    elif linktype == LINKTYPE_LINUX_SLL:
        if len(data) < 16:
            return None, "truncated"
        (ethertype,) = struct.unpack_from("!H", data, 14)
        packet = data[16:]
    elif linktype == LINKTYPE_RAW:
        if not data:
            return None, "truncated"
        version = data[0] >> 4
        ethertype = _ETHERTYPE_IPV4 if version == 4 else _ETHERTYPE_IPV6
        packet = data
    else:
        return None, "link"

    if ethertype == _ETHERTYPE_IPV4:
        return _reference_decode_ipv4(packet)
    if ethertype == _ETHERTYPE_IPV6:
        return _reference_decode_ipv6(packet)
    return None, "network"


def _reference_decode_ipv4(packet: bytes) -> Tuple[Optional[DecodedFrame], Optional[str]]:
    if len(packet) < 20:
        return None, "truncated"
    if packet[0] >> 4 != 4:
        return None, "network"
    header_len = (packet[0] & 0x0F) * 4
    total_len = struct.unpack_from("!H", packet, 2)[0]
    if header_len < 20 or len(packet) < total_len or total_len < header_len:
        return None, "truncated"
    flags_fragment = struct.unpack_from("!H", packet, 6)[0]
    # any fragment is unscannable without reassembly: a non-first fragment
    # (offset != 0) has no transport header, a first fragment (MF set) has a
    # partial payload that would silently miss boundary-spanning patterns
    if flags_fragment & 0x3FFF:  # offset bits | more-fragments
        return None, "fragment"
    protocol = packet[9]
    src = str(ipaddress.IPv4Address(packet[12:16]))
    dst = str(ipaddress.IPv4Address(packet[16:20]))
    return _reference_decode_transport(
        protocol, src, dst, packet[header_len:total_len]
    )


def _reference_decode_ipv6(packet: bytes) -> Tuple[Optional[DecodedFrame], Optional[str]]:
    if len(packet) < 40:
        return None, "truncated"
    if packet[0] >> 4 != 6:
        return None, "network"
    payload_len, next_header = struct.unpack_from("!HB", packet, 4)
    src = str(ipaddress.IPv6Address(packet[8:24]))
    dst = str(ipaddress.IPv6Address(packet[24:40]))
    end = 40 + payload_len
    if len(packet) < end:
        return None, "truncated"
    position = 40
    while next_header in _IPV6_EXTENSIONS or next_header == _IPV6_FRAGMENT:
        if position + 8 > end:
            return None, "truncated"
        if next_header == _IPV6_FRAGMENT:
            # offset bits | M flag: only atomic fragments are complete
            if struct.unpack_from("!H", packet, position + 2)[0] & 0xFFF9:
                return None, "fragment"
            next_header = packet[position]
            position += 8
        else:
            next_header, ext_len = struct.unpack_from("!BB", packet, position)
            position += (ext_len + 1) * 8
    return _reference_decode_transport(next_header, src, dst, packet[position:end])


def _reference_decode_transport(
    protocol: int, src: str, dst: str, segment: bytes
) -> Tuple[Optional[DecodedFrame], Optional[str]]:
    seq: Optional[int] = None
    flags = 0
    if protocol == _IPPROTO_TCP:
        if len(segment) < 20:
            return None, "truncated"
        src_port, dst_port = struct.unpack_from("!HH", segment, 0)
        seq = struct.unpack_from("!I", segment, 4)[0]
        flags = segment[13]
        data_offset = (segment[12] >> 4) * 4
        if data_offset < 20 or data_offset > len(segment):
            return None, "truncated"
        payload = segment[data_offset:]
    elif protocol == _IPPROTO_UDP:
        if len(segment) < 8:
            return None, "truncated"
        src_port, dst_port, length = struct.unpack_from("!HHH", segment, 0)
        if length < 8 or length > len(segment):
            return None, "truncated"
        payload = segment[8:length]
    else:
        return None, "transport"
    header = FiveTuple(
        src_ip=src,
        dst_ip=dst,
        src_port=src_port,
        dst_port=dst_port,
        protocol=_PROTO_NAME[protocol],
    )
    return DecodedFrame(header=header, payload=payload, seq=seq, flags=flags), None


def reference_decode_fields(data: bytes, linktype: int = LINKTYPE_ETHERNET) -> Tuple:
    """:func:`reference_decode_frame` in the plain-value shape of
    ``repro.capture.frames.decode_fields`` — what replay's record loop calls —
    so a test can swap the reference decoder in beneath it."""
    frame, reason = reference_decode_frame(data, linktype)
    if frame is None:
        return None, reason, None, None
    tcp = frame.seq is not None
    return frame.header, frame.payload, frame.seq, frame.flags if tcp else None


def reference_load_packets(capture, first_packet_id: int = 0, strict: bool = False):
    """``load_packets`` over :func:`reference_decode_frame`, counting as it did."""
    stats = ReplayStats()
    packets: List[Packet] = []
    next_id = first_packet_id
    for record in capture.records:
        stats.frames += 1
        frame, reason = reference_decode_frame(record.data, capture.linktype)
        if frame is None:
            if strict:
                raise CaptureError(
                    f"frame {stats.frames - 1} cannot be decoded ({reason})"
                )
            stats.skipped[reason] = stats.skipped.get(reason, 0) + 1
            continue
        packets.append(
            Packet(
                payload=frame.payload,
                header=frame.header,
                packet_id=next_id,
                tcp_seq=frame.seq,
                tcp_flags=frame.flags if frame.seq is not None else None,
            )
        )
        next_id += 1
        stats.decoded += 1
        stats.payload_bytes += len(frame.payload)
    return packets, stats


@dataclass
class ReferencePacket:
    """``repro.traffic.Packet`` as it stood before it became a ``__slots__``
    record: the dataclass the suite was written against, verbatim."""

    payload: bytes
    header: Optional[FiveTuple] = None
    packet_id: int = 0
    injected_sids: List[int] = field(default_factory=list)
    tcp_seq: Optional[int] = None
    tcp_flags: Optional[int] = None

    @property
    def length(self) -> int:
        return len(self.payload)

    def __len__(self) -> int:
        return len(self.payload)


class ReferenceReassembler(TcpReassembler):
    """:class:`TcpReassembler` with the insert-then-drain ``feed`` and the
    re-summing hole bookkeeping it had before the O(1) in-order path."""

    def feed(self, packet: Packet) -> List[Packet]:
        """``feed`` as it stood before the in-order early return: every data
        segment goes through ``_insert`` then ``_drain``, and the flow key is
        re-derived from the header on every packet."""
        self.stats.segments_in += 1
        header = packet.header
        if header is None or header.protocol.lower() != "tcp":
            self.stats.passthrough += 1
            return [self._emit(packet, packet.payload, packet.tcp_seq)]

        key = FlowKey(
            header.src_ip, header.dst_ip, header.src_port, header.dst_port,
            header.protocol,
        )
        out: List[Packet] = []
        state = self._flows.get(key)
        if state is None:
            state = self._create(key, packet, out)
        else:
            self._flows.move_to_end(key)

        if state.mode == "arrival":
            self.stats.passthrough += 1
            out.append(self._emit(packet, packet.payload, packet.tcp_seq))
            return out

        flags = packet.tcp_flags or 0
        if flags & _RST:
            self.stats.reset_flows += 1
            self._flows.pop(key, None)
            return out
        seq = packet.tcp_seq
        if seq is None:
            # a seq-less segment inside a seq flow: deliver at the current
            # point rather than guess (keeps mixed captures flowing)
            if packet.payload:
                out.append(self._emit_piece(state, packet, packet.payload))
            return out
        if flags & _SYN:
            if state.next_off == 0 and not state.holes:
                # (re)anchor an empty flow at the handshake
                state.seq_at_next = (seq + 1) & _SEQ_MASK
            if not packet.payload and not flags & _FIN:
                return out
            seq = (seq + 1) & _SEQ_MASK  # SYN consumes one: data starts after it

        data = packet.payload
        if not data:
            if flags & _FIN:
                rel = _seq_delta(seq, state.seq_at_next)
                state.fin_off = state.next_off + rel
                self._maybe_close(key, state)
            else:
                self.stats.keepalives += 1
            return out

        rel = _seq_delta(seq, state.seq_at_next)
        offset = state.next_off + rel
        end = offset + len(data)
        if offset < state.next_off and not state.delivered:
            # the anchor came from an out-of-order first arrival; nothing
            # has reached the scanner yet, so the stream start moves back
            state.seq_at_next = seq
            state.next_off = offset
        if end <= state.next_off:
            self.stats.retransmits += 1
            return out
        if offset < state.next_off:
            # leading bytes were already delivered and are final
            trim = state.next_off - offset
            self.stats.overlap_bytes += trim
            data = data[trim:]
            offset = state.next_off

        self._insert(state, offset, data)
        if flags & _FIN:
            state.fin_off = end

        if offset > state.next_off:
            self.stats.reordered += 1

        out.extend(self._drain(state, packet))
        if (
            state.buffered_bytes > self.max_flow_bytes
            or len(state.holes) > self.max_flow_segments
        ):
            self.stats.hole_flushes += 1
            out.extend(self._flush_state(state, packet))
        self._maybe_close(key, state)
        return out

    def _insert(self, state: _FlowState, offset: int, data: bytes) -> None:
        """Insert one piece into the hole buffer under the overlap policy."""
        holes = state.holes
        if self.overlap_policy == "last":
            # the new bytes win: cut every overlapped range out of the
            # existing pieces, then insert the new piece whole
            replaced: List[List] = []
            end = offset + len(data)
            for piece_off, piece in holes:
                piece_end = piece_off + len(piece)
                if piece_end <= offset or piece_off >= end:
                    replaced.append([piece_off, piece])
                    continue
                if piece_off < offset:
                    replaced.append([piece_off, piece[: offset - piece_off]])
                if piece_end > end:
                    replaced.append([end, piece[end - piece_off:]])
                kept = max(0, min(piece_end, end) - max(piece_off, offset))
                self.stats.overlap_bytes += kept
            replaced.append([offset, data])
            replaced.sort(key=lambda item: item[0])
            state.holes = replaced
        else:
            # "first": bytes that arrived earlier win — trim the new piece
            # around every existing range it overlaps
            pieces: List[List] = [[offset, data]]
            for piece_off, piece in holes:
                piece_end = piece_off + len(piece)
                next_pieces: List[List] = []
                for new_off, new_data in pieces:
                    new_end = new_off + len(new_data)
                    if new_end <= piece_off or new_off >= piece_end:
                        next_pieces.append([new_off, new_data])
                        continue
                    if new_off < piece_off:
                        next_pieces.append([new_off, new_data[: piece_off - new_off]])
                    if new_end > piece_end:
                        next_pieces.append([piece_end, new_data[piece_end - new_off:]])
                    self.stats.overlap_bytes += (
                        min(new_end, piece_end) - max(new_off, piece_off)
                    )
                pieces = next_pieces
                if not pieces:
                    break
            state.holes = sorted(
                holes + [piece for piece in pieces if piece[1]],
                key=lambda item: item[0],
            )
        state.buffered_bytes = sum(len(piece[1]) for piece in state.holes)

    def _drain(self, state: _FlowState, template: Packet) -> List[Packet]:
        """Deliver every piece now contiguous with the delivery point."""
        out: List[Packet] = []
        holes = state.holes
        while holes and holes[0][0] <= state.next_off:
            offset, data = holes.pop(0)
            if offset < state.next_off:  # defensive: policy trimming left none
                data = data[state.next_off - offset:]
            if data:
                out.append(self._emit_piece(state, template, bytes(data)))
        state.buffered_bytes = sum(len(piece[1]) for piece in holes)
        return out


# ----------------------------------------------------------------------
# the confirm stage as it was: the event-driven due set
# ----------------------------------------------------------------------
# Moved here verbatim (names prefixed) when the production stage went from
# "ask what the packet's events name, plus every touched growth-sensitive
# rule" to the per-flow open set.  It drives the production ``RuleEvaluator``
# objects, so what the differential tests in tests/test_confirm.py compare is
# *which rules are asked when*, not how one rule is evaluated (the naive
# evaluator below covers that).  ``install_reference_confirm`` swaps it into a
# built IDS.  Its per-flow storage follows the production stage's interface:
# the IDS keeps each record on the flow's table entry, so the stage holds no
# flow and ``finalize_flow`` / ``checkpoint`` / ``restore`` take and give
# records; the evaluation logic is unchanged.
def reference_merged_occurrences(
    step: _Step,
    positions: Dict[int, List[int]],
    lower_positions: Dict[int, List[int]],
) -> Sequence[int]:
    """Sorted end offsets of ``step``'s pattern, honouring its case mode.

    Case-sensitive steps see only the raw-view hits; ``nocase`` steps merge
    in the lower-cased-view hits (deduplicated — a hit present in both views
    is one occurrence).  Shared between the streaming :class:`ReferenceConfirmStage`
    and the stateless per-packet path in the pipeline.
    """
    raw = positions.get(step.number, ())
    if not step.nocase:
        return raw
    lower = lower_positions.get(step.number, ())
    if not lower:
        return raw
    if not raw:
        return lower
    return sorted(set(raw).union(lower))


class _ReferenceCandidates(NamedTuple):
    """One header-candidate list and what the stage derives from it, shared
    by every flow whose header matched the same rules."""

    sids: Tuple[int, ...]
    members: FrozenSet[int]
    #: the candidates no prefilter event can announce (pure sticky rules)
    unanchored: FrozenSet[int]


class _ReferenceFlowRecord:
    """Per-flow confirm state: occurrence positions, optional byte buffer,
    header candidates, which rules already alerted, and which
    growth-sensitive rules are re-asked as the flow grows."""

    __slots__ = (
        "positions", "lower_positions", "buffer", "length",
        "alerted", "view", "last_packet_id", "http", "touched", "sequence",
    )

    def __init__(self, view: _ReferenceCandidates, sequence: int):
        self.sequence = sequence
        self.positions: Dict[int, List[int]] = {}
        self.lower_positions: Dict[int, List[int]] = {}
        self.buffer: Optional[bytearray] = None
        self.length = 0
        self.alerted: Set[int] = set()
        self.view = view
        self.last_packet_id = -1
        #: the flow's HTTP normalizer (only when some rule is sticky)
        self.http: Optional[HttpStream] = None
        #: growth-sensitive candidates asked on every packet until they
        #: alert: the unanchored ones from the start, the rest once touched
        self.touched: Set[int] = set(view.unanchored)

    @property
    def candidates(self) -> Tuple[int, ...]:
        return self.view.sids

    @property
    def has_hits(self) -> bool:
        """Anything for a rule to match on yet: prefilter occurrences, or a
        normalized HTTP buffer a sticky content could hit."""
        if self.positions or self.lower_positions:
            return True
        return self.http is not None and self.http.is_http

    def absorb(self, packet_id: int, payload: bytes, events: Sequence) -> None:
        """Fold one scanned packet in.  ``events`` carry flow-absolute end
        offsets (the scanner's resumability contract), so positions
        accumulate sorted per view without any per-segment rebasing."""
        self.last_packet_id = packet_id
        self.length += len(payload)
        if self.buffer is not None:
            self.buffer += payload
        if self.http is not None:
            self.http.feed(payload)
        for event in events:
            target = self.lower_positions if event.lowered else self.positions
            target.setdefault(event.string_number, []).append(event.end_offset)

    def as_dict(self) -> Dict:
        return {
            "positions": {str(k): v for k, v in self.positions.items()},
            "lower_positions": {str(k): v for k, v in self.lower_positions.items()},
            "buffer": None if self.buffer is None else bytes(self.buffer).hex(),
            "length": self.length,
            "alerted": sorted(self.alerted),
            "candidates": list(self.view.sids),
            "last_packet_id": self.last_packet_id,
            "http": None if self.http is None else self.http.as_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: Dict, view: _ReferenceCandidates, sequence: int
    ) -> "_ReferenceFlowRecord":
        record = cls(view, sequence)
        record.positions = {int(k): list(v) for k, v in data["positions"].items()}
        record.lower_positions = {
            int(k): list(v) for k, v in data["lower_positions"].items()
        }
        buffer = data.get("buffer")
        record.buffer = None if buffer is None else bytearray(bytes.fromhex(buffer))
        record.length = int(data["length"])
        record.alerted = set(data["alerted"])
        record.last_packet_id = int(data["last_packet_id"])
        http = data.get("http")
        record.http = None if http is None else HttpStream.from_dict(http)
        return record


class ReferenceConfirmStage:
    """The confirm stage as it stood before the per-flow open set: the due set
    is ``index[this packet's events] ∪ touched`` (every rule an event names,
    plus every growth-sensitive rule a flow ever touched, on every packet).

    Correlates prefilter events into per-rule verdicts, flow by flow.

    One instance backs the serial and the process-parallel flow scans and
    the stateless per-packet path (it is fed :class:`StreamMatch` events
    every way).  Flow byte buffers are kept only when some rule actually
    carries a pcre.  ``evaluators`` arrive in rule-file order, which is the
    order verdicts are asked and alerts come out in.
    """

    def __init__(self, evaluators: Iterable[RuleEvaluator]):
        self.evaluators: Dict[int, RuleEvaluator] = {e.sid: e for e in evaluators}
        self.needs_buffer = any(e.needs_buffer for e in self.evaluators.values())
        #: some rule targets a normalized HTTP buffer: every flow carries an
        #: incremental :class:`HttpStream` alongside its hit positions
        self.needs_http = any(e.needs_http for e in self.evaluators.values())
        #: numbers records in creation (first-seen) order
        self._sequence = itertools.count()
        # the event-driven due set (module docstring): string number -> sids
        # with a positive raw step on it, per prefilter view.  A rule naming
        # one string twice is listed twice; the due set is a set.
        self._rank = {sid: rank for rank, sid in enumerate(self.evaluators)}
        self._raw_index: Dict[int, List[int]] = {}
        self._lower_index: Dict[int, List[int]] = {}
        growth: Set[int] = set()
        unanchored: Set[int] = set()
        for sid, evaluator in self.evaluators.items():
            # ``RuleEvaluator.growth_sensitive`` as it was (the attribute left
            # with the due set): any pcre, sticky or negated component
            if (
                evaluator.pcres
                or evaluator.sticky_steps
                or len(evaluator.positive_steps) < len(evaluator.steps)
            ):
                growth.add(sid)
                if not evaluator.positive_steps:
                    unanchored.add(sid)
            for step in evaluator.positive_steps:
                self._raw_index.setdefault(step.number, []).append(sid)
                if step.nocase:
                    self._lower_index.setdefault(step.number, []).append(sid)
        self._growth = frozenset(growth)
        self._unanchored = frozenset(unanchored)
        self._requires_end = frozenset(
            sid for sid, e in self.evaluators.items() if e.requires_end
        )
        self._views: Dict[Tuple[int, ...], _ReferenceCandidates] = {}

    # ------------------------------------------------------------------
    def _view(self, candidates: Iterable[int]) -> _ReferenceCandidates:
        sids = tuple(candidates)
        view = self._views.get(sids)
        if view is None:
            if len(self._views) >= CANDIDATE_CACHE_LIMIT:
                self._views.clear()
            members = frozenset(sids)
            view = self._views[sids] = _ReferenceCandidates(
                sids, members, self._unanchored & members
            )
        return view

    def new_record(self, candidates: Iterable[int]) -> _ReferenceFlowRecord:
        """A new flow's record: the IDS keeps it on the flow's table entry,
        the stateless per-packet path uses one per packet."""
        record = _ReferenceFlowRecord(self._view(candidates), next(self._sequence))
        if self.needs_buffer:
            record.buffer = bytearray()
        if self.needs_http:
            record.http = HttpStream()
        return record

    # ------------------------------------------------------------------
    def _occurrences(self, record: _ReferenceFlowRecord) -> OccurrenceFn:
        def occ(step: _Step) -> Sequence[int]:
            return reference_merged_occurrences(step, record.positions, record.lower_positions)

        return occ

    def check(self, record: _ReferenceFlowRecord, sid: int, at_end: bool = False) -> bool:
        """Evaluate rule ``sid`` against a flow's accumulated state (pure)."""
        evaluator = self.evaluators[sid]
        occ = self._occurrences(record)
        # cheap candidacy gate: every positive content must occur somewhere
        # before the positional/pcre machinery is worth running
        if not all(occ(step) for step in evaluator.positive_steps):
            return False
        buffer = (
            bytes(record.buffer)
            if evaluator.needs_buffer and record.buffer is not None
            else None
        )
        return evaluator.evaluate(occ, record.length, buffer, at_end, record.http)

    def _confirmed(
        self, record: _ReferenceFlowRecord, due: Iterable[int], at_end: bool
    ) -> List[int]:
        """Ask the ``due`` rules in rule-file order; the ones that hold are
        marked alerted (a rule alerts once per flow) and returned."""
        out: List[int] = []
        for sid in sorted(due, key=self._rank.__getitem__):
            if self.check(record, sid, at_end):
                record.alerted.add(sid)
                record.touched.discard(sid)
                out.append(sid)
        return out

    def verdicts(
        self, record: _ReferenceFlowRecord, events: Sequence, at_end: bool = False
    ) -> List[int]:
        """The rules the packet just absorbed confirms, in rule-file order.

        ``events`` are that packet's prefilter events; only the rules they
        can have changed, plus the flow's growth-sensitive ones, are asked
        (the due set of the module docstring).
        """
        due: Set[int] = set()
        for event in events:
            index = self._lower_index if event.lowered else self._raw_index
            due.update(index.get(event.string_number, ()))
        due &= record.view.members
        due -= record.alerted
        record.touched |= due & self._growth
        due |= record.touched
        return self._confirmed(record, due, at_end)

    def finalize_flow(self, record: _ReferenceFlowRecord) -> List[Tuple[int, int]]:
        """Decide end-of-flow rules (negation) for one flow's record.

        Returns ``(packet_id, sid)`` pairs — the alert is attributed to the
        flow's last seen packet, the point where "no more bytes" became
        true.  Safe to call repeatedly: decided rules are marked alerted.
        """
        # a pending end-of-flow rule is growth-sensitive: unless the flow
        # touched it, one of its positive contents never occurred
        due = record.touched & self._requires_end
        return [
            (record.last_packet_id, sid)
            for sid in self._confirmed(record, due, at_end=True)
        ]

    # ------------------------------------------------------------------
    def checkpoint(self, flows: Iterable[Tuple[FlowKey, _ReferenceFlowRecord]]) -> Dict:
        """JSON-serialisable snapshot of ``flows``' confirm state."""
        return {
            "flows": [
                {"key": list(key.as_tuple()), **record.as_dict()}
                for key, record in flows
            ]
        }

    def restore(self, data: Dict) -> List[Tuple[FlowKey, _ReferenceFlowRecord]]:
        out: List[Tuple[FlowKey, _ReferenceFlowRecord]] = []
        for entry in data["flows"]:
            key = FlowKey(*entry["key"])
            record = _ReferenceFlowRecord.from_dict(
                entry, self._view(entry["candidates"]), next(self._sequence)
            )
            # ``touched`` is not serialised: every number with a recorded
            # position was once an event, so the index gives it back
            for index, positions in (
                (self._raw_index, record.positions),
                (self._lower_index, record.lower_positions),
            ):
                for number in positions:
                    record.touched.update(index.get(number, ()))
            record.touched &= self._growth & record.view.members
            record.touched -= record.alerted
            out.append((key, record))
        return out


def install_reference_confirm(ids) -> ReferenceConfirmStage:
    """Replace a built IDS's confirm stage with the reference one over the
    same evaluators (before any packet is scanned)."""
    ids._confirm = ReferenceConfirmStage(ids._confirm.evaluators.values())
    return ids._confirm


# ----------------------------------------------------------------------
# the per-segment scan loop as it was
# ----------------------------------------------------------------------
# ``StreamScanner.scan_packet``, ``scan_segment`` and ``_scan_per_segment``
# and ``ScanService.submit`` moved here verbatim when ``scan_batch`` became
# one ``FlowTable.admit`` walk and one backend crossing whether or not the
# table evicts, together with the ``FlowTable`` methods they call
# (``lookup``, ``get_or_create``, ``insert`` and the constructor's
# ``on_evict`` hook).  One line had to go: ``entry.packets += 1`` (a flow
# entry no longer counts its packets).  ``ReferenceStreamScanner.scan_batch``
# is that loop for every batch — one crossing per segment — and is what the
# batched path is held to.
class ReferenceFlowTable(FlowTable):
    """The LRU table walked one segment at a time."""

    def __init__(
        self,
        capacity: int = DEFAULT_FLOW_CAPACITY,
        on_evict: Optional[Callable[[FlowEntry], None]] = None,
    ):
        super().__init__(capacity)
        self.on_evict = on_evict

    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        """Return the entry for ``key`` (refreshing its recency) or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def get_or_create(
        self, key: FlowKey, factory: Callable[[FlowKey], FlowEntry]
    ) -> FlowEntry:
        """Fetch the live entry for ``key``, creating (and possibly evicting)."""
        entry = self.lookup(key)
        if entry is not None:
            return entry
        entry = factory(key)
        self.insert(entry)
        return entry

    def insert(self, entry: FlowEntry) -> None:
        if entry.key not in self._entries:
            self.stats.created += 1
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.stats.evicted += 1
            if self.on_evict is not None:
                self.on_evict(evicted)


class ReferenceStreamScanner(StreamScanner):
    """A :class:`StreamScanner` whose every batch is the per-segment loop."""

    def __init__(
        self,
        program,
        flow_table: Optional[FlowTable] = None,
        capacity: int = DEFAULT_FLOW_CAPACITY,
        track_nocase=False,
    ):
        super().__init__(
            program,
            ReferenceFlowTable(capacity) if flow_table is None else flow_table,
            track_nocase=track_nocase,
        )

    def scan_packet(self, packet: Packet) -> List[StreamMatch]:
        """Scan one packet as the next segment of its flow."""
        return self.scan_segment(self.flow_key(packet), packet.payload, packet.packet_id)

    def scan_segment(
        self, key: FlowKey, payload: bytes, packet_id: int = 0
    ) -> List[StreamMatch]:
        """Scan ``payload`` as the next segment of flow ``key``."""
        entry = self.flows.get_or_create(key, self._new_entry)
        segment_start = entry.bytes_scanned
        ((raw, lowered),) = self._scan_views([(entry, payload)])
        matches = [
            StreamMatch(key, packet_id, offset, number) for offset, number in raw
        ]
        matches.extend(
            StreamMatch(key, packet_id, offset, number, True)
            for offset, number in lowered
        )

        self.stats.segments += 1
        self.stats.bytes_scanned += len(payload)
        self.stats.matches += len(matches)
        for match in matches:
            # the match ends in this segment but started before it
            if match.end_offset - self._pattern_length[match.string_number] < segment_start:
                self.stats.cross_segment_matches += 1
        return matches

    def scan_batch(self, items) -> BatchScan:
        batch = items if isinstance(items, SegmentBatch) else SegmentBatch.from_items(items)
        return self._scan_per_segment(batch)

    def _scan_per_segment(self, batch: SegmentBatch) -> BatchScan:
        """The exact slow path: scan the batch one segment at a time,
        recording each flow the table evicts on the way."""
        keys, payloads, packet_ids = batch.keys, batch.payloads, batch.packet_ids
        hits: Dict[int, List[StreamMatch]] = {}
        evictions: List[Tuple[int, FlowKey]] = []
        flows = self.flows
        previous = flows.on_evict
        position = 0

        def record(entry: FlowEntry) -> None:
            evictions.append((position, entry.key))
            if previous is not None:
                previous(entry)

        flows.on_evict = record
        try:
            for position in range(len(keys)):
                events = self.scan_segment(keys[position], payloads[position], packet_ids[position])
                if events:
                    hits[position] = events
        finally:
            flows.on_evict = previous
        return hits, evictions


def flow_keys(table: FlowTable) -> List[FlowKey]:
    """The table's flow keys, least recently used first."""
    return [entry.key for entry in table.entries()]


def eviction_keys(evictions: Sequence[Eviction]) -> List[Tuple[int, FlowKey]]:
    """``(index, key)`` of each ``(index, entry)`` eviction record: the form
    the per-segment reference records."""
    return [(index, entry.key) for index, entry in evictions]


def reference_service(
    program, flow_capacity: int = DEFAULT_FLOW_CAPACITY, track_nocase=False
) -> ScanService:
    """A :class:`ScanService` scanning through :class:`ReferenceStreamScanner`."""
    service = ScanService(program, flow_capacity=flow_capacity, track_nocase=track_nocase)
    service.scanner = ReferenceStreamScanner(
        program, capacity=flow_capacity, track_nocase=track_nocase
    )
    return service


def reference_submit(self: ScanService, packet: Packet) -> List[StreamMatch]:
    """Scan a single packet as the next segment of its flow."""
    return self.scanner.scan_packet(packet)


# ----------------------------------------------------------------------
# the stateless mode as it was: private per-packet matchers
# ----------------------------------------------------------------------
# Moved here verbatim (names prefixed, ``self`` the Session or the IDS) when
# ``packets`` mode and ``IntrusionDetectionSystem.process`` went onto the scan
# service's fresh-flow scan.  Two names had to change: ``_packet_events``
# matched with ``self._matcher`` (always ``self.program`` unless the retired
# cycle-model switch was on) and tested ``self._nocase_patterns`` (non-empty
# exactly when ``self._nocase_numbers`` is).  ``reference_packets_run_events``
# is the ``packets`` branch of ``Session.run``, and ``reference_scan_packets``
# the ``CompiledProgramMixin.scan_packets`` it called (one ``match`` a payload,
# before that became one ``scan_many`` call).
def reference_scan_packets(self, payloads: Iterable[bytes]) -> List[List]:
    """Scan several packets; state resets per packet."""
    return [self.match(payload) for payload in payloads]


def reference_scan_stateless(
    self, payloads: Optional[Sequence[bytes]] = None
) -> List[List]:
    """Per-packet matching with state reset at every packet boundary."""
    if payloads is None:
        payloads = [packet.payload for packet in self.packets]
    return reference_scan_packets(self.program, payloads)


def reference_packets_run_events(self) -> List[MatchEvent]:
    packets = self._reshaped(self._loaded_source.packets, end_of_source=True)
    per_packet = reference_scan_stateless(self, [packet.payload for packet in packets])
    events = [
        MatchEvent(
            packet_id=packet.packet_id,
            end_offset=offset,
            string_number=number,
        )
        for packet, matches in zip(packets, per_packet)
        for offset, number in matches
    ]
    return events


def reference_packet_events(self, packet: Packet) -> List[StreamMatch]:
    """One packet's prefilter events, raw view then lowered view.

    The payload is scanned as-is; when any rule uses ``nocase`` a
    lower-cased copy is scanned as well (its hits credit only the
    case-insensitive patterns at evaluation time).
    """
    matcher = self.program  # accelerator and program share the protocol
    views = [(packet.payload, False)]
    if self._nocase_numbers:
        views.append((packet.payload.lower(), True))
    return [
        StreamMatch(ANONYMOUS_FLOW, packet.packet_id, end, number, lowered)
        for payload, lowered in views
        for end, number in matcher.match(payload)
    ]


def reference_process(self, packets: Sequence[Packet]) -> List:
    """Run the full pipeline over ``packets`` and return the alerts raised.

    Stateless: every packet is its own complete "flow", so predicates —
    negation included — are decided per packet (``at_end`` semantics).
    """
    alerts = []
    confirm = self._confirm
    for packet in packets:
        self.stats.packets_processed += 1
        self.stats.payload_bytes += len(packet.payload)
        events = reference_packet_events(self, packet)
        self.stats.content_matches += len({
            event.string_number
            for event in events
            if not event.lowered or event.string_number in self._nocase_numbers
        })
        # the packet is its own flow: a record of its own (with its own
        # pcre buffer and HTTP normalizer), never tracked by the stage
        record = confirm.new_record(self.classifier.classify(packet.header))
        self.stats.header_candidates += len(record.candidates)
        record.absorb(packet.packet_id, packet.payload, events)
        for sid in confirm.verdicts(record, events, at_end=True):
            alerts.append(self._alert(packet.packet_id, sid))
    return alerts


# ----------------------------------------------------------------------
# the naive rule-semantics reference and the alert-equivalence harness
# ----------------------------------------------------------------------
def naive_occurrence_ends(data: bytes, content) -> List[int]:
    """All end offsets of a content in ``data`` by plain ``bytes.find``.

    ``nocase`` searches the lower-cased bytes — byte-for-byte what the
    two-stage pipeline's merged raw+lowered views amount to, derived
    independently from whole reassembled payloads.
    """
    pattern = content.effective_pattern()
    haystack = data.lower() if content.nocase else data
    ends: List[int] = []
    start = haystack.find(pattern)
    while start != -1:
        ends.append(start + len(pattern))
        start = haystack.find(pattern, start + 1)
    return ends


def naive_header_match(rule_header, header) -> bool:
    """Does a parsed rule's header admit a packet's 5-tuple?  Written apart
    from :mod:`repro.ids.classifier` (no parsing shared, nothing cached);
    covers the forms the differential workloads use — ``any``, an address or
    CIDR block, a port, ``lo:hi``/``lo:``/``:hi``, and ``!`` negation."""
    if header is None:
        return True
    if rule_header.protocol not in ("ip", "any", header.protocol):
        return False

    def ip_ok(pattern: str, address: str) -> bool:
        if pattern == "any":
            return True
        inside = ipaddress.ip_address(address) in ipaddress.ip_network(
            pattern.lstrip("!"), strict=False
        )
        return inside != pattern.startswith("!")

    def port_ok(pattern: str, port: int) -> bool:
        if pattern == "any":
            return True
        low, colon, high = pattern.lstrip("!").partition(":")
        if colon:
            inside = int(low or 0) <= port <= int(high or 65535)
        else:
            inside = port == int(low)
        return inside != pattern.startswith("!")

    return (
        ip_ok(rule_header.src_ip, header.src_ip)
        and ip_ok(rule_header.dst_ip, header.dst_ip)
        and port_ok(rule_header.src_port, header.src_port)
        and port_ok(rule_header.dst_port, header.dst_port)
    )


def naive_rule_match(spec, data: bytes, at_end: bool) -> bool:
    """Evaluate one parsed rule over a whole (reassembled) flow prefix.

    An independent implementation of the documented predicate semantics
    (see :mod:`repro.ids.confirm`): occurrence windows by ``bytes.find``,
    chain backtracking by plain recursion, negation decided when the window
    is provably complete, pcre via :mod:`re` over the full bytes, sticky
    buffers by normalizing the whole prefix in one shot (no incremental
    state).  This is the ground truth the two-stage pipeline is
    differentially tested against; it shares no code with the prefilter or
    the confirm stage, and it evaluates every rule on every packet.
    """
    contents = list(spec.contents)

    def sticky_ok(content) -> bool:
        stream = HttpStream()
        stream.feed(data)
        buffer = stream.buffer(content.buffer)
        if content.nocase:
            buffer = buffer.lower()
        found = content.effective_pattern() in buffer
        return (not found and at_end) if content.negated else found

    def window(content, doe):
        if content.is_relative:
            lo = doe + (content.distance or 0)
            hi = lo + content.within if content.within is not None else None
        else:
            lo = content.offset or 0
            hi = lo + content.depth if content.depth is not None else None
        return lo, hi

    def pcres_ok() -> bool:
        for pcre in spec.pcres:
            found = pcre.compile().search(data) is not None
            if pcre.negated:
                if found or not at_end:
                    return False
            elif not found:
                return False
        return True

    def chain(index: int, doe: int) -> bool:
        if index == len(contents):
            return pcres_ok()
        content = contents[index]
        if content.is_sticky:
            return sticky_ok(content) and chain(index + 1, doe)
        length = len(content.pattern)
        lo, hi = window(content, doe)
        ends = naive_occurrence_ends(data, content)
        if content.negated:
            occupied = any(
                end - length >= lo and (hi is None or end <= hi) for end in ends
            )
            decided = at_end or (hi is not None and len(data) >= hi)
            return (not occupied) and decided and chain(index + 1, doe)
        for end in ends:
            if hi is not None and end > hi:
                continue
            if end - length >= lo and chain(index + 1, end):
                return True
        return False

    return chain(0, 0)


def naive_reference_alerts(specs, packets: Sequence[Packet]) -> List[Tuple[int, int]]:
    """The exact ``(packet_id, sid)`` alert sequence the pipeline must emit.

    Mirrors the pipeline's attribution contract on whole reassembled
    prefixes: a rule alerts once per flow at the first packet where its
    predicate holds mid-stream, and rules with negated components get one
    more evaluation at flow end, attributed to the flow's last packet, with
    flows walked in first-seen order.  A rule is a candidate for the flows
    its header admits (:func:`naive_header_match`).
    """
    loaded = [spec for spec in specs if spec.positive_contents]
    flows: Dict[object, Dict] = {}
    out: List[Tuple[int, int]] = []
    for packet in packets:
        key = (packet.header.src_ip, packet.header.src_port,
               packet.header.dst_ip, packet.header.dst_port,
               packet.header.protocol) if packet.header is not None else None
        state = flows.get(key)
        if state is None:
            state = flows[key] = {
                "data": bytearray(), "last": -1, "alerted": set(),
                "active": [
                    spec for spec in loaded
                    if naive_header_match(spec.header, packet.header)
                ],
            }
        state["data"] += packet.payload
        state["last"] = packet.packet_id
        for spec in state["active"]:
            if spec.sid in state["alerted"]:
                continue
            if naive_rule_match(spec, bytes(state["data"]), at_end=False):
                state["alerted"].add(spec.sid)
                out.append((packet.packet_id, spec.sid))
    for state in flows.values():  # insertion order = first-seen order
        for spec in state["active"]:
            if spec.sid in state["alerted"]:
                continue
            requires_end = any(c.negated for c in spec.contents) or any(
                p.negated for p in spec.pcres
            )
            if not requires_end:
                continue
            if naive_rule_match(spec, bytes(state["data"]), at_end=True):
                state["alerted"].add(spec.sid)
                out.append((state["last"], spec.sid))
    return out


#: rule headers over the 5-tuples :class:`TrafficGenerator` draws (tcp/udp,
#: 10/8 -> 192.168/16, source ports >= 1024, eight destination ports): each
#: admits some flows and rejects others, so candidates != all rules
MIXED_RULE_HEADERS = (
    "alert ip any any -> any any",
    "alert tcp any any -> any any",
    "alert ip any any -> any 80",
    "alert ip any any -> any !443",
    "alert ip any any -> any :1024",
    "alert ip any 1024:32767 -> any any",
    "alert ip any any -> 192.168.0.0/17 any",
    "alert udp !10.128.0.0/9 any -> any any",
)


def random_predicate_rules(
    ruleset: RuleSet,
    seed: int,
    num_rules: int = 12,
    headers: Sequence[str] = ("alert ip any any -> any any",),
):
    """Randomized full-grammar rules over a synthetic ruleset's patterns.

    Builds rule *lines* (then parses them, so the parser is in the loop):
    a header drawn from ``headers`` (wildcard by default), 1–3 contents
    drawn from ``ruleset`` (later ones may be negated), random
    offset/depth/distance/within windows, occasional ``nocase`` and ``pcre``
    options.  Patterns come from the same ruleset the traffic generator
    injects, so prefilter hits are guaranteed and the windows decide the
    interesting part.
    """
    from repro.rulesets import parse_rules, render_content

    rng = random.Random(seed)
    patterns = list(ruleset.patterns)
    lines = []
    for index in range(num_rules):
        # biased toward short chains: single-content rules fire often enough
        # to keep the differential workload hot, longer chains exercise the
        # relative-window machinery
        count = 1 if rng.random() < 0.45 else (2 if rng.random() < 0.8 else 3)
        count = min(count, len(patterns))
        chosen = rng.sample(patterns, count)
        options = []
        for position, pattern in enumerate(chosen):
            negated = position > 0 and rng.random() < 0.25
            bang = "!" if negated else ""
            options.append(f'content:{bang}"{render_content(pattern)}"')
            if rng.random() < 0.2:
                options.append("nocase")
            if position == 0:
                if rng.random() < 0.4:
                    options.append(f"offset:{rng.randint(0, 8)}")
                if rng.random() < 0.4:
                    options.append(f"depth:{len(pattern) + rng.randint(0, 600)}")
            else:
                if rng.random() < 0.5:
                    options.append(f"distance:{rng.randint(0, 4)}")
                if rng.random() < 0.5:
                    options.append(f"within:{len(pattern) + rng.randint(0, 300)}")
        if rng.random() < 0.3:
            # regex over an alphanumeric fragment of a positive pattern, so
            # the body never collides with the option grammar
            fragment = _alnum_fragment(chosen[0])
            if fragment:
                bang = "!" if rng.random() < 0.3 else ""
                flags = "i" if rng.random() < 0.5 else ""
                options.append(f'pcre:{bang}"/{fragment}.*/{flags}"')
        options.append(f"sid:{5000 + index}")
        lines.append(f"{rng.choice(headers)} (" + "; ".join(options) + ";)")
    return parse_rules(lines)


def _alnum_fragment(pattern: bytes, minimum: int = 3):
    """Longest run of ``[a-z0-9]`` bytes, or ``None`` if shorter than
    ``minimum`` — keeps generated pcre bodies free of regex metacharacters."""
    best = b""
    current = b""
    for byte in pattern:
        if 97 <= byte <= 122 or 48 <= byte <= 57:
            current += bytes([byte])
            if len(current) > len(best):
                best = current
        else:
            current = b""
    return best.decode("ascii") if len(best) >= minimum else None


def assert_equivalent_alerts(
    specs,
    packets: Sequence[Packet],
    *,
    backends: Sequence[str] = ("dtp", "dense"),
    sources: Sequence[str] = ("memory", "pcap"),
    flow_capacity: int = 4096,
    restore_at: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Differentially check the two-stage pipeline against the naive
    reference: every backend × source combination must produce the naive
    evaluator's exact ``(packet_id, sid)`` alert sequence.  Returns that
    sequence so callers can assert workload-specific properties.

    With ``restore_at`` every backend is run once more in memory with a
    checkpoint → JSON → restore into a fresh IDS before packet
    ``restore_at``.
    """
    from repro.capture import replay_ids
    from repro.ids import IntrusionDetectionSystem

    def build_ids(backend: str):
        ids = IntrusionDetectionSystem.from_specs(specs, backend=backend)
        if flow_capacity != 4096:
            ids.reset_flows(capacity=flow_capacity)
        return ids

    packets = renumbered(list(packets))
    expected = naive_reference_alerts(specs, packets)
    capture = None
    if "pcap" in sources:
        buffer = io.BytesIO()
        write_packets(buffer, packets)
        capture = buffer.getvalue()
    for backend in backends:
        for source in sources:
            ids = build_ids(backend)
            if source == "memory":
                alerts = ids.scan_flow(packets) + ids.finish()
            else:
                alerts = replay_ids(io.BytesIO(capture), ids)
            got = [(alert.packet_id, alert.sid) for alert in alerts]
            assert got == expected, (
                f"backend={backend} source={source} alerts differ from the naive reference"
            )
        if restore_at is None or "memory" not in sources:
            continue
        ids = build_ids(backend)
        alerts = ids.scan_flow(packets[:restore_at])
        saved = json.loads(json.dumps(ids.checkpoint()))
        ids = build_ids(backend)
        ids.restore(saved)
        alerts += ids.scan_flow(packets[restore_at:]) + ids.finish()
        got = [(alert.packet_id, alert.sid) for alert in alerts]
        assert got == expected, (
            f"backend={backend} alerts differ from the naive reference after a "
            f"checkpoint/restore before packet {restore_at}"
        )
    return expected


# ----------------------------------------------------------------------
# the compile path as it was: per-state objects, four walks of the table
# ----------------------------------------------------------------------
# The differential references for the array compile path
# (tests/test_compile_path.py): the DFA table built state by state, the
# pruning mask's three gathers, the stored pointers as one dict per state
# and the greedy word packer over per-state records.
class _ReferenceDfa:
    """Carries what ``AhoCorasickDFA._build_table`` read and wrote on ``self``."""

    def __init__(self, trie):
        self.trie = trie
        self.num_states = trie.num_states
        self.fail: List[int] = [ROOT] * trie.num_states
        self.outputs: List[List[int]] = [list(o) for o in trie.outputs]


def reference_build_table(trie):
    """``AhoCorasickDFA._build_table`` as it was: ``(table, fail, outputs)``."""
    self = _ReferenceDfa(trie)
    table = np.zeros((self.num_states, 256), dtype=np.int32)
    # Root row: its own goto edges, everything else stays at root.
    for byte, child in trie.children[ROOT].items():
        table[ROOT, byte] = child
        self.fail[child] = ROOT

    for state in trie.iter_bfs():
        if state == ROOT:
            continue
        # Inherit the fallback row, then overwrite with own goto edges.
        table[state] = table[self.fail[state]]
        for byte, child in trie.children[state].items():
            self.fail[child] = table[self.fail[state], byte]
            self.outputs[child] = list(trie.outputs[child]) + list(
                self.outputs[self.fail[child]]
            )
            table[state, byte] = child
    return table, self.fail, self.outputs


def reference_stored_pointer_counts(dfa, table) -> np.ndarray:
    """``default_transitions._stored_pointer_counts`` as it was."""
    num_states = dfa.num_states
    d2_byte = np.full(num_states, -1, dtype=np.int32)
    for byte, entries in table.d2.items():
        for entry in entries:
            d2_byte[entry.state] = byte
    d3_byte = np.full(num_states, -1, dtype=np.int32)
    for byte, entry in table.d3.items():
        d3_byte[entry.state] = byte
    d1_row = table.d1.astype(np.int64)
    columns = np.arange(256, dtype=np.int32)[None, :]

    counts = np.zeros(num_states, dtype=np.int64)
    chunk = 8192
    for start in range(0, num_states, chunk):
        stop = min(start + chunk, num_states)
        block = dfa.table[start:stop]
        non_root = block != ROOT
        target_depth = dfa.depth[block]
        drop = non_root & (target_depth == 1) & (block == d1_row[None, :])
        drop |= non_root & (target_depth == 2) & (d2_byte[block] == columns)
        drop |= non_root & (target_depth == 3) & (d3_byte[block] == columns)
        counts[start:stop] = (non_root & ~drop).sum(axis=1)
    return counts


def reference_build_stored_pointers(dfa, defaults):
    """``DTPAutomaton._build_stored_pointers`` as it was: ``(stored, (states,
    bytes, targets))`` — one dict per state and the same pointers as arrays."""
    num_states = dfa.num_states
    stored: List[Dict[int, int]] = [dict() for _ in range(num_states)]
    # dtp_automaton._default_membership_arrays as it was
    d2_byte = np.full(num_states, -1, dtype=np.int32)
    for byte, entries in defaults.d2.items():
        for entry in entries:
            d2_byte[entry.state] = byte
    d3_byte = np.full(num_states, -1, dtype=np.int32)
    for byte, entry in defaults.d3.items():
        d3_byte[entry.state] = byte
    d1_row = defaults.d1.astype(np.int64)
    columns = np.arange(256, dtype=np.int32)[None, :]

    kept = []
    for start in range(0, num_states, 8192):
        stop = min(start + 8192, num_states)
        block = dfa.table[start:stop]
        non_root = block != ROOT
        target_depth = dfa.depth[block]

        drop = non_root & (target_depth == 1) & (block == d1_row[None, :])
        drop |= non_root & (target_depth == 2) & (d2_byte[block] == columns)
        drop |= non_root & (target_depth == 3) & (d3_byte[block] == columns)
        keep = non_root & ~drop

        rows, cols = np.nonzero(keep)
        targets = block[rows, cols]
        rows += start
        for row, col, target in zip(rows.tolist(), cols.tolist(), targets.tolist()):
            stored[row][col] = target
        kept.append((rows, cols, targets))
    states, symbols, targets = map(np.concatenate, zip(*kept))
    return stored, (states, symbols, targets)


def reference_folded_pointers(dfa, defaults):
    """The transitions a depth-3 default prunes, ``(states, bytes,
    targets)`` sorted by state then byte: each default's byte column
    searched for its target."""
    folded = np.array(sorted(
        (state, byte, entry.state)
        for byte, entry in defaults.d3.items()
        for state in np.flatnonzero(dfa.table[:, byte] == entry.state).tolist()
    ), dtype=np.int64).reshape(-1, 3)
    return folded[:, 0], folded[:, 1], folded[:, 2]


def reference_build_state_records(stored, match_memory=None):
    """``memory_layout.build_state_records`` as it was, over ``stored``."""
    from repro.core.memory_layout import StateRecord

    records = []
    for state_id in range(len(stored)):
        pointers = sorted(stored[state_id].items())
        match_address = None
        if match_memory is not None:
            match_address = match_memory.address_of(state_id)
        records.append(
            StateRecord(
                state_id=state_id,
                pointers=[(char, target) for char, target in pointers],
                match_address=match_address,
            )
        )
    return records


class ReferencePacker:
    """``memory_layout._Packer`` as it was: greedy, deterministic, gap-free."""

    def __init__(self) -> None:
        self.placements = {}
        self.next_word = 0

    def _new_word(self) -> int:
        word = self.next_word
        self.next_word += 1
        return word

    def pack_group(self, group) -> None:
        """Pack ``group`` into fresh words (words are not shared across groups)."""
        by_slots = {1: [], 3: [], 5: [], 7: [], 9: []}
        for record in group:
            by_slots[record.slots].append(record)

        singles = by_slots[1]

        def take_singles(count: int, word: int, start_slot: int) -> None:
            for offset in range(count):
                if not singles:
                    return
                record = singles.pop(0)
                self._place(record, word, 1, start_slot + offset)

        for record in by_slots[9]:
            word = self._new_word()
            self._place(record, word, 9, 0)

        for record in by_slots[7]:
            word = self._new_word()
            self._place(record, word, 7, 0)
            take_singles(2, word, 7)

        threes = by_slots[3]
        for record in by_slots[5]:
            word = self._new_word()
            self._place(record, word, 5, 0)
            if threes:
                other = threes.pop(0)
                self._place(other, word, 3, 6)
                take_singles(1, word, 5)
            else:
                take_singles(4, word, 5)

        while threes:
            word = self._new_word()
            for start in (0, 3, 6):
                if threes:
                    record = threes.pop(0)
                    self._place(record, word, 3, start)
                else:
                    take_singles(3, word, start)

        while singles:
            word = self._new_word()
            take_singles(9, word, 0)

    def _place(self, record, word: int, slots: int, start_slot: int) -> None:
        from repro.core.memory_layout import Placement
        from repro.core.state_types import type_for_placement

        state_type = type_for_placement(slots, start_slot)
        self.placements[record.state_id] = Placement(word_index=word, state_type=state_type)


class ReferencePacked(NamedTuple):
    records: Dict
    placements: Dict
    num_words: int


def reference_pack_state_machine(dtp, stored, match_memory=None, capacity_words=None):
    """``memory_layout.pack_state_machine`` as it was, over a ``stored`` list
    of dicts (what the automaton carried then)."""
    from repro.core.memory_layout import PackingError, default_target_order

    records = reference_build_state_records(stored, match_memory)
    record_by_id = {record.state_id: record for record in records}

    for record in records:
        if record.num_pointers > 13:
            raise PackingError(
                f"state {record.state_id} stores {record.num_pointers} pointers; "
                "the hardware handles at most 13 (Section IV.A)"
            )

    priority = default_target_order(dtp)
    priority_set = set(priority)
    rest = [record for record in records if record.state_id not in priority_set]

    packer = ReferencePacker()
    packer.pack_group([record_by_id[s] for s in priority])
    packer.pack_group(rest)

    packed = ReferencePacked(record_by_id, packer.placements, packer.next_word)
    if capacity_words is not None and packed.num_words > capacity_words:
        raise PackingError(
            f"state machine needs {packed.num_words} words but the block memory "
            f"holds only {capacity_words}"
        )
    if packed.num_words > (1 << 12):
        raise PackingError(
            f"state machine needs {packed.num_words} words; addresses are "
            f"12 bits (max {1 << 12})"
        )
    return packed


# ----------------------------------------------------------------------
# the block image as it was built from the packed records
# ----------------------------------------------------------------------
def reference_build_block_image(program):
    """``hardware.image.build_block_image`` as it was: every state entry from
    ``packed.records``, not decoded from the encoded words."""
    from repro.hardware.image import BlockImage, LookupEntry, StateEntry

    packed = program.packed
    dtp = program.dtp

    address_of = {
        state_id: packed.address_of(state_id) for state_id in packed.placements
    }

    states = {}
    for state_id, record in packed.records.items():
        entry = StateEntry(match_address=record.match_address)
        for char, target in record.pointers:
            entry.pointers[char] = address_of[target]
        states[address_of[state_id]] = entry

    lookup = {}
    defaults = dtp.defaults
    for byte in range(len(defaults.d1)):
        depth1 = int(defaults.d1[byte])
        entry = LookupEntry(
            d1_address=address_of[depth1] if depth1 != ROOT else None
        )
        for d2 in defaults.d2.get(byte, []):
            entry.d2.append((d2.preceding_byte, address_of[d2.state]))
        d3 = defaults.d3.get(byte)
        if d3 is not None:
            entry.d3 = (d3.preceding_bytes[0], d3.preceding_bytes[1], address_of[d3.state])
        lookup[byte] = entry

    match_words = {
        address: word for address, word in enumerate(program.match_memory.words)
    }

    return BlockImage(
        root_address=address_of[ROOT],
        states=states,
        lookup=lookup,
        match_words=match_words,
        string_numbers=dict(program.string_numbers),
        state_machine_words=packed.num_words,
    )
