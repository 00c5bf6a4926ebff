"""Shared fixtures and the differential-equivalence harness.

Expensive artefacts (rulesets, compiled accelerator programs) are
session-scoped so the suite stays fast; tests that need to mutate state build
their own small instances.

:func:`assert_equivalent_events` is the regression gate for every streaming
optimisation: it scans one randomized workload through every requested
{backend} × {serial, workers} × {in-memory, pcap-replay} combination and
asserts the event streams, shard reports and service gauges are
byte-identical.  The four scan-equivalence test families (backends, parallel
executor, capture replay, pipeline API) all call it instead of hand-rolling
their own comparison loops.
"""

from __future__ import annotations

import io
import ipaddress
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.automata import AhoCorasickDFA
from repro.backend import get_backend
from repro.capture import replay_scan, write_packets
from repro.core import DTPAutomaton, compile_ruleset
from repro.fpga import CYCLONE_III, STRATIX_III
from repro.proto import HttpStream
from repro.rulesets import RuleSet, generate_snort_like_ruleset
from repro.streaming import ParallelScanService, ScanService
from repro.traffic import Packet, TrafficGenerator

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


@pytest.fixture(scope="session")
def small_program_cyclone(small_ruleset):
    return compile_ruleset(small_ruleset, CYCLONE_III)


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
    shortest legal — with ``lanes_per_tile`` dense lanes a tile (a dtp lane,
    which keeps its warm-up and history bytes too, weighs two), so a few dozen
    bytes cross lane cuts and tile boundaries.  Returns the lane length."""
    from repro.core import lanes

    monkeypatch.setattr(lanes, "KERNEL_MIN_BYTES", 0)
    monkeypatch.setattr(lanes, "STEP_DISPATCH_CELLS", 1 << 40)

    def force(program, lanes_per_tile: int = 3) -> int:
        lane_len = lanes.lane_length(program.warmup, 10_000)
        assert lane_len == program.warmup
        monkeypatch.setattr(lanes, "TILE_CELLS", lanes_per_tile * (lane_len + 1))
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
    ``dtp`` through the full device compiler, everything else bare."""
    if backend == "dtp":
        return compile_ruleset(ruleset, STRATIX_III)
    return get_backend(backend).compile(ruleset.patterns)


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
    their event lists; ``stats`` is the reference service's final gauge dict
    (``num_workers`` removed, since it legitimately differs per front-end);
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


def _comparable_stats(stats: Dict) -> Dict:
    stats = dict(stats)
    stats.pop("num_workers", None)  # serial None vs parallel N, by design
    stats.pop("transport", None)  # data-plane counters exist only parallel-side
    return stats


def assert_equivalent_events(
    ruleset: RuleSet,
    packets: Sequence[Packet],
    *,
    backends: Sequence[str] = ("dtp", "dense"),
    worker_counts: Sequence[Optional[int]] = (None, 2),
    sources: Sequence[str] = ("memory", "pcap"),
    num_shards: int = 2,
    flow_capacity: int = 4096,
    track_nocase: bool = False,
    batches: int = 1,
    capture_fmt: str = "pcap",
    parallel_kwargs: Optional[Dict] = None,
) -> EquivalenceReference:
    """Differentially scan one workload through every requested combination.

    Every ``backend`` × ``workers`` (``None`` = the serial
    :class:`ScanService`) × ``source`` (``"memory"`` scans the packet list,
    ``"pcap"`` replays it from an in-memory capture) must produce
    byte-identical events, shard reports, batch totals and final service
    gauges; the first combination is the reference and every other one is
    asserted against it.  Returns the reference (see
    :class:`EquivalenceReference`) so callers can pile on workload-specific
    assertions — e.g. that the deliberately split patterns were actually
    found.

    ``batches > 1`` splits the packets into that many consecutive ``scan()``
    calls, pinning state carry-over *between* batches; it is memory-source
    only, because a capture replay is a single pass.  ``parallel_kwargs``
    are forwarded to every :class:`ParallelScanService` built — the
    transport tests use them to force tiny ring geometries (wraparound,
    spill, backpressure) and assert the events stay canonical.  When ``"pcap"`` is
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

    def run(backend: str, program, workers: Optional[int], source: str):
        if workers is None:
            service = ScanService(
                program,
                num_shards=num_shards,
                flow_capacity_per_shard=flow_capacity,
                track_nocase=track_nocase,
            )
        else:
            service = ParallelScanService(
                program,
                num_shards=num_shards,
                flow_capacity_per_shard=flow_capacity,
                track_nocase=track_nocase,
                workers=workers,
                **(parallel_kwargs or {}),
            )
        with service:
            if source == "memory":
                results = [service.scan(chunk) for chunk in chunks]
            else:
                results = [replay_scan(io.BytesIO(capture), service)]
            stats = service.stats()
        return results, stats

    reference: Optional[EquivalenceReference] = None
    reference_label = None
    combinations = 0
    for backend in backends:
        program = build_program(ruleset, backend)
        for workers in worker_counts:
            for source in sources:
                label = f"backend={backend} workers={workers} source={source}"
                results, stats = run(backend, program, workers, source)
                combinations += 1
                if reference is None:
                    reference = EquivalenceReference(
                        results, _comparable_stats(stats), combinations
                    )
                    reference_label = label
                    continue
                for got, want in zip(results, reference.results):
                    assert got.events == want.events, (
                        f"{label} events differ from {reference_label}"
                    )
                    assert got.shards == want.shards, (
                        f"{label} shard reports differ from {reference_label}"
                    )
                    assert got.packets == want.packets
                    assert got.bytes_scanned == want.bytes_scanned
                assert _comparable_stats(stats) == reference.stats, (
                    f"{label} service gauges differ from {reference_label}"
                )
    assert reference is not None, "no backend/worker/source combinations given"
    reference.combinations = combinations
    return reference


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
    worker_counts: Sequence[Optional[int]] = (None, 2),
    sources: Sequence[str] = ("memory", "pcap"),
    flow_capacity: int = 4096,
    restore_at: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Differentially check the two-stage pipeline against the naive
    reference: every backend × workers × source combination must produce the
    naive evaluator's exact ``(packet_id, sid)`` alert sequence.  Returns
    that sequence so callers can assert workload-specific properties.

    With ``restore_at`` every serial in-memory combination is run once more
    with a checkpoint → JSON → restore into a fresh IDS before packet
    ``restore_at`` (a parallel IDS checkpoints through its scan service).
    """
    from repro.capture import replay_ids
    from repro.ids import IntrusionDetectionSystem

    packets = renumbered(list(packets))
    expected = naive_reference_alerts(specs, packets)
    capture = None
    if "pcap" in sources:
        buffer = io.BytesIO()
        write_packets(buffer, packets)
        capture = buffer.getvalue()
    for backend in backends:
        for workers in worker_counts:
            for source in sources:
                label = f"backend={backend} workers={workers} source={source}"
                ids = IntrusionDetectionSystem.from_specs(
                    specs, backend=backend, workers=workers
                )
                if flow_capacity != 4096:
                    ids.reset_flows(capacity=flow_capacity)
                with ids:
                    if source == "memory":
                        alerts = ids.scan_flow(packets) + ids.finish()
                    else:
                        alerts = replay_ids(io.BytesIO(capture), ids)
                got = [(alert.packet_id, alert.sid) for alert in alerts]
                assert got == expected, (
                    f"{label} alerts differ from the naive reference"
                )
        if restore_at is not None and None in worker_counts and "memory" in sources:
            with IntrusionDetectionSystem.from_specs(specs, backend=backend) as ids:
                alerts = ids.scan_flow(packets[:restore_at])
                saved = json.loads(json.dumps(ids.checkpoint()))
            with IntrusionDetectionSystem.from_specs(specs, backend=backend) as ids:
                ids.restore(saved)
                alerts += ids.scan_flow(packets[restore_at:]) + ids.finish()
            got = [(alert.packet_id, alert.sid) for alert in alerts]
            assert got == expected, (
                f"backend={backend} alerts differ from the naive reference "
                f"after a checkpoint/restore before packet {restore_at}"
            )
    return expected
