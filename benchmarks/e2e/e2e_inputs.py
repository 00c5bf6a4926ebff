"""Seed-driven inputs for the end-to-end benchmark: rules, traffic, reference.

Every workload is built here, in the *generator* process, and handed to the
measuring process as files only — a ``.rules`` file, a classic pcap, a
``pipeline.json`` the program loads with ``Session.from_config(path)``, and a
``manifest.json`` with the reference output.  The same ``--seed`` gives
byte-identical rules and pcap files (their SHA-256 is recorded).

Sizes are fixed constants (``WORKLOADS[...]["sizes"]``), never tuned at run
time; ``scale`` exists only so the smoke test can shrink them.

The reference is the program itself run with the independent ``ac`` backend
over the *clean, in-order* wire; the planted ``(flow, sid)`` ground truth
must be a subset of it or generation fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api import Session
from repro.automata.aho_corasick import AhoCorasickDFA
from repro.capture.replay import write_packets
from repro.rulesets.generator import generate_snort_like_ruleset
from repro.rulesets.parser import render_content
from repro.streaming.flow import FlowKey
from repro.traffic.generator import GeneratedFlow, TrafficGenerator
from repro.traffic.packet import FiveTuple, Packet

#: the backend the reference run uses: the plain move-function DFA shares no
#: scan loop with the ``dense`` or ``dtp`` kernels under test
REFERENCE_BACKEND = "ac"

_CHATTER = (
    b"GET /index.html HTTP/1.1\r\n", b"Host: example.com\r\n", b"Accept: */*\r\n",
    b"Content-Type: text/html\r\n", b"the quick brown fox ", b"lorem ipsum dolor ",
    b"0123456789", b"abcdefghijklmnopqrstuvwxyz", b"\r\n\r\n",
)

#: per-flow truth and reference values: flow id -> sorted [a, b] pairs.  In
#: ids mode a pair is (packet id, sid) and the flow id the flow's index; in
#: stream mode it is (flow-absolute end offset, sid) keyed by the 5-tuple.
FlowSets = Dict[str, List[List[int]]]


def _rng(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose; str seeds hash deterministically."""
    return random.Random(f"e2e:{seed}:{purpose}")


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(value * scale)))


def background(rng: random.Random, size: int) -> bytes:
    """Protocol chatter mixed with binary runs (the generator's benign mix)."""
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.7:
            out += rng.choice(_CHATTER)
        else:
            out += rng.randbytes(rng.randint(4, 16))
    return bytes(out[:size])


def flow_header(index: int, dst_port: int = 80) -> FiveTuple:
    """A distinct TCP 5-tuple per flow index (collisions would merge flows)."""
    return FiveTuple(
        src_ip=f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}",
        dst_ip=f"192.168.{(index >> 8) & 255}.{index & 255}",
        src_port=1024 + index % 60000,
        dst_port=dst_port,
        protocol="tcp",
    )


def flow_id(header: FiveTuple) -> str:
    """The stream-mode flow id: the event record's ``flow`` list, joined."""
    return FlowKey.from_header(header).encode().decode()


def synthetic_rules(seed: int, size: int):
    """The synthetic ruleset every synthetic-rule workload shares.

    Redrawn until no rule string occurs in the chatter: the generator builds
    strings from protocol tokens, and one seed in about thirty yields
    ``" HTTP/1.1"``, which the chatter carries in every request line — the
    "benign" capture then hits in every flow and runs 5x slower.
    """
    rng = _rng(seed, "rules")
    chatter = [first + second for first in _CHATTER for second in _CHATTER]
    while True:
        ruleset = generate_snort_like_ruleset(size, seed=rng.randrange(2**31))
        if not any(rule.pattern in text for rule in ruleset for text in chatter):
            return ruleset


def render_synthetic_rules(ruleset) -> str:
    """``generate-ruleset`` shape: one wildcard-header content rule per string."""
    lines = [f"# synthetic Snort-like ruleset: {len(ruleset)} strings"]
    for rule in ruleset:
        lines.append(
            "alert ip any any -> any any "
            f'(content:"{render_content(rule.pattern)}"; sid:{rule.sid};)'
        )
    return "\n".join(lines) + "\n"


def _flows_from_payloads(
    payloads_per_flow: Sequence[Sequence[bytes]], ports: Optional[Sequence[int]] = None
) -> List[GeneratedFlow]:
    flows = []
    for index, payloads in enumerate(payloads_per_flow):
        header = flow_header(index, ports[index] if ports else 80)
        flows.append(
            GeneratedFlow(
                header=header,
                packets=[Packet(payload=payload, header=header) for payload in payloads],
            )
        )
    return flows


def _overwrite(segment: bytearray, offset: int, data: bytes) -> None:
    segment[offset:offset + len(data)] = data


# ----------------------------------------------------------------------
# synthetic-rule traffic
# ----------------------------------------------------------------------
def benign_flows(seed: int, flows: int, rounds: int, segment: int) -> List[GeneratedFlow]:
    """In-order bulk flows of chatter; no rule string is planted.

    Bytes are drawn round by round (one segment per flow per round), so a
    shorter workload with the same seed is a byte prefix of a longer one —
    ``benign_bulk_dtp`` replays the head of ``benign_bulk_dense``'s capture.
    """
    rng = _rng(seed, "benign")
    payloads: List[List[bytes]] = [[] for _ in range(flows)]
    for _ in range(rounds):
        for flow in payloads:
            flow.append(background(rng, segment))
    return _flows_from_payloads(payloads)


def deep_state_flows(
    seed: int, ruleset, flows: int, rounds: int, segment: int
) -> Tuple[List[GeneratedFlow], float]:
    """Flows made of nothing but proper rule-string prefixes (length >= 2).

    Every byte continues or restarts a partial match, so the automaton never
    parks at the root and the dense kernel's root-skip pass has nothing to
    skip.  One long *tape* of prefixes is laid down while walking the
    reference automaton; a prefix whose junction with the tape would complete
    a rule string is redrawn, so the tape — and every window of it — matches
    nothing and confirm stays idle.  Flow ``i`` is the window starting at the
    first prefix boundary past ``i`` steps.  Also returns the share of tape
    bytes that left the automaton at depth >= 2.
    """
    rng = _rng(seed, "deep")
    pool = [
        rule.pattern[:cut]
        for rule in ruleset
        for cut in range(2, len(rule.pattern))
    ]
    dfa = AhoCorasickDFA.from_patterns(ruleset.patterns)
    table = dfa.table.tolist()
    depth = dfa.depth.tolist()
    matching = [bool(outputs) for outputs in dfa.outputs]

    need = rounds * segment
    step = 1024
    tape = bytearray()
    boundaries = []  # tape offsets where a prefix starts
    state = deep = 0
    while len(tape) < need + flows * step:
        for _ in range(64):
            prefix = rng.choice(pool)
            walk, walk_deep = state, 0
            for byte in prefix:
                walk = table[walk][byte]
                if matching[walk]:
                    break
                walk_deep += depth[walk] >= 2
            else:
                break
        else:  # pragma: no cover - most of the pool is safe at any junction
            raise RuntimeError("no rule-string prefix extends the tape without a match")
        boundaries.append(len(tape))
        tape += prefix
        state, deep = walk, deep + walk_deep
    payloads = []
    for index in range(flows):
        start = boundaries[bisect_left(boundaries, index * step)]
        stream = bytes(tape[start:start + need])
        payloads.append(
            [stream[cut:cut + segment] for cut in range(0, need, segment)]
        )
    return _flows_from_payloads(payloads), deep / len(tape)


def planted_flows(
    seed: int, purpose: str, ruleset, flows: int, segments: int, segment: int, whole: int = 0
) -> Tuple[List[GeneratedFlow], Dict[int, Set[int]]]:
    """Chatter flows that each carry one rule string cut across a segment
    boundary plus ``whole`` more inside single segments.

    Strings overwrite chatter in place, so every flow keeps its fixed size.
    Returns the flows and the planted ``flow index -> sids`` ground truth.
    """
    rng = _rng(seed, purpose)
    rules = [rule for rule in ruleset if 4 <= len(rule.pattern) <= segment // 2]
    truth: Dict[int, Set[int]] = {}
    payloads = []
    for index in range(flows):
        parts = [bytearray(background(rng, segment)) for _ in range(segments)]
        boundary = rng.randrange(segments - 1)  # the split spans parts[b], parts[b + 1]
        rule = rng.choice(rules)
        cut = rng.randint(1, len(rule.pattern) - 1)
        _overwrite(parts[boundary], segment - cut, rule.pattern[:cut])
        _overwrite(parts[boundary + 1], 0, rule.pattern[cut:])
        planted = {rule.sid}
        free = [slot for slot in range(segments) if slot not in (boundary, boundary + 1)]
        for slot in rng.sample(free, whole):
            rule = rng.choice(rules)
            _overwrite(parts[slot], rng.randrange(segment - len(rule.pattern)), rule.pattern)
            planted.add(rule.sid)
        truth[index] = planted
        payloads.append([bytes(part) for part in parts])
    return _flows_from_payloads(payloads), truth


def mangle_flows(
    seed: int, purpose: str, flows: Sequence[GeneratedFlow], modes: Sequence[str]
) -> List[GeneratedFlow]:
    """Render each flow adversarially (SYN + FIN), modes assigned in rotation."""
    mangler = TrafficGenerator(seed=_rng(seed, purpose).randrange(2**31))
    return [
        mangler.mangle(flow, mode=modes[index % len(modes)])
        for index, flow in enumerate(flows)
    ]


# ----------------------------------------------------------------------
# community-grammar rules over HTTP-shaped flows
# ----------------------------------------------------------------------
def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("bcdfghjklmnpqrstvwxz") for _ in range(length))


def _percent_encode(text: str, rng: random.Random) -> str:
    return "".join(
        f"%{ord(char):02x}" if char.isalpha() and rng.random() < 0.5 else char
        for char in text
    )


def _http_request(
    method: str, uri: str, headers: Sequence[str], body: bytes, rng: random.Random
) -> bytes:
    lines = [f"{method} {uri} HTTP/1.1", f"Host: {_word(rng, 8)}.example"]
    lines.extend(headers)
    lines.append("Accept: */*")
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def web_rules_and_flows(
    seed: int, rules_per_template: int, flows: int, flow_bytes: int, segment: int
) -> Tuple[str, List[GeneratedFlow], Dict[int, Set[int]]]:
    """~100 rules from seven templates plus HTTP flows, half tripping one.

    Each template exercises one part of the confirm grammar — anchored
    chains, ``nocase`` + ``pcre``, negation decided at flow end,
    ``http_uri`` / ``http_header`` sticky buffers, ``distance``/``within``
    on a non-default port, negated pcre.  A trigger is the request a rule's
    template says must alert; a *near miss* hits the prefilter but fails the
    confirm predicate (the work confirm exists to reject).
    """
    rng = _rng(seed, "web")
    tokens: Set[str] = set()

    def token() -> str:
        while True:
            candidate = _word(rng, rng.randint(7, 10))
            if candidate not in tokens:
                tokens.add(candidate)
                return candidate

    # (rule line, dst port, trigger builder, near-miss builder or None)
    Build = Callable[[], Tuple[str, str, List[str], bytes]]
    entries: List[Tuple[str, int, Build, Optional[Build]]] = []
    sid = 3000000

    def add(line: str, port: int, trigger: Build, near: Optional[Build] = None) -> None:
        nonlocal sid
        sid += 1
        entries.append((line.replace("SID", str(sid)), port, trigger, near))

    def filler(size: int) -> bytes:
        return _word(rng, size).encode()

    for _ in range(rules_per_template):
        tok = token()
        add(
            f'alert tcp any any -> any 80 (msg:"cgi {tok}"; content:"GET "; offset:0; '
            f'depth:4; content:"/{tok}.cgi"; distance:0; within:120; sid:SID;)',
            80,
            lambda tok=tok: ("GET", f"/{tok}.cgi?id=1", [], b""),
            lambda tok=tok: ("GET", "/" + _word(rng, 130) + f"/{tok}.cgi", [], b""),
        )
        tok = token()
        add(
            f'alert tcp any any -> any 80 (msg:"exe {tok}"; content:"{tok}.exe"; nocase; '
            f'pcre:"/GET[^\\r\\n]*{tok}\\.exe/i"; sid:SID;)',
            80,
            lambda tok=tok: ("GET", f"/scripts/{tok.upper()}.ExE", [], b""),
            lambda tok=tok: ("POST", "/upload", [], f"name={tok}.exe".encode()),
        )
        tok = token()
        add(
            f'alert tcp any any -> any 80 (msg:"post {tok}"; content:"POST /{tok}"; '
            f'offset:0; depth:{6 + len(tok)}; content:!"X-Token:"; nocase; sid:SID;)',
            80,
            lambda tok=tok: ("POST", f"/{tok}", [], filler(24)),
            lambda tok=tok: ("POST", f"/{tok}", ["x-token: 1f"], filler(24)),
        )
        tok = token()
        add(
            f'alert tcp any any -> any 8080 (msg:"admin {tok}"; '
            f'content:"/{tok}/admin"; http_uri; sid:SID;)',
            8080,
            lambda tok=tok: ("GET", _percent_encode(f"/{tok}/admin", rng), [], b""),
        )
        tok = token()
        add(
            f'alert tcp any any -> any any (msg:"bot {tok}"; content:"Accept"; '
            f'content:"User-Agent: {tok}bot"; http_header; nocase; sid:SID;)',
            rng.choice((80, 8080)),
            lambda tok=tok: ("GET", "/", [f"user-agent:    {tok.title()}BOT/1.0"], b""),
        )
        tok, tok2 = token(), token()
        add(
            f'alert tcp any any -> any 8080 (msg:"pair {tok}"; content:"{tok}"; '
            f'content:"{tok2}"; distance:4; within:64; sid:SID;)',
            8080,
            lambda tok=tok, tok2=tok2: (
                "POST", "/api", [], f"{tok}--------{tok2}".encode()
            ),
            lambda tok=tok, tok2=tok2: (
                "POST", "/api", [], tok.encode() + filler(90) + tok2.encode()
            ),
        )
        tok = token()
        add(
            f'alert tcp any 1024: -> any 80 (msg:"cookie {tok}"; '
            f'content:"|0d 0a|Cookie: {tok}="; depth:600; pcre:!"/{tok}=safe/"; sid:SID;)',
            80,
            lambda tok=tok: ("GET", "/", [f"Cookie: {tok}=evil"], b""),
            lambda tok=tok: ("GET", "/", [f"Cookie: {tok}=safe"], b""),
        )

    rules_text = "# community-grammar rules generated from templates\n" + "".join(
        line + "\n" for line, _, _, _ in entries
    )
    entry_sid = [3000001 + index for index in range(len(entries))]

    truth: Dict[int, Set[int]] = {}
    payloads, ports = [], []
    for index in range(flows):
        roll = rng.random()
        planted: Set[int] = set()
        if roll < 0.5:
            pick = rng.randrange(len(entries))
            _, port, trigger, _ = entries[pick]
            method, uri, headers, body = trigger()
            planted.add(entry_sid[pick])
        elif roll < 0.65:
            pick = rng.choice([i for i, entry in enumerate(entries) if entry[3]])
            _, port, _, near = entries[pick]
            method, uri, headers, body = near()
        else:
            port = rng.choice((80, 8080))
            method = rng.choice(("GET", "POST"))
            uri = "/" + _word(rng, 12) + rng.choice((".html", ".cgi", "/admin"))
            headers = [f"User-Agent: {_word(rng, 9)}/2.0"]
            body = filler(32) if method == "POST" else b""
        first = _http_request(method, uri, headers, body, rng)
        # a second, benign keep-alive request pads the flow to about its fixed
        # size (~90 B of that are the request's own head); its body length is
        # declared, so the HTTP normalizer keeps parsing
        pad = background(rng, max(0, flow_bytes - len(first) - 90))
        second = _http_request("POST", "/" + _word(rng, 10), [], pad, rng)
        stream = first + second
        truth[index] = planted
        ports.append(port)
        payloads.append(
            [stream[start:start + segment] for start in range(0, len(stream), segment)]
        )
    return rules_text, _flows_from_payloads(payloads, ports), truth


# ----------------------------------------------------------------------
# workload table
# ----------------------------------------------------------------------
#: name -> how the program is driven and its fixed sizes (why each exists:
#: ``BENCHMARK.json``)
WORKLOADS: Dict[str, Dict] = {
    "benign_bulk_dense": {
        "mode": "ids", "backend": "dense",
        "sizes": {"rules": 500, "flows": 48, "rounds": 32, "segment": 1460},
    },
    "benign_bulk_dtp": {
        "mode": "ids", "backend": "dtp",
        "sizes": {"rules": 500, "flows": 48, "rounds": 8, "segment": 1460},
    },
    "deep_state_dense": {
        "mode": "ids", "backend": "dense",
        "sizes": {"rules": 500, "flows": 48, "rounds": 32, "segment": 1460},
    },
    "hit_heavy_confirm": {
        "mode": "ids", "backend": "dense",
        "sizes": {"rules": 500, "flows": 64, "segments": 8, "segment": 512},
    },
    "mangled_small_segments": {
        "mode": "stream", "backend": "dense",
        "sizes": {"rules": 500, "flows": 1024, "segments": 8, "segment": 64},
    },
    "web_rules_mixed": {
        "mode": "ids", "backend": "dense",
        "sizes": {"rules_per_template": 14, "flows": 256, "flow_bytes": 2048, "segment": 512},
    },
    "live_microbatch": {
        "mode": "stream", "backend": "dense", "serve": True,
        "sizes": {"rules": 500, "flows": 128, "segments": 16, "segment": 1024},
    },
}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def flow_sets_from_ndjson(
    path: str, mode: str, packet_flow: Optional[Sequence[int]]
) -> FlowSets:
    """Group one run's ndjson records into per-flow value sets.

    Raises ``ValueError`` on a line that is not a record of the mode's shape
    — a corrupted sink fails every flow rather than passing silently.
    """
    grouped: Dict[str, Set[Tuple[int, int]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if mode == "ids":
                key = str(packet_flow[record["packet"]])
                value = (int(record["packet"]), int(record["sid"]))
            else:
                key = "|".join(str(part) for part in record["flow"])
                value = (int(record["offset"]), int(record["sid"]))
            grouped.setdefault(key, set()).add(value)
    return {key: [list(value) for value in sorted(values)] for key, values in grouped.items()}


def failed_flows(reference: FlowSets, observed: FlowSets) -> int:
    """Flows whose alert/event set differs from the reference's."""
    return sum(
        1
        for key in set(reference) | set(observed)
        if reference.get(key) != observed.get(key)
    )


def _pipeline_config(
    spec: Dict, backend: str, pcap: str, rules: str, sink: str, frames: int
) -> Dict:
    engine = {"backend": backend, "reassemble": True}
    if spec["mode"] == "stream":
        # every mangled flow is live at once: keep both flow tables clear of
        # eviction so the reference (clean wire) and the run see the same state
        engine["reassembly_flows"] = 4096
    if spec.get("serve"):
        source = {
            "kind": "pcap-tail", "path": pcap, "max_packets": frames, "batch_packets": 64,
        }
    else:
        source = {"kind": "pcap", "path": pcap}
    return {
        "mode": spec["mode"],
        "source": source,
        "rules": {"kind": "file", "path": rules},
        "engine": engine,
        "sinks": [{"kind": "ndjson", "path": sink}],
    }


def build_workload(name: str, seed: int, workdir: str, scale: float = 1.0) -> Dict:
    """Write one workload's files into ``workdir`` and return its manifest."""
    spec = WORKLOADS[name]
    sizes = dict(spec["sizes"])
    for key, minimum in (
        ("rules", 40), ("flows", 8), ("rounds", 2), ("rules_per_template", 1),
    ):
        if key in sizes:
            sizes[key] = _scaled(sizes[key], scale, minimum)
    shape = {key: value for key, value in sizes.items() if key != "rules"}

    properties: Dict[str, float] = {}
    truth: Dict[int, Set[int]] = {}
    wire: Optional[List[GeneratedFlow]] = None  # what the program sees, if not clean
    if name == "web_rules_mixed":
        rules_text, clean, truth = web_rules_and_flows(seed, **shape)
    else:
        ruleset = synthetic_rules(seed, sizes["rules"])
        rules_text = render_synthetic_rules(ruleset)
        if name in ("benign_bulk_dense", "benign_bulk_dtp"):
            clean = benign_flows(seed, **shape)
        elif name == "deep_state_dense":
            clean, properties["deep_state_share"] = deep_state_flows(seed, ruleset, **shape)
        elif name == "hit_heavy_confirm":
            clean, truth = planted_flows(seed, "hits", ruleset, whole=2, **shape)
        elif name == "mangled_small_segments":
            clean, truth = planted_flows(seed, "mangled", ruleset, **shape)
            wire = mangle_flows(
                seed, "mangled-wire", clean, ("reorder", "retransmit", "overlap-split")
            )
        elif name == "live_microbatch":
            clean, truth = planted_flows(seed, "live", ruleset, **shape)
            # overlap-split re-cuts a stream into 8-64 B pieces, which would
            # undo this workload's 1024-B segments: keep the boundary-preserving modes
            wire = mangle_flows(seed, "live-wire", clean, ("reorder", "retransmit"))
        else:  # pragma: no cover - WORKLOADS and this dispatch are one table
            raise KeyError(name)

    rules_path = os.path.join(workdir, "workload.rules")
    with open(rules_path, "w", encoding="utf-8") as handle:
        handle.write(rules_text)

    clean_packets = TrafficGenerator.interleave(clean)
    wire_packets = clean_packets if wire is None else TrafficGenerator.interleave(wire)
    pcap_path = os.path.join(workdir, "traffic.pcap")
    frames = write_packets(pcap_path, wire_packets)
    clean_path = pcap_path
    if wire is not None:
        clean_path = os.path.join(workdir, "clean.pcap")
        write_packets(clean_path, clean_packets)

    # arrival-order packet index -> flow index (ids alerts carry no 5-tuple)
    index_of = {id(flow.header): index for index, flow in enumerate(clean)}
    packet_flow = [index_of[id(packet.header)] for packet in clean_packets]
    mode = spec["mode"]

    # the reference: same pipeline, independent backend, clean in-order wire,
    # one-shot run() even for the served workload
    reference_sink = os.path.join(workdir, "reference.ndjson")
    reference_config = _pipeline_config(
        dict(spec, serve=False), REFERENCE_BACKEND, clean_path, rules_path,
        reference_sink, frames,
    )
    with Session.from_config(reference_config) as session:
        session.run()
    reference = flow_sets_from_ndjson(reference_sink, mode, packet_flow)

    missing = []
    for index, sids in truth.items():
        key = str(index) if mode == "ids" else flow_id(clean[index].header)
        found = {pair[1] for pair in reference.get(key, ())}
        missing.extend((key, sid) for sid in sorted(sids - found))
    if missing:
        raise RuntimeError(
            f"{name}: planted (flow, sid) pairs missing from the reference run: "
            f"{missing[:5]} (+{max(0, len(missing) - 5)} more)"
        )

    config_path = os.path.join(workdir, "pipeline.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(
            _pipeline_config(
                spec, spec["backend"], "traffic.pcap", "workload.rules",
                "alerts.ndjson", frames,
            ),
            handle, indent=2,
        )

    manifest = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "serve": bool(spec.get("serve")),
        "backend": spec["backend"],
        "sizes": sizes,
        "flows": len(clean),
        "frames": frames,
        "payload_bytes": sum(len(packet.payload) for packet in wire_packets),
        "planted_pairs": sum(len(sids) for sids in truth.values()),
        "reference_records": sum(len(values) for values in reference.values()),
        "properties": properties,
        "sha256": {"rules": _sha256(rules_path), "pcap": _sha256(pcap_path)},
        "config": config_path,
        "sink": os.path.join(workdir, "alerts.ndjson"),
        "packet_flow": packet_flow if mode == "ids" else None,
        "reference": reference,
    }
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest
