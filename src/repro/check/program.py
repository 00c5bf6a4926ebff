"""Static program verifier: prove compiled-artifact invariants without scanning.

The dynamic harnesses (the test suite's DFA-equivalence walks and its
``assert_equivalent_events`` fixture) *sample* behaviour by scanning traffic.
This module walks the compiled artifacts themselves and proves the invariants
over the whole state graph:

* **DTP pruning exactness** — every pruned transition is reproduced by the
  256-entry default lookup table, and no default ever lands deeper than the
  true longest-suffix state.  The proof enumerates *consistent histories*:
  at a depth-``k`` state (``k >= 2``) the two preceding input bytes are fixed
  by the state's own prefix, so the deep rows are checked vectorised against
  that canonical history; depth-1 and root rows quantify over the finite set
  of ``(prev1, prev2)`` classes the resolver can actually distinguish (the
  stored preceding bytes of the d2/d3 entries, plus an arbitrary
  representative of "anything else"), keeping only classes consistent with
  being at that state (a history whose suffix is a deeper trie path can never
  leave the automaton at the shallower state).
* **AC failure-link / move-function consistency** — table rows, failure links
  and propagated outputs of every backend are compared against an
  *independent* reference construction (dict-trie + BFS, deliberately not the
  production builder, so a builder bug cannot hide itself).
* **Structural bisimulation** — the ``ac``/``dense``/``bitmap``/``path``/
  ``dtp`` backends share state numbering by construction, so proving each
  backend's effective transition function and output sets equal to the
  reference exhibits the identity relation as a bisimulation between any two
  of them (:func:`verify_cross_backend`).
* **Memory-word packing round-trips** — every packed state of a device
  program's blocks decodes from its 324-bit word image back to its stored
  pointers and match address, within the 13-pointer hardware limit (DTP006
  warns of a block state over it), with no two states overlapping inside a
  word.
* **Dense kernel views** — the lane kernel's premultiplied table, the dense
  program's only transition table, decodes to the reference move function;
  every entry is its target shifted left by 8, plus the table's size exactly
  when the target reports a match; its match-flag vector marks exactly the
  reference's reporting states, and ``warmup`` is at least the deepest
  state's depth: it bounds the lane repair walk and makes every lane end in
  the true state (a shorter one loses matches just after a lane cut).
* **DTP kernel views** (the scan program's; a device block holds none) —
  every state has a value of its own, at or above the table length exactly
  when it reports a match, and ``id_of`` decodes it; the row-displacement
  table owns, for every state value, exactly the slots of its stored
  pointers and of the transitions a depth-3 default prunes (the
  reference's), and holds their targets' values; the pair table reproduces
  ``DefaultTransitionTable.resolve`` with no depth-3 default firing for
  every one of the 256 x 257 ``(byte, prev1)`` histories, ``None``
  included; and ``warmup`` covers the deepest state.
* **Match-memory completeness** — every pattern's terminal state is reachable
  (by walking the pattern through the reference table) and reports the
  pattern's string number through the match memory.

Findings are :class:`repro.check.diagnostics.Diagnostic` records; every
checker appends to a :class:`~repro.check.diagnostics.Report` and never
raises on a *finding* (only on misuse, e.g. verifying an object that is not a
compiled program).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..automata.aho_corasick import AhoCorasickDFA
from ..automata.bitmap_ac import BitmapAhoCorasick
from ..automata.path_compressed_ac import PathCompressedAhoCorasick
from ..backend import backend_names, get_backend
from ..core.accelerator_config import AcceleratorProgram, BlockProgram
from ..core.compiled import CompiledDenseProgram
from ..core.dtp_automaton import HARDWARE_MAX_POINTERS, NO_BYTE, DTPAutomaton, PrunedAutomaton
from ..core.match_memory import MatchMemory
from ..core.state_types import WORD_BITS
from ..rulesets.ruleset import RuleSet
from .diagnostics import ERROR, WARNING, Report

ROOT = 0
ALPHABET = 256

#: Findings reported per (code, source) before the remainder is summarised.
MAX_FINDINGS_PER_CODE = 20


class _Capped:
    """Per-code emission cap so a systematic corruption stays readable."""

    def __init__(self, report: Report):
        self.report = report
        self._counts: Dict[Tuple[str, str], int] = {}

    def add(self, severity: str, code: str, message: str, **kwargs) -> None:
        key = (code, kwargs.get("source", ""))
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count <= MAX_FINDINGS_PER_CODE:
            self.report.add(severity, code, message, **kwargs)

    def flush(self) -> None:
        for (code, source), count in self._counts.items():
            if count > MAX_FINDINGS_PER_CODE:
                self.report.add(
                    ERROR,
                    code,
                    f"... {count - MAX_FINDINGS_PER_CODE} further {code} "
                    f"finding(s) suppressed",
                    source=source,
                )


class Reference:
    """Independent Aho-Corasick reference built from the patterns alone.

    A plain dict-trie plus BFS closure — deliberately *not* the production
    :class:`~repro.automata.trie.Trie`/:class:`AhoCorasickDFA` code, so that a
    bug in the production builders is caught instead of reproduced.  State
    numbering follows pattern insertion order, which is exactly how every
    production automaton numbers its states.  A state reports
    ``numbers[pid]`` (default ``pid``) for each pattern ``pid`` it ends.
    """

    def __init__(self, patterns: Sequence[bytes], numbers: Optional[Sequence[int]] = None):
        self.patterns = [bytes(p) for p in patterns]
        children: List[Dict[int, int]] = [{}]
        parent: List[int] = [ROOT]
        label: List[int] = [-1]
        depth: List[int] = [0]
        own_outputs: List[List[int]] = [[]]
        for pid, pattern in enumerate(self.patterns):
            node = ROOT
            for byte in pattern:
                nxt = children[node].get(byte)
                if nxt is None:
                    nxt = len(children)
                    children[node][byte] = nxt
                    children.append({})
                    parent.append(node)
                    label.append(byte)
                    depth.append(depth[node] + 1)
                    own_outputs.append([])
                node = nxt
            own_outputs[node].append(pid if numbers is None else numbers[pid])

        self.children = children
        self.parent = np.asarray(parent, dtype=np.int64)
        self.label = np.asarray(label, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.num_states = len(children)

        # Failure function via BFS over the dict trie.
        fail = [ROOT] * self.num_states
        order: List[int] = [ROOT]
        index = 0
        while index < len(order):
            state = order[index]
            index += 1
            for byte, child in children[state].items():
                order.append(child)
                if state == ROOT:
                    fail[child] = ROOT
                    continue
                cursor = fail[state]
                while cursor != ROOT and byte not in children[cursor]:
                    cursor = fail[cursor]
                candidate = children[cursor].get(byte, ROOT)
                fail[child] = ROOT if candidate == child else candidate
        self.fail = fail
        self.bfs_order = order

        # Move function: inherit the failure row, overwrite own goto edges.
        table = np.zeros((self.num_states, ALPHABET), dtype=np.int64)
        for byte, child in children[ROOT].items():
            table[ROOT, byte] = child
        for state in order[1:]:
            table[state] = table[fail[state]]
            for byte, child in children[state].items():
                table[state, byte] = child
        self.table = table

        # Outputs propagated along failure links (own first, as production does).
        outputs: List[List[int]] = [[] for _ in range(self.num_states)]
        for state in order:
            outputs[state] = list(own_outputs[state]) + list(outputs[self.fail[state]])
        self.outputs = outputs

    def terminal_state(self, pattern: bytes) -> int:
        """The state reached by walking ``pattern`` from the root."""
        state = ROOT
        for byte in pattern:
            state = int(self.table[state, byte])
        return state


def _outputs_match(got: Iterable[int], want: Iterable[int]) -> bool:
    return sorted(got) == sorted(want)


def _check_state_count(
    capped: _Capped, got: int, ref: Reference, source: str
) -> bool:
    if got != ref.num_states:
        capped.add(
            ERROR,
            "STR001",
            f"program has {got} states, reference construction has "
            f"{ref.num_states}",
            source=source,
        )
        return False
    return True


def _check_outputs(
    capped: _Capped,
    outputs_of,
    ref: Reference,
    source: str,
    code: str = "STR003",
) -> None:
    for state in range(ref.num_states):
        if not _outputs_match(outputs_of(state), ref.outputs[state]):
            capped.add(
                ERROR,
                code,
                f"output set {sorted(outputs_of(state))} != reference "
                f"{sorted(ref.outputs[state])}",
                state=state,
                source=source,
            )


def _check_pattern_reachability(
    capped: _Capped, outputs_of, ref: Reference, source: str
) -> None:
    """Every pattern has a reachable accepting state reporting its id."""
    for pid, pattern in enumerate(ref.patterns):
        terminal = ref.terminal_state(pattern)
        if pid not in list(outputs_of(terminal)):
            capped.add(
                ERROR,
                "STR004",
                f"pattern {pid} ({pattern!r}) walks to state {terminal} "
                "but is not reported there",
                state=terminal,
                rule=pid,
                source=source,
            )


def _check_table(
    capped: _Capped,
    table: np.ndarray,
    ref: Reference,
    source: str,
    code: str = "STR002",
) -> None:
    mismatched = np.argwhere(np.asarray(table, dtype=np.int64) != ref.table)
    for state, byte in mismatched.tolist():
        capped.add(
            ERROR,
            code,
            f"transition -> {int(table[state, byte])}, reference says "
            f"{int(ref.table[state, byte])}",
            state=int(state),
            byte=int(byte),
            source=source,
        )


def _closure_table(
    capped: _Capped,
    children_rows: Sequence[Dict[int, int]],
    fail: Sequence[int],
    ref: Reference,
    source: str,
) -> Optional[np.ndarray]:
    """Effective move function of a goto/failure structure.

    ``eff[s] = eff[fail[s]]`` overwritten by the state's own goto edges — the
    closed form of the failure walk, valid because failure links strictly
    decrease depth (checked first; a cyclic or depth-increasing link makes
    the walk potentially non-terminating and is an error in itself).
    """
    n = ref.num_states
    bad = False
    for state in range(1, n):
        target = fail[state]
        if not 0 <= target < n or ref.depth[target] >= ref.depth[state]:
            capped.add(
                ERROR,
                "STR005",
                f"failure link -> {target} does not decrease depth "
                f"({int(ref.depth[state])} -> "
                f"{int(ref.depth[target]) if 0 <= target < n else '?'})",
                state=state,
                source=source,
            )
            bad = True
    if bad:
        return None
    eff = np.zeros((n, ALPHABET), dtype=np.int64)
    for state in sorted(range(n), key=lambda s: int(ref.depth[s])):
        if state != ROOT:
            eff[state] = eff[fail[state]]
        for byte, child in children_rows[state].items():
            eff[state, byte] = child
    return eff


def _check_fail(
    capped: _Capped, fail: Sequence[int], ref: Reference, source: str, code: str
) -> None:
    for state in range(ref.num_states):
        if int(fail[state]) != int(ref.fail[state]):
            capped.add(
                ERROR,
                code,
                f"failure link -> {int(fail[state])}, reference says "
                f"{int(ref.fail[state])}",
                state=state,
                source=source,
            )


# ----------------------------------------------------------------------
# per-backend checkers
# ----------------------------------------------------------------------
def _check_ac(capped: _Capped, program: AhoCorasickDFA, ref: Reference) -> None:
    source = "ac"
    if not _check_state_count(capped, program.num_states, ref, source):
        return
    _check_table(capped, program.table, ref, source, code="AC001")
    _check_fail(capped, program.fail, ref, source, code="AC002")
    _check_outputs(capped, lambda s: program.outputs[s], ref, source, code="AC003")
    _check_pattern_reachability(capped, lambda s: program.outputs[s], ref, source)


def _check_dense(capped: _Capped, program: CompiledDenseProgram, ref: Reference) -> None:
    source = "dense"
    if not _check_state_count(capped, program.num_states, ref, source):
        return
    _check_outputs(capped, program.matches_of, ref, source, code="DEN002")
    _check_pattern_reachability(capped, program.matches_of, ref, source)

    # The kernel's one table: an entry is its target shifted left by 8 (the
    # move function, DEN001), plus the table size when the target reports a
    # match (DEN003, as is the flag vector marking the matching states).
    premultiplied = program.premultiplied
    size = ref.num_states * ALPHABET
    if premultiplied.shape != (size,):
        capped.add(
            ERROR,
            "DEN003",
            f"premultiplied table shape {premultiplied.shape} != {(size,)}",
            source=source,
        )
        return
    values = premultiplied.reshape(ref.num_states, ALPHABET).astype(np.int64)
    targets = (values % size) >> 8
    _check_table(capped, targets, ref, source, code="DEN001")
    has_match = np.fromiter(
        (len(ref.outputs[s]) > 0 for s in range(ref.num_states)),
        dtype=bool,
        count=ref.num_states,
    )
    flagged = has_match.take(targets)
    malformed = (values < 0) | (values >= 2 * size) | ((values & 0xFF) != 0)
    for state, byte in np.argwhere(malformed | ((values >= size) != flagged)).tolist():
        capped.add(
            ERROR,
            "DEN003",
            f"premultiplied entry {int(values[state, byte])} is not target "
            f"{int(targets[state, byte])} << 8 plus {size} times its match "
            f"flag ({bool(flagged[state, byte])})",
            state=int(state),
            byte=int(byte),
            source=source,
        )
    flags = program.match_flags
    if flags.shape != has_match.shape:
        capped.add(
            ERROR,
            "DEN003",
            f"match-flag vector shape {flags.shape} != {has_match.shape}",
            source=source,
        )
        return
    for state in np.flatnonzero(flags != has_match).tolist():
        capped.add(
            ERROR,
            "DEN003",
            f"match flag {bool(flags[state])} but the reference state "
            f"{'reports' if has_match[state] else 'does not report'} a match",
            state=int(state),
            source=source,
        )

    # Every lane ends in the uncut walk's state, and a lane's repair walk
    # settles within ``warmup`` steps of its warm-up's start, only if
    # ``warmup`` covers the deepest state; shorter is a silent false negative
    # just after a cut.
    deepest = int(ref.depth.max())
    if program.warmup < deepest:
        capped.add(
            ERROR,
            "DEN004",
            f"lane warm-up of {program.warmup} byte(s) is shorter than the "
            f"deepest reference state ({deepest})",
            source=source,
        )


def _check_bitmap(capped: _Capped, program: BitmapAhoCorasick, ref: Reference) -> None:
    source = "bitmap"
    if not _check_state_count(capped, program.num_states, ref, source):
        return
    # Bitmap + popcount-packed child arrays must encode exactly the trie edges.
    decoded_rows: List[Dict[int, int]] = []
    for state in range(ref.num_states):
        decoded = dict(program.children_of(state))
        decoded_rows.append(decoded)
        if decoded != ref.children[state]:
            capped.add(
                ERROR,
                "BMP001",
                f"bitmap/popcount children {decoded} != reference trie edges "
                f"{ref.children[state]}",
                state=state,
                source=source,
            )
    _check_fail(capped, program.fail, ref, source, code="BMP002")
    _check_outputs(capped, lambda s: program.outputs[s], ref, source, code="BMP003")
    _check_pattern_reachability(capped, lambda s: program.outputs[s], ref, source)
    # The failure walk's effective move function must equal the reference DFA.
    eff = _closure_table(capped, decoded_rows, program.fail, ref, source)
    if eff is not None:
        _check_table(capped, eff, ref, source, code="BMP004")


def _check_path(
    capped: _Capped, program: PathCompressedAhoCorasick, ref: Reference
) -> None:
    source = "path"
    trie = program.trie
    if not _check_state_count(capped, trie.num_states, ref, source):
        return
    for state in range(ref.num_states):
        if dict(trie.children[state]) != ref.children[state]:
            capped.add(
                ERROR,
                "PTH001",
                f"trie edges {dict(trie.children[state])} != reference "
                f"{ref.children[state]}",
                state=state,
                source=source,
            )
    _check_fail(capped, program.fail, ref, source, code="PTH002")
    _check_outputs(capped, lambda s: program.outputs[s], ref, source, code="PTH003")
    _check_pattern_reachability(capped, lambda s: program.outputs[s], ref, source)

    # Node cover: every state lives in exactly one node; path nodes are
    # single-child non-matching chains whose characters spell their labels.
    owner_count = [0] * ref.num_states
    for node_id, node in enumerate(program.nodes):
        for state in node.states:
            owner_count[state] += 1
            if program.node_of(state) != node_id:
                capped.add(
                    ERROR,
                    "PTH004",
                    f"state is indexed under node {program.node_of(state)} "
                    f"but stored in node {node_id}",
                    state=state,
                    source=source,
                )
        if node.kind == "path":
            spelled = bytes(int(ref.label[s]) for s in node.states)
            if node.characters != spelled:
                capped.add(
                    ERROR,
                    "PTH004",
                    f"path node {node_id} characters {node.characters!r} do "
                    f"not spell its states' labels {spelled!r}",
                    source=source,
                )
            for prev, state in zip(node.states, node.states[1:]):
                if int(ref.parent[state]) != prev:
                    capped.add(
                        ERROR,
                        "PTH004",
                        f"path node {node_id} chain breaks: state {state} is "
                        f"not a child of {prev}",
                        state=state,
                        source=source,
                    )
            for state in node.states[:-1]:
                if len(ref.children[state]) != 1 or ref.outputs[state]:
                    capped.add(
                        ERROR,
                        "PTH004",
                        "path node interior state must have exactly one child "
                        "and no outputs (match points must stay addressable)",
                        state=state,
                        source=source,
                    )
    for state, count in enumerate(owner_count):
        if count != 1:
            capped.add(
                ERROR,
                "PTH004",
                f"state is covered by {count} nodes (must be exactly 1)",
                state=state,
                source=source,
            )
    eff = _closure_table(
        capped,
        [dict(trie.children[s]) for s in range(ref.num_states)],
        program.fail,
        ref,
        source,
    )
    if eff is not None:
        _check_table(capped, eff, ref, source, code="PTH005")


# ----------------------------------------------------------------------
# DTP: pruning exactness
# ----------------------------------------------------------------------
def _default_arrays(defaults) -> Tuple[np.ndarray, ...]:
    """Vector form of the lookup table; ``-2`` never equals a real byte."""
    d1 = np.asarray(defaults.d1, dtype=np.int64)
    slots = max([4] + [len(entries) for entries in defaults.d2.values()])
    d2p = np.full((ALPHABET, slots), -2, dtype=np.int64)
    d2t = np.zeros((ALPHABET, slots), dtype=np.int64)
    for byte, entries in defaults.d2.items():
        for slot, entry in enumerate(entries):
            d2p[byte, slot] = entry.preceding_byte
            d2t[byte, slot] = entry.state
    d3p0 = np.full(ALPHABET, -2, dtype=np.int64)
    d3p1 = np.full(ALPHABET, -2, dtype=np.int64)
    d3t = np.zeros(ALPHABET, dtype=np.int64)
    for byte, entry in defaults.d3.items():
        d3p0[byte] = entry.preceding_bytes[0]
        d3p1[byte] = entry.preceding_bytes[1]
        d3t[byte] = entry.state
    return d1, d2p, d2t, d3p0, d3p1, d3t


def _vector_resolve(
    arrays: Tuple[np.ndarray, ...], prev1: np.ndarray, prev2: np.ndarray
) -> np.ndarray:
    """``defaults.resolve`` for whole rows: one (prev1, prev2) pair per row.

    Applied in reverse priority — d1 base, then the d2 slots last to first
    (slot 0 wins, matching the resolver's first-match scan), then d3 on top.
    """
    d1, d2p, d2t, d3p0, d3p1, d3t = arrays
    rows = prev1.shape[0]
    resolved = np.broadcast_to(d1, (rows, ALPHABET)).copy()
    for slot in range(d2p.shape[1] - 1, -1, -1):
        hit = prev1[:, None] == d2p[None, :, slot]
        resolved = np.where(hit, d2t[None, :, slot], resolved)
    hit3 = (prev1[:, None] == d3p1[None, :]) & (prev2[:, None] == d3p0[None, :])
    return np.where(hit3, d3t[None, :], resolved)


def _report_default_mismatch(
    capped: _Capped,
    ref: Reference,
    state: int,
    byte: int,
    resolved: int,
    expected: int,
    history: str,
    source: str,
) -> None:
    if int(ref.depth[resolved]) > int(ref.depth[expected]):
        capped.add(
            ERROR,
            "DTP003",
            f"default resolution lands at state {resolved} "
            f"(depth {int(ref.depth[resolved])}) — deeper than the true "
            f"longest-suffix state {expected} "
            f"(depth {int(ref.depth[expected])}) under history {history}",
            state=state,
            byte=byte,
            source=source,
        )
    else:
        capped.add(
            ERROR,
            "DTP002",
            f"pruned transition resolves to {resolved} via the lookup table "
            f"but the true target is {expected} under history {history}",
            state=state,
            byte=byte,
            source=source,
        )


def _consistent_prev2_for_depth1(ref: Reference, state: int, candidate: int) -> bool:
    """Can the byte before ``label[state]`` have been ``candidate`` at ``state``?

    Only if ``(candidate, label[state])`` is *not* a depth-2 trie path —
    otherwise the longest suffix would be that deeper state, not ``state``.
    """
    via = ref.children[ROOT].get(candidate)
    return via is None or int(ref.label[state]) not in ref.children[via]


def _check_dtp_automaton(
    capped: _Capped, dtp: PrunedAutomaton, ref: Reference, source: str = "dtp"
) -> Optional[Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]]:
    """A block's or the scan program's pruned automaton; returns what
    :func:`_check_dtp_kernel` reads (``None``: the state count is wrong)."""
    if not _check_state_count(capped, dtp.num_states, ref, source):
        return None
    defaults = dtp.defaults
    _check_outputs(capped, lambda s: dtp.outputs[s], ref, source, code="DTP005")
    _check_pattern_reachability(capped, lambda s: dtp.outputs[s], ref, source)

    # --- well-formedness of the default table itself (DTP004) -------------
    for byte in range(ALPHABET):
        d1_state = int(defaults.d1[byte])
        expected_d1 = ref.children[ROOT].get(byte, ROOT)
        if d1_state != expected_d1:
            capped.add(
                ERROR,
                "DTP004",
                f"depth-1 default -> {d1_state}, but the depth-1 state for "
                f"this byte is {expected_d1}",
                byte=byte,
                source=source,
            )
    for byte, entries in defaults.d2.items():
        for entry in entries:
            via = ref.children[ROOT].get(entry.preceding_byte)
            expected = None if via is None else ref.children[via].get(byte)
            if expected != entry.state:
                capped.add(
                    ERROR,
                    "DTP004",
                    f"depth-2 default (preceding {entry.preceding_byte:#04x})"
                    f" -> {entry.state}, but the trie path resolves to "
                    f"{expected}",
                    byte=byte,
                    source=source,
                )
    for byte, entry in defaults.d3.items():
        w0, w1 = entry.preceding_bytes
        via1 = ref.children[ROOT].get(w0)
        via2 = None if via1 is None else ref.children[via1].get(w1)
        expected = None if via2 is None else ref.children[via2].get(byte)
        if expected != entry.state:
            capped.add(
                ERROR,
                "DTP004",
                f"depth-3 default (preceding {w0:#04x},{w1:#04x}) -> "
                f"{entry.state}, but the trie path resolves to {expected}",
                byte=byte,
                source=source,
            )

    # --- stored pointers are exact (DTP001) -------------------------------
    states, symbols, targets = (column.astype(np.int64) for column in dtp.pointers)
    stored_mask = np.zeros((ref.num_states, ALPHABET), dtype=bool)
    stored_mask[states, symbols] = True
    stored_target = np.zeros((ref.num_states, ALPHABET), dtype=np.int64)
    stored_target[states, symbols] = targets
    expected = ref.table[states, symbols]
    for index in np.flatnonzero(targets != expected).tolist():
        capped.add(
            ERROR,
            "DTP001",
            f"stored pointer -> {int(targets[index])}, reference says {int(expected[index])}",
            state=int(states[index]),
            byte=int(symbols[index]),
            source=source,
        )

    arrays = _default_arrays(defaults)

    # --- pruned transitions, depth >= 2: canonical history, vectorised ----
    deep = np.flatnonzero(ref.depth >= 2)
    chunk = 8192
    for start in range(0, deep.size, chunk):
        states = deep[start:start + chunk]
        prev1 = ref.label[states]
        prev2 = ref.label[ref.parent[states]]
        resolved = _vector_resolve(arrays, prev1, prev2)
        expected = ref.table[states]
        bad = ~stored_mask[states] & (resolved != expected)
        for row, byte in np.argwhere(bad).tolist():
            state = int(states[row])
            _report_default_mismatch(
                capped,
                ref,
                state,
                int(byte),
                int(resolved[row, byte]),
                int(expected[row, byte]),
                f"(prev2={int(prev2[row]):#04x}, prev1={int(prev1[row]):#04x})",
                source,
            )

    # --- pruned transitions, depth-1 rows: finite history case split ------
    # At a depth-1 state prev1 is pinned to the state's label; prev2 ranges
    # over None plus any byte w with (w, label) not a deeper trie path.  The
    # resolver only ever distinguishes prev2 against the d3 entry's first
    # preceding byte, so two cases per byte cover every consistent history.
    for state in np.flatnonzero(ref.depth == 1).tolist():
        prev1 = int(ref.label[state])
        for byte in range(ALPHABET):
            if stored_mask[state, byte]:
                continue
            expected = int(ref.table[state, byte])
            cases: List[Tuple[Optional[int], str]] = [(None, "prev2=None")]
            entry = defaults.d3.get(byte)
            if entry is not None and entry.preceding_bytes[1] == prev1:
                w0 = entry.preceding_bytes[0]
                if _consistent_prev2_for_depth1(ref, state, w0):
                    cases.append((w0, f"prev2={w0:#04x}"))
            for prev2, describe in cases:
                resolved = defaults.resolve(byte, prev1, prev2)
                if resolved != expected:
                    _report_default_mismatch(
                        capped, ref, state, byte, resolved, expected,
                        f"({describe}, prev1={prev1:#04x})", source,
                    )

    # --- pruned transitions, root row: finite history case split ----------
    # At the root the last byte v must not be a depth-1 path (else the
    # automaton would sit deeper) or the stream just started (None).  The
    # resolver distinguishes v against the d2 preceding bytes and the d3
    # second preceding byte; everything else behaves like one "other" class.
    root_children = set(ref.children[ROOT])
    for byte in range(ALPHABET):
        if stored_mask[ROOT, byte]:
            continue
        expected = int(ref.table[ROOT, byte])
        distinguished = {
            entry.preceding_byte for entry in defaults.d2.get(byte, [])
        }
        entry3 = defaults.d3.get(byte)
        if entry3 is not None:
            distinguished.add(entry3.preceding_bytes[1])
        other = next(
            (v for v in range(ALPHABET)
             if v not in root_children and v not in distinguished),
            None,
        )
        cases: List[Tuple[Optional[int], Optional[int], str]] = [
            (None, None, "start of stream")
        ]
        if other is not None:
            cases.append((other, None, f"prev1={other:#04x} (undistinguished)"))
        for v in sorted(distinguished):
            if v in root_children:
                continue  # inconsistent: the automaton could not be at root
            cases.append((v, None, f"prev1={v:#04x}, prev2=None"))
            if entry3 is not None and entry3.preceding_bytes[1] == v:
                w0 = entry3.preceding_bytes[0]
                via = ref.children[ROOT].get(w0)
                if via is None or v not in ref.children[via]:
                    cases.append((v, w0, f"prev1={v:#04x}, prev2={w0:#04x}"))
        for prev1, prev2, describe in cases:
            resolved = defaults.resolve(byte, prev1, prev2)
            if resolved != expected:
                _report_default_mismatch(
                    capped, ref, ROOT, byte, resolved, expected,
                    f"({describe})", source,
                )

    return stored_mask, stored_target, arrays


def _check_dtp_kernel(
    capped: _Capped,
    dtp: DTPAutomaton,
    ref: Reference,
    stored_mask: np.ndarray,
    stored_target: np.ndarray,
    arrays: Tuple[np.ndarray, ...],
    source: str = "dtp",
) -> None:
    """The lane kernel's views against the structures they were derived from.

    The table holds the stored pointers and every transition a depth-3
    default prunes, so the pair table need only hold the depth-1/2 defaults:
    where a depth-3 default fires, DTP002 has the true target equal to it,
    and a transition to it is held."""
    # the kernel reports from the packed copy
    packed = lambda s: dtp.match_pids[dtp.match_index[s]:dtp.match_index[s + 1]]
    if dtp.match_index.shape == (ref.num_states + 1,):
        _check_outputs(capped, packed, ref, source, code="DTP005")
    # --- state values + row-displacement table == stored + folded (DTP007) --
    flagged, value_of, id_of = dtp.flagged, dtp.value_of, dtp.id_of
    check, following = dtp.check, dtp.next
    if (
        value_of.shape != (ref.num_states,)
        or check.shape != (flagged,)
        or following.shape != (flagged,)
        or id_of.shape != (2 * flagged,)
        or value_of.min() < 0
        or int(value_of.max()) >= 2 * flagged
    ):
        capped.add(
            ERROR,
            "DTP007",
            f"state-value views are malformed: flagged {flagged}, value_of "
            f"{value_of.shape} in [{int(value_of.min())}, {int(value_of.max())}], "
            f"check {check.shape}, next {following.shape}, id_of {id_of.shape}",
            source=source,
        )
    else:
        reporting = np.array([bool(o) for o in ref.outputs])
        for state in np.flatnonzero((value_of >= flagged) != reporting).tolist():
            capped.add(
                ERROR,
                "DTP007",
                f"value {int(value_of[state])} is "
                + ("at or above" if value_of[state] >= flagged else "below")
                + f" {flagged}, but the reference state "
                + ("reports" if reporting[state] else "does not report")
                + " a match",
                state=state,
                source=source,
            )
        rows = value_of % flagged
        distinct, first = np.unique(rows, return_index=True)
        shared = np.ones(ref.num_states, dtype=bool)
        shared[first] = False
        for state in np.flatnonzero(shared).tolist():
            other = int(first[np.searchsorted(distinct, rows[state])])
            capped.add(
                ERROR,
                "DTP007",
                f"value {int(value_of[state])} shares its row with state {other} "
                f"(value {int(value_of[other])}): each would read the other's pointers",
                state=state,
                source=source,
            )
        decoded = id_of.take(value_of)
        for state in np.flatnonzero(decoded != np.arange(ref.num_states)).tolist():
            capped.add(
                ERROR,
                "DTP007",
                f"id_of[{int(value_of[state])}] decodes to {int(decoded[state])}",
                state=state,
                source=source,
            )
        if int((id_of >= 0).sum()) != ref.num_states:
            capped.add(
                ERROR,
                "DTP007",
                f"id_of decodes {int((id_of >= 0).sum())} values for "
                f"{ref.num_states} states",
                source=source,
            )
        d3p1, d3t = arrays[4:]
        chunk = 8192
        for start in range(0, ref.num_states, chunk):
            states = np.arange(start, min(start + chunk, ref.num_states))
            values = value_of[states, None]
            slots = (values.astype(np.int64) + np.arange(ALPHABET)) % flagged
            owned = check[slots] == values
            stored = stored_mask[states]
            reference = ref.table[states]
            wanted = stored | ((reference == d3t) & (d3p1 >= 0))
            pointed = np.where(stored, stored_target[states], reference)
            targets = value_of[pointed]
            wrong = (owned != wanted) | (owned & (following[slots] != targets))
            for row, byte in np.argwhere(wrong).tolist():
                state, slot = int(states[row]), int(slots[row, byte])
                kind = "stored" if stored[row, byte] else "folded"
                if not wanted[row, byte]:
                    message = (
                        f"slot {slot} is owned by a state that holds no pointer here "
                        "(stored or folded)"
                    )
                elif not owned[row, byte]:
                    message = (
                        f"{kind} pointer -> {int(pointed[row, byte])} has no "
                        f"slot: check[{slot}] is {int(check[slot])}"
                    )
                else:
                    message = (
                        f"slot {slot} leads to value {int(following[slot])}, the {kind} "
                        f"pointer to {int(pointed[row, byte])} (value "
                        f"{int(targets[row, byte])})"
                    )
                capped.add(ERROR, "DTP007", message, state=state, byte=byte, source=source)

    # --- pair table == resolve() with no depth-3 default, every history (DTP008)
    # Decoded through id_of, which DTP007 proves the inverse of value_of.
    rows = NO_BYTE + 1
    pair_default = dtp.pair_default
    if pair_default.shape != (rows * ALPHABET,):
        capped.add(
            ERROR,
            "DTP008",
            f"the pair table is malformed: pair_default {pair_default.shape}",
            source=source,
        )
    else:
        # None (the kernel's 256) equals no stored preceding byte, and a
        # prev2 of None fires no depth-3 default
        seen = np.where(np.arange(rows) == NO_BYTE, -3, np.arange(rows))
        shallow = _vector_resolve(arrays, seen, np.full(rows, -3))
        got = id_of.take(pair_default.reshape(rows, ALPHABET), mode="clip")
        for prev1, byte in np.argwhere(got != shallow).tolist():
            capped.add(
                ERROR,
                "DTP008",
                f"pair table -> {int(got[prev1, byte])} under prev1="
                + ("None" if prev1 == NO_BYTE else f"{prev1:#04x}")
                + f", resolve() with no depth-3 default says {int(shallow[prev1, byte])}",
                byte=int(byte),
                source=source,
            )

    # --- warm-up covers the deepest state (DTP009) ------------------------
    deepest = int(ref.depth.max())
    if dtp.warmup < deepest:
        capped.add(
            ERROR,
            "DTP009",
            f"lane warm-up of {dtp.warmup} byte(s) is shorter than the "
            f"deepest reference state ({deepest})",
            source=source,
        )


def _dtp_effective_table(dtp: PrunedAutomaton, ref: Reference) -> np.ndarray:
    """Effective move function of a DTP automaton under canonical histories."""
    prev1 = np.where(ref.depth >= 1, ref.label, -3)
    prev2 = np.where(ref.depth >= 2, ref.label[ref.parent], -3)
    eff = _vector_resolve(_default_arrays(dtp.defaults), prev1, prev2)
    states, symbols, targets = dtp.pointers
    eff[states, symbols] = targets
    return eff


# ----------------------------------------------------------------------
# hardware-layer checkers (packing, lookup encoding, match memory, image)
# ----------------------------------------------------------------------
def _stored_rows(dtp: PrunedAutomaton) -> List[List[Tuple[int, int]]]:
    """Per state, its stored ``(byte, target)`` pairs in byte order, off the
    pointer arrays the packer and the kernel read."""
    pairs = list(zip(dtp.pointers[1].tolist(), dtp.pointers[2].tolist()))
    bounds = dtp.pointer_index.tolist()
    return [pairs[low:high] for low, high in zip(bounds, bounds[1:])]


def _check_packing(capped: _Capped, block: BlockProgram, ref: Reference, source: str) -> None:
    packed = block.packed
    dtp = block.dtp
    for state in range(dtp.num_states):
        if state not in packed.placements or state not in packed.records:
            capped.add(
                ERROR,
                "PACK001",
                "state has no placement/record in the packed state machine",
                state=state,
                source=source,
            )
            return
    # No two states may overlap inside a 324-bit word.
    by_word: Dict[int, List[Tuple[int, int, int]]] = {}
    for state, placement in packed.placements.items():
        kind = placement.state_type
        by_word.setdefault(placement.word_index, []).append(
            (kind.bit_offset, kind.bit_offset + kind.width_bits, state)
        )
    for word_index, spans in by_word.items():
        spans.sort()
        for (_, end, state), (start, _, other) in zip(spans, spans[1:]):
            if start < end:
                capped.add(
                    ERROR,
                    "PACK002",
                    f"states {state} and {other} overlap inside word "
                    f"{word_index}",
                    state=other,
                    source=source,
                )
        if spans[-1][1] > WORD_BITS:
            capped.add(
                ERROR,
                "PACK002",
                f"word {word_index} spans {spans[-1][1]} bits "
                f"(limit {WORD_BITS})",
                state=spans[-1][2],
                source=source,
            )
    stored = _stored_rows(dtp)
    for state, record in packed.records.items():
        capacity = packed.placements[state].state_type.max_pointers
        if record.num_pointers > HARDWARE_MAX_POINTERS:
            capped.add(
                ERROR,
                "PACK003",
                f"record stores {record.num_pointers} pointers "
                f"(hardware limit {HARDWARE_MAX_POINTERS})",
                state=state,
                source=source,
            )
        elif record.num_pointers > capacity:
            capped.add(
                ERROR,
                "PACK003",
                f"record stores {record.num_pointers} pointers but its state "
                f"type holds {capacity}",
                state=state,
                source=source,
            )
        if sorted(record.pointers) != stored[state]:
            capped.add(
                ERROR,
                "PACK001",
                "record pointers disagree with the automaton's stored "
                "pointer list",
                state=state,
                source=source,
            )
        expected_address = block.match_memory.address_of(state)
        if record.match_address != expected_address:
            capped.add(
                ERROR,
                "PACK001",
                f"record match address {record.match_address} != match "
                f"memory address {expected_address}",
                state=state,
                source=source,
            )

    # Bit-level round trip: every word image decodes back to its pointers.
    try:
        words = packed.encode_words()
    except Exception as error:  # PackingError or a corrupted-geometry artefact
        capped.add(
            ERROR,
            "PACK002",
            f"encoding the packed state machine failed: {error}",
            source=source,
        )
        return
    for state, record in packed.records.items():
        decoded = packed.decode_state(words, state)
        if bool(decoded["has_match"]) != (record.match_address is not None):
            capped.add(
                ERROR,
                "PACK004",
                "decoded match flag disagrees with the record",
                state=state,
                source=source,
            )
        elif record.match_address is not None and (
            decoded["match_address"] != record.match_address
        ):
            capped.add(
                ERROR,
                "PACK004",
                f"decoded match address {decoded['match_address']} != "
                f"record address {record.match_address}",
                state=state,
                source=source,
            )
        if record.pointers:
            # unused slots pad by repeating a stored pointer, so the decoded
            # *set* must equal the stored set, address-mapped
            want = {
                (char,) + packed.address_of(target)
                for char, target in record.pointers
            }
            got = set(decoded["pointers"])
            if got != want:
                capped.add(
                    ERROR,
                    "PACK004",
                    f"decoded pointer set {sorted(got)} != encoded "
                    f"{sorted(want)}",
                    state=state,
                    source=source,
                )


def _check_lookup_encoding(capped: _Capped, block: BlockProgram, source: str) -> None:
    lookup = block.lookup
    defaults = block.dtp.defaults
    for byte in range(ALPHABET):
        fields = lookup.decode_word(byte)
        d1_state = int(defaults.d1[byte])
        if fields["d1_valid"] != (d1_state != ROOT) or lookup.d1_state[byte] != d1_state:
            capped.add(
                ERROR,
                "LKT001",
                f"encoded depth-1 default (valid={fields['d1_valid']}, "
                f"state={lookup.d1_state[byte]}) != table ({d1_state})",
                byte=byte,
                source=source,
            )
        entries = defaults.d2.get(byte, [])
        for slot in range(4):
            valid = lookup.d2_valid[byte][slot]
            if slot < len(entries):
                entry = entries[slot]
                preceding = fields["d2_preceding"][slot]
                if (not valid or preceding != entry.preceding_byte
                        or lookup.d2_states[byte][slot] != entry.state):
                    capped.add(
                        ERROR,
                        "LKT001",
                        f"encoded depth-2 slot {slot} "
                        f"(valid={valid}, preceding={preceding:#04x}) != "
                        f"table entry (preceding="
                        f"{entry.preceding_byte:#04x}, state={entry.state})",
                        byte=byte,
                        source=source,
                    )
            elif valid:
                capped.add(
                    ERROR,
                    "LKT001",
                    f"depth-2 slot {slot} marked valid but the table has no "
                    "entry",
                    byte=byte,
                    source=source,
                )
        entry3 = defaults.d3.get(byte)
        if entry3 is not None:
            if (not lookup.d3_valid[byte]
                    or fields["d3_preceding"] != entry3.preceding_bytes
                    or lookup.d3_state[byte] != entry3.state):
                capped.add(
                    ERROR,
                    "LKT001",
                    f"encoded depth-3 default {fields['d3_preceding']} / "
                    f"{lookup.d3_state[byte]} != table "
                    f"{entry3.preceding_bytes} / {entry3.state}",
                    byte=byte,
                    source=source,
                )
        elif lookup.d3_valid[byte]:
            capped.add(
                ERROR,
                "LKT001",
                "depth-3 default marked valid but the table has none",
                byte=byte,
                source=source,
            )


def _check_match_memory(
    capped: _Capped,
    memory: MatchMemory,
    outputs_of,
    string_numbers: Dict[int, int],
    ref: Reference,
    source: str,
) -> None:
    # Encoding round trip of every 27-bit word.
    for address, word in enumerate(memory.words):
        image = word[0] | (word[1] << 13) | (int(word[2]) << 26)
        if MatchMemory.decode_word(image) != word:
            capped.add(
                ERROR,
                "MAT002",
                f"word {word} does not round-trip through its 27-bit image",
                source=source,
            )
            break
    encoded = memory.encode_words()
    for address, (word, image) in enumerate(zip(memory.words, encoded)):
        if MatchMemory.decode_word(image) != word:
            capped.add(
                ERROR,
                "MAT002",
                f"encode_words()[{address}] decodes to "
                f"{MatchMemory.decode_word(image)}, stored word is {word}",
                source=source,
            )
    # Completeness: every matching state's list reads back its string numbers.
    for state in range(ref.num_states):
        want = sorted(string_numbers[pid] for pid in outputs_of(state))
        address = memory.address_of(state)
        if not want:
            if address is not None:
                capped.add(
                    ERROR,
                    "MAT001",
                    "non-matching state has a match memory address",
                    state=state,
                    source=source,
                )
            continue
        if address is None:
            capped.add(
                ERROR,
                "MAT001",
                f"matching state (string numbers {want}) has no match "
                "memory address",
                state=state,
                source=source,
            )
            continue
        got = sorted(memory.read_list(address))
        if got != want:
            capped.add(
                ERROR,
                "MAT001",
                f"match memory reads {got}, automaton outputs map to {want}",
                state=state,
                source=source,
            )


def _check_block_image(capped: _Capped, block: BlockProgram, source: str) -> None:
    """The address-level hardware image agrees with the logical structures."""
    from ..hardware.image import build_block_image

    image = build_block_image(block)
    packed = block.packed
    if image.root_address != packed.address_of(ROOT):
        capped.add(
            ERROR,
            "HWI001",
            f"image root address {image.root_address} != packed root "
            f"{packed.address_of(ROOT)}",
            source=source,
        )
    for state, row in enumerate(_stored_rows(block.dtp)):
        entry = image.states.get(packed.address_of(state))
        if entry is None:
            capped.add(
                ERROR,
                "HWI001",
                "state has no entry in the block image",
                state=state,
                source=source,
            )
            continue
        want = {char: packed.address_of(target) for char, target in row}
        if entry.pointers != want:
            capped.add(
                ERROR,
                "HWI001",
                "image pointer map disagrees with the stored pointer list",
                state=state,
                source=source,
            )
        if entry.match_address != block.match_memory.address_of(state):
            capped.add(
                ERROR,
                "HWI001",
                "image match address disagrees with the match memory",
                state=state,
                source=source,
            )


def _check_accelerator(capped: _Capped, program: AcceleratorProgram, ref: Reference) -> None:
    # Partition coverage: blocks hold disjoint groups that cover the ruleset,
    # and local ids map to the global string numbers the host reports.
    covered: Dict[bytes, str] = {}
    for block in program.blocks:
        source = f"block[{block.index}]"
        for local_id, rule in enumerate(block.ruleset):
            number = block.string_numbers.get(local_id)
            if number is None or not (
                0 <= number < len(ref.patterns)
            ) or ref.patterns[number] != rule.pattern:
                capped.add(
                    ERROR,
                    "ACC001",
                    f"local pattern {local_id} maps to string number "
                    f"{number}, which is not its position in the ruleset",
                    rule=local_id,
                    source=source,
                )
            if rule.pattern in covered:
                capped.add(
                    ERROR,
                    "ACC001",
                    f"pattern {rule.pattern!r} appears in {covered[rule.pattern]} "
                    f"and {source}",
                    rule=local_id,
                    source=source,
                )
            covered[rule.pattern] = source
    missing = [p for p in ref.patterns if p not in covered]
    if missing:
        capped.add(
            ERROR,
            "ACC001",
            f"{len(missing)} pattern(s) are in no block "
            f"(first: {missing[0]!r})",
            source="accelerator",
        )

    for block in program.blocks:
        source = f"block[{block.index}]"
        block_ref = Reference([rule.pattern for rule in block.ruleset])
        _check_dtp_automaton(capped, block.dtp, block_ref, source=source)
        # capacity: only a device block is packed into words
        counts = block.dtp.pointer_counts()
        for state in np.flatnonzero(counts > HARDWARE_MAX_POINTERS).tolist():
            capped.add(
                WARNING,
                "DTP006",
                f"state stores {int(counts[state])} pointers; the hardware handles "
                f"at most {HARDWARE_MAX_POINTERS} (packing will reject this "
                "block — rebuild with max_stored_pointers set)",
                state=state,
                source=source,
            )
        _check_lookup_encoding(capped, block, source)
        _check_packing(capped, block, block_ref, source)
        _check_match_memory(
            capped,
            block.match_memory,
            lambda s: block.dtp.outputs[s],
            block.string_numbers,
            block_ref,
            source,
        )
        _check_block_image(capped, block, source)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def verify_program(program, patterns: Optional[Sequence[bytes]] = None) -> Report:
    """Statically verify one compiled program against its patterns.

    ``patterns`` defaults to ``program.patterns`` — pass them explicitly to
    verify a program against the ruleset it *should* implement (e.g. before
    hot-swapping it into a live service).
    """
    if patterns is None:
        patterns = program.patterns
    patterns = [bytes(p) for p in patterns]
    if isinstance(program, AcceleratorProgram):
        name = f"{program.device.family} device program ({program.blocks_per_group} block(s))"
    else:
        name = f"{getattr(program, 'backend_name', type(program).__name__)} program"
    report = Report(subject=f"{name} over {len(patterns)} pattern(s)")
    capped = _Capped(report)
    ref = Reference(patterns)

    if isinstance(program, AcceleratorProgram):
        _check_accelerator(capped, program, ref)
    elif isinstance(program, DTPAutomaton):
        views = _check_dtp_automaton(capped, program, ref)
        if views is not None:
            _check_dtp_kernel(capped, program, ref, *views)
    elif isinstance(program, AhoCorasickDFA):
        _check_ac(capped, program, ref)
    elif isinstance(program, CompiledDenseProgram):
        _check_dense(capped, program, ref)
    elif isinstance(program, BitmapAhoCorasick):
        _check_bitmap(capped, program, ref)
    elif isinstance(program, PathCompressedAhoCorasick):
        _check_path(capped, program, ref)
    else:
        raise TypeError(
            f"cannot verify {type(program).__name__}: not a compiled program "
            "this verifier knows"
        )
    capped.flush()
    return report


def _effective_view(program, ref: Reference):
    """(effective transition table, outputs accessor) for bisimulation."""
    if isinstance(program, AhoCorasickDFA):
        return np.asarray(program.table, dtype=np.int64), lambda s: program.outputs[s]
    if isinstance(program, CompiledDenseProgram):
        values = program.premultiplied.reshape(-1, ALPHABET).astype(np.int64)
        return (values % values.size) >> 8, program.matches_of
    if isinstance(program, BitmapAhoCorasick):
        rows = [dict(program.children_of(s)) for s in range(program.num_states)]
        capped = _Capped(Report())  # guard failures surface via the table diff
        eff = _closure_table(capped, rows, program.fail, ref, "bitmap")
        return eff, lambda s: program.outputs[s]
    if isinstance(program, PathCompressedAhoCorasick):
        trie = program.trie
        rows = [dict(trie.children[s]) for s in range(trie.num_states)]
        capped = _Capped(Report())
        eff = _closure_table(capped, rows, program.fail, ref, "path")
        return eff, lambda s: program.outputs[s]
    if isinstance(program, DTPAutomaton):
        return _dtp_effective_table(program, ref), lambda s: program.outputs[s]
    raise TypeError(f"no structural view for {type(program).__name__}")


def verify_cross_backend(rules) -> Report:
    """Prove every registered backend structurally bisimilar on ``rules``.

    ``rules`` (a :class:`RuleSet` or byte patterns) compiles through the
    registry, into the programs a :class:`repro.api.Session` scans.  Every
    registered program is an automaton numbering its states as the trie
    does, so the identity relation is a bisimulation iff every backend's
    state count, effective move function and output sets equal the
    independent reference — which is what this checks.  No byte of traffic
    is scanned.
    """
    backends = backend_names()
    patterns = [bytes(p) for p in (rules.patterns if isinstance(rules, RuleSet) else rules)]
    report = Report(
        subject=f"cross-backend equivalence ({', '.join(backends)}) over "
                f"{len(patterns)} pattern(s)"
    )
    capped = _Capped(report)
    ref = Reference(patterns)
    for name in backends:
        program = get_backend(name).compile(rules)
        if not _check_state_count(capped, program.num_states, ref, name):
            continue
        eff, outputs_of = _effective_view(program, ref)
        if eff is None:
            capped.add(
                ERROR,
                "BSM001",
                "failure links do not strictly decrease depth; no effective "
                "move function exists",
                source=name,
            )
            continue
        _check_table(capped, eff, ref, name, code="BSM001")
        _check_outputs(capped, outputs_of, ref, name, code="BSM002")
    capped.flush()
    return report
