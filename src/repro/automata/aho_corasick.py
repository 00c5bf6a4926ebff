"""Aho-Corasick multi-pattern matching automata.

Two variants are provided, mirroring Section III.A of the paper:

* :class:`AhoCorasickNFA` — the classic goto/failure formulation.  It is
  memory-frugal but a single input byte may follow several failure
  transitions, so the number of state traversals per byte is not bounded by
  one.  The matcher counts those wasted transitions so the paper's argument
  (fail pointers cannot guarantee one character per cycle) can be measured.

* :class:`AhoCorasickDFA` — the *move function* formulation: a full
  deterministic automaton where every state stores a next state for all 256
  byte values.  This is the structure the paper compresses; the transition
  table is kept as a dense ``numpy`` array so the compression analysis over
  hundreds of thousands of states stays fast.
"""

from __future__ import annotations

import ctypes
import mmap
import weakref
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import CompiledProgramMixin, ScanState, advance_history
from .trie import ALPHABET_SIZE, ROOT, Trie

MatchList = List[Tuple[int, int]]  # (end_position, pattern_id)

#: glibc's initial mmap threshold: smaller arrays come from the heap and
#: leave the threshold alone, so :func:`mapped_zeros` makes them ``np.zeros``
MAPPED_MIN_BYTES = 128 * 1024

_TRACK = ctypes.pythonapi.PyTraceMalloc_Track
_UNTRACK = ctypes.pythonapi.PyTraceMalloc_Untrack
_TRACK.argtypes = [ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t]
_UNTRACK.argtypes = [ctypes.c_uint, ctypes.c_size_t]


def mapped_zeros(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A zero-filled array in a private anonymous mapping of its own.

    One table-sized array is built per compile.  Left to ``malloc``, the
    first one freed raises glibc's dynamic mmap threshold to its size, later
    ones come from the brk heap, and whether a dropped program's tables go
    back to the system then hangs on heap layout: a process that compiles
    again and again sat 7 MB higher or not from one run to the next.  A
    mapping is unmapped when its last view dies.  ``tracemalloc`` counts it
    in numpy's domain, as it would ``np.zeros``.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape, dtype=np.int64))
    size = count * dtype.itemsize
    if size < MAPPED_MIN_BYTES:
        return np.zeros(shape, dtype=dtype)
    if hasattr(mmap, "MAP_PRIVATE"):  # POSIX: an anonymous map is shared by default
        buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        buffer = mmap.mmap(-1, size)
    array = np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)
    _TRACK(np.lib.tracemalloc_domain, array.ctypes.data, size)
    weakref.finalize(buffer, _UNTRACK, np.lib.tracemalloc_domain, array.ctypes.data)
    return array


@dataclass
class NFAMatchStats:
    """Bookkeeping from an NFA scan used to quantify wasted transitions."""

    bytes_processed: int
    state_visits: int
    failure_transitions: int

    @property
    def visits_per_byte(self) -> float:
        if self.bytes_processed == 0:
            return 0.0
        return self.state_visits / self.bytes_processed


class AhoCorasickNFA:
    """Goto/failure Aho-Corasick automaton."""

    def __init__(self, trie: Trie):
        self.trie = trie
        self.fail: List[int] = [ROOT] * trie.num_states
        # output ids are propagated along failure links
        self.outputs: List[List[int]] = [list(o) for o in trie.outputs]
        self._build_failure_links()
        self._last_stats: Optional[NFAMatchStats] = None

    @classmethod
    def from_patterns(cls, patterns: Sequence[bytes]) -> "AhoCorasickNFA":
        return cls(Trie.from_patterns(patterns))

    def _build_failure_links(self) -> None:
        trie = self.trie
        queue: List[int] = []
        for child in trie.children[ROOT].values():
            self.fail[child] = ROOT
            queue.append(child)
        index = 0
        while index < len(queue):
            state = queue[index]
            index += 1
            for byte, child in trie.children[state].items():
                queue.append(child)
                fallback = self.fail[state]
                while fallback != ROOT and byte not in trie.children[fallback]:
                    fallback = self.fail[fallback]
                self.fail[child] = trie.children[fallback].get(byte, ROOT)
                if self.fail[child] == child:
                    self.fail[child] = ROOT
                self.outputs[child].extend(self.outputs[self.fail[child]])

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match(self, data: bytes) -> MatchList:
        """Scan ``data`` and return ``(end_position, pattern_id)`` matches.

        ``end_position`` is the index *one past* the final byte of the match,
        so ``data[end_position - len(pattern):end_position] == pattern``.
        """
        trie = self.trie
        matches: MatchList = []
        state = ROOT
        visits = 0
        fail_steps = 0
        for position, byte in enumerate(data):
            visits += 1
            while state != ROOT and byte not in trie.children[state]:
                state = self.fail[state]
                visits += 1
                fail_steps += 1
            state = trie.children[state].get(byte, ROOT)
            if self.outputs[state]:
                matches.extend((position + 1, pid) for pid in self.outputs[state])
        self._last_stats = NFAMatchStats(
            bytes_processed=len(data),
            state_visits=visits,
            failure_transitions=fail_steps,
        )
        return matches

    @property
    def last_match_stats(self) -> Optional[NFAMatchStats]:
        """Statistics from the most recent :meth:`match` call."""
        return self._last_stats

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def stored_pointer_count(self) -> int:
        """Goto pointers plus one failure pointer per state."""
        goto_pointers = sum(len(c) for c in self.trie.children)
        return goto_pointers + self.trie.num_states

    def memory_bytes(self, pointer_bytes: int = 4) -> int:
        return self.stored_pointer_count() * pointer_bytes


class AhoCorasickDFA(CompiledProgramMixin):
    """Full-DFA (move function) Aho-Corasick automaton.

    Implements the :class:`repro.backend.CompiledProgram` protocol (backend
    name ``"ac"``): the per-flow :class:`ScanState` holds the current DFA
    state, so chunked :meth:`scan_chunk` delivery matches exactly like one
    contiguous :meth:`match`.

    Attributes
    ----------
    table:
        ``numpy`` array of shape ``(num_states, 256)``; ``table[s, c]`` is the
        next state when byte ``c`` is read in state ``s``.
    depth:
        Depth (prefix length) of every state.
    label:
        Final byte of every state's prefix (-1 for the root).
    parent_label:
        Byte of the state's parent (-1 when the parent is the root or the
        state itself is the root); used by the default-transition machinery.
    """

    backend_name = "ac"

    def __init__(self, trie: Trie):
        self.trie = trie
        self.num_states = trie.num_states
        self.depth = np.asarray(trie.depth, dtype=np.int32)
        self.label = np.asarray(trie.label, dtype=np.int32)
        parent = np.asarray(trie.parent, dtype=np.int32)
        self.parent = parent
        self.parent_label = np.where(parent == ROOT, -1, self.label[parent])
        self.parent_label[ROOT] = -1
        self.fail: List[int] = [ROOT] * trie.num_states
        self.outputs: List[List[int]] = [list(o) for o in trie.outputs]
        self.table = self._build_table()

    @classmethod
    def from_patterns(cls, patterns: Sequence[bytes]) -> "AhoCorasickDFA":
        return cls(Trie.from_patterns(patterns))

    def _build_table(self) -> np.ndarray:
        """One depth level at a time: every state of a level inherits its
        fallback's (shallower, finished) row in one fancy copy, then the
        level's goto edges are scattered over it.  A child's fallback is its
        parent's inherited entry for its byte, read before that scatter."""
        table = mapped_zeros((self.num_states, ALPHABET_SIZE), np.int32)
        fail = np.zeros(self.num_states, dtype=np.int32)
        by_depth = np.argsort(self.depth, kind="stable")
        bounds = np.cumsum(np.bincount(self.depth)).tolist()
        outputs = self.outputs
        for low, middle, high in zip([0] + bounds, bounds, bounds[1:]):
            level, children = by_depth[low:middle], by_depth[middle:high]
            if low:  # the root row starts all-root
                table[level] = table[fail[level]]
            parents, labels = self.parent[children], self.label[children]
            fail[children] = table[parents, labels]
            table[parents, labels] = children
            for child, fallback in zip(children.tolist(), fail[children].tolist()):
                if outputs[fallback]:
                    outputs[child] = outputs[child] + outputs[fallback]
        if len(bounds) > 1:  # the deepest level has no children to scatter
            deepest = by_depth[bounds[-2]:]
            table[deepest] = table[fail[deepest]]
        self.fail = fail.tolist()
        return table

    @property
    def patterns(self) -> Tuple[bytes, ...]:
        """The compiled patterns; pattern ids index this tuple."""
        return tuple(self.trie.patterns)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def step(self, state: int, byte: int) -> int:
        return int(self.table[state, byte])

    def _scan_chunk(self, scan_state: ScanState, chunk: bytes) -> Tuple[MatchList, ScanState]:
        """Scan one stream segment; exactly one transition per input byte.

        This is the single copy of the matching walk — the mixin derives
        ``match``/``scan``/``scan_chunk`` from it.
        """
        matches: MatchList = []
        table = self.table
        outputs = self.outputs
        state = scan_state.state
        base = scan_state.offset
        for position, byte in enumerate(chunk):
            state = int(table[state, byte])
            if outputs[state]:
                matches.extend((base + position + 1, pid) for pid in outputs[state])
        prev1, prev2 = advance_history(scan_state.prev1, scan_state.prev2, chunk)
        return matches, ScanState(
            state=state, prev1=prev1, prev2=prev2, offset=base + len(chunk)
        )

    def iter_states(self, data: bytes) -> Iterator[int]:
        """Yield the state after each input byte (useful for equivalence tests)."""
        state = ROOT
        for byte in data:
            state = int(self.table[state, byte])
            yield state

    # ------------------------------------------------------------------
    # memory accounting (Section V.C baseline)
    # ------------------------------------------------------------------
    def non_root_transition_mask(self) -> np.ndarray:
        """Boolean mask of transitions whose target is not the root.

        The paper's "Original Aho-Corasick / Avg.Pointers" rows count only the
        pointers that must be stored, i.e. transitions to states other than
        the start state.
        """
        return self.table != ROOT

    def stored_pointer_count(self) -> int:
        return int(self.non_root_transition_mask().sum())

    def average_pointers_per_state(self) -> float:
        return self.stored_pointer_count() / self.num_states

    def pointer_counts_per_state(self) -> np.ndarray:
        return self.non_root_transition_mask().sum(axis=1)

    def memory_bytes(self, pointer_bytes: int = 4) -> int:
        """Naive memory footprint storing one pointer per non-root transition."""
        return self.stored_pointer_count() * pointer_bytes

    def full_table_memory_bytes(self, pointer_bytes: int = 4) -> int:
        """Footprint of the uncompressed 256-wide transition table."""
        return self.num_states * ALPHABET_SIZE * pointer_bytes

    def unique_starting_bytes(self) -> int:
        """Number of distinct first characters over all patterns (Table II 'd1')."""
        return len(self.trie.children[ROOT])


def verify_equivalent_matches(
    reference: MatchList, candidate: MatchList
) -> Tuple[bool, List[Tuple[int, int]]]:
    """Compare two match lists ignoring ordering; return (equal, differences)."""
    ref = set(reference)
    cand = set(candidate)
    if ref == cand:
        return True, []
    return False, sorted(ref.symmetric_difference(cand))
