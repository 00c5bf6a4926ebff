"""Bitmap-compressed Aho-Corasick (Tuck, Sherwood, Calder, Varghese — Infocom 2004).

This is the first of the two comparison structures in Table III of the DATE
2010 paper.  Each node replaces the 256-entry next-state array with:

* a 256-bit bitmap marking which byte values have an explicit (goto) child;
* a pointer to the node's packed array of children (children are stored
  contiguously, so the child for byte ``c`` is found by popcounting the
  bitmap below ``c``);
* a failure pointer (this variant keeps the failure function, which is what
  costs it the one-character-per-cycle guarantee);
* match metadata.

Memory accounting follows the node layout described by Tuck et al.; the
per-field widths are parameters of :class:`BitmapNodeLayout` so the Table III
comparison can be run both with our byte-exact layout and with the figures
reported in the original paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..backend import CompiledProgramMixin, ScanState, advance_history
from .aho_corasick import AhoCorasickNFA
from .trie import ROOT, Trie

MatchList = List[Tuple[int, int]]


@dataclass(frozen=True)
class BitmapNodeLayout:
    """Bit widths of one bitmap node (defaults follow Tuck et al.)."""

    bitmap_bits: int = 256
    failure_pointer_bits: int = 32
    child_pointer_bits: int = 32
    match_bits: int = 32  # rule-id / match metadata

    @property
    def node_bits(self) -> int:
        return (
            self.bitmap_bits
            + self.failure_pointer_bits
            + self.child_pointer_bits
            + self.match_bits
        )


class BitmapAhoCorasick(CompiledProgramMixin):
    """Bitmap-compressed AC automaton with failure transitions.

    Conforms to the :class:`repro.backend.CompiledProgram` protocol (backend
    name ``"bitmap"``).  Because a failure walk depends only on the current
    state, the resumable flow state is just the trie state id — but the
    walk may follow several failure links per byte, which is exactly the
    property that costs this structure the one-character-per-cycle guarantee.
    """

    backend_name = "bitmap"

    def __init__(self, trie: Trie, layout: Optional[BitmapNodeLayout] = None):
        self.trie = trie
        self.layout = layout or BitmapNodeLayout()
        nfa = AhoCorasickNFA(trie)
        self.fail = nfa.fail
        self.outputs = nfa.outputs
        # bitmap[state] is a 256-bit integer; child_index[state][byte] resolves
        # the popcount lookup that hardware would perform.
        self.bitmaps: List[int] = [0] * trie.num_states
        self.children_arrays: List[List[int]] = [[] for _ in range(trie.num_states)]
        for state in range(trie.num_states):
            bitmap = 0
            packed: List[int] = []
            for byte in sorted(trie.children[state]):
                bitmap |= 1 << byte
                packed.append(trie.children[state][byte])
            self.bitmaps[state] = bitmap
            self.children_arrays[state] = packed

    @classmethod
    def from_patterns(
        cls, patterns: Sequence[bytes], layout: Optional[BitmapNodeLayout] = None
    ) -> "BitmapAhoCorasick":
        return cls(Trie.from_patterns(patterns), layout=layout)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _child(self, state: int, byte: int) -> Optional[int]:
        bitmap = self.bitmaps[state]
        if not (bitmap >> byte) & 1:
            return None
        below = bitmap & ((1 << byte) - 1)
        return self.children_arrays[state][bin(below).count("1")]

    def children_of(self, state: int) -> Iterator[Tuple[int, int]]:
        """Decode a state's ``(byte, child)`` edges through the bitmap and
        popcount indexing — the exact lookup the scan performs, exposed so
        the static verifier checks the encoding rather than the source
        trie."""
        bitmap = self.bitmaps[state]
        for byte in range(256):
            if (bitmap >> byte) & 1:
                below = bitmap & ((1 << byte) - 1)
                yield byte, self.children_arrays[state][bin(below).count("1")]

    @property
    def patterns(self) -> Tuple[bytes, ...]:
        """The compiled patterns; pattern ids index this tuple."""
        return tuple(self.trie.patterns)

    def _scan_chunk(self, scan_state: ScanState, chunk: bytes) -> Tuple[MatchList, ScanState]:
        """The failure-walk scan (single copy; the mixin derives ``match``)."""
        matches: MatchList = []
        state = scan_state.state
        base = scan_state.offset
        for position, byte in enumerate(chunk):
            child = self._child(state, byte)
            while child is None and state != ROOT:
                state = self.fail[state]
                child = self._child(state, byte)
            state = child if child is not None else ROOT
            if self.outputs[state]:
                matches.extend((base + position + 1, pid) for pid in self.outputs[state])
        prev1, prev2 = advance_history(scan_state.prev1, scan_state.prev2, chunk)
        return matches, ScanState(
            state=state, prev1=prev1, prev2=prev2, offset=base + len(chunk)
        )

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self.trie.num_states

    def memory_bits(self) -> int:
        return self.num_states * self.layout.node_bits

    def memory_bytes(self) -> int:
        return (self.memory_bits() + 7) // 8


#: The total memory reported by Tuck et al. / quoted in Table III for their
#: Snort subset with 19,124 characters, used as the literature reference point.
TUCK_BITMAP_REFERENCE_BYTES = 2_800_000
