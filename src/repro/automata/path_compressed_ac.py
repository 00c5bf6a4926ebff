"""Path-compressed Aho-Corasick (Tuck et al., Infocom 2004).

The second comparison structure of Table III.  Long chains of states that
each have exactly one child (very common in the deep parts of an IDS trie)
are collapsed into a single *path node* that stores the run of characters
directly.  Branching states keep the bitmap representation of
:mod:`repro.automata.bitmap_ac`.

The matcher keeps failure pointers; a partial mismatch inside a path node
falls back via the failure pointer of the node's first state, which is the
behaviour that breaks the one-character-per-cycle guarantee and motivates the
paper's move-function design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend import CompiledProgramMixin, ScanState, advance_history
from .aho_corasick import AhoCorasickNFA
from .trie import ROOT, Trie

MatchList = List[Tuple[int, int]]


@dataclass(frozen=True)
class PathNodeLayout:
    """Bit widths for path-compressed nodes (defaults follow Tuck et al.).

    A *branch* node keeps the 256-bit bitmap; a *path* node stores up to
    ``max_path_length`` characters, one next pointer, one failure pointer per
    stored character (Tuck et al. keep a failure pointer for every position so
    a mismatch mid-path can restart correctly) and per-character match bits.
    """

    bitmap_bits: int = 256
    pointer_bits: int = 32
    match_bits: int = 32
    character_bits: int = 8
    max_path_length: int = 8

    def branch_node_bits(self) -> int:
        return self.bitmap_bits + 2 * self.pointer_bits + self.match_bits

    def path_node_bits(self, characters: int) -> int:
        if characters < 1:
            raise ValueError("path node must hold at least one character")
        if characters > self.max_path_length:
            raise ValueError("path node longer than max_path_length")
        return (
            characters * self.character_bits     # the compressed run
            + self.pointer_bits                  # next node
            + characters * self.pointer_bits     # per-position failure pointers
            + characters                         # per-position match flag
            + self.match_bits                    # match metadata
        )


@dataclass
class _PathNode:
    """One node of the path-compressed automaton."""

    kind: str                              # "branch" or "path"
    states: List[int] = field(default_factory=list)   # original trie states covered
    characters: bytes = b""                # for path nodes


class PathCompressedAhoCorasick(CompiledProgramMixin):
    """Path-compressed AC automaton built on top of the trie + failure function.

    Conforms to the :class:`repro.backend.CompiledProgram` protocol (backend
    name ``"path"``).  Compression only changes storage, not the state-level
    walk, so the resumable flow state is the underlying trie state id.
    """

    backend_name = "path"

    def __init__(self, trie: Trie, layout: Optional[PathNodeLayout] = None):
        self.trie = trie
        self.layout = layout or PathNodeLayout()
        nfa = AhoCorasickNFA(trie)
        self.fail = nfa.fail
        self.outputs = nfa.outputs
        self.nodes: List[_PathNode] = []
        self._node_of_state: Dict[int, int] = {}
        self._compress()

    @classmethod
    def from_patterns(
        cls, patterns: Sequence[bytes], layout: Optional[PathNodeLayout] = None
    ) -> "PathCompressedAhoCorasick":
        return cls(Trie.from_patterns(patterns), layout=layout)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _compress(self) -> None:
        """Group trie states into branch nodes and path nodes."""
        trie = self.trie
        visited = [False] * trie.num_states
        order = list(trie.iter_bfs())
        for state in order:
            if visited[state]:
                continue
            children = trie.children[state]
            is_chain_start = (
                state != ROOT
                and len(children) == 1
                and not trie.outputs[state]  # a match point must stay addressable
            )
            if not is_chain_start:
                visited[state] = True
                node_id = len(self.nodes)
                self.nodes.append(_PathNode(kind="branch", states=[state]))
                self._node_of_state[state] = node_id
                continue
            # Collect the maximal single-child chain starting at ``state``.
            chain = [state]
            visited[state] = True
            current = next(iter(children.values()))
            while (
                len(chain) < self.layout.max_path_length
                and len(trie.children[current]) == 1
                and not trie.outputs[current]
                and not visited[current]
            ):
                chain.append(current)
                visited[current] = True
                current = next(iter(trie.children[current].values()))
            node_id = len(self.nodes)
            characters = bytes(trie.label[s] for s in chain)
            self.nodes.append(_PathNode(kind="path", states=chain, characters=characters))
            for s in chain:
                self._node_of_state[s] = node_id

    def node_of(self, state: int) -> int:
        """Index into :attr:`nodes` of the node storing ``state`` — the
        compression cover, exposed for the static verifier."""
        return self._node_of_state[state]

    # ------------------------------------------------------------------
    # matching (state-level semantics are unchanged; compression only
    # affects storage, so we scan with the underlying failure automaton)
    # ------------------------------------------------------------------
    @property
    def patterns(self) -> Tuple[bytes, ...]:
        """The compiled patterns; pattern ids index this tuple."""
        return tuple(self.trie.patterns)

    def _scan_chunk(self, scan_state: ScanState, chunk: bytes) -> Tuple[MatchList, ScanState]:
        """The failure-walk scan (single copy; the mixin derives ``match``)."""
        trie = self.trie
        matches: MatchList = []
        state = scan_state.state
        base = scan_state.offset
        for position, byte in enumerate(chunk):
            while state != ROOT and byte not in trie.children[state]:
                state = self.fail[state]
            state = trie.children[state].get(byte, ROOT)
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
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_path_nodes(self) -> int:
        return sum(1 for n in self.nodes if n.kind == "path")

    @property
    def num_branch_nodes(self) -> int:
        return sum(1 for n in self.nodes if n.kind == "branch")

    def compression_ratio(self) -> float:
        """Original state count divided by node count."""
        return self.trie.num_states / max(1, self.num_nodes)

    def memory_bits(self) -> int:
        bits = 0
        for node in self.nodes:
            if node.kind == "branch":
                bits += self.layout.branch_node_bits()
            else:
                bits += self.layout.path_node_bits(len(node.characters))
        return bits

    def memory_bytes(self) -> int:
        return (self.memory_bits() + 7) // 8


#: Memory reported by Tuck et al. / quoted in Table III for the same workload.
TUCK_PATH_COMPRESSED_REFERENCE_BYTES = 1_100_000
