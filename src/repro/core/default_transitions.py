"""Default Transition Pointer (DTP) selection — Section III.B of the paper.

The key observation: in an Aho-Corasick move-function DFA built from IDS
strings, the overwhelming majority of transition pointers target a small set
of states close to the start state.  Those pointers are removed from the
per-state pointer lists and replaced by *default transition pointers* kept in
a 256-entry lookup table indexed by the input character:

* **depth-1 defaults** — one per character value: the depth-1 state for that
  character (or the start state when no pattern starts with it).  At most 256
  entries cover *every* depth-1 state.
* **depth-2 defaults** — up to four per character value (the paper found four
  to be optimal): the most commonly pointed-to depth-2 states whose final
  character is that value.  Each entry additionally records the character of
  the preceding state, which is compared against the previous input byte.
* **depth-3 defaults** — one per character value: the most commonly
  pointed-to depth-3 state ending in that value, recording the characters of
  the two preceding states, compared against the previous two input bytes.

Resolution order is depth 3, then depth 2, then depth 1 — i.e. deepest
matching default wins, which mirrors the Aho-Corasick longest-suffix rule and
is what makes dropping the explicit pointers safe (see
:mod:`repro.core.dtp_automaton` for the pruning rule and the equivalence
tests for the machine-checked argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..automata.aho_corasick import AhoCorasickDFA
from ..automata.trie import ALPHABET_SIZE, ROOT


@dataclass(frozen=True)
class DepthTwoDefault:
    """A depth-2 default transition pointer."""

    byte: int            # final character of the target state
    preceding_byte: int  # character of the preceding (depth-1) state
    state: int           # target state id
    popularity: int      # in-degree in the full DFA (selection metric)


@dataclass(frozen=True)
class DepthThreeDefault:
    """A depth-3 default transition pointer."""

    byte: int
    preceding_bytes: Tuple[int, int]  # (depth-1 char, depth-2 char) of the path
    state: int
    popularity: int


@dataclass
class DefaultTransitionTable:
    """The lookup table of default transition pointers.

    ``d1[c]`` is the depth-1 state for character ``c`` or ``ROOT``;
    ``d2[c]`` is the (possibly empty) list of depth-2 defaults for ``c``;
    ``d3[c]`` is the single depth-3 default for ``c`` or ``None``.
    """

    d1: np.ndarray
    d2: Dict[int, List[DepthTwoDefault]] = field(default_factory=dict)
    d3: Dict[int, DepthThreeDefault] = field(default_factory=dict)
    d2_slots: int = 4

    # ------------------------------------------------------------------
    # counting (Table II columns "d1", "d1+d2", "d1+d2+d3")
    # ------------------------------------------------------------------
    @property
    def num_d1(self) -> int:
        """Number of depth-1 defaults that point to a real state (not the root)."""
        return int(np.count_nonzero(self.d1 != ROOT))

    @property
    def num_d2(self) -> int:
        return sum(len(entries) for entries in self.d2.values())

    @property
    def num_d3(self) -> int:
        return len(self.d3)

    @property
    def total_defaults(self) -> int:
        return self.num_d1 + self.num_d2 + self.num_d3

    # ------------------------------------------------------------------
    # membership sets used by the pruning pass
    # ------------------------------------------------------------------
    def depth1_states(self) -> List[int]:
        return [int(s) for s in self.d1 if s != ROOT]

    def depth2_states(self) -> List[int]:
        return [entry.state for entries in self.d2.values() for entry in entries]

    def depth3_states(self) -> List[int]:
        return [entry.state for entry in self.d3.values()]

    def covered_state_mask(self, num_states: int) -> np.ndarray:
        """Boolean mask over state ids covered by *any* default pointer."""
        mask = np.zeros(num_states, dtype=bool)
        for state in self.depth1_states():
            mask[state] = True
        for state in self.depth2_states():
            mask[state] = True
        for state in self.depth3_states():
            mask[state] = True
        return mask

    # ------------------------------------------------------------------
    # transition resolution (the hardware's "no explicit pointer" path)
    # ------------------------------------------------------------------
    def resolve(self, byte: int, prev1: Optional[int], prev2: Optional[int]) -> int:
        """Resolve the default transition for ``byte``.

        ``prev1`` is the previous input byte and ``prev2`` the one before
        that; ``None`` means "no such byte yet" (start of packet), which can
        never match a stored preceding-character value.
        """
        entry3 = self.d3.get(byte)
        if (
            entry3 is not None
            and prev1 == entry3.preceding_bytes[1]
            and prev2 == entry3.preceding_bytes[0]
        ):
            return entry3.state
        for entry2 in self.d2.get(byte, ()):
            if prev1 == entry2.preceding_byte:
                return entry2.state
        return int(self.d1[byte])


def build_default_transition_table(
    dfa: AhoCorasickDFA,
    d2_slots: int = 4,
    include_d2: bool = True,
    include_d3: bool = True,
    min_popularity: int = 1,
    max_stored_pointers: Optional[int] = None,
) -> DefaultTransitionTable:
    """Select default transition pointers for ``dfa`` (see
    :func:`select_defaults`, which also returns the pruning mask)."""
    return select_defaults(
        dfa, d2_slots, include_d2, include_d3, min_popularity, max_stored_pointers
    )[0]


def select_defaults(
    dfa: AhoCorasickDFA,
    d2_slots: int = 4,
    include_d2: bool = True,
    include_d3: bool = True,
    min_popularity: int = 1,
    max_stored_pointers: Optional[int] = None,
) -> Tuple[DefaultTransitionTable, np.ndarray]:
    """Select default transition pointers for ``dfa``; return the table and
    :func:`stored_mask` against it, the block's one pruning pass.

    "Most commonly pointed to" is measured as the state's in-degree in the
    full move-function DFA: the number of (state, character) pairs whose
    transition targets it.  That is exactly the number of stored pointers the
    default will eliminate, so ranking by it maximises the saving.

    Parameters
    ----------
    d2_slots:
        Maximum number of depth-2 defaults per character value (paper: 4).
    include_d2, include_d3:
        Disable deeper defaults to reproduce the intermediate rows of
        Figure 2 / Table II.
    min_popularity:
        Minimum in-degree for a depth-2/3 state to earn a default entry.
    max_stored_pointers:
        When given, run the slot-repair pass of
        :func:`enforce_pointer_limit` so that no state keeps more than this
        many explicit pointers (the hardware supports 13).  The pass trades a
        small amount of total memory for a bounded worst case; it never
        changes the lookup-table geometry (still at most ``d2_slots`` depth-2
        and one depth-3 default per character).
    """
    if d2_slots < 0:
        raise ValueError(f"d2_slots must be non-negative, got {d2_slots}")

    trie = dfa.trie
    d1 = np.full(ALPHABET_SIZE, ROOT, dtype=np.int64)
    for byte, child in trie.children[ROOT].items():
        d1[byte] = child

    table = DefaultTransitionTable(d1=d1, d2_slots=d2_slots)
    if not include_d2 and not include_d3:
        return table, stored_mask(dfa, table)

    in_degree = _in_degree(dfa)

    if include_d2 and d2_slots > 0:
        depth2_states = np.flatnonzero(dfa.depth == 2)
        per_byte: Dict[int, List[DepthTwoDefault]] = {}
        for state in depth2_states:
            state = int(state)
            popularity = int(in_degree[state])
            if popularity < min_popularity:
                continue
            byte = int(dfa.label[state])
            entry = DepthTwoDefault(
                byte=byte,
                preceding_byte=int(dfa.parent_label[state]),
                state=state,
                popularity=popularity,
            )
            per_byte.setdefault(byte, []).append(entry)
        for byte, entries in per_byte.items():
            entries.sort(key=lambda e: (-e.popularity, e.state))
            table.d2[byte] = entries[:d2_slots]

    if include_d3:
        depth3_states = np.flatnonzero(dfa.depth == 3)
        best: Dict[int, DepthThreeDefault] = {}
        for state in depth3_states:
            state = int(state)
            popularity = int(in_degree[state])
            if popularity < min_popularity:
                continue
            byte = int(dfa.label[state])
            parent = int(dfa.parent[state])
            grandparent = int(dfa.parent[parent])
            entry = DepthThreeDefault(
                byte=byte,
                preceding_bytes=(int(dfa.label[grandparent]), int(dfa.label[parent])),
                state=state,
                popularity=popularity,
            )
            current = best.get(byte)
            if (
                current is None
                or entry.popularity > current.popularity
                or (entry.popularity == current.popularity and entry.state < current.state)
            ):
                best[byte] = entry
        table.d3 = best

    keep = stored_mask(dfa, table)
    if max_stored_pointers is not None:
        enforce_pointer_limit(dfa, table, max_stored_pointers, keep=keep, in_degree=in_degree)
    return table, keep


# ----------------------------------------------------------------------
# the pruning pass
# ----------------------------------------------------------------------
#: rows of the DFA table per step of a pass over it: its temporaries stay
#: a few hundred kB whatever the block's size
_ROWS = 1024


def _in_degree(dfa: AhoCorasickDFA) -> np.ndarray:
    """In-degree of every state over the full transition table."""
    in_degree = np.zeros(dfa.num_states, dtype=np.int64)
    for start in range(0, dfa.num_states, _ROWS):
        in_degree += np.bincount(
            dfa.table[start:start + _ROWS].ravel(), minlength=dfa.num_states
        )
    return in_degree


def registered_bytes(table: DefaultTransitionTable, num_states: int) -> np.ndarray:
    """Per state: the byte under which a depth-2 or depth-3 default
    registers it, ``-1`` when none does."""
    registered = np.full(num_states, -1, dtype=np.int16)
    for byte, entries in table.d2.items():
        for entry in entries:
            registered[entry.state] = byte
    for byte, entry in table.d3.items():
        registered[entry.state] = byte
    return registered


def stored_mask(dfa: AhoCorasickDFA, table: DefaultTransitionTable) -> np.ndarray:
    """``keep[s, c]``: whether transition ``s --c--> t`` stays a stored
    pointer against ``table`` (see :mod:`repro.core.dtp_automaton`).

    It is dropped when ``t`` is the root, the depth-1 default of ``c``, or
    registered as a deeper default under ``c``.  Only depth-2 and depth-3
    states are ever registered, so the pruning rule's depth tests are
    implied: one gather over the table.
    """
    registered = registered_bytes(table, dfa.num_states)
    columns = np.arange(ALPHABET_SIZE, dtype=registered.dtype)
    d1 = table.d1.astype(dfa.table.dtype)
    keep = np.empty(dfa.table.shape, dtype=bool)
    for start in range(0, dfa.num_states, _ROWS):
        targets = dfa.table[start:start + _ROWS]
        part = keep[start:start + _ROWS]
        np.not_equal(registered.take(targets), columns, out=part)
        part &= targets != d1
        part &= targets != ROOT
    return keep


# ----------------------------------------------------------------------
# pointer-limit repair pass
# ----------------------------------------------------------------------
def enforce_pointer_limit(
    dfa: AhoCorasickDFA,
    table: DefaultTransitionTable,
    limit: int,
    max_iterations: int = 20000,
    keep: Optional[np.ndarray] = None,
    in_degree: Optional[np.ndarray] = None,
) -> bool:
    """Reassign default slots so no state stores more than ``limit`` pointers.

    The paper's popularity-based selection minimises the *total* number of
    stored pointers but does not bound the per-state worst case, which the
    hardware requires (at most 13 pointers per state).  This pass repairs
    violations by re-targeting depth-2/3 default slots:

    * if the character of an offending uncovered target still has a free
      slot, the target simply takes it;
    * otherwise the least popular currently covered state of that character
      is evicted, provided none of the states that would regain its pointer
      is already at the limit.

    Covering a state removes the explicit pointer from *every* state that
    transitions to it (all of them end with the required preceding
    characters), so each repair strictly reduces the offender's count by one.
    ``keep`` is :func:`stored_mask` against ``table`` (computed when
    omitted); every repair updates it, so it stays the mask of the repaired
    table.  Returns ``True`` when all states are within the limit afterwards.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if in_degree is None:
        in_degree = _in_degree(dfa)
    if keep is None:
        keep = stored_mask(dfa, table)
    counts = np.count_nonzero(keep, axis=1)

    def sources_of(state: int, byte: int) -> np.ndarray:
        return np.flatnonzero(dfa.table[:, byte] == state)

    def pruned(sources: np.ndarray, byte: int, dropped: bool) -> None:
        counts[sources] += -1 if dropped else 1
        keep[sources, byte] = not dropped

    d2_states = {entry.state for entries in table.d2.values() for entry in entries}
    d3_states = {entry.state for entry in table.d3.values()}

    def try_cover_depth2(byte: int, target: int) -> bool:
        entries = table.d2.setdefault(byte, [])
        evicted: Optional[DepthTwoDefault] = None
        if len(entries) >= table.d2_slots:
            for candidate in sorted(entries, key=lambda e: e.popularity):
                gaining = sources_of(candidate.state, byte)
                if gaining.size == 0 or counts[gaining].max() < limit:
                    evicted = candidate
                    break
            if evicted is None:
                return False
            entries.remove(evicted)
            d2_states.discard(evicted.state)
            pruned(sources_of(evicted.state, byte), byte, dropped=False)
        entries.append(
            DepthTwoDefault(
                byte=byte,
                preceding_byte=int(dfa.parent_label[target]),
                state=target,
                popularity=int(in_degree[target]),
            )
        )
        d2_states.add(target)
        pruned(sources_of(target, byte), byte, dropped=True)
        return True

    def try_cover_depth3(byte: int, target: int) -> bool:
        current = table.d3.get(byte)
        if current is not None:
            gaining = sources_of(current.state, byte)
            if gaining.size and counts[gaining].max() >= limit:
                return False
            d3_states.discard(current.state)
            pruned(gaining, byte, dropped=False)
        parent = int(dfa.parent[target])
        grandparent = int(dfa.parent[parent])
        table.d3[byte] = DepthThreeDefault(
            byte=byte,
            preceding_bytes=(int(dfa.label[grandparent]), int(dfa.label[parent])),
            state=target,
            popularity=int(in_degree[target]),
        )
        d3_states.add(target)
        pruned(sources_of(target, byte), byte, dropped=True)
        return True

    iterations = 0
    stuck: set = set()
    while iterations < max_iterations:
        over = np.flatnonzero(counts > limit)
        fixable = [s for s in over.tolist() if s not in stuck]
        if not fixable:
            break
        offender = max(fixable, key=lambda s: counts[s])
        repaired = False
        row = dfa.table[offender]
        candidate_bytes = np.flatnonzero(
            (row != ROOT) & np.isin(dfa.depth[row], (2, 3))
        )
        # Prefer high in-degree targets: covering them helps the most states.
        candidate_bytes = sorted(
            candidate_bytes.tolist(), key=lambda c: -int(in_degree[row[c]])
        )
        for byte in candidate_bytes:
            iterations += 1
            target = int(row[byte])
            depth = int(dfa.depth[target])
            if depth == 2 and target not in d2_states:
                repaired = try_cover_depth2(byte, target)
            elif depth == 3 and target not in d3_states:
                repaired = try_cover_depth3(byte, target)
            if repaired:
                break
        if not repaired:
            stuck.add(offender)
    return bool(counts.max() <= limit)
