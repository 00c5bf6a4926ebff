"""The DTP-compressed Aho-Corasick automaton (the paper's core contribution).

Starting from the full move-function DFA, every transition pointer whose
target is reachable through the default-transition lookup table is removed
from the per-state pointer list.  The pruning rule, for a transition
``state --byte--> target``:

* ``depth(target) == 0`` (the root): never stored — the lookup table returns
  the root when no deeper default applies.
* ``depth(target) == 1``: never stored — the 256 depth-1 defaults cover every
  depth-1 state.
* ``depth(target) == 2``: dropped iff ``target`` is one of the (at most four)
  depth-2 defaults registered for ``byte``.
* ``depth(target) == 3``: dropped iff ``target`` is the depth-3 default
  registered for ``byte``.
* deeper targets are always stored explicitly.

Why this is safe (the argument the equivalence tests machine-check): in the
Aho-Corasick DFA the state always corresponds to the longest suffix of the
input that is a pattern prefix.  A depth-``k`` default for character ``c``
only fires when the previous ``k-1`` input bytes equal the target's preceding
characters, i.e. when that depth-``k`` prefix *is* a suffix of the input — in
which case the true DFA target is at least that deep.  Consequently a default
can never fire "too deep"; resolution order (3, then 2, then 1) picks the
deepest stored suffix, and the explicit pointer list retains every case the
table cannot express.  One character is consumed per lookup, preserving the
paper's guaranteed-rate property.

The lane kernel
---------------
Calls of ``lanes.KERNEL_MIN_BYTES`` or more, and every ``scan_many`` batch,
are cut into lanes by :mod:`repro.core.lanes` and stepped by this module's
kernel: all lanes of all flows consume one byte per step, through the paper's
two structures laid out as flat arrays.

* **Stored pointers** — ``check`` / ``next``, a row-displacement
  ("double-array") table whose displacements are the state *values* the
  kernel walks.  Every state has a displacement of its own; its value
  (``value_of``) is that displacement, plus ``flagged`` (the table's length)
  when the state reports a match — the paper's has-match bit.  State value
  ``v`` keeps its pointer for byte ``b`` in slot ``(v + b) % flagged``;
  ``check`` holds the slot owner's value (``-1``: free) and ``next`` the
  target's value.  The sparse rows interleave, so the table holds a few
  slots per pointer instead of 256 per state.
* **Depth-3 defaults, folded** — the table also holds every transition a
  depth-3 default prunes, ``s --c--> t`` with ``t`` the depth-3 default of
  ``c`` (:func:`folded_pointers`, from the stored pointers and the trie's
  labels): 6-10 % more pointers, Table II's ``after_d1_d2`` count where no
  pointer limit moved a default.  Where a depth-3 default would
  fire on the true state, that state's folded pointer leads to the same
  target, so the kernel never resolves one.  :attr:`pointers`, :attr:`stored` and the
  packed words keep the paper's pruning; the scalar :meth:`step` still
  resolves depth-3 defaults at run time, the independent reference.
* **Depth-1/2 defaults** — ``pair_default``, direct-indexed by
  ``prev1 * 256 + byte``: the value of the depth-2 default registered for
  ``byte`` whose preceding character is ``prev1``, else of the depth-1
  default.  Row :data:`NO_BYTE` ``= 256`` is the missing history byte of a
  stream's start, which no stored preceding character equals.

The default target then depends on ``(byte, prev1)`` and never on the state,
so it is computed from the tile's bytes alone, an eighth of a history slab's
steps at a time: a big-endian ``uint16`` view with stride 1 over the packed
bytes *is* ``prev1 * 256 + byte``, so the defaults are one gather from it,
the same work whatever the traffic.  A step is then ``value + byte ->
take(check) != value -> take(next)``, overwritten by that step's default row
where no pointer is stored: five NumPy calls whether a pointer hits or a
default fires.  A slab with no match is one ``max() < flagged``, as in the
dense kernel; values are decoded to plain state ids (``id_of``) for hits and
final states only.

Why a lane may warm up from the root: with the stream's true history a
default can land a warming lane *deeper* than the plain DFA lane that left
the root with it — but only ever on a pattern prefix that is a genuine suffix
of the input, because a default fires on the matching preceding byte alone,
and a stored or folded pointer maps a genuine suffix to a genuine suffix.
And never shallower: a transition the kernel does not hold has as target the
root, the depth-1 default or a registered depth-2 default whose preceding
byte is in the input, so the pair table returns it or something deeper.  The
warming lane is therefore sandwiched, suffix-wise, between the DFA lane and
the true state.  The DFA lane that left the root ``w`` bytes ago is in the
true state once that state is at most ``w`` deep, and so, from then on, is
the warming lane.  That is why :mod:`repro.core.lanes` may warm a lane up
over :data:`~repro.core.lanes.SHORT_WARMUP` bytes only: its repair walk
re-walks a lane that reached its cut wrong until the true state is no deeper
than the short warm-up plus the steps taken, which needs at most ``warmup``
(= deepest state, DTP009) minus that many steps, and the first walk is right
from there on.  Every lane ends in the true state, since none is shorter
than ``warmup``; ``value_depth`` (the depth of each state value) is the
settling test.  A job's first lane takes the carried-in state, and the
default of its first step — the one that reads the byte before its cut,
which in the packed buffer belongs to some other job — is looked up again
from the carried ``prev1``, for those lanes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..automata.aho_corasick import AhoCorasickDFA
from ..automata.trie import ALPHABET_SIZE, ROOT
from ..backend import ScanState
from . import lanes
from .default_transitions import (
    DefaultTransitionTable,
    registered_bytes,
    select_defaults,
    stored_mask,
)
from .lanes import Hits, LaneBatch, LaneCut, LaneKernelMixin

MatchList = List[Tuple[int, int]]

#: The hardware string matching engines handle at most 13 pointers per state
#: (Section IV.A); the packer enforces this limit.
HARDWARE_MAX_POINTERS = 13

_CHUNK_STATES = 8192  # chunk size for staged_pointer_counts

#: "No such byte yet" in a lane's carried history: the ``prev1`` row of
#: ``pair_default`` that holds the depth-1 defaults.
NO_BYTE = 256

#: Row-displacement table slots per stored pointer: sparse enough that a
#: random displacement of a 13-pointer row usually fits (4 ms for 12 k
#: pointers), 32 bytes a pointer.
_SLOTS_PER_POINTER = 4


@dataclass
class StagedPointerCounts:
    """Stored-pointer totals for the compression stages of Figure 2 / Table II."""

    num_states: int
    original: int
    after_d1: int
    after_d1_d2: int
    after_d1_d2_d3: int

    def averages(self) -> Dict[str, float]:
        n = max(1, self.num_states)
        return {
            "original": self.original / n,
            "after_d1": self.after_d1 / n,
            "after_d1_d2": self.after_d1_d2 / n,
            "after_d1_d2_d3": self.after_d1_d2_d3 / n,
        }

    @property
    def reduction_percent(self) -> float:
        if self.original == 0:
            return 0.0
        return 100.0 * (1.0 - self.after_d1_d2_d3 / self.original)


def staged_pointer_counts(
    dfa: AhoCorasickDFA, defaults: DefaultTransitionTable
) -> StagedPointerCounts:
    """Count stored pointers before and after each default-insertion stage."""
    num_states = dfa.num_states
    registered = registered_bytes(defaults, num_states)
    d1_row = defaults.d1.astype(np.int64)
    columns = np.arange(ALPHABET_SIZE, dtype=np.int32)[None, :]

    original = 0
    after_d1 = 0
    after_d1_d2 = 0
    after_all = 0
    for start in range(0, num_states, _CHUNK_STATES):
        stop = min(start + _CHUNK_STATES, num_states)
        block = dfa.table[start:stop]
        non_root = block != ROOT
        target_depth = dfa.depth[block]
        original += int(non_root.sum())

        drop1 = non_root & (target_depth == 1) & (block == d1_row[None, :])
        keep1 = non_root & ~drop1
        after_d1 += int(keep1.sum())

        drop2 = keep1 & (target_depth == 2) & (registered[block] == columns)
        keep2 = keep1 & ~drop2
        after_d1_d2 += int(keep2.sum())

        drop3 = keep2 & (target_depth == 3) & (registered[block] == columns)
        after_all += int((keep2 & ~drop3).sum())

    return StagedPointerCounts(
        num_states=num_states,
        original=original,
        after_d1=after_d1,
        after_d1_d2=after_d1_d2,
        after_d1_d2_d3=after_all,
    )


def displace_rows(
    states: np.ndarray, symbols: np.ndarray, targets: np.ndarray, num_states: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-displacement layout ``(base, check, next)`` of sparse rows.

    ``(states[i], symbols[i]) -> targets[i]``, sorted by state; ``check``
    names a slot's owner (``-1``: free) and ``next`` its target.  Every one
    of the ``num_states`` states gets a displacement of its own, below
    ``len(check) - 255``, so a displacement can stand for its state.  Rounds
    of random displacements, every unplaced row bidding one per round: a row
    keeps its displacement when it and all its slots are free and no larger
    row bids for any of them in the same round.  States that store nothing
    then take the lowest displacements left.  The generator is seeded, so
    the layout is a function of the pointers; there is no per-row Python
    loop.  A table too crowded to finish (many near-full rows) doubles every
    32 rounds.
    """
    owners, counts = np.unique(states, return_counts=True)
    # larger rows first: np.unique keeps the first bidder for a slot
    by_size = np.argsort(-counts, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(len(owners))
    row = np.repeat(rank, counts)
    order = np.argsort(row, kind="stable")
    row, states, symbols, targets = row[order], states[order], symbols[order], targets[order]

    size = max(_SLOTS_PER_POINTER * len(states), num_states) + ALPHABET_SIZE
    check = np.full(size + ALPHABET_SIZE, -1, dtype=np.int32)
    following = np.zeros(size + ALPHABET_SIZE, dtype=np.int32)
    taken = np.zeros(size, dtype=bool)  # displacements already given out
    displacement = np.zeros(len(owners), dtype=np.int64)
    # the unplaced rows (by rank) and their pointers: a round costs what is
    # left to place, not the whole block
    rows, bidding = np.arange(len(owners)), np.arange(len(states))
    rng = np.random.default_rng(0)
    rounds = 0
    while len(rows):
        if rounds and rounds % 32 == 0:
            check = np.concatenate([check, np.full(size, -1, dtype=np.int32)])
            following = np.concatenate([following, np.zeros(size, dtype=np.int32)])
            taken = np.concatenate([taken, np.zeros(size, dtype=bool)])
            size *= 2
        rounds += 1
        trial = rng.integers(0, size, len(rows))
        at = np.searchsorted(rows, row[bidding])  # each pointer's row in ``rows``
        slots = trial[at] + symbols[bidding]
        outbid = np.ones(len(slots), dtype=bool)
        outbid[np.unique(slots, return_index=True)[1]] = False
        lost = taken[trial]
        lost[at[outbid | (check[slots] >= 0)]] = True
        twin = np.ones(len(rows), dtype=bool)
        twin[np.unique(trial, return_index=True)[1]] = False
        lost |= twin
        kept = ~lost[at]
        check[slots[kept]] = states[bidding[kept]]
        following[slots[kept]] = targets[bidding[kept]]
        displacement[rows[~lost]] = trial[~lost]
        taken[trial[~lost]] = True
        rows, bidding = rows[lost], bidding[~kept]
    base = np.zeros(num_states, dtype=np.int32)
    base[owners[by_size]] = displacement
    silent = np.ones(num_states, dtype=bool)
    silent[owners] = False
    base[silent] = np.flatnonzero(~taken)[: int(silent.sum())]
    return base, check, following


def folded_pointers(
    dfa: AhoCorasickDFA, defaults: DefaultTransitionTable, stored: np.ndarray
) -> np.ndarray:
    """The transitions a depth-3 default prunes, ``s --c--> t`` with ``t``
    the depth-3 default of ``c``, as sorted flat indices ``s * 256 + c``.

    ``t`` spells its preceding pair then ``c``, so ``s`` ends in that pair.
    Conversely, where a state at depth 2 or more ends in the pair and its
    ``c`` transition is not among the ``stored`` flat indices (so it was
    pruned), the target is ``t``: it is at least 3 deep, since the pair
    then ``c`` is a suffix of the input and a pattern prefix, and the only
    pruned target that deep is ``c``'s depth-3 default.  So the set comes
    from the trie's labels and the stored pointers, with no second pass over
    the DFA table.
    """
    if not defaults.d3:
        return np.empty(0, dtype=np.intp)
    deep = np.flatnonzero(dfa.depth >= 2)
    ends = dfa.parent_label[deep].astype(np.intp) * ALPHABET_SIZE + dfa.label[deep]
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    symbols = np.fromiter(defaults.d3, dtype=np.intp, count=len(defaults.d3))
    pairs = np.array(
        [first * ALPHABET_SIZE + second for first, second in
         (entry.preceding_bytes for entry in defaults.d3.values())],
        dtype=np.intp,
    )
    low = np.searchsorted(ends, pairs, "left")
    counts = np.searchsorted(ends, pairs, "right") - low
    # every state ending in a default's pair: a run of ``ends`` per default
    at = np.repeat(low - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    flat = deep[order[at]] * ALPHABET_SIZE + np.repeat(symbols, counts)
    # a candidate is folded unless stored; the appended -1 is "past the end"
    return np.sort(flat[np.append(stored, -1)[np.searchsorted(stored, flat)] != flat])


def state_values(
    base: np.ndarray, check: np.ndarray, following: np.ndarray, reporting: np.ndarray
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(flagged, value_of, check, next)``: a row-displacement layout from
    :func:`displace_rows` re-expressed in state values (see the module
    docstring).  ``flagged = len(check)``, and a reporting state's value is
    its displacement plus ``flagged``: the kernel takes its slots ``value +
    byte`` modulo ``flagged``."""
    flagged = len(check)
    value_of = (base + flagged * reporting).astype(np.int32)
    owners = np.where(check >= 0, value_of.take(check, mode="clip"), -1).astype(np.int32)
    return flagged, value_of, owners, value_of.take(following)


def default_views(defaults: DefaultTransitionTable, value_of: np.ndarray) -> np.ndarray:
    """``pair_default``: the lookup table's depth-1/2 defaults as the kernel
    indexes them, in state values (see the module docstring)."""
    resolved = np.tile(defaults.d1, (NO_BYTE + 1, 1))  # [prev1, byte] -> state
    for byte, entries in defaults.d2.items():
        for entry in reversed(entries):  # the resolver takes the first that fits
            resolved[entry.preceding_byte, byte] = entry.state
    return value_of.take(resolved).ravel()


class PrunedAutomaton:
    """The paper's pruned automaton: the stored pointers and the lookup table.

    What a string matching block holds (Section IV) and what the hardware
    view reads: the packer, the lookup-table encoder, the block image and
    the prover.  It keeps the stored :attr:`pointers` and the lookup table,
    not the DFA it is compiled from (the statistics that compare against
    that DFA rebuild it from :attr:`patterns`).  A device's blocks
    (:func:`repro.core.compile_ruleset`) are one of these per string group,
    built with ``max_stored_pointers`` so that every state fits a word;
    :class:`DTPAutomaton` adds the lane kernel's views and scans.

    Parameters
    ----------
    dfa:
        The move-function Aho-Corasick automaton to compress.
    defaults:
        A pre-built default transition table; built automatically when omitted.
    d2_slots, include_d2, include_d3:
        Forwarded to :func:`build_default_transition_table` when ``defaults``
        is not supplied.
    """

    def __init__(
        self,
        dfa: AhoCorasickDFA,
        defaults: Optional[DefaultTransitionTable] = None,
        d2_slots: int = 4,
        include_d2: bool = True,
        include_d3: bool = True,
        max_stored_pointers: Optional[int] = None,
    ):
        #: the compiled patterns; pattern ids index this tuple
        self.patterns: Tuple[bytes, ...] = tuple(dfa.trie.patterns)
        if defaults is None:
            defaults, keep = select_defaults(
                dfa,
                d2_slots=d2_slots,
                include_d2=include_d2,
                include_d3=include_d3,
                max_stored_pointers=max_stored_pointers,
            )
        else:
            keep = stored_mask(dfa, defaults)
        self.defaults = defaults
        self.outputs = dfa.outputs
        self.depth = dfa.depth
        self.num_states = dfa.num_states
        #: the stored pointers, ``(states, bytes, targets)`` sorted by state,
        #: then byte; state ``s`` owns entries ``pointer_index[s]`` ..
        #: ``pointer_index[s + 1] - 1``
        flat = np.flatnonzero(keep)
        self.pointers = (flat >> 8, flat & 0xFF, dfa.table.ravel().take(flat))
        self.pointer_index = np.searchsorted(self.pointers[0], np.arange(self.num_states + 1))

    @classmethod
    def from_patterns(cls, patterns: Sequence[bytes], **kwargs):
        return cls(AhoCorasickDFA.from_patterns(patterns), **kwargs)

    @classmethod
    def from_ruleset(cls, ruleset, **kwargs):
        """Build from a :class:`repro.rulesets.RuleSet`."""
        return cls.from_patterns(ruleset.patterns, **kwargs)

    @cached_property
    def stored(self) -> List[Dict[int, int]]:
        """Per state, its stored pointers as ``{byte: target}``: the scalar
        walk's view of :attr:`pointers`, built on first use."""
        stored: List[Dict[int, int]] = [{} for _ in range(self.num_states)]
        for state, byte, target in zip(*(column.tolist() for column in self.pointers)):
            stored[state][byte] = target
        return stored

    def pointer_counts(self) -> np.ndarray:
        """Stored pointers per state."""
        return np.diff(self.pointer_index)

    def step(
        self, state: int, byte: int, prev1: Optional[int], prev2: Optional[int]
    ) -> int:
        """One transition: explicit pointer first, lookup-table default
        otherwise — the independent scalar reference."""
        target = self.stored[state].get(byte)
        if target is not None:
            return target
        return self.defaults.resolve(byte, prev1, prev2)

    # ------------------------------------------------------------------
    # statistics / memory accounting
    # ------------------------------------------------------------------
    def stored_pointer_count(self) -> int:
        return len(self.pointers[0])

    def average_stored_pointers(self) -> float:
        return self.stored_pointer_count() / self.num_states

    def memory_bytes(self) -> int:
        """Resident footprint of the arrays it holds: the stored pointers,
        their index and the depths.  A device block's memory image is
        :meth:`BlockProgram.memory_bytes`."""
        return sum(array.nbytes for array in (*self.pointers, self.pointer_index, self.depth))

    def pointer_count_histogram(self) -> Dict[int, int]:
        histogram = np.bincount(self.pointer_counts())
        return {count: int(states) for count, states in enumerate(histogram) if states}

    def max_pointers_per_state(self) -> int:
        return int(self.pointer_counts().max(initial=0))

    def states_exceeding(self, limit: int = HARDWARE_MAX_POINTERS) -> List[int]:
        """State ids whose stored pointer count exceeds the hardware limit."""
        return np.flatnonzero(self.pointer_counts() > limit).tolist()

    def staged_counts(self) -> StagedPointerCounts:
        """Stored pointers per compression stage (rebuilds the DFA)."""
        return staged_pointer_counts(AhoCorasickDFA.from_patterns(self.patterns), self.defaults)

    def reduction_percent(self) -> float:
        """Pointer reduction relative to the original move-function automaton
        (rebuilt)."""
        original = AhoCorasickDFA.from_patterns(self.patterns).stored_pointer_count()
        if original == 0:
            return 0.0
        return 100.0 * (1.0 - self.stored_pointer_count() / original)

    def matching_states(self) -> List[int]:
        return [s for s in range(self.num_states) if self.outputs[s]]


class DTPAutomaton(PrunedAutomaton, LaneKernelMixin):
    """The registry's ``dtp`` program: the pruned automaton over the whole
    ruleset plus the lane kernel's views laid out from it (see the module
    docstring), conforming to the :class:`repro.backend.CompiledProgram`
    protocol.  The per-flow state carries the automaton state *and* the
    two-byte input history the default-transition lookup needs.  Only this
    scan program holds kernel views; a device block holds the
    :class:`PrunedAutomaton` alone.
    """

    backend_name = "dtp"

    def __init__(self, dfa: AhoCorasickDFA, *args, **kwargs):
        super().__init__(dfa, *args, **kwargs)
        #: bytes a lane walks from the root before its cut: the deepest state
        self.warmup = int(self.depth.max())
        # kernel views (see the module docstring): the stored pointers and
        # the folded ones
        self.match_index, self.match_pids = lanes.pack_outputs(self.outputs)
        stored = (self.pointers[0] << 8) | self.pointers[1]
        held = np.sort(np.concatenate((stored, folded_pointers(dfa, self.defaults, stored))))
        self.flagged, self.value_of, self.check, self.next = state_values(
            *displace_rows(held >> 8, held & 0xFF, dfa.table.ravel().take(held), self.num_states),
            np.diff(self.match_index) > 0,
        )
        self.id_of = np.full(2 * self.flagged, -1, dtype=np.int32)
        self.id_of[self.value_of] = np.arange(self.num_states)
        #: the depth of the state behind each value: the lane repair's
        #: settling test (see :mod:`repro.core.lanes`)
        depth = lanes.depth_view(self.depth)
        self.value_depth = np.zeros(2 * self.flagged, dtype=depth.dtype)
        self.value_depth[self.value_of] = depth
        self.pair_default = default_views(self.defaults, self.value_of)

    def _scan_scalar(self, scan_state: ScanState, chunk: bytes) -> Tuple[MatchList, ScanState]:
        """Scan ``chunk`` resuming from ``scan_state``; return matches + new state.

        Feeding the segments of one byte stream through consecutive
        :meth:`scan_chunk` calls is exactly equivalent to one :meth:`match`
        over the concatenated stream: the returned state carries the
        automaton state *and* the two-byte history the default-transition
        lookup needs, so patterns straddling a segment boundary are still
        found.  Match end offsets are stream-absolute (``offset`` + position
        in ``chunk``).
        """
        matches: MatchList = []
        state = scan_state.state
        prev1 = scan_state.prev1
        prev2 = scan_state.prev2
        base = scan_state.offset
        outputs = self.outputs
        for position, byte in enumerate(chunk):
            state = self.step(state, byte, prev1, prev2)
            if outputs[state]:
                matches.extend((base + position + 1, pid) for pid in outputs[state])
            prev2 = prev1
            prev1 = byte
        return matches, ScanState(
            state=state, prev1=prev1, prev2=prev2, offset=base + len(chunk)
        )

    # ------------------------------------------------------------------
    # the lane kernel
    # ------------------------------------------------------------------
    def lane_hits(
        self, cut: LaneCut, scan_states: Sequence[ScanState]
    ) -> Tuple[Hits, np.ndarray]:
        """Run the kernel over ``cut`` (built with one history byte), one
        scan state per job: ``(job, end offset, pattern id)`` hits in walk
        order and the final state id of every job."""
        count = len(scan_states)
        carried = self.value_of.take(np.fromiter((s.state for s in scan_states), np.intp, count))
        offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
        prev1 = np.fromiter(
            (NO_BYTE if s.prev1 is None else s.prev1 for s in scan_states), np.intp, count
        )
        flagged = self.flagged
        # bound methods skip np.take's Python wrapper
        check, following_of, default_of = self.check.take, self.next.take, self.pair_default.take
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
            # a job's first lane has the carried prev1 where the packed
            # buffer has another job's byte: its first step reads it
            first_default = default_of(prev1[first_jobs] * 256 + window[warm + 1, first_lanes])

            def advance(first, sources, targets):
                """Steps ``first`` .. ``first + len(sources) - 1``."""
                for top in range(0, len(sources), part):
                    low = first + top
                    high = min(low + part, first + len(sources))
                    defaults = default_of(pairs[low:high])
                    if low <= warm < high:
                        defaults[warm - low, first_lanes] = first_default
                    columns = np.ascontiguousarray(window[low + 1:high + 1])
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
            walked = len(window) - 1 - warm
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

    def _scan_lanes(
        self, scan_states: Sequence[ScanState], batch: LaneBatch
    ) -> List[Tuple[MatchList, ScanState]]:
        hits, final = self.lane_hits(LaneCut(batch, self.warmup, history=1), scan_states)
        return lanes.job_results(scan_states, batch, hits, final)

    def memory_bytes(self) -> int:
        """Resident footprint: the pruned automaton's arrays plus the kernel
        views and the packed outputs, as
        :meth:`CompiledDenseProgram.memory_bytes` counts its own (the e2e
        benchmark's ``backend.table_mb``)."""
        views = (
            self.match_index, self.match_pids, self.value_of, self.check, self.next,
            self.id_of, self.value_depth, self.pair_default,
        )
        return super().memory_bytes() + sum(array.nbytes for array in views)
