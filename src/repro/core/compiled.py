"""The compiled dense-table fast path: any AC-equivalent automaton flattened
to NumPy arrays and walked many lanes at a time.

Every other backend in this repository interprets some linked structure per
input byte — dict probes in the DTP pointer lists, bitmap popcounts, failure
walks.  This backend trades memory for speed the same way the paper's *move
function* baseline does, but engineered for a software host:

* ``premultiplied`` — the one transition table, dense and flat: entry ``s *
  256 + c`` holds the next state ``t`` as ``(t << 8) + N * match_flags[t]``
  (``N`` its length; ``match_flags`` marks the states that report a match),
  the software analogue of reading one 324-bit state word per character.  The
  next lookup index is one add (``value + byte``, taken modulo ``N``), a value
  of ``N`` or more is a match, like the paper's has-match bit in the state
  word, and ``(value % N) >> 8`` is the plain target;
* ``match_index`` / ``match_pids`` — a packed match-output array: state ``s``
  matches the pattern ids ``match_pids[match_index[s]:match_index[s + 1]]``,
  mirroring the hardware's matching-string-number memory walk.

The lane kernel
---------------
Every job is cut into lanes and all lanes of all jobs advance together (the
cut, the short warm-up with its cut check and repair walk, tiles, slabs and
match extraction are :mod:`repro.core.lanes`, shared with the DTP kernel).
This kernel's step is a single ``np.take(premultiplied, state + byte_column,
mode="wrap")`` and costs the same whatever state the traffic drives the
automaton into, which is the software form of the paper's guaranteed rate.  A
slab of states with no match is found by one ``max()``; states are decoded to
plain ids, ``(value % N) >> 8``, only for hits and final states.  The repair
walk settles a lane by its state's depth: ``value_depth[value >> 8]``, the
DFA's depth twice over (a flagged value's ``>> 8`` is its id plus the state
count), built with the table.

Calls too small to amortise the dispatch (``lanes.KERNEL_MIN_BYTES``) keep a
scalar loop over lazily built *signed rows* (``row[byte]`` is the next state,
negated when that state reports a match), decoded from ``premultiplied`` one
row at a time, so short segments cost one dict lookup, one list index and one
sign test per byte and only the rows actually visited are ever materialised.

The scan is resumable either way: the per-flow state is one
:class:`repro.backend.ScanState` carrying the plain state id, so the
streaming layer (flow table, stream scanner, scan service) uses this
backend unchanged and checkpoints are interchangeable with every other
automaton backend's.
"""

from __future__ import annotations

import sys
from typing import List, Sequence, Tuple

import numpy as np

from ..automata.aho_corasick import AhoCorasickDFA, mapped_zeros
from ..automata.trie import ALPHABET_SIZE
from ..backend import MatchList, ScanState
from . import lanes
from .lanes import LaneBatch, LaneCut, LaneKernelMixin

#: Largest state count whose flagged premultiplied index (below ``2 * N``,
#: ``N = num_states * 256``) still fits ``int32``.
INT32_MAX_STATES = 1 << 22


def premultiplied_dtype(num_states: int) -> np.dtype:
    """The integer type of the premultiplied table for ``num_states`` states.

    A flagged index wraps silently in ``int32`` past 2**22 states; larger
    automata pay for ``int64`` indices instead of walking a corrupt table.
    """
    return np.dtype(np.int32 if num_states <= INT32_MAX_STATES else np.int64)


def flagged_view(
    table: np.ndarray, match_flags: np.ndarray, in_place: bool = False
) -> np.ndarray:
    """``premultiplied`` (see the module docstring), gathered into place 256
    rows at a time: one gather would widen the whole table to ``intp``.
    ``in_place`` writes it over ``table`` itself where the dtypes agree, so a
    compile holds one table-sized array, not two, at its peak."""
    dtype = premultiplied_dtype(len(table))
    view = table if in_place and table.dtype == dtype else mapped_zeros(table.shape, dtype)
    entering = np.arange(len(table), dtype=dtype) << 8  # value per state
    entering[match_flags] += view.size
    for low in range(0, len(table), 256):
        rows = table[low:low + 256].astype(np.intp)  # a copy: ``view`` may be ``table``
        entering.take(rows, out=view[low:low + 256], mode="clip")
    return view.ravel()


class _SignedRows(dict):
    """``state -> signed transition row``, decoded on first use."""

    def __init__(self, premultiplied: np.ndarray):
        super().__init__()
        self._premultiplied = premultiplied

    def __missing__(self, state: int) -> List[int]:
        size = len(self._premultiplied)
        values = self._premultiplied[state * ALPHABET_SIZE:(state + 1) * ALPHABET_SIZE]
        targets = (values % size) >> 8
        row = np.where(values >= size, -targets, targets).tolist()
        self[state] = row
        return row


class CompiledDenseProgram(LaneKernelMixin):
    """A multi-pattern matcher compiled to dense transition/match tables."""

    backend_name = "dense"

    def __init__(
        self,
        table: np.ndarray,
        outputs: Sequence[Sequence[int]],
        patterns: Sequence[bytes],
        depth: np.ndarray,
        *,
        consume_table: bool = False,
    ):
        """``consume_table``: ``table`` is this compile's own, and the
        premultiplied table is written over it."""
        if table.ndim != 2 or table.shape[1] != ALPHABET_SIZE:
            raise ValueError(f"transition table must be (num_states, 256), got {table.shape}")
        if table.shape[0] != len(outputs):
            raise ValueError("one output list per state is required")
        self.num_states = int(table.shape[0])
        self._patterns = tuple(bytes(p) for p in patterns)
        #: bytes a lane walks from the root before its cut (see module doc):
        #: the deepest state any input can reach
        self.warmup = max(map(len, self._patterns), default=0)

        # packed match-output arrays (the dense analogue of the match memory)
        self.match_index, self.match_pids = lanes.pack_outputs(outputs)
        self._outputs: List[List[int]] = [list(o) for o in outputs]

        # kernel views (the root, state 0, can never match — patterns are
        # non-empty — so a signed row's sign encoding is unambiguous)
        self.match_flags = np.diff(self.match_index) > 0
        self.premultiplied = flagged_view(table, self.match_flags, consume_table)
        #: the depth of state ``(v % N) >> 8``, indexed by ``v >> 8``: the
        #: lane repair's settling test (see :mod:`repro.core.lanes`)
        self.value_depth = np.tile(lanes.depth_view(np.asarray(depth)), 2)
        self._rows = _SignedRows(self.premultiplied)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_automaton(cls, automaton) -> "CompiledDenseProgram":
        """Flatten any AC-equivalent automaton.

        Accepts an :class:`AhoCorasickDFA` directly; other protocol backends
        (e.g. a ``DTPAutomaton``) are re-compiled from their ``patterns``.
        """
        if isinstance(automaton, AhoCorasickDFA):
            return cls(
                automaton.table, automaton.outputs, automaton.trie.patterns, automaton.depth
            )
        patterns = getattr(automaton, "patterns", None)
        if patterns is None:
            raise TypeError(
                f"cannot flatten {type(automaton).__name__}: "
                "expected an AhoCorasickDFA or .patterns"
            )
        return cls.from_patterns(patterns)

    @classmethod
    def from_patterns(cls, patterns: Sequence[bytes]) -> "CompiledDenseProgram":
        dfa = AhoCorasickDFA.from_patterns(patterns)  # nobody else holds it
        return cls(dfa.table, dfa.outputs, dfa.trie.patterns, dfa.depth, consume_table=True)

    @classmethod
    def from_ruleset(cls, ruleset) -> "CompiledDenseProgram":
        """Build from a :class:`repro.rulesets.RuleSet`."""
        return cls.from_patterns(ruleset.patterns)

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    @property
    def patterns(self) -> Tuple[bytes, ...]:
        """The compiled patterns; pattern ids index this tuple."""
        return self._patterns

    def matches_of(self, state: int) -> Sequence[int]:
        """Pattern ids reported when ``state`` is entered (packed-array view)."""
        return self.match_pids[self.match_index[state]:self.match_index[state + 1]]

    def _scan_scalar(self, scan_state: ScanState, chunk: bytes) -> Tuple[MatchList, ScanState]:
        state = scan_state.state
        base = scan_state.offset
        matches: MatchList = []
        rows = self._rows
        outputs = self._outputs
        for position, byte in enumerate(chunk):
            state = rows[state][byte]
            if state < 0:
                state = -state
                end = base + position + 1
                for pid in outputs[state]:
                    matches.append((end, pid))
        return matches, lanes.resumed(scan_state, state, chunk)

    # ------------------------------------------------------------------
    # the lane kernel
    # ------------------------------------------------------------------
    def _scan_lanes(
        self, scan_states: Sequence[ScanState], batch: LaneBatch
    ) -> List[Tuple[MatchList, ScanState]]:
        cut = LaneCut(batch, self.warmup)
        premultiplied, dtype = self.premultiplied, self.premultiplied.dtype
        # a state value at or above this carries the match bit
        flagged = len(premultiplied)
        count = len(scan_states)
        carried = np.fromiter((s.state for s in scan_states), dtype, count) << 8
        offsets = np.fromiter((s.offset for s in scan_states), np.int64, count)
        # the bound method skips np.take's Python wrapper, ~1.4 us a step
        add, take = np.add, premultiplied.take
        value_depth = self.value_depth

        def walk(window, history, warm, start, first_lanes, first_jobs):
            rows = list(history)
            lookup = np.empty_like(rows[0])
            # warm up in place: these states report nothing
            state = rows[0]
            state[...] = start
            for column in np.ascontiguousarray(window[:warm]):
                add(state, column, out=lookup)
                take(lookup, out=state, mode="wrap")
            state[first_lanes] = carried[first_jobs]
            for top in range(warm, len(window), len(rows) - 1):
                columns = np.ascontiguousarray(window[top:top + len(rows) - 1])
                for source, column, target in zip(rows, columns, rows[1:]):
                    add(source, column, out=lookup)
                    take(lookup, out=target, mode="wrap")
                yield len(columns)

        def reports(entered):
            return entered >= flagged if entered.max() >= flagged else None

        def depths(entered):
            return value_depth.take(entered >> 8)

        (jobs, ends, values), final = cut.run(carried, offsets, 0, walk, reports, depths)
        hits = lanes.expand_hits(
            (jobs, ends, (values - flagged) >> 8), self.match_index, self.match_pids
        )
        return lanes.job_results(scan_states, batch, hits, (final % flagged) >> 8)

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total resident footprint: dense arrays plus the scan views.

        Counts the premultiplied table, the flag vector, the depth view, the
        packed match arrays and the signed rows the scalar loop has built so
        far (8-byte list slots plus one boxed int per entry outside CPython's
        small-int cache, -5 .. 256; a matching target ``t`` is held as
        ``-t``).  Matters
        because the dense backend's whole trade is memory for speed —
        understating it would skew the dense-vs-DTP comparison
        (``backend.table_mb``).
        """
        array_bytes = (
            self.premultiplied.nbytes + self.match_flags.nbytes + self.value_depth.nbytes
            + self.match_index.nbytes + self.match_pids.nbytes
        )
        rows = list(self._rows.values())
        row_slots = sum(sys.getsizeof(row) for row in rows)
        entries = np.array(rows, dtype=np.int64)
        boxed_ints = int(((entries < -5) | (entries > 256)).sum()) * 32
        return int(array_bytes + row_slots + boxed_ints)

    def memory_words(self, word_bits: int = 324) -> int:
        """Equivalent count of the paper's 324-bit state-machine words.

        The hardware packs up to four pointers (plus type/match bits) into
        one 324-bit word; expressing the dense table in the same unit makes
        the speed/memory trade against the DTP encoding directly comparable.
        """
        return -(-self.memory_bytes() * 8 // word_bits)
