"""The compiled dense-table fast path: any AC-equivalent automaton flattened
to NumPy arrays and walked many lanes at a time.

Every other backend in this repository interprets some linked structure per
input byte — dict lookups in the DTP pointer lists, bitmap popcounts, failure
walks.  This backend trades memory for speed the same way the paper's *move
function* baseline does, but engineered for a software host:

* ``table`` — a dense ``(num_states, 256)`` ``int32`` transition table
  (``table[s, c]`` is the next state), the software analogue of reading one
  324-bit state word per character;
* ``match_index`` / ``match_pids`` — a packed match-output array: state ``s``
  matches the pattern ids ``match_pids[match_index[s]:match_index[s + 1]]``,
  mirroring the hardware's matching-string-number memory walk;
* ``premultiplied`` / ``match_flags`` — the kernel's views: the flat table
  with every target stored as ``state << 8``, so the next lookup index is one
  add (``target + byte``), and one boolean per state marking the states that
  report a match.

The lane kernel
---------------
An Aho-Corasick state is the longest suffix of the input that is a prefix of
some pattern, so it depends on the last ``warmup`` (= longest pattern) bytes
only.  A stream may therefore be *cut* anywhere: a lane that starts at the
root ``warmup`` bytes before its cut arrives at the cut in exactly the state
the uncut walk has there.  Matches seen while warming up are dropped — the
lane before the cut reports them.  A job's first lane has nothing to warm up
from; it is handed the job's carried-in state at its first byte instead.

So every job (one flow's bytes plus its resumable state) is cut into lanes of
one common length, and *all* lanes of *all* jobs advance together, one byte
per step, with a single ``np.take(premultiplied, state + byte_column)`` — the
paper's engines time-sharing one state memory, turned sideways.  The step
costs the same whatever state the traffic drives the automaton into, which is
the software form of the paper's guaranteed rate.

Lanes are processed in tiles of at most :data:`TILE_CELLS` state-history
cells, so working memory is bounded by the tile, not by the batch.  A tile
keeps the state of every lane at every step; matches come out of it with one
flag gather and one ``nonzero``, and are reported per job in end-offset, then
``outputs[state]``, order — the order of the byte-at-a-time walk.

The lane length is derived from the batch: every step pays a fixed NumPy
dispatch cost whatever the lane count, and every lane pays ``warmup`` extra
steps, so few long lanes waste dispatch and many short lanes waste warm-up;
the optimum grows with the square root of the batch until the tile bound caps
it.

Calls too small to amortise the dispatch (:data:`KERNEL_MIN_BYTES`) keep a
scalar loop over lazily built *signed rows* (``row[byte]`` is the next state,
negated when that state reports a match), so short segments cost one dict
lookup, one list index and one sign test per byte and only the rows actually
visited are ever materialised.

The scan is resumable either way: the per-flow state is a 1-tuple
:class:`repro.backend.ScanState` carrying the plain state id, so the
streaming layer (flow table, stream scanner, sharded service) uses this
backend unchanged and checkpoints are interchangeable with every other
automaton backend's.
"""

from __future__ import annotations

import sys
from math import isqrt
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..automata.aho_corasick import AhoCorasickDFA
from ..automata.trie import ALPHABET_SIZE
from ..backend import (
    CompiledProgramMixin,
    FlowState,
    MatchList,
    ScanJob,
    ScanState,
    advance_history,
)

#: Calls with fewer payload bytes than this stay on the scalar loop: one
#: kernel pass costs at least ``warmup`` + lane-length NumPy dispatches, which
#: a few KB cannot amortise (measured crossover ~4 KB at 60-byte patterns,
#: ~2 KB at 8-byte ones; the scalar loop runs 55-95 ns/B).
KERNEL_MIN_BYTES = 4096

#: State-history cells (lane length x lanes) one tile may hold: 1 MB of
#: ``int32`` history plus ~0.6 MB of byte columns and flag-gather scratch.
#: Twice that is ~10 % faster on 2 MB batches, but the tile is what a small
#: ruleset's process pays in peak RSS for using the kernel at all.
TILE_CELLS = 1 << 18

#: What one kernel step's fixed NumPy dispatch costs, in lane cells of gather
#: work (measured: ~1.7 us per step against ~6 ns per cell).
STEP_DISPATCH_CELLS = 256

#: Largest state count whose premultiplied index (``state << 8 | byte``)
#: still fits ``int32``.
INT32_MAX_STATES = 1 << 23


def premultiplied_dtype(num_states: int) -> np.dtype:
    """The integer type of the premultiplied table for ``num_states`` states.

    ``state << 8`` wraps silently in ``int32`` from 2**23 states on; larger
    automata pay for ``int64`` indices instead of walking a corrupt table.
    """
    return np.dtype(np.int32 if num_states < INT32_MAX_STATES else np.int64)


class LaneBatch:
    """The chunks of several scan jobs, travelling as one chunk.

    ``len(batch)`` is the jobs' payload byte count, so the batch crosses
    :meth:`CompiledDenseProgram.scan_chunk` like any other chunk of that
    many bytes; :meth:`pack` lays it out for the lane kernel.
    """

    __slots__ = ("chunks", "nbytes")

    def __init__(self, chunks: Sequence[bytes]):
        self.chunks = chunks
        self.nbytes = sum(map(len, chunks))

    def __len__(self) -> int:
        return self.nbytes

    def pack(self, lane_len: int, warmup: int) -> np.ndarray:
        """One ``uint8`` buffer: ``warmup`` zero bytes, then every chunk
        padded to a whole number of lanes — so lane ``k`` reads its warm-up
        at ``[k * lane_len:]`` and its own bytes ``warmup`` further on."""
        padding = bytes(lane_len)
        parts: List[bytes] = [bytes(warmup)]
        for chunk in self.chunks:
            parts.append(chunk)
            parts.append(padding[: -len(chunk) % lane_len])
        return np.frombuffer(b"".join(parts), dtype=np.uint8)


class _SignedRows(dict):
    """``state -> signed transition row``, each row built on first use."""

    def __init__(self, table: np.ndarray, match_flags: np.ndarray):
        super().__init__()
        self._table = table
        self._match_flags = match_flags

    def __missing__(self, state: int) -> List[int]:
        targets = self._table[state]
        row = np.where(self._match_flags[targets], -targets, targets).tolist()
        self[state] = row
        return row


def _resumed(scan_state: ScanState, state: int, chunk: bytes) -> FlowState:
    """The flow state after ``chunk`` left the automaton in ``state``."""
    prev1, prev2 = advance_history(scan_state.prev1, scan_state.prev2, chunk)
    return (
        ScanState(state=state, prev1=prev1, prev2=prev2,
                  offset=scan_state.offset + len(chunk)),
    )


class CompiledDenseProgram(CompiledProgramMixin):
    """A multi-pattern matcher compiled to dense transition/match tables."""

    backend_name = "dense"

    def __init__(
        self,
        table: np.ndarray,
        outputs: Sequence[Sequence[int]],
        patterns: Sequence[bytes],
    ):
        if table.ndim != 2 or table.shape[1] != ALPHABET_SIZE:
            raise ValueError(f"transition table must be (num_states, 256), got {table.shape}")
        if table.shape[0] != len(outputs):
            raise ValueError("one output list per state is required")
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.num_states = int(table.shape[0])
        self._patterns = tuple(bytes(p) for p in patterns)
        #: bytes a lane walks from the root before its cut (see module doc):
        #: the deepest state any input can reach
        self.warmup = max(map(len, self._patterns), default=0)

        # packed match-output arrays (the dense analogue of the match memory)
        counts = np.fromiter((len(o) for o in outputs), dtype=np.int64, count=len(outputs))
        self.match_index = np.zeros(self.num_states + 1, dtype=np.int32)
        np.cumsum(counts, out=self.match_index[1:])
        self.match_pids = np.fromiter(
            (pid for o in outputs for pid in o), dtype=np.int32, count=int(counts.sum())
        )
        self._outputs: List[List[int]] = [list(o) for o in outputs]

        # kernel views (the root, state 0, can never match — patterns are
        # non-empty — so a signed row's sign encoding is unambiguous)
        self.match_flags = counts > 0
        self.premultiplied = (
            self.table.astype(premultiplied_dtype(self.num_states)) << 8
        ).ravel()
        self._rows = _SignedRows(self.table, self.match_flags)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_automaton(cls, automaton) -> "CompiledDenseProgram":
        """Flatten any AC-equivalent automaton.

        Accepts an :class:`AhoCorasickDFA` directly, or anything exposing an
        equivalent one (``automaton.dfa``, e.g. a ``DTPAutomaton``); other
        protocol backends are re-compiled from their ``patterns``.
        """
        dfa = getattr(automaton, "dfa", automaton)
        if isinstance(dfa, AhoCorasickDFA):
            return cls(dfa.table, dfa.outputs, dfa.trie.patterns)
        patterns = getattr(automaton, "patterns", None)
        if patterns is None:
            raise TypeError(
                f"cannot flatten {type(automaton).__name__}: "
                "expected an AhoCorasickDFA, a .dfa attribute, or .patterns"
            )
        return cls.from_patterns(patterns)

    @classmethod
    def from_patterns(cls, patterns: Sequence[bytes]) -> "CompiledDenseProgram":
        return cls.from_automaton(AhoCorasickDFA.from_patterns(patterns))

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

    def scan_many(self, jobs: Sequence[ScanJob]) -> List[Tuple[MatchList, FlowState]]:
        """Scan independent jobs together: every lane of every job advances
        in the same kernel step.

        The packed batch crosses :meth:`scan_chunk` like any other chunk
        (``len(batch)`` is the payload byte count), so whatever observes the
        backend boundary there sees one call carrying the batch's bytes.
        """
        batch = LaneBatch([chunk for _, chunk in jobs])
        if len(batch) < KERNEL_MIN_BYTES:
            return super().scan_many(jobs)
        return self.scan_chunk([states for states, _ in jobs], batch)

    def _scan_chunk(
        self,
        states: Union[FlowState, Sequence[FlowState]],
        chunk: Union[bytes, LaneBatch],
    ) -> Union[Tuple[MatchList, FlowState], List[Tuple[MatchList, FlowState]]]:
        """One chunk resumed from ``states``; or, for a :class:`LaneBatch`,
        one ``(matches, states)`` result per packed job (``states`` is then
        the jobs' state tuples, in order)."""
        if isinstance(chunk, LaneBatch):
            return self._scan_lanes(states, chunk)
        if len(chunk) >= KERNEL_MIN_BYTES:
            return self._scan_lanes([states], LaneBatch([chunk]))[0]

        (scan_state,) = states
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
        return matches, _resumed(scan_state, state, chunk)

    # ------------------------------------------------------------------
    # the lane kernel
    # ------------------------------------------------------------------
    def _lane_len(self, total_bytes: int) -> int:
        """Lane length for a batch of ``total_bytes``.

        With ``w`` warm-up steps, lane length ``l`` and ``n`` bytes in a tile
        (a batch larger than one tile repeats it), a pass takes ``w + l``
        steps of ``STEP_DISPATCH_CELLS + n / l`` cell-times each, least at
        ``l = sqrt(w * n / STEP_DISPATCH_CELLS)``.  The extra ``w`` under the
        root keeps the result from falling below ``w``: a lane's warm-up
        must stay inside its own job.
        """
        warmup = max(self.warmup, 1)
        cells = min(total_bytes, TILE_CELLS)
        return isqrt(warmup * (warmup + cells // STEP_DISPATCH_CELLS))

    def _scan_lanes(
        self, flow_states: Sequence[FlowState], batch: LaneBatch
    ) -> List[Tuple[MatchList, FlowState]]:
        warmup, lane_len = self.warmup, self._lane_len(len(batch))
        data = batch.pack(lane_len, warmup)
        premultiplied, dtype = self.premultiplied, self.premultiplied.dtype

        # lane geometry: job j owns lanes first[j] .. first[j] + lanes_of[j] - 1
        lengths = np.fromiter(
            map(len, batch.chunks), dtype=np.int64, count=len(batch.chunks)
        )
        lanes_of = -(-lengths // lane_len)
        first = np.cumsum(lanes_of) - lanes_of
        num_lanes = int(lanes_of.sum())
        job_of_lane = np.repeat(np.arange(len(lengths)), lanes_of)
        carried = np.fromiter(
            (states[0].state for states in flow_states), dtype=dtype, count=len(lengths)
        )
        final = carried.copy()  # an empty job ends where it started
        live = np.flatnonzero(lanes_of)
        live_first = first[live]
        live_last = live_first + lanes_of[live] - 1
        # history row holding a job's final state: the one after its last byte
        live_last_row = lengths[live] - (lanes_of[live] - 1) * lane_len

        tile = max(1, min(num_lanes, TILE_CELLS // (lane_len + 1)))
        history = np.empty((lane_len + 1, tile), dtype=dtype)
        index = np.empty(tile, dtype=dtype)
        # the flag gather widens its indices to intp: eight slabs a tile keep
        # that temporary a quarter of the history's size
        slab = lane_len // 8 + 1
        match_flags = self.match_flags
        hit_positions: List[np.ndarray] = []
        hit_states: List[np.ndarray] = []
        # the bound method skips np.take's Python wrapper, ~1.4 us a step
        add, take = np.add, premultiplied.take
        for low in range(0, num_lanes, tile):
            high = min(num_lanes, low + tile)
            windows = sliding_window_view(data, warmup + lane_len)
            columns = np.ascontiguousarray(
                windows[low * lane_len:high * lane_len:lane_len].T
            )
            rows = list(history[:, :high - low])
            lookup = index[:high - low]
            # warm up from the root in place: these states report nothing
            state = rows[0]
            state.fill(0)
            for column in columns[:warmup]:
                add(state, column, out=lookup)
                take(lookup, out=state, mode="clip")
            # first lanes never warmed up over their own stream: hand them
            # the carried-in state at their first byte
            begin, end = np.searchsorted(live_first, (low, high))
            state[live_first[begin:end] - low] = carried[live[begin:end]] << 8
            for state, column, following in zip(rows, columns[warmup:], rows[1:]):
                add(state, column, out=lookup)
                take(lookup, out=following, mode="clip")

            begin, end = np.searchsorted(live_last, (low, high))
            final[live[begin:end]] = (
                history[live_last_row[begin:end], live_last[begin:end] - low] >> 8
            )
            entered = history[1:, :high - low]
            np.right_shift(entered, 8, out=entered)  # the walk is done with it
            for top in range(0, lane_len, slab):
                part = entered[top:top + slab]
                offsets, lanes = np.nonzero(match_flags.take(part))
                if len(offsets):
                    hit_positions.append((lanes + low) * lane_len + offsets + top)
                    hit_states.append(part[offsets, lanes])

        matches: List[MatchList] = [[] for _ in flow_states]
        if hit_positions:
            positions = np.concatenate(hit_positions)
            order = np.argsort(positions)
            positions = positions[order]
            jobs = job_of_lane[positions // lane_len]
            within = positions - first[jobs] * lane_len
            real = within < lengths[jobs]  # a short last lane also walked its padding
            bases = np.fromiter(
                (states[0].offset for states in flow_states), dtype=np.int64,
                count=len(lengths),
            )
            ends = bases[jobs] + within + 1
            outputs = self._outputs
            for job, end_offset, state in zip(
                jobs[real].tolist(),
                ends[real].tolist(),
                np.concatenate(hit_states)[order][real].tolist(),
            ):
                found = matches[job]
                for pid in outputs[state]:
                    found.append((end_offset, pid))

        return [
            (found, _resumed(scan_state, state, chunk))
            for (scan_state,), chunk, found, state in zip(
                flow_states, batch.chunks, matches, final.tolist()
            )
        ]

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total resident footprint: dense arrays plus the scan views.

        Counts the NumPy transition/match arrays, the premultiplied table
        and flag vector the kernel gathers from, and the signed rows the
        scalar loop has built so far (8-byte list slots plus one boxed int
        per entry outside CPython's small-int cache).  Matters because the
        dense backend's whole trade is memory for speed — understating it
        would skew the dense-vs-DTP comparison BENCH_backends.json tracks.
        """
        array_bytes = (
            self.table.nbytes + self.premultiplied.nbytes + self.match_flags.nbytes
            + self.match_index.nbytes + self.match_pids.nbytes
        )
        row_slots = sum(sys.getsizeof(row) for row in self._rows.values())
        boxed_ints = int((self.table[list(self._rows)] > 256).sum()) * 32
        return int(array_bytes + row_slots + boxed_ints)

    def memory_words(self, word_bits: int = 324) -> int:
        """Equivalent count of the paper's 324-bit state-machine words.

        The hardware packs up to four pointers (plus type/match bits) into
        one 324-bit word; expressing the dense table in the same unit makes
        the speed/memory trade against the DTP encoding directly comparable.
        """
        return -(-self.memory_bytes() * 8 // word_bits)
