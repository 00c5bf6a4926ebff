"""The lane driver the NumPy scan kernels share.

An Aho-Corasick state is the longest suffix of the input that is a prefix of
some pattern, so it depends on the last ``warmup`` (= longest pattern) bytes
only.  A stream may therefore be *cut* anywhere: every job (one flow's bytes
plus its resumable state) is cut into lanes of one common length, and *all*
lanes of *all* jobs advance together, one byte per step — the paper's
engines time-sharing one state memory, turned sideways.  A job's first lane
is handed the job's carried-in state at its first byte.  Every other lane
starts at the root only :data:`SHORT_WARMUP` bytes before its cut (the
speculative start of data-parallel state machines) and is then checked:

* A lane that starts at the root ``w`` bytes early is in the uncut walk's
  state as soon as that state is at most ``w`` plus the lane's steps deep,
  and from there on the two walks are one.  Traffic whose state at a cut is
  shallow — most traffic — costs :data:`SHORT_WARMUP` steps a lane instead
  of ``warmup``.
* Lanes are never shorter than ``warmup``, so every lane *ends* in the true
  state, whatever its start.  After the walk, each lane's state at its cut
  is compared with the previous lane's end state, across tiles: one
  comparison over the lanes.
* A lane that disagrees is walked again from the true state, with the other
  disagreeing lanes only, until its state is no deeper than
  :data:`SHORT_WARMUP` plus its steps — within ``warmup -``
  :data:`SHORT_WARMUP` steps, since no state is deeper than ``warmup``
  (``repro.check``'s DEN004 / DTP009 prove that of every program).  The
  re-walk's hits and final states replace the first walk's in that stretch;
  lanes leave the re-walk as they settle.  So all-deep traffic costs at most
  the ``warmup`` steps a lane it always did, and matches seen while warming
  up are still dropped — the lane before the cut reports them.

What one step *is* belongs to the kernel (one gather from the
premultiplied dense table in :mod:`repro.core.compiled`; stored pointer or
default transition in :mod:`repro.core.dtp_automaton`); everything around it
is here, once::

    scan_many(jobs) ──► LaneBatch ──► scan_chunk ──► _scan_lanes
                                                        │
            LaneCut(batch, warmup)   pack + lane geometry, once per batch
                 │
                 └─ run(carried, ...)    once per batch
                      per tile:  byte window ─► kernel's walk() ─► one slab
                      per slab:  final-state pick-up; reports() ─► flatnonzero
                                 ─► (job, end offset, state) hits
                      cut check: state at each cut vs the lane before's end
                      repair:    walk() again over the lanes that disagree
                 expand_hits / split_matches ─► per-job match lists

A tile is every lane of the batch side by side, up to :data:`MAX_WIDTH`
lanes.  It keeps the states of a *slab* of steps only (:data:`SLAB_CELLS`
lane cells): the walk fills the slab, the driver picks up the final states
and the hits in it, and the next slab starts from its last row.  Working
memory is set by the slab, not by the batch nor the lane length; the repair
is tiled the same way.  Hits are found by the kernel's ``reports`` test on
the slab — one ``max()``, since both kernels' state values carry the match
bit — and taken out with ``flatnonzero``; they are reported per job in
end-offset, then ``outputs[state]``, order — the order of the
byte-at-a-time walk.

The lane length is derived from the batch: every step pays a fixed NumPy
dispatch cost whatever the lane count, and a lane may pay up to ``warmup``
extra steps, so few long lanes waste dispatch and many short lanes waste
warm-up and repair; the optimum grows with the square root of the batch.

Calls too small to amortise the dispatch (:data:`KERNEL_MIN_BYTES`) keep the
kernel owner's scalar loop, which is also the reference the kernels are
tested against.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..backend import (
    CompiledProgramMixin,
    MatchList,
    ScanJob,
    ScanState,
    advance_history,
)

#: Calls with fewer payload bytes than this stay on the scalar loop: one
#: kernel pass costs at least :data:`SHORT_WARMUP` + lane-length NumPy
#: dispatches, ~140 us (dense) or ~300 us (dtp) whatever its size.  Measured
#: at 500 rules (60-byte longest): the dense kernel beats its scalar loop
#: (~75 ns/B) from ~3 KB, the dtp kernel beats its (~550 ns/B) from ~1 KB;
#: one threshold serves both.
KERNEL_MIN_BYTES = 4096

#: Lanes a tile walks side by side: a batch of more lanes takes several
#: tiles.  Past a few thousand lanes a step costs ~2.3 ns a lane whatever the
#: width, so the cap only bounds the per-step rows (128 KB of ``int32``).
MAX_WIDTH = 1 << 15

#: Lane cells (one lane's state after one step) a history slab holds: 1 MB
#: of ``int32`` states.  A slab costs the driver a few NumPy calls and the
#: dense kernel one ``max()`` over it, ~5 % of walking it at this size.
SLAB_CELLS = 1 << 18

#: glibc serves a block above its mmap threshold (128 KB at start) with
#: fresh pages, raises the threshold to the largest such block freed, and
#: trims the heap's free top above twice it.  Set by the kernel's own
#: buffers (a batch's packed lanes and history slabs, megabytes), that
#: trims a bulk pass's buffers and faults them back in on every pass
#: (~1 150 page faults, 12 % of a dense 2.2 MB pass).  One block of this
#: size, freed at import, starts the threshold above them.  The compiled
#: tables live outside the heap (``aho_corasick.mapped_zeros``).
WARM_HEAP_BYTES = 4 << 20
np.empty(WARM_HEAP_BYTES, dtype=np.uint8)

#: Bytes a lane other than its job's first walks from the root before its
#: cut (fewer when no pattern is that long).  The state at a cut of benign
#: traffic is at most 6 deep with 500 rules (mean 0.95, p99 5), so lanes of
#: such traffic never need the repair walk.
SHORT_WARMUP = 8

#: What one kernel step's fixed NumPy dispatch costs, in lane cells of gather
#: work (measured: ~3.5 us per two-call step against ~2.3 ns per cell).
STEP_DISPATCH_CELLS = 1024

#: ``walk(window, history, warm, start, lanes, jobs)``: a kernel's inner loop
#: over some lanes side by side, a generator.  ``window[i]`` is byte ``i`` of
#: every lane's window: the bytes the kernel's step reads before the current
#: one (``LaneCut``'s ``history``), ``warm`` bytes before the lane's cut, then
#: the bytes it walks.  Every lane enters its window in state value ``start``
#: (one value, or one per lane) and warms up, then ``lanes`` — the lanes that
#: open a job — take their job's carried-in state from ``jobs``.  Slab by
#: slab, the walk leaves the state value each lane entered on the slab's byte
#: ``k`` in ``history[k + 1]`` and yields the slab's byte count; a slab starts
#: from ``history[0]``: the state at the cut, then the last row of the slab
#: before, which the driver moves there.
Walk = Callable[
    [np.ndarray, np.ndarray, int, Union[int, np.ndarray], np.ndarray, np.ndarray],
    Iterator[int],
]

#: ``reports(entered)``: the cells of a slab's states that report a match, as
#: a boolean mask, or ``None`` when none does.
Reports = Callable[[np.ndarray], Optional[np.ndarray]]

#: ``depths(entered)``: the depth of the state behind each state value, the
#: length of the input suffix it remembers.
Depths = Callable[[np.ndarray], np.ndarray]

#: Flat hit arrays, one entry per report, in packed-buffer order:
#: ``(job index, stream-absolute end offset, state value or pattern id)``.
Hits = Tuple[np.ndarray, np.ndarray, np.ndarray]


class LaneBatch:
    """The chunks of several scan jobs, travelling as one chunk.

    ``len(batch)`` is the jobs' payload byte count, so the batch crosses
    :meth:`CompiledProgramMixin.scan_chunk` like any other chunk of that
    many bytes; :meth:`pack` lays it out for the lane kernels.
    """

    __slots__ = ("chunks", "nbytes")

    def __init__(self, chunks: Sequence[bytes]):
        self.chunks = chunks
        self.nbytes = sum(map(len, chunks))

    def __len__(self) -> int:
        return self.nbytes

    def pack(self, lane_len: int, lead: int) -> np.ndarray:
        """One ``uint8`` buffer: ``lead`` zero bytes, then every chunk
        padded to a whole number of lanes — so lane ``k`` reads what precedes
        its cut at ``[k * lane_len:]`` and its own bytes ``lead`` further on."""
        padding = bytes(lane_len)
        parts: List[bytes] = [bytes(lead)]
        for chunk in self.chunks:
            parts.append(chunk)
            parts.append(padding[: -len(chunk) % lane_len])
        return np.frombuffer(b"".join(parts), dtype=np.uint8)


def lane_length(warmup: int, total_bytes: int) -> int:
    """Lane length for a batch of ``total_bytes``.

    With ``w`` warm-up steps, lane length ``l`` and ``n`` bytes, a pass
    takes ``w + l`` steps of ``STEP_DISPATCH_CELLS + n / l`` cell-times
    each, least at ``l = sqrt(w * n / STEP_DISPATCH_CELLS)``.  ``w`` is the
    whole ``warmup`` — a lane's short warm-up plus its longest repair, the
    most a lane can pay on all-deep traffic — so the square root trades
    dispatch against that guaranteed cost; benign traffic pays
    :data:`SHORT_WARMUP` of it.  The extra ``w`` under the root keeps the
    result from falling below ``w``: a lane must end in the true state.
    """
    warmup = max(warmup, 1)
    return isqrt(warmup * (warmup + total_bytes // STEP_DISPATCH_CELLS))


def depth_view(depth: np.ndarray) -> np.ndarray:
    """State depths in the smallest of ``int16`` / ``int32`` that holds them."""
    deepest = int(depth.max(initial=0))
    return depth.astype(np.int16 if deepest <= np.iinfo(np.int16).max else np.int32)


def pack_outputs(outputs: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Packed match-output arrays: state ``s`` reports the pattern ids
    ``match_pids[match_index[s]:match_index[s + 1]]`` — the software analogue
    of the hardware's matching-string-number memory walk."""
    counts = np.fromiter((len(o) for o in outputs), dtype=np.int64, count=len(outputs))
    match_index = np.zeros(len(outputs) + 1, dtype=np.int32)
    np.cumsum(counts, out=match_index[1:])
    match_pids = np.fromiter(
        (pid for o in outputs for pid in o), dtype=np.int32, count=int(counts.sum())
    )
    return match_index, match_pids


def resumed(scan_state: ScanState, state: int, chunk: bytes) -> ScanState:
    """The scan state after ``chunk`` left the automaton in ``state``."""
    prev1, prev2 = advance_history(scan_state.prev1, scan_state.prev2, chunk)
    return ScanState(state=state, prev1=prev1, prev2=prev2,
                     offset=scan_state.offset + len(chunk))


class LaneCut:
    """One batch cut into lanes: the packed bytes and the lane geometry.

    Built once per batch, and :meth:`run` once over it.  ``history`` extra
    bytes are kept in front of each lane's warm-up for kernels whose step
    reads the bytes before the current one.
    """

    def __init__(self, batch: LaneBatch, warmup: int, history: int = 0):
        self.warmup = warmup
        self.short = min(SHORT_WARMUP, warmup)
        self.history = history
        self.lead = self.short + history
        self.lane_len = lane_len = lane_length(warmup, len(batch))
        self.data = batch.pack(lane_len, self.lead)
        # job j owns lanes first[j] .. first[j] + lanes_of[j] - 1
        self.lengths = lengths = np.fromiter(
            map(len, batch.chunks), dtype=np.int64, count=len(batch.chunks)
        )
        lanes_of = -(-lengths // lane_len)
        self.first = np.cumsum(lanes_of) - lanes_of
        self.num_lanes = int(lanes_of.sum())
        self.job_of_lane = np.repeat(np.arange(len(lengths)), lanes_of)
        self.live = live = np.flatnonzero(lanes_of)
        self.live_first = self.first[live]
        self.live_last = self.live_first + lanes_of[live] - 1
        # history row holding a job's final state: the one after its last byte
        self.live_last_row = lengths[live] - (lanes_of[live] - 1) * lane_len
        # lane k reads windows[k * lane_len]: its lead, then its own bytes
        self.windows = None
        if self.num_lanes:
            self.windows = sliding_window_view(self.data, self.lead + lane_len)

    def run(
        self,
        carried: np.ndarray,
        offsets: np.ndarray,
        root: int,
        walk: Walk,
        reports: Reports,
        depths: Depths,
    ) -> Tuple[Hits, np.ndarray]:
        """Walk every lane with one kernel; return its hits and final states.

        ``carried`` / ``offsets`` hold each job's carried-in state value and
        stream offset, ``root`` the root's value.  Hits carry the state
        *value* that reported; the final-state array has one value per job
        (an empty job ends where it started) — both in the kernel's
        encoding, which it decodes.
        """
        lane_len, num_lanes = self.lane_len, self.num_lanes
        live, live_first, live_last = self.live, self.live_first, self.live_last
        final = carried.copy()
        width = max(1, min(num_lanes, MAX_WIDTH))
        slab = max(1, min(lane_len, SLAB_CELLS // width))
        # every lane's state at its cut, and after its last byte
        at_cut = np.empty(num_lanes, dtype=carried.dtype)
        at_end = np.empty_like(at_cut)
        hit_positions: List[np.ndarray] = []
        hit_states: List[np.ndarray] = []
        for low in range(0, num_lanes, width):
            high = min(num_lanes, low + width)
            history = np.empty((slab + 1, high - low), dtype=carried.dtype)
            begin, end = np.searchsorted(live_last, (low, high))  # jobs ending here
            ending, rows = live[begin:end], self.live_last_row[begin:end]
            ending_lanes = live_last[begin:end] - low
            begin, end = np.searchsorted(live_first, (low, high))
            top = 0
            for count in walk(
                self.windows[low * lane_len:high * lane_len:lane_len].T, history, self.short,
                root, live_first[begin:end] - low, live[begin:end],
            ):
                if not top:
                    at_cut[low:high] = history[0]
                entered = history[1:count + 1]
                due = (rows > top) & (rows <= top + count)
                final[ending[due]] = history[rows[due] - top, ending_lanes[due]]
                mask = reports(entered)
                if mask is not None:
                    cells = np.flatnonzero(mask)
                    steps, lanes = np.divmod(cells, high - low)
                    hit_positions.append((lanes + low) * lane_len + top + steps)
                    hit_states.append(entered.take(cells))
                history[0] = history[count]
                top += count
            at_end[low:high] = history[0]
        first_walk = len(hit_positions)
        starts, stops = self._repair(
            at_cut, at_end, final, walk, reports, depths, hit_positions, hit_states
        )

        if not hit_positions:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty, empty), final
        positions = np.concatenate(hit_positions)
        order = np.argsort(positions)
        positions = positions[order]
        jobs = self.job_of_lane[positions // lane_len]
        within = positions - self.first[jobs] * lane_len
        real = within < self.lengths[jobs]  # a short last lane also walked its padding
        if len(starts):
            # the first walk's hits in a repaired stretch are the repair's now
            low, high = np.searchsorted(positions, (starts, stops))
            counts = high - low
            replaced = np.repeat(low - (np.cumsum(counts) - counts), counts)
            replaced += np.arange(len(replaced))
            walked = sum(map(len, hit_positions[:first_walk]))
            real[replaced[order[replaced] < walked]] = False
        jobs = jobs[real]
        return (
            jobs,
            offsets[jobs] + within[real] + 1,
            np.concatenate(hit_states)[order][real],
        ), final

    def _repair(
        self,
        at_cut: np.ndarray,
        at_end: np.ndarray,
        final: np.ndarray,
        walk: Walk,
        reports: Reports,
        depths: Depths,
        hit_positions: List[np.ndarray],
        hit_states: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Walk the lanes that reached their cut in a wrong state again, from
        the previous lane's end state, until each is no deeper than the short
        warm-up plus its steps; add their hits and final states in that
        stretch.  Returns the stretches, as ``[start, stop)`` hit positions."""
        lane_len, short = self.lane_len, self.short
        repaired = np.flatnonzero(at_cut[1:] != at_end[:-1]) + 1
        jobs = self.job_of_lane[repaired]
        opening = jobs != self.job_of_lane[repaired - 1]  # those carry their job's state
        repaired, jobs = repaired[~opening], jobs[~opening]
        starts = repaired * lane_len
        stops = starts.copy()
        # bytes of its job from each lane's cut: a last lane ends after that many
        remaining = self.lengths[jobs] - (repaired - self.first[jobs]) * lane_len
        bound = self.warmup - short  # every lane is settled after this many steps
        if not len(repaired):
            return starts, stops
        # a tile's window and its history stay within a slab of cells
        width = max(1, min(MAX_WIDTH, SLAB_CELLS // bound))
        none = np.empty(0, dtype=np.intp)
        for low in range(0, len(repaired), width):
            lanes = np.arange(low, min(low + width, len(repaired)))
            tile_window = self.windows[starts[lanes], short:short + self.history + bound]
            state = at_end[repaired[lanes] - 1]
            done = 0
            while len(lanes):
                # settled lanes leave after each round; rounds double, and
                # are at least one step's dispatch worth of cells long
                steps = min(bound - done, max(short, done, STEP_DISPATCH_CELLS // len(lanes)))
                history = np.empty((steps + 1, len(lanes)), dtype=at_cut.dtype)
                window = tile_window[lanes - low, done:done + self.history + steps]
                for _ in walk(window.T, history, 0, state, none, none):
                    pass
                entered = history[1:]
                mask = reports(entered)
                if mask is not None:
                    cells = np.flatnonzero(mask)
                    rows, columns = np.divmod(cells, len(lanes))
                    hit_positions.append(starts[lanes[columns]] + done + rows)
                    hit_states.append(entered.take(cells))
                row = remaining[lanes] - done  # a job's last byte in this round?
                due = np.flatnonzero((row >= 1) & (row <= steps))
                final[jobs[lanes[due]]] = history[row[due], due]
                stops[lanes] += steps
                done += steps
                if done == bound:
                    break
                # a lane this shallow is where the first walk put it: it leaves
                state = history[steps]
                going = depths(state) > short + done
                lanes, state = lanes[going], state[going]
        return starts, stops


def expand_hits(hits: Hits, match_index: np.ndarray, match_pids: np.ndarray) -> Hits:
    """One entry per reported pattern id instead of per reporting state,
    ids in ``outputs[state]`` order (see :func:`pack_outputs`)."""
    jobs, ends, states = hits
    starts = match_index[states]
    counts = match_index[states + 1] - starts
    hit = np.repeat(np.arange(len(states)), counts)
    nth = np.arange(len(hit)) - np.repeat(np.cumsum(counts) - counts, counts)
    return jobs[hit], ends[hit], match_pids[starts[hit] + nth]


def split_matches(num_jobs: int, hits: Hits) -> List[MatchList]:
    """Per-job ``(end_offset, id)`` lists from hits sorted by job."""
    jobs, ends, ids = hits
    if not len(jobs):
        return [[] for _ in range(num_jobs)]
    bounds = np.searchsorted(jobs, np.arange(num_jobs + 1)).tolist()
    found = list(zip(ends.tolist(), ids.tolist()))
    return [found[low:high] for low, high in zip(bounds, bounds[1:])]


def job_results(
    scan_states: Sequence[ScanState],
    batch: LaneBatch,
    hits: Hits,
    final: np.ndarray,
) -> List[Tuple[MatchList, ScanState]]:
    """One ``(matches, state)`` per job from its hits (sorted by job) and
    its final state id."""
    matches = split_matches(len(scan_states), hits)
    return [
        (found, resumed(scan_state, state, chunk))
        for scan_state, chunk, found, state in zip(
            scan_states, batch.chunks, matches, final.tolist()
        )
    ]


class LaneKernelMixin(CompiledProgramMixin):
    """The one scan entry of a program with a lane kernel.

    A conforming class implements ``_scan_scalar(scan_state, chunk)`` — the
    byte-at-a-time loop, the reference semantics — and
    ``_scan_lanes(scan_states, batch)`` returning one ``(matches, state)``
    per packed job; ``match``/``scan``/``scan_chunk``/``scan_packets`` all
    arrive here through :meth:`_scan_chunk`.
    """

    def scan_many(self, jobs: Sequence[ScanJob]) -> List[Tuple[MatchList, ScanState]]:
        """Scan independent jobs together: every lane of every job advances
        in the same kernel step.

        The packed batch crosses :meth:`scan_chunk` like any other chunk
        (``len(batch)`` is the payload byte count), so whatever observes the
        backend boundary there sees one call carrying the batch's bytes.
        """
        batch = LaneBatch([chunk for _, chunk in jobs])
        if len(batch) < KERNEL_MIN_BYTES:
            return super().scan_many(jobs)
        return self.scan_chunk([state for state, _ in jobs], batch)

    def _scan_chunk(
        self,
        states: Union[ScanState, Sequence[ScanState]],
        chunk: Union[bytes, LaneBatch],
    ) -> Union[Tuple[MatchList, ScanState], List[Tuple[MatchList, ScanState]]]:
        """One chunk resumed from the scan state ``states``; or, for a
        :class:`LaneBatch`, one ``(matches, state)`` result per packed job
        (``states`` is then the jobs' scan states, in order)."""
        if isinstance(chunk, LaneBatch):
            return self._scan_lanes(states, chunk)
        if len(chunk) >= KERNEL_MIN_BYTES:
            return self._scan_lanes([states], LaneBatch([chunk]))[0]
        return self._scan_scalar(states, chunk)

    def _scan_scalar(self, scan_state: ScanState, chunk: bytes) -> Tuple[MatchList, ScanState]:
        raise NotImplementedError

    def _scan_lanes(
        self, scan_states: Sequence[ScanState], batch: LaneBatch
    ) -> List[Tuple[MatchList, ScanState]]:
        raise NotImplementedError
