"""Sequence-number-driven TCP stream reassembly in front of the scan layers.

Everything downstream of this module — :class:`repro.streaming.StreamScanner`,
the scan service, the two-stage IDS — scans segments in *arrival order*
and trusts that order to equal stream order.  Real captures break that trust:
segments arrive out of order, retransmitted, and deliberately overlapping —
the classic IDS evasion surface.  :class:`TcpReassembler` closes it by
re-ordering each TCP flow's segments by sequence number before they reach a
scanner, so a pattern split across mangled segments is found exactly as if
the flow had arrived in order.

Semantics (Snort-style, documented precisely because tests pin them):

* **Anchoring.**  A flow's stream position is anchored at its first usable
  segment: a SYN anchors one past its sequence number (SYN consumes one),
  any other first segment anchors at its own sequence number.  All later
  segments are placed relative to that anchor with 32-bit wraparound
  arithmetic, so flows crossing ``2**32`` reassemble correctly.
* **Fallback.**  A flow whose packets carry no sequence state — UDP,
  headerless payloads, or legacy captures whose encoder wrote all-zero
  sequence numbers (a first segment with ``seq == 0`` and no SYN) — is
  passed through in arrival order, unchanged.  Reassembly never makes a
  seq-less capture worse than not reassembling.
* **Overlap policy.**  When two segments claim the same stream bytes, the
  configurable policy decides: ``"first"`` keeps the bytes that arrived
  first (BSD-style), ``"last"`` lets the later arrival overwrite
  (Linux-style).  Bytes already delivered to the scanner are final under
  either policy — the scanner cannot un-scan — so the policy governs only
  data still buffered.  A segment entirely behind the delivery point is a
  retransmit and is dropped.
* **Bounded holes.**  Out-of-order data waits in a per-flow hole buffer
  bounded by ``max_flow_bytes`` and ``max_flow_segments``; exceeding either
  cap *flushes* the flow — buffered pieces are delivered in stream order,
  gaps skipped — so memory stays bounded under sequence-gap floods at the
  price of detection across the skipped gap.
* **One flow table.**  A flow's :class:`Sequencer` rides on its
  :class:`~repro.streaming.flow.FlowEntry`, beside its scan registers, in
  the scan engine's :class:`~repro.streaming.flow.FlowTable` (a standalone
  reassembler makes one), which admits flows in arrival order; an evicted
  flow's buffered pieces are flushed as its last rows.
* **SYN/FIN/RST.**  A SYN (re)anchors an empty flow.  A flow *closes* once
  every byte up to its FIN is delivered with nothing buffered, or at an RST
  (its buffered bytes counted in ``reset_bytes``), and leaves the table
  there (``released``): a later segment of the flow, in the same batch or
  a later one, starts a new entry at the root scan state.  The outcome is
  that of admitting one segment at a time, wherever a batch ends: a batch
  whose new flows fit the table evicts nothing, and a reopened flow takes
  its closed entry's slot; a batch whose new flows do not fit is taken one
  segment at a time, so a freed slot serves the next arrival.
  Zero-length segments with no flag of interest are keepalives and vanish.

Emitted packets get sequential ids in *emission* order (the reassembler owns
the counter), which is exactly the arrival-order id contract capture replay
and live ingestion make — downstream event streams stay canonically sorted.
A checkpoint is the table's, sequencers inside the flow records
(:meth:`TcpReassembler.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backend import ScanState
from ..streaming.flow import FlowEntry, FlowKey, FlowTable, SequencedBatch
from ..traffic.packet import Packet, PacketBatch

#: Default per-flow hole-buffer byte cap.
DEFAULT_MAX_FLOW_BYTES = 65536
#: Default per-flow hole-buffer segment cap.
DEFAULT_MAX_FLOW_SEGMENTS = 128

OVERLAP_POLICIES = ("first", "last")

_SEQ_MASK = 0xFFFFFFFF
_FIN = 0x01
_SYN = 0x02
_RST = 0x04

#: A standalone reassembler's flow registers: it scans nothing.
_ROOT = ScanState()


def _seq_delta(seq: int, reference: int) -> int:
    """Signed 32-bit distance from ``reference`` to ``seq`` (wraparound-safe)."""
    return ((seq - reference + 0x80000000) & _SEQ_MASK) - 0x80000000


def _root_entry(key: FlowKey) -> FlowEntry:
    return FlowEntry(key, _ROOT)


def _empty(flows: List[Optional[FlowKey]]) -> SequencedBatch:
    """A batch for one reassembler call to append its rows to."""
    return SequencedBatch([], [], [], flows, [], [], [], range(0), entry=[], departures=[])


@dataclass
class ReassemblyStatistics:
    """Counters for one reassembler (all lifetime totals)."""

    segments_in: int = 0
    packets_out: int = 0
    #: segments passed through untouched (non-TCP or arrival-order flows)
    passthrough: int = 0
    #: segments that had to wait in a hole buffer before delivery
    reordered: int = 0
    #: segments dropped because every byte was already delivered
    retransmits: int = 0
    #: bytes cut from segments by the overlap policy or the delivery point
    overlap_bytes: int = 0
    #: zero-length no-op segments dropped
    keepalives: int = 0
    #: flows force-flushed because a hole-buffer cap was exceeded
    hole_flushes: int = 0
    #: sequenced flows the table evicted (their pieces flushed)
    evicted_flows: int = 0
    #: flows closed by an RST
    reset_flows: int = 0
    #: buffered bytes an RST discarded
    reset_bytes: int = 0
    #: flows that fell back to arrival order (no usable sequence state)
    fallback_flows: int = 0


class Sequencer:
    """One flow's reassembly state: delivery point plus the hole buffer.

    ``next_off`` is the flow-absolute stream offset delivered so far and
    ``seq_at_next`` the 32-bit sequence number of that position — keeping
    both lets every comparison run on plain unbounded ints while arriving
    segments are placed with wraparound-safe arithmetic.  ``holes`` is a
    sorted list of non-overlapping ``[offset, bytes]`` pieces beyond the
    delivery point; piece boundaries are preserved through delivery so an
    in-order flow passes through with its segmentation intact.
    """

    __slots__ = (
        "mode",
        "next_off",
        "seq_at_next",
        "holes",
        "buffered_bytes",
        "fin_off",
        "delivered",
    )

    def __init__(
        self,
        mode: str,
        seq_at_next: int = 0,
        next_off: int = 0,
        holes: Optional[List[List]] = None,
        fin_off: Optional[int] = None,
        delivered: bool = False,
    ):
        self.mode = mode  # "seq" or "arrival"
        self.next_off = next_off
        self.seq_at_next = seq_at_next
        self.holes: List[List] = holes if holes is not None else []
        self.buffered_bytes = sum(len(piece[1]) for piece in self.holes)
        self.fin_off = fin_off
        #: True once any byte has reached the scanner — the point after
        #: which the anchor can no longer move backward
        self.delivered = delivered

    def as_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "next_off": self.next_off,
            "seq_at_next": self.seq_at_next,
            "holes": [[offset, data.hex()] for offset, data in self.holes],
            "fin_off": self.fin_off,
            "delivered": self.delivered,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Sequencer":
        """Rebuild from :meth:`as_dict` output (an older ``key`` is ignored).

        A state the reassembler could not resume from is a ``ValueError``: a
        ``mode`` other than ``"seq"`` or ``"arrival"``, a ``seq_at_next``
        that is not a 32-bit sequence number, or holes that are not sorted
        and disjoint (delivered out of order, or the same bytes twice).
        Offsets are relative to the anchor and may be negative (a stream
        start moved back before a SYN's anchor), and a hole may start at or
        behind ``next_off`` (a seq-less segment inside a seq flow is
        delivered at the delivery point and can pass a buffered piece):
        the reassembler writes both."""
        try:
            state = cls(
                mode=str(data["mode"]),
                seq_at_next=int(data["seq_at_next"]),
                next_off=int(data["next_off"]),
                holes=[
                    [int(offset), bytes.fromhex(payload)]
                    for offset, payload in data.get("holes", ())
                ],
                fin_off=None if data.get("fin_off") is None else int(data["fin_off"]),
                delivered=bool(data.get("delivered", False)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"unreadable sequencer: {error!r}") from None
        if state.mode not in ("seq", "arrival"):
            raise ValueError(f"mode {state.mode!r} is not 'seq' or 'arrival'")
        if not 0 <= state.seq_at_next <= _SEQ_MASK:
            raise ValueError(f"seq_at_next {state.seq_at_next} is not a 32-bit value")
        end = None
        for offset, piece in state.holes:
            if end is not None and offset < end:
                raise ValueError(
                    f"hole at {offset} starts before the one ahead of it ends "
                    f"({end}): holes are sorted and disjoint"
                )
            end = offset + len(piece)
        return state


#: The sequencer of a flow that closed in the current span: the table
#: releases the flow at the span's end, unless a later segment reopens it.
_CLOSED = Sequencer("closed")


class TcpReassembler:
    """Reorder TCP segments by sequence number in front of any scan layer.

    Feed an arrival-order :class:`~repro.traffic.PacketBatch` in, get a
    stream-order batch out — with sequential emission-order ids — via
    :meth:`process` (:meth:`feed` for one packet), then :meth:`flush_all`
    once the source is exhausted to deliver whatever is still waiting
    behind holes.

    ``flows`` is the table the sequencers ride on (the scan engine's, with
    its ``new_entry``), by default one of its own.
    """

    def __init__(
        self,
        *,
        flows: Optional[FlowTable] = None,
        new_entry: Callable[[FlowKey], FlowEntry] = _root_entry,
        overlap_policy: str = "first",
        max_flow_bytes: int = DEFAULT_MAX_FLOW_BYTES,
        max_flow_segments: int = DEFAULT_MAX_FLOW_SEGMENTS,
        first_packet_id: int = 0,
    ):
        if overlap_policy not in OVERLAP_POLICIES:
            raise ValueError(
                f"overlap_policy must be one of {OVERLAP_POLICIES}, "
                f"got {overlap_policy!r}"
            )
        if max_flow_bytes < 1:
            raise ValueError(
                f"max_flow_bytes must be at least 1, got {max_flow_bytes}"
            )
        if max_flow_segments < 1:
            raise ValueError(
                f"max_flow_segments must be at least 1, got {max_flow_segments}"
            )
        self.overlap_policy = overlap_policy
        self.max_flow_bytes = max_flow_bytes
        self.max_flow_segments = max_flow_segments
        self.stats = ReassemblyStatistics()
        self.flows = FlowTable() if flows is None else flows
        self._new_entry = new_entry
        #: the id the next emitted row gets
        self.next_packet_id = first_packet_id

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.flows)

    @property
    def active_flows(self) -> int:
        """Flows the table holds."""
        return len(self.flows)

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently waiting in hole buffers across all flows."""
        return sum(
            entry.sequencer.buffered_bytes
            for entry in self.flows.entries()
            if entry.sequencer is not None
        )

    # ------------------------------------------------------------------
    def feed(self, packet: Packet) -> SequencedBatch:
        """Process one arriving packet; return every packet now deliverable.

        The returned batch may include flushed segments of *other* flows when
        this arrival evicted one.
        """
        return self.process([packet])

    def process(self, packets: Sequence[Packet]) -> SequencedBatch:
        """Reassemble one arrival batch; returns the deliverable rows.

        ``packets`` is a :class:`PacketBatch` (a packet list is taken as one).
        The table admits the batch (:meth:`FlowTable.admit`, whose walk
        hands an overflowing batch over one segment at a time, so a flow
        released at its close frees its slot for the next segment) and the
        loop reads the columns:
        a data segment that covers its flow's delivery point (``seq`` at or
        before the next expected byte, its end beyond it, no SYN or RST) and
        stays clear of the buffered pieces is emitted as a reference to its
        source row, trimmed of what was already delivered; only the others
        take the per-segment path below.  No :class:`Packet` is built and no
        payload is sliced; only hole pieces hold bytes.
        """
        batch = PacketBatch.from_packets(packets)
        out = _empty(list(batch.flows))
        through = [key is None or key.protocol.lower() != "tcp" for key in batch.flows]

        def visit(span: range, entries: List[FlowEntry], evicted: List[FlowEntry]) -> None:
            mark = len(out.departures)
            for entry in evicted:
                self._evicted(entry, out)
            self._walk(batch, span, entries, through, out)
            self._release(out.departures[mark:])

        self.flows.admit(batch, self._new_entry, visit)
        return self._finish(out)

    def _walk(
        self,
        batch: PacketBatch,
        span: range,
        entries: Sequence[FlowEntry],
        through: Sequence[bool],
        out: SequencedBatch,
    ) -> None:
        """Sequence rows ``span`` of ``batch`` onto ``out``; ``entries[f]`` is
        flow ``f``'s entry and ``through[f]`` is true for a flow that is not
        TCP."""
        stats = self.stats
        buffers, starts, lengths = batch.buffer, batch.start, batch.length
        flows, seqs, all_flags = batch.flow, batch.seq, batch.flags
        out_buffer, out_start = out.buffer.append, out.start.append
        out_length, out_flow, out_seq = out.length.append, out.flow.append, out.seq.append
        out_entry = out.entry.append
        mask, syn_rst, fin = _SEQ_MASK, _SYN | _RST, _FIN
        stats.segments_in += len(span)
        passthrough = overlap = retransmits = keepalives = 0
        for row in span:
            f = flows[row]
            entry = entries[f]
            length = lengths[row]
            seq = seqs[row]
            state = None
            if not through[f]:
                state = entry.sequencer
                if state is None or state is _CLOSED:
                    if state is _CLOSED:  # closed earlier in this span
                        entry.sequencer = None
                        entry = entries[f] = self.flows.reopen(entry, self._new_entry)
                    state = entry.sequencer = self._create(seq, all_flags[row])
            if state is None or state.mode == "arrival":
                passthrough += 1
                out_buffer(buffers[row])
                out_start(starts[row])
                out_length(length)
                out_flow(f)
                out_seq(seq)
                out_entry(entry)
                continue
            flags = all_flags[row] or 0
            if seq is not None and not flags & syn_rst:
                if length:
                    rel = ((seq - state.seq_at_next + 0x80000000) & mask) - 0x80000000
                    if rel <= 0 and (not rel or state.delivered):
                        if rel <= -length:  # every byte was delivered already
                            retransmits += 1
                            continue
                        # a segment that covers the delivery point: its new
                        # bytes go out as they are (the delivered ones are
                        # final), unless they run into a buffered piece (the
                        # overlap policy decides that)
                        holes = state.holes
                        end = state.next_off + length + rel
                        if not holes or end <= holes[0][0]:
                            overlap -= rel
                            out_buffer(buffers[row])
                            out_start(starts[row] - rel)
                            out_length(length + rel)
                            out_flow(f)
                            out_seq(state.seq_at_next)
                            out_entry(entry)
                            state.next_off = end
                            state.seq_at_next = (seq + length) & mask
                            state.delivered = True
                            if flags & fin:
                                state.fin_off = end
                            if holes and holes[0][0] <= end:
                                self._drain(entry, out, f)
                            if state.fin_off is not None:
                                self._maybe_close(entry, out)
                            continue
                elif not flags & fin:
                    keepalives += 1
                    continue
            elif seq is not None and flags & syn_rst == _SYN and not length and not flags & fin:
                # a bare SYN (re)anchors an empty flow
                if state.next_off == 0 and not state.holes:
                    state.seq_at_next = (seq + 1) & mask
                continue
            self._segment(entry, f, flags, seq, length, batch, row, out)
        stats.passthrough += passthrough
        stats.overlap_bytes += overlap
        stats.retransmits += retransmits
        stats.keepalives += keepalives

    def _segment(
        self,
        entry: FlowEntry,
        f: int,
        flags: int,
        seq: Optional[int],
        length: int,
        batch: PacketBatch,
        row: int,
        out: SequencedBatch,
    ) -> None:
        """One segment off the in-order path."""
        state = entry.sequencer
        if flags & _RST:
            self.stats.reset_flows += 1
            self.stats.reset_bytes += state.buffered_bytes
            self._close(entry, out)
            return
        if seq is None:
            # a seq-less segment inside a seq flow: deliver at the current
            # point rather than guess (keeps mixed captures flowing)
            if length:
                self._emit(entry, out, f, batch.buffer[row], batch.start[row], length)
            return
        if flags & _SYN:
            if state.next_off == 0 and not state.holes:
                # (re)anchor an empty flow at the handshake
                state.seq_at_next = (seq + 1) & _SEQ_MASK
            if not length and not flags & _FIN:
                return
            seq = (seq + 1) & _SEQ_MASK  # SYN consumes one: data starts after it

        if not length:
            if flags & _FIN:
                rel = _seq_delta(seq, state.seq_at_next)
                state.fin_off = state.next_off + rel
                self._maybe_close(entry, out)
            else:
                self.stats.keepalives += 1
            return

        rel = _seq_delta(seq, state.seq_at_next)
        offset = state.next_off + rel
        end = offset + length
        if offset < state.next_off and not state.delivered:
            # the anchor came from an out-of-order first arrival; nothing
            # has reached the scanner yet, so the stream start moves back
            state.seq_at_next = seq
            state.next_off = offset
        if end <= state.next_off:
            self.stats.retransmits += 1
            return
        trim = 0
        if offset < state.next_off:
            # leading bytes were already delivered and are final
            trim = state.next_off - offset
            self.stats.overlap_bytes += trim
            offset = state.next_off

        holes = state.holes
        if offset == state.next_off and (not holes or end <= holes[0][0]):
            # on the delivery point and clear of the first buffered piece: no
            # byte overlaps, so either policy delivers the segment as it is —
            # then whatever it made contiguous
            self._emit(entry, out, f, batch.buffer[row], batch.start[row] + trim, length - trim)
            if flags & _FIN:
                state.fin_off = end
            if holes:
                self._drain(entry, out, f)
            self._maybe_close(entry, out)
            return

        start = batch.start[row] + trim
        self._insert(state, offset, batch.buffer[row][start:start + length - trim])
        if flags & _FIN:
            state.fin_off = end

        if offset > state.next_off:
            self.stats.reordered += 1
        if state.holes[0][0] <= state.next_off:
            self._drain(entry, out, f)
        if (
            state.buffered_bytes > self.max_flow_bytes
            or len(state.holes) > self.max_flow_segments
        ):
            self.stats.hole_flushes += 1
            self._flush_state(entry, out, f)
        self._maybe_close(entry, out)

    @staticmethod
    def _emit(
        entry: FlowEntry, out: SequencedBatch, f: int, buffer, start: int, length: int
    ) -> None:
        """Deliver ``length`` bytes of ``buffer`` from ``start`` as flow ``f``'s
        next row: a source row's bytes, trimmed, or a hole piece's."""
        state = entry.sequencer
        out.buffer.append(buffer)
        out.start.append(start)
        out.length.append(length)
        out.flow.append(f)
        out.seq.append(state.seq_at_next)
        out.entry.append(entry)
        state.next_off += length
        state.seq_at_next = (state.seq_at_next + length) & _SEQ_MASK
        state.delivered = True

    def _finish(self, out: SequencedBatch) -> SequencedBatch:
        """Stamp the emitted rows with sequential emission-order ids."""
        count = len(out)
        out.flags = [None] * count
        out.packet_id = range(self.next_packet_id, self.next_packet_id + count)
        self.next_packet_id += count
        self.stats.packets_out += count
        return out

    # ------------------------------------------------------------------
    def _evicted(self, entry: FlowEntry, out: SequencedBatch) -> None:
        state = entry.sequencer
        if state is not None:
            self.stats.evicted_flows += 1
            if state.holes:
                out.flows.append(entry.key)
                self._flush_state(entry, out, len(out.flows) - 1)
        out.departures.append((len(out), entry))

    def _release(self, departures: List[Tuple[int, FlowEntry]]) -> None:
        """Release the flows that closed among ``departures`` and were not
        reopened."""
        closed = [entry for _, entry in departures if entry.sequencer is _CLOSED]
        for entry in closed:
            entry.sequencer = None
        if closed:
            self.flows.release(closed)

    def _create(self, seq: Optional[int], flags: Optional[int]) -> Sequencer:
        flags = flags or 0
        if seq is None or (seq == 0 and not flags & _SYN):
            # no usable sequence state (UDP-style source or a legacy
            # zero-seq capture): scan in arrival order, never worse than
            # not reassembling
            self.stats.fallback_flows += 1
            return Sequencer("arrival")
        anchor = (seq + 1) & _SEQ_MASK if flags & _SYN else seq
        return Sequencer("seq", seq_at_next=anchor)

    def _insert(self, state: Sequencer, offset: int, data: bytes) -> None:
        """Insert one piece into the hole buffer under the overlap policy.

        ``buffered_bytes`` moves by what the policy cut: under either policy
        every overlapped byte is held once before and once after, so the
        buffer grows by the new piece minus the overlap.
        """
        holes = state.holes
        if not holes or offset >= holes[-1][0] + len(holes[-1][1]):
            # past every buffered piece: no byte overlaps under either policy
            holes.append([offset, data])
            state.buffered_bytes += len(data)
            return
        overlap = 0
        if self.overlap_policy == "last":
            # the new bytes win: cut every overlapped range out of the
            # existing pieces, then insert the new piece whole
            replaced: List[List] = []
            end = offset + len(data)
            for piece_off, piece in holes:
                piece_end = piece_off + len(piece)
                if piece_end <= offset or piece_off >= end:
                    replaced.append([piece_off, piece])
                    continue
                if piece_off < offset:
                    replaced.append([piece_off, piece[: offset - piece_off]])
                if piece_end > end:
                    replaced.append([end, piece[end - piece_off:]])
                overlap += max(0, min(piece_end, end) - max(piece_off, offset))
            replaced.append([offset, data])
            replaced.sort(key=lambda item: item[0])
            state.holes = replaced
        else:
            # "first": bytes that arrived earlier win — trim the new piece
            # around every existing range it overlaps
            pieces: List[List] = [[offset, data]]
            for piece_off, piece in holes:
                piece_end = piece_off + len(piece)
                next_pieces: List[List] = []
                for new_off, new_data in pieces:
                    new_end = new_off + len(new_data)
                    if new_end <= piece_off or new_off >= piece_end:
                        next_pieces.append([new_off, new_data])
                        continue
                    if new_off < piece_off:
                        next_pieces.append([new_off, new_data[: piece_off - new_off]])
                    if new_end > piece_end:
                        next_pieces.append([piece_end, new_data[piece_end - new_off:]])
                    overlap += min(new_end, piece_end) - max(new_off, piece_off)
                pieces = next_pieces
                if not pieces:
                    break
            state.holes = sorted(
                holes + [piece for piece in pieces if piece[1]],
                key=lambda item: item[0],
            )
        self.stats.overlap_bytes += overlap
        state.buffered_bytes += len(data) - overlap

    def _drain(self, entry: FlowEntry, out: SequencedBatch, f: int) -> None:
        """Deliver every piece now contiguous with the delivery point."""
        state = entry.sequencer
        holes = state.holes
        count = 0
        for offset, data in holes:
            if offset > state.next_off:
                break
            count += 1
            state.buffered_bytes -= len(data)
            if offset < state.next_off:  # defensive: policy trimming left none
                data = data[state.next_off - offset:]
            if data:
                self._emit(entry, out, f, bytes(data), 0, len(data))
        del holes[:count]

    def _flush_state(self, entry: FlowEntry, out: SequencedBatch, f: int) -> None:
        """Deliver all buffered pieces in stream order, skipping the gaps."""
        state = entry.sequencer
        for offset, data in state.holes:
            skipped = offset - state.next_off
            if skipped > 0:
                state.next_off = offset
                state.seq_at_next = (state.seq_at_next + skipped) & _SEQ_MASK
            self._emit(entry, out, f, bytes(data), 0, len(data))
        state.holes = []
        state.buffered_bytes = 0

    def _maybe_close(self, entry: FlowEntry, out: SequencedBatch) -> None:
        """Close a flow whose every byte up to its FIN is delivered."""
        state = entry.sequencer
        if (
            state.fin_off is not None
            and state.next_off >= state.fin_off
            and not state.holes
        ):
            self._close(entry, out)

    @staticmethod
    def _close(entry: FlowEntry, out: SequencedBatch) -> None:
        """The flow departs here; the table releases it at the end of the
        span, unless a later segment reopens it first (in its place)."""
        entry.sequencer = _CLOSED
        out.departures.append((len(out), entry))

    # ------------------------------------------------------------------
    def flush_all(self) -> SequencedBatch:
        """Force-deliver every flow's buffered pieces, LRU order first.

        Call once the source is exhausted so data waiting behind a hole that
        will never fill still reaches the scanner.
        """
        out = _empty([])
        for entry in self.flows.entries():
            if entry.sequencer is not None and entry.sequencer.holes:
                out.flows.append(entry.key)
                self._flush_state(entry, out, len(out.flows) - 1)
                self._maybe_close(entry, out)
        self._release(out.departures)
        return self._finish(out)

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """The table's checkpoint plus the emission counter."""
        return {**self.flows.checkpoint(), "next_packet_id": self.next_packet_id}

    @classmethod
    def restore(
        cls, data: Dict, *, capacity: Optional[int] = None, **settings
    ) -> "TcpReassembler":
        """Rebuild a standalone reassembler from :meth:`checkpoint` data
        (:meth:`FlowTable.restore` with ``capacity``; ``settings`` are the
        constructor's other keywords)."""
        return cls(
            flows=FlowTable.restore(data, capacity),
            first_packet_id=int(data.get("next_packet_id", 0)),
            **settings,
        )


def fold_reassembly(table: Dict, reassembly: Dict) -> Dict:
    """One table from an earlier version's engine ``table`` and the
    ``reassembly`` checkpoint beside it: each reassembly flow becomes the
    ``"sequencer"`` of its key's record — a flow only the reassembler held
    gets one at the root state, at the LRU end — and its counter the
    table's ``next_packet_id`` (its bounds are not read)."""
    sequencers = {
        FlowKey.from_checkpoint(flow["key"]): flow for flow in reassembly["flows"]
    }
    flows = []
    for flow in table["flows"]:
        sequencer = sequencers.pop(FlowKey.from_checkpoint(flow["key"]), None)
        flows.append(flow if sequencer is None else {**flow, "sequencer": sequencer})
    fresh = [
        {"key": flow["key"], "states": [_ROOT.as_tuple()], "sequencer": flow}
        for flow in sequencers.values()
    ]
    return {**table, "flows": fresh + flows, "next_packet_id": reassembly["next_packet_id"]}


def reassemble_packets(
    packets: Sequence[Packet], **kwargs
) -> Tuple[PacketBatch, ReassemblyStatistics]:
    """One-shot convenience: reassemble a finished packet list.

    Feeds every packet through a fresh :class:`TcpReassembler`, flushes the
    remaining holes, and returns ``(stream_order_packets, stats)``.
    """
    reassembler = TcpReassembler(**kwargs)
    out = reassembler.process(packets)
    out += reassembler.flush_all()
    return out, reassembler.stats


__all__ = [
    "DEFAULT_MAX_FLOW_BYTES",
    "DEFAULT_MAX_FLOW_SEGMENTS",
    "OVERLAP_POLICIES",
    "ReassemblyStatistics",
    "Sequencer",
    "TcpReassembler",
    "fold_reassembly",
    "reassemble_packets",
]
