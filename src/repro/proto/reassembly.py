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
  price of detection across the skipped gap.  The table itself is a bounded
  LRU over ``max_flows`` flows, evicting (and flushing) the least recently
  active flow, mirroring :class:`repro.streaming.flow.FlowTable`.
* **SYN/FIN/RST.**  A SYN (re)anchors an empty flow; a FIN marks the end of
  stream and the flow is forgotten once every byte up to it is delivered; an
  RST discards the flow and its buffered holes immediately.  Zero-length
  segments with no flag of interest are keepalives and vanish.

Emitted packets get sequential ids in *emission* order (the reassembler owns
the counter), which is exactly the arrival-order id contract capture replay
and live ingestion make — downstream event streams stay canonically sorted.

Checkpoint/restore mirrors :class:`~repro.streaming.flow.FlowTable`: the
whole reassembler serialises to one JSON-friendly dict in LRU order, and
restoring into a smaller ``max_flows`` drops (and counts) the LRU head, so
a session checkpoint can carry reassembly state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..streaming.flow import FlowKey
from ..traffic.packet import Packet, PacketBatch

#: Default maximum number of concurrently reassembled flows.
DEFAULT_REASSEMBLY_FLOWS = 1024
#: Default per-flow hole-buffer byte cap.
DEFAULT_MAX_FLOW_BYTES = 65536
#: Default per-flow hole-buffer segment cap.
DEFAULT_MAX_FLOW_SEGMENTS = 128

OVERLAP_POLICIES = ("first", "last")

_SEQ_MASK = 0xFFFFFFFF
_FIN = 0x01
_SYN = 0x02
_RST = 0x04


def _seq_delta(seq: int, reference: int) -> int:
    """Signed 32-bit distance from ``reference`` to ``seq`` (wraparound-safe)."""
    return ((seq - reference + 0x80000000) & _SEQ_MASK) - 0x80000000


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
    #: flows LRU-evicted (flushed) to honour ``max_flows``
    evicted_flows: int = 0
    #: flows discarded by an RST
    reset_flows: int = 0
    #: flows that fell back to arrival order (no usable sequence state)
    fallback_flows: int = 0
    #: checkpointed flows dropped at restore time (capacity shrank)
    restore_dropped: int = 0


class _FlowState:
    """Per-flow reassembly state: delivery point plus the hole buffer.

    ``next_off`` is the flow-absolute stream offset delivered so far and
    ``seq_at_next`` the 32-bit sequence number of that position — keeping
    both lets every comparison run on plain unbounded ints while arriving
    segments are placed with wraparound-safe arithmetic.  ``holes`` is a
    sorted list of non-overlapping ``[offset, bytes]`` pieces beyond the
    delivery point; piece boundaries are preserved through delivery so an
    in-order flow passes through with its segmentation intact.
    """

    __slots__ = (
        "key",
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
        key: FlowKey,
        mode: str,
        seq_at_next: int = 0,
        next_off: int = 0,
        holes: Optional[List[List]] = None,
        fin_off: Optional[int] = None,
        delivered: bool = False,
    ):
        self.key = key
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
            "key": list(self.key.as_tuple()),
            "mode": self.mode,
            "next_off": self.next_off,
            "seq_at_next": self.seq_at_next,
            "holes": [[offset, data.hex()] for offset, data in self.holes],
            "fin_off": self.fin_off,
            "delivered": self.delivered,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "_FlowState":
        return cls(
            key=FlowKey.from_checkpoint(data["key"]),
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


class _Rows:
    """What one reassembler call emits, as the columns of its batch: each
    row a source row's bytes (its buffer, start and length) or a hole
    piece's, with the flow's number in ``flows`` and the sequence number."""

    __slots__ = ("buffer", "start", "length", "flow", "seq", "flows", "_index")

    def __init__(self, flows: Sequence[Optional[FlowKey]]):
        self.buffer: List = []
        self.start: List[int] = []
        self.length: List[int] = []
        self.flow: List[int] = []
        self.seq: List[Optional[int]] = []
        self.flows = list(flows)
        self._index: Optional[Dict[Optional[FlowKey], int]] = None

    def add(self, buffer, start: int, length: int, flow: int, seq: Optional[int]) -> None:
        self.buffer.append(buffer)
        self.start.append(start)
        self.length.append(length)
        self.flow.append(flow)
        self.seq.append(seq)

    def number(self, key: FlowKey) -> int:
        """``key``'s number in :attr:`flows`, added when it is not there."""
        index = self._index
        if index is None:
            index = self._index = {flow: number for number, flow in enumerate(self.flows)}
        number = index.get(key)
        if number is None:
            number = index[key] = len(self.flows)
            self.flows.append(key)
        return number


class TcpReassembler:
    """Reorder TCP segments by sequence number in front of any scan layer.

    Feed an arrival-order :class:`~repro.traffic.PacketBatch` in, get a
    stream-order batch out — with sequential emission-order ids — via
    :meth:`process` (:meth:`feed` for one packet), then :meth:`flush_all`
    once the source is exhausted to deliver whatever is still waiting
    behind holes.
    """

    def __init__(
        self,
        *,
        overlap_policy: str = "first",
        max_flows: int = DEFAULT_REASSEMBLY_FLOWS,
        max_flow_bytes: int = DEFAULT_MAX_FLOW_BYTES,
        max_flow_segments: int = DEFAULT_MAX_FLOW_SEGMENTS,
        first_packet_id: int = 0,
    ):
        if overlap_policy not in OVERLAP_POLICIES:
            raise ValueError(
                f"overlap_policy must be one of {OVERLAP_POLICIES}, "
                f"got {overlap_policy!r}"
            )
        if max_flows < 1:
            raise ValueError(f"max_flows must be at least 1, got {max_flows}")
        if max_flow_bytes < 1:
            raise ValueError(
                f"max_flow_bytes must be at least 1, got {max_flow_bytes}"
            )
        if max_flow_segments < 1:
            raise ValueError(
                f"max_flow_segments must be at least 1, got {max_flow_segments}"
            )
        self.overlap_policy = overlap_policy
        self.max_flows = max_flows
        self.max_flow_bytes = max_flow_bytes
        self.max_flow_segments = max_flow_segments
        self.stats = ReassemblyStatistics()
        self._flows: "OrderedDict[FlowKey, _FlowState]" = OrderedDict()
        self._next_id = first_packet_id

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flows)

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently waiting in hole buffers across all flows."""
        return sum(state.buffered_bytes for state in self._flows.values())

    # ------------------------------------------------------------------
    def feed(self, packet: Packet) -> PacketBatch:
        """Process one arriving packet; return every packet now deliverable.

        The returned batch may include flushed segments of *other* flows when
        this arrival LRU-evicted one.
        """
        return self.process([packet])

    def process(self, packets: Sequence[Packet]) -> PacketBatch:
        """Reassemble one arrival batch; returns the deliverable rows.

        ``packets`` is a :class:`PacketBatch` (a packet list is taken as one).
        The loop reads its columns: a data segment that covers its flow's
        delivery point (``seq`` at or before the next expected byte, its end
        beyond it, no SYN or RST) and stays clear of the buffered pieces is
        emitted as a reference to its source row, trimmed of what was
        already delivered; only the others take the per-segment path below.  No :class:`Packet` is built
        and no payload is sliced; only hole pieces hold bytes.  The flow
        table's recency is refreshed once per flow, at the end of the batch
        or before an eviction needs it.
        """
        batch = PacketBatch.from_packets(packets)
        rows = _Rows(batch.flows)
        self._reassemble(batch, rows)
        return self._finish(rows)

    def _reassemble(self, batch: PacketBatch, rows: "_Rows") -> None:
        stats = self.stats
        table = self._flows
        keys = batch.flows
        not_tcp = [key is None or key.protocol.lower() != "tcp" for key in keys]
        # the flows whose rows pass through as they are: not TCP, or (once
        # found) a flow reassembled in arrival order
        through = list(not_tcp)
        cache: List[Optional[_FlowState]] = [None] * len(keys)
        touched: Dict[int, int] = {}  # flow -> last row, the deferred LRU refresh
        buffers, starts, lengths = batch.buffer, batch.start, batch.length
        flows, seqs, all_flags = batch.flow, batch.seq, batch.flags
        out_buffer, out_start = rows.buffer.append, rows.start.append
        out_length, out_flow, out_seq = rows.length.append, rows.flow.append, rows.seq.append
        mask, syn_rst, fin = _SEQ_MASK, _SYN | _RST, _FIN
        stats.segments_in += len(lengths)
        passthrough = overlap = retransmits = keepalives = 0
        for row in range(len(lengths)):
            f = flows[row]
            length = lengths[row]
            seq = seqs[row]
            state = cache[f]
            if state is None and not through[f]:
                key = keys[f]
                state = table.get(key)
                if state is None:
                    if len(table) >= self.max_flows:
                        self._evict(touched, keys, rows)
                        cache = [None] * len(keys)
                        through = list(not_tcp)
                    state = self._create(key, seq, all_flags[row])
                cache[f] = state
                through[f] = state.mode == "arrival"
            if through[f]:
                if state is not None:
                    touched[f] = row
                passthrough += 1
                out_buffer(buffers[row])
                out_start(starts[row])
                out_length(length)
                out_flow(f)
                out_seq(seq)
                continue
            touched[f] = row
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
                            state.next_off = end
                            state.seq_at_next = (seq + length) & mask
                            state.delivered = True
                            if flags & fin:
                                state.fin_off = end
                            if holes and holes[0][0] <= end:
                                self._drain(state, rows, f)
                            if state.fin_off is not None and self._maybe_close(keys[f], state):
                                cache[f] = None
                            continue
                elif not flags & fin:
                    keepalives += 1
                    continue
            elif seq is not None and flags & syn_rst == _SYN and not length and not flags & fin:
                # a bare SYN (re)anchors an empty flow
                if state.next_off == 0 and not state.holes:
                    state.seq_at_next = (seq + 1) & mask
                continue
            if self._segment(state, keys[f], f, flags, seq, length, batch, row, rows):
                cache[f] = None
        stats.passthrough += passthrough
        stats.overlap_bytes += overlap
        stats.retransmits += retransmits
        stats.keepalives += keepalives
        self._refresh(touched, keys)

    def _segment(
        self,
        state: _FlowState,
        key: FlowKey,
        f: int,
        flags: int,
        seq: Optional[int],
        length: int,
        batch: PacketBatch,
        row: int,
        rows: "_Rows",
    ) -> bool:
        """One segment off the in-order path; True when its flow was dropped."""
        if flags & _RST:
            self.stats.reset_flows += 1
            self._flows.pop(key, None)
            return True
        if seq is None:
            # a seq-less segment inside a seq flow: deliver at the current
            # point rather than guess (keeps mixed captures flowing)
            if length:
                self._emit_row(state, rows, batch, row, 0, length, f)
            return False
        if flags & _SYN:
            if state.next_off == 0 and not state.holes:
                # (re)anchor an empty flow at the handshake
                state.seq_at_next = (seq + 1) & _SEQ_MASK
            if not length and not flags & _FIN:
                return False
            seq = (seq + 1) & _SEQ_MASK  # SYN consumes one: data starts after it

        if not length:
            if flags & _FIN:
                rel = _seq_delta(seq, state.seq_at_next)
                state.fin_off = state.next_off + rel
                return self._maybe_close(key, state)
            self.stats.keepalives += 1
            return False

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
            return False
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
            self._emit_row(state, rows, batch, row, trim, length - trim, f)
            if flags & _FIN:
                state.fin_off = end
            if holes:
                self._drain(state, rows, f)
            return state.fin_off is not None and self._maybe_close(key, state)

        start = batch.start[row] + trim
        self._insert(state, offset, batch.buffer[row][start:start + length - trim])
        if flags & _FIN:
            state.fin_off = end

        if offset > state.next_off:
            self.stats.reordered += 1
        if state.holes[0][0] <= state.next_off:
            self._drain(state, rows, f)
        if (
            state.buffered_bytes > self.max_flow_bytes
            or len(state.holes) > self.max_flow_segments
        ):
            self.stats.hole_flushes += 1
            self._flush_state(state, rows, f)
        return state.fin_off is not None and self._maybe_close(key, state)

    def _emit_row(
        self, state: _FlowState, rows: "_Rows", batch: PacketBatch, row: int,
        trim: int, length: int, f: int,
    ) -> None:
        """Deliver ``length`` bytes of source ``row``, ``trim`` bytes in."""
        rows.add(batch.buffer[row], batch.start[row] + trim, length, f, state.seq_at_next)
        state.next_off += length
        state.seq_at_next = (state.seq_at_next + length) & _SEQ_MASK
        state.delivered = True

    def _emit_piece(self, state: _FlowState, rows: "_Rows", f: int, data: bytes) -> None:
        rows.add(data, 0, len(data), f, state.seq_at_next)
        state.next_off += len(data)
        state.seq_at_next = (state.seq_at_next + len(data)) & _SEQ_MASK
        state.delivered = True

    def _finish(self, rows: "_Rows") -> PacketBatch:
        """The emitted rows as a batch, with sequential emission-order ids."""
        count = len(rows.length)
        ids = range(self._next_id, self._next_id + count)
        self._next_id += count
        self.stats.packets_out += count
        return PacketBatch(
            rows.buffer, rows.start, rows.length, rows.flows, rows.flow, rows.seq,
            [None] * count, ids,
        )

    def _refresh(self, touched: Dict[int, int], keys: Sequence[FlowKey]) -> None:
        """Move the touched flows to the recent end, least recent touch first:
        the order one ``move_to_end`` per segment would have left."""
        refresh = self._flows.move_to_end
        for f in sorted(touched, key=touched.__getitem__):
            try:
                refresh(keys[f])
            except KeyError:  # dropped since (RST, FIN, eviction)
                pass
        touched.clear()

    # ------------------------------------------------------------------
    def _evict(self, touched: Dict[int, int], keys: Sequence[FlowKey], rows: "_Rows") -> None:
        """Make room for one flow: evict (and flush) the least recently
        active ones, with the batch's pending refreshes applied first."""
        self._refresh(touched, keys)
        while len(self._flows) >= self.max_flows:
            key, evicted = self._flows.popitem(last=False)
            self.stats.evicted_flows += 1
            if evicted.holes:
                self._flush_state(evicted, rows, rows.number(key))

    def _create(self, key: FlowKey, seq: Optional[int], flags: Optional[int]) -> _FlowState:
        flags = flags or 0
        if seq is None or (seq == 0 and not flags & _SYN):
            # no usable sequence state (UDP-style source or a legacy
            # zero-seq capture): scan in arrival order, never worse than
            # not reassembling
            self.stats.fallback_flows += 1
            state = _FlowState(key, "arrival")
        else:
            anchor = (seq + 1) & _SEQ_MASK if flags & _SYN else seq
            state = _FlowState(key, "seq", seq_at_next=anchor)
        self._flows[key] = state
        return state

    def _insert(self, state: _FlowState, offset: int, data: bytes) -> None:
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

    def _drain(self, state: _FlowState, rows: "_Rows", f: int) -> None:
        """Deliver every piece now contiguous with the delivery point."""
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
                self._emit_piece(state, rows, f, bytes(data))
        del holes[:count]

    def _flush_state(self, state: _FlowState, rows: "_Rows", f: int) -> None:
        """Deliver all buffered pieces in stream order, skipping the gaps."""
        for offset, data in state.holes:
            skipped = offset - state.next_off
            if skipped > 0:
                state.next_off = offset
                state.seq_at_next = (state.seq_at_next + skipped) & _SEQ_MASK
            self._emit_piece(state, rows, f, bytes(data))
        state.holes = []
        state.buffered_bytes = 0

    def _maybe_close(self, key: FlowKey, state: _FlowState) -> bool:
        """Forget a flow whose every byte up to its FIN is delivered; True
        when it did."""
        if (
            state.fin_off is not None
            and state.next_off >= state.fin_off
            and not state.holes
        ):
            self._flows.pop(key, None)
            return True
        return False

    # ------------------------------------------------------------------
    def _flush_key(self, key: FlowKey, rows: "_Rows") -> None:
        state = self._flows.get(key)
        if state is None or not state.holes:
            return
        self._flush_state(state, rows, rows.number(key))
        self._maybe_close(key, state)

    def flush(self, key: FlowKey) -> PacketBatch:
        """Force-deliver one flow's buffered pieces (the flow stays tracked)."""
        rows = _Rows([])
        self._flush_key(key, rows)
        return self._finish(rows)

    def flush_all(self) -> PacketBatch:
        """Force-deliver every flow's buffered pieces, LRU order first.

        Call once the source is exhausted so data waiting behind a hole that
        will never fill still reaches the scanner.
        """
        rows = _Rows([])
        for key in list(self._flows):
            self._flush_key(key, rows)
        return self._finish(rows)

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Serialise the reassembler (LRU order preserved) to plain data."""
        return {
            "overlap_policy": self.overlap_policy,
            "max_flows": self.max_flows,
            "max_flow_bytes": self.max_flow_bytes,
            "max_flow_segments": self.max_flow_segments,
            "next_packet_id": self._next_id,
            "flows": [state.as_dict() for state in self._flows.values()],
        }

    @classmethod
    def restore(
        cls,
        data: Dict,
        *,
        max_flows: Optional[int] = None,
        overlap_policy: Optional[str] = None,
        max_flow_bytes: Optional[int] = None,
    ) -> "TcpReassembler":
        """Rebuild a reassembler from :meth:`checkpoint` data.

        Mirrors :meth:`repro.streaming.flow.FlowTable.restore`: ``max_flows``
        (and ``overlap_policy``, ``max_flow_bytes``) override the
        checkpointed values, and a checkpoint holding more flows than fit
        drops the LRU head — counted in ``stats.restore_dropped``, buffered
        bytes included — so a restore never silently raises the memory
        bound.
        """
        reassembler = cls(
            overlap_policy=(
                str(data["overlap_policy"]) if overlap_policy is None else overlap_policy
            ),
            max_flows=int(data["max_flows"]) if max_flows is None else max_flows,
            max_flow_bytes=(
                int(data["max_flow_bytes"]) if max_flow_bytes is None else max_flow_bytes
            ),
            max_flow_segments=int(data["max_flow_segments"]),
            first_packet_id=int(data.get("next_packet_id", 0)),
        )
        states = [_FlowState.from_dict(flow) for flow in data["flows"]]
        overflow = max(0, len(states) - reassembler.max_flows)
        reassembler.stats.restore_dropped = overflow
        for state in states[overflow:]:
            reassembler._flows[state.key] = state
        return reassembler


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
    "DEFAULT_REASSEMBLY_FLOWS",
    "OVERLAP_POLICIES",
    "ReassemblyStatistics",
    "TcpReassembler",
    "reassemble_packets",
]
