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
from ..traffic.packet import Packet

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


class TcpReassembler:
    """Reorder TCP segments by sequence number in front of any scan layer.

    Feed arrival-order packets in, get stream-order packets out — with
    sequential emission-order ids — via :meth:`feed` / :meth:`process`, then
    :meth:`flush_all` once the source is exhausted to deliver whatever is
    still waiting behind holes.
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
    def _emit(self, source: Packet, payload: bytes, seq: Optional[int]) -> Packet:
        packet = Packet(payload, source.header, self._next_id, None, seq)
        self._next_id += 1
        self.stats.packets_out += 1
        return packet

    def _emit_piece(self, state: _FlowState, template: Packet, data: bytes) -> Packet:
        packet = Packet(data, template.header, self._next_id, None, state.seq_at_next)
        self._next_id += 1
        self.stats.packets_out += 1
        state.next_off += len(data)
        state.seq_at_next = (state.seq_at_next + len(data)) & _SEQ_MASK
        state.delivered = True
        return packet

    # ------------------------------------------------------------------
    def feed(self, packet: Packet) -> List[Packet]:
        """Process one arriving packet; return every packet now deliverable.

        The returned list may include flushed segments of *other* flows when
        this arrival LRU-evicted one.
        """
        self.stats.segments_in += 1
        header = packet.header
        if header is None or header.protocol.lower() != "tcp":
            self.stats.passthrough += 1
            return [self._emit(packet, packet.payload, packet.tcp_seq)]

        out: List[Packet] = []
        state = self._flows.get(header)
        if state is None:
            state = self._create(header, packet, out)
        else:
            self._flows.move_to_end(header)

        if state.mode == "arrival":
            self.stats.passthrough += 1
            out.append(self._emit(packet, packet.payload, packet.tcp_seq))
            return out

        flags = packet.tcp_flags or 0
        if flags & _RST:
            self.stats.reset_flows += 1
            self._flows.pop(header, None)
            return out
        seq = packet.tcp_seq
        if seq is None:
            # a seq-less segment inside a seq flow: deliver at the current
            # point rather than guess (keeps mixed captures flowing)
            if packet.payload:
                out.append(self._emit_piece(state, packet, packet.payload))
            return out
        if flags & _SYN:
            if state.next_off == 0 and not state.holes:
                # (re)anchor an empty flow at the handshake
                state.seq_at_next = (seq + 1) & _SEQ_MASK
            if not packet.payload and not flags & _FIN:
                return out
            seq = (seq + 1) & _SEQ_MASK  # SYN consumes one: data starts after it

        data = packet.payload
        if not data:
            if flags & _FIN:
                rel = _seq_delta(seq, state.seq_at_next)
                state.fin_off = state.next_off + rel
                self._maybe_close(header, state)
            else:
                self.stats.keepalives += 1
            return out

        rel = _seq_delta(seq, state.seq_at_next)
        offset = state.next_off + rel
        end = offset + len(data)
        if offset < state.next_off and not state.delivered:
            # the anchor came from an out-of-order first arrival; nothing
            # has reached the scanner yet, so the stream start moves back
            state.seq_at_next = seq
            state.next_off = offset
        if end <= state.next_off:
            self.stats.retransmits += 1
            return out
        if offset < state.next_off:
            # leading bytes were already delivered and are final
            trim = state.next_off - offset
            self.stats.overlap_bytes += trim
            data = data[trim:]
            offset = state.next_off

        holes = state.holes
        if offset == state.next_off and (not holes or end <= holes[0][0]):
            # on the delivery point and clear of the first buffered piece: no
            # byte overlaps, so either policy delivers the segment as it is —
            # then whatever it made contiguous
            out.append(self._emit_piece(state, packet, bytes(data)))
            if flags & _FIN:
                state.fin_off = end
            if holes:
                out.extend(self._drain(state, packet))
            if state.fin_off is not None:
                self._maybe_close(header, state)
            return out

        self._insert(state, offset, data)
        if flags & _FIN:
            state.fin_off = end

        if offset > state.next_off:
            self.stats.reordered += 1

        out.extend(self._drain(state, packet))
        if (
            state.buffered_bytes > self.max_flow_bytes
            or len(state.holes) > self.max_flow_segments
        ):
            self.stats.hole_flushes += 1
            out.extend(self._flush_state(state, packet))
        self._maybe_close(header, state)
        return out

    def process(self, packets: Sequence[Packet]) -> List[Packet]:
        """Feed a whole batch; returns the concatenated deliverable packets."""
        out: List[Packet] = []
        for packet in packets:
            out.extend(self.feed(packet))
        return out

    # ------------------------------------------------------------------
    def _create(self, key: FlowKey, packet: Packet, out: List[Packet]) -> _FlowState:
        while len(self._flows) >= self.max_flows:
            _, evicted = self._flows.popitem(last=False)
            self.stats.evicted_flows += 1
            if evicted.holes:
                out.extend(self._flush_evicted(evicted))
        seq = packet.tcp_seq
        flags = packet.tcp_flags or 0
        if seq is None or (seq == 0 and not flags & _SYN):
            # no usable sequence state (UDP-style source or a legacy
            # zero-seq capture): scan in arrival order, never worse than
            # not reassembling
            mode = "arrival"
            self.stats.fallback_flows += 1
            state = _FlowState(key, mode)
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

    def _drain(self, state: _FlowState, template: Packet) -> List[Packet]:
        """Deliver every piece now contiguous with the delivery point."""
        out: List[Packet] = []
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
                out.append(self._emit_piece(state, template, bytes(data)))
        del holes[:count]
        return out

    def _flush_state(self, state: _FlowState, template: Packet) -> List[Packet]:
        """Deliver all buffered pieces in stream order, skipping the gaps."""
        out: List[Packet] = []
        for offset, data in state.holes:
            skipped = offset - state.next_off
            if skipped > 0:
                state.next_off = offset
                state.seq_at_next = (state.seq_at_next + skipped) & _SEQ_MASK
            out.append(self._emit_piece(state, template, bytes(data)))
        state.holes = []
        state.buffered_bytes = 0
        return out

    def _flush_evicted(self, state: _FlowState) -> List[Packet]:
        # the flow's key is its header: the template every piece is cut from
        return self._flush_state(state, Packet(b"", state.key))

    def _maybe_close(self, key: FlowKey, state: _FlowState) -> None:
        if (
            state.fin_off is not None
            and state.next_off >= state.fin_off
            and not state.holes
        ):
            self._flows.pop(key, None)

    # ------------------------------------------------------------------
    def flush(self, key: FlowKey) -> List[Packet]:
        """Force-deliver one flow's buffered pieces (the flow stays tracked)."""
        state = self._flows.get(key)
        if state is None or not state.holes:
            return []
        out = self._flush_evicted(state)
        self._maybe_close(key, state)
        return out

    def flush_all(self) -> List[Packet]:
        """Force-deliver every flow's buffered pieces, LRU order first.

        Call once the source is exhausted so data waiting behind a hole that
        will never fill still reaches the scanner.
        """
        out: List[Packet] = []
        for key in list(self._flows):
            out.extend(self.flush(key))
        return out

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
) -> Tuple[List[Packet], ReassemblyStatistics]:
    """One-shot convenience: reassemble a finished packet list.

    Feeds every packet through a fresh :class:`TcpReassembler`, flushes the
    remaining holes, and returns ``(stream_order_packets, stats)``.
    """
    reassembler = TcpReassembler(**kwargs)
    out = reassembler.process(packets)
    out.extend(reassembler.flush_all())
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
