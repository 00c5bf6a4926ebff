"""Cycle-level model of one string matching engine (Section IV.C / Figure 5).

The engine is a short pipeline built around registers for the input
character, the previous two input characters, the state information returned
from the search structure memory and the default transition information from
the lookup table:

* cycle ``n``   — the payload byte is presented; its default transition
  information is read from the lookup table and both are registered.
* cycle ``n+1`` — the registered byte is compared against the pointers of the
  current state (whose word arrived from memory in the same cycle); the
  winning pointer (or default) addresses the next state, whose memory word is
  requested.  One byte is consumed every cycle, unconditionally.

A match is signalled when the state just entered has its match bit set; the
match-memory address and engine number are handed to the match scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .image import BlockImage, LookupEntry, StateAddress, StateEntry
from .memory import DualPortMemory


@dataclass
class EngineMatch:
    """A raw match signal produced by an engine (before the scheduler)."""

    engine_id: int
    packet_id: int
    end_offset: int           # offset one past the matching byte
    match_address: int        # address in the matching-string-number memory


@dataclass(frozen=True)
class EngineFlowState:
    """Checkpoint of an engine's architectural registers between segments.

    Saving these four registers when a flow's segment ends and restoring them
    when its next segment is scheduled (possibly on a different engine) makes
    the engine behave as if the flow's byte stream had never been
    interrupted — the hardware analogue of
    :class:`repro.core.dtp_automaton.ScanState`.
    """

    address: StateAddress
    prev1: Optional[int]
    prev2: Optional[int]
    offset: int


@dataclass
class EngineStatistics:
    cycles: int = 0
    bytes_processed: int = 0
    state_reads: int = 0
    lookup_reads: int = 0
    matches_signalled: int = 0

    @property
    def bytes_per_cycle(self) -> float:
        return self.bytes_processed / self.cycles if self.cycles else 0.0


class StringMatchingEngine:
    """One of the six engines inside a string matching block."""

    def __init__(
        self,
        engine_id: int,
        image: BlockImage,
        state_memory: DualPortMemory,
        lookup_memory: DualPortMemory,
        port: int,
    ):
        self.engine_id = engine_id
        self.image = image
        self.state_memory = state_memory
        self.lookup_memory = lookup_memory
        self.port = port
        self.stats = EngineStatistics()
        # architectural registers
        self._current_address: StateAddress = image.root_address
        self._current_entry: StateEntry = image.states[image.root_address]
        self._prev1: Optional[int] = None
        self._prev2: Optional[int] = None
        self._packet_id: Optional[int] = None
        self._offset = 0

    # ------------------------------------------------------------------
    def start_packet(self, packet_id: int) -> None:
        """Assert the start signal: reset state and character history."""
        self._current_address = self.image.root_address
        self._current_entry = self.image.states[self.image.root_address]
        self._prev1 = None
        self._prev2 = None
        self._packet_id = packet_id
        self._offset = 0

    def export_flow_state(self) -> EngineFlowState:
        """Checkpoint the registers of the flow currently occupying the engine."""
        if self._packet_id is None:
            raise RuntimeError("no packet in flight; nothing to checkpoint")
        return EngineFlowState(
            address=self._current_address,
            prev1=self._prev1,
            prev2=self._prev2,
            offset=self._offset,
        )

    def resume_flow(self, state: EngineFlowState, packet_id: int) -> None:
        """Load a checkpointed flow: restore registers instead of resetting them."""
        self._current_address = state.address
        self._current_entry = self.image.states[state.address]
        self._prev1 = state.prev1
        self._prev2 = state.prev2
        self._packet_id = packet_id
        self._offset = state.offset

    def process_byte(self, byte: int, cycle: int) -> Optional[EngineMatch]:
        """Consume one payload byte during engine ``cycle``.

        Returns a match signal when the state entered has its match bit set.
        """
        if self._packet_id is None:
            raise RuntimeError("start_packet must be called before process_byte")
        if not 0 <= byte <= 0xFF:
            raise ValueError(f"byte {byte} out of range")

        lookup_entry: LookupEntry = self.lookup_memory.read(byte, self.port, cycle)
        self.stats.lookup_reads += 1

        # matching semantics are delegated to the block image (the engine
        # model only contributes timing and memory-bandwidth accounting)
        next_address = self.image.resolve_transition(
            self._current_entry, lookup_entry, byte, self._prev1, self._prev2
        )
        next_entry: StateEntry = self.state_memory.read(next_address, self.port, cycle)
        self.stats.state_reads += 1

        self._prev2 = self._prev1
        self._prev1 = byte
        self._current_address = next_address
        self._current_entry = next_entry
        self._offset += 1
        self.stats.cycles += 1
        self.stats.bytes_processed += 1

        if next_entry.match_address is not None:
            self.stats.matches_signalled += 1
            return EngineMatch(
                engine_id=self.engine_id,
                packet_id=self._packet_id,
                end_offset=self._offset,
                match_address=next_entry.match_address,
            )
        return None
