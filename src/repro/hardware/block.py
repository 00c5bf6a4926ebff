"""Cycle-level model of a string matching block (Section IV.B / Figure 4).

A block owns three true dual-port memories (state machine, lookup table,
match numbers) and six string matching engines.  Three engines share each
memory port; because the memories run at three times the engine clock, every
engine gets exactly one state-machine read and one lookup read per engine
cycle, which is what guarantees one payload byte per engine per cycle.

The block model scans packets, checks the bandwidth guarantee through the
:class:`repro.hardware.memory.DualPortMemory` accounting, collects matches
through per-port match schedulers and reports throughput statistics in
bytes per engine cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.accelerator_config import BlockProgram
from ..traffic.packet import MatchEvent, Packet
from .engine import StringMatchingEngine
from .image import BlockImage, build_block_image
from .memory import DualPortMemory
from .scheduler import MatchScheduler

ENGINES_PER_BLOCK = 6
ENGINES_PER_PORT = 3


@dataclass
class BlockScanResult:
    """Outcome of scanning a batch of packets on one block."""

    events: List[MatchEvent]
    engine_cycles: int
    bytes_processed: int

    @property
    def bytes_per_engine_cycle(self) -> float:
        if self.engine_cycles == 0:
            return 0.0
        return self.bytes_processed / (self.engine_cycles * ENGINES_PER_BLOCK)

    def events_for_packet(self, packet_id: int) -> List[MatchEvent]:
        return [event for event in self.events if event.packet_id == packet_id]


class StringMatchingBlock:
    """One string matching block loaded with a compiled block program."""

    def __init__(self, program: BlockProgram, block_id: int = 0):
        self.block_id = block_id
        self.program = program
        self.image: BlockImage = build_block_image(program)
        self.state_memory: DualPortMemory = DualPortMemory(
            self.image.states, name=f"block{block_id}.state_machine"
        )
        self.lookup_memory: DualPortMemory = DualPortMemory(
            self.image.lookup, name=f"block{block_id}.lookup_table"
        )
        self.engines: List[StringMatchingEngine] = [
            StringMatchingEngine(
                engine_id=index,
                image=self.image,
                state_memory=self.state_memory,
                lookup_memory=self.lookup_memory,
                port=index // ENGINES_PER_PORT,
            )
            for index in range(ENGINES_PER_BLOCK)
        ]
        self.schedulers: List[MatchScheduler] = [
            MatchScheduler(self.image.match_words) for _ in range(2)
        ]

    # ------------------------------------------------------------------
    def scan_packets(self, packets: Sequence[Packet]) -> BlockScanResult:
        """Scan ``packets``, six at a time (one per engine), cycle by cycle."""
        events: List[MatchEvent] = []
        total_cycles = 0
        total_bytes = 0
        # cycle numbering restarts for every scan; clear the per-cycle
        # bandwidth accounting (cumulative statistics are preserved)
        self.state_memory.reset_cycle_tracking()
        self.lookup_memory.reset_cycle_tracking()

        for wave_start in range(0, len(packets), ENGINES_PER_BLOCK):
            wave = packets[wave_start:wave_start + ENGINES_PER_BLOCK]
            for engine, packet in zip(self.engines, wave):
                engine.start_packet(packet.packet_id)
            wave_length = max(len(packet.payload) for packet in wave) if wave else 0
            for cycle in range(wave_length):
                global_cycle = total_cycles + cycle
                for engine, packet in zip(self.engines, wave):
                    if cycle >= len(packet.payload):
                        continue
                    match = engine.process_byte(packet.payload[cycle], global_cycle)
                    total_bytes += 1
                    if match is not None:
                        self.schedulers[engine.port].push(match)
                # the match schedulers work concurrently with scanning
                for scheduler in self.schedulers:
                    events.extend(scheduler.step())
            total_cycles += wave_length

        for scheduler in self.schedulers:
            events.extend(scheduler.drain())
        events.sort(key=lambda e: (e.packet_id, e.end_offset, e.string_number))
        return BlockScanResult(
            events=events, engine_cycles=total_cycles, bytes_processed=total_bytes
        )
