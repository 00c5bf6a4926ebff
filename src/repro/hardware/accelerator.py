"""The complete hardware accelerator: multiple string matching blocks.

For a ruleset that needs ``g`` blocks (one block per string group), the
device's ``B`` blocks are organised into ``B // g`` *packet groups*: every
block inside a packet group holds a different share of the ruleset and all of
them scan the same packets, while different packet groups scan different
packets concurrently.  With a single-block ruleset (g = 1) every block works
independently and throughput is maximised — the configuration behind the
44.2 Gbps figure in Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..backend import FlowState, MatchList
from ..core.accelerator_config import AcceleratorProgram
from ..fpga.devices import FPGADevice
from ..fpga.throughput import accelerator_throughput_gbps
from ..traffic.packet import MatchEvent, Packet
from .block import ENGINES_PER_BLOCK, StringMatchingBlock


@dataclass
class AcceleratorScanResult:
    """Aggregate result of scanning a packet batch on the full accelerator."""

    events: List[MatchEvent]
    engine_cycles: int
    bytes_processed: int
    packet_groups: int
    blocks_per_group: int

    @property
    def active_engines(self) -> int:
        return self.packet_groups * ENGINES_PER_BLOCK

    @property
    def bytes_per_engine_cycle(self) -> float:
        """Payload bytes consumed per engine cycle, over the engines scanning
        *distinct* packets (blocks within a group scan the same bytes)."""
        if self.engine_cycles == 0:
            return 0.0
        return self.bytes_processed / (self.engine_cycles * self.active_engines)

    def throughput_gbps(self, memory_fmax_mhz: float) -> float:
        """Observed throughput if engine cycles ran at ``fmax / 3``."""
        engine_clock_hz = memory_fmax_mhz * 1e6 / 3.0
        if self.engine_cycles == 0:
            return 0.0
        seconds = self.engine_cycles / engine_clock_hz
        return self.bytes_processed * 8 / seconds / 1e9

    def events_for_packet(self, packet_id: int) -> List[MatchEvent]:
        return [event for event in self.events if event.packet_id == packet_id]


class HardwareAccelerator:
    """Cycle-level model of the multi-block accelerator.

    The model also honours the :class:`repro.backend.CompiledProgram`
    protocol so the IDS and any other consumer can treat it as one more
    backend: per-payload :meth:`match`/:meth:`scan_packets` run the full
    cycle-accurate pipeline (engines, memory ports, match schedulers), while
    the resumable :meth:`scan_from` path delegates to the compiled program —
    the cycle model contributes timing, never its own copy of the matching
    semantics.
    """

    backend_name = "dtp"

    def __init__(self, program: AcceleratorProgram, device: Optional[FPGADevice] = None):
        self.program = program
        self.device = device or program.device
        self.blocks_per_group = program.blocks_per_group
        self.packet_groups = self.device.num_matching_blocks // self.blocks_per_group
        if self.packet_groups < 1:
            raise ValueError(
                f"device {self.device.family} has {self.device.num_matching_blocks} blocks "
                f"but the program needs {self.blocks_per_group} per group"
            )
        # One set of StringMatchingBlocks per packet group, each loaded with
        # the same compiled program (the replication the paper describes).
        self.groups: List[List[StringMatchingBlock]] = [
            [
                StringMatchingBlock(block_program, block_id=group * self.blocks_per_group + index)
                for index, block_program in enumerate(program.blocks)
            ]
            for group in range(self.packet_groups)
        ]

    # ------------------------------------------------------------------
    @property
    def total_blocks_used(self) -> int:
        return self.packet_groups * self.blocks_per_group

    def idle_blocks(self) -> int:
        """Blocks that cannot be used because the group size does not divide evenly."""
        return self.device.num_matching_blocks - self.total_blocks_used

    def nominal_throughput_gbps(self) -> float:
        return accelerator_throughput_gbps(
            self.device.memory_fmax_mhz,
            self.device.num_matching_blocks,
            self.blocks_per_group,
        )

    # ------------------------------------------------------------------
    def scan(self, packets):
        """Scan ``packets``: round-robin across packet groups, merge matches.

        Accepts either a packet batch (returning the cycle-level
        :class:`AcceleratorScanResult`) or, per the
        :class:`repro.backend.CompiledProgram` protocol, one raw payload
        (returning its match list) — a ``bytes`` value is never a packet
        sequence, so the dispatch is unambiguous.
        """
        if isinstance(packets, (bytes, bytearray, memoryview)):
            return self.match(bytes(packets))
        per_group_packets: List[List[Packet]] = [[] for _ in range(self.packet_groups)]
        for index, packet in enumerate(packets):
            per_group_packets[index % self.packet_groups].append(packet)

        events: List[MatchEvent] = []
        max_cycles = 0
        bytes_processed = 0
        for group, group_packets in zip(self.groups, per_group_packets):
            if not group_packets:
                continue
            group_cycles = 0
            for block in group:
                result = block.scan_packets(group_packets)
                events.extend(result.events)
                group_cycles = max(group_cycles, result.engine_cycles)
            bytes_processed += sum(len(packet.payload) for packet in group_packets)
            max_cycles = max(max_cycles, group_cycles)

        # Deduplicate events: blocks inside a group hold disjoint string
        # groups, so duplicates only arise if the same packet was scanned by
        # several groups (never the case here), but be defensive.
        unique = sorted(
            set((e.packet_id, e.end_offset, e.string_number) for e in events)
        )
        merged = [
            MatchEvent(packet_id=p, end_offset=o, string_number=n) for p, o, n in unique
        ]
        return AcceleratorScanResult(
            events=merged,
            engine_cycles=max_cycles,
            bytes_processed=bytes_processed,
            packet_groups=self.packet_groups,
            blocks_per_group=self.blocks_per_group,
        )

    # ------------------------------------------------------------------
    # CompiledProgram protocol surface (cycle-accurate where possible)
    # ------------------------------------------------------------------
    @property
    def patterns(self) -> Tuple[bytes, ...]:
        return self.program.patterns

    def match(self, payload: bytes) -> MatchList:
        """Scan one payload through the cycle model; report (offset, number)."""
        result = self.scan([Packet(payload=payload, packet_id=0)])
        return [(event.end_offset, event.string_number) for event in result.events]

    def scan_packets(self, payloads: Iterable[bytes]) -> List[MatchList]:
        """Scan several payloads through the cycle model, one result list each."""
        packets = [
            Packet(payload=payload, packet_id=index)
            for index, payload in enumerate(payloads)
        ]
        result = self.scan(packets)
        found: List[MatchList] = [[] for _ in packets]
        for event in result.events:
            found[event.packet_id].append((event.end_offset, event.string_number))
        return found

    def initial_scan_states(self, offset: int = 0) -> FlowState:
        return self.program.initial_scan_states(offset=offset)

    def scan_from(self, states, chunk: bytes):
        """Resumable streaming scan.

        Delegated to the compiled program: the per-engine flow checkpointing
        the hardware exposes (:meth:`StringMatchingEngine.resume_flow`) is
        not yet driven by a flow-aware scheduler, and the functional result
        is identical by construction.
        """
        return self.program.scan_from(states, chunk)

    # ------------------------------------------------------------------
    def alerts_by_sid(self, result: AcceleratorScanResult) -> Dict[int, List[MatchEvent]]:
        """Group match events by the rule sid they correspond to."""
        number_to_sid = self.program.string_number_to_sid()
        alerts: Dict[int, List[MatchEvent]] = {}
        for event in result.events:
            sid = number_to_sid[event.string_number]
            alerts.setdefault(sid, []).append(event)
        return alerts
