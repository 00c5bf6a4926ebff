"""Analytical FPGA resource estimation (reproduces Table I).

Block RAM usage is computed by tiling each logical memory (state machine,
matching-string-number memory, lookup table — all true dual-port) onto M9K
blocks using the best available aspect ratio, exactly the optimisation a
synthesis tool performs.  Logic usage uses the per-engine / per-block
coefficients calibrated in :mod:`repro.fpga.devices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.lookup_table import LOOKUP_TABLE_WORDS, LOOKUP_WORD_BITS
from ..core.match_memory import MATCH_MEMORY_WORDS, MATCH_WORD_BITS
from ..core.state_types import WORD_BITS
from .devices import BlockRAMGeometry, FPGADevice


@dataclass(frozen=True)
class MemorySpec:
    """A logical memory to be mapped onto block RAM."""

    name: str
    width_bits: int
    depth_words: int
    true_dual_port: bool = True


def block_rams_for_memory(spec: MemorySpec, geometry: BlockRAMGeometry) -> int:
    """Minimum number of block RAMs needed to implement ``spec``.

    For every legal (depth, width) configuration the tile count is
    ``ceil(width / tile_width) * ceil(depth / tile_depth)``; the synthesis
    tool picks the cheapest.
    """
    if spec.width_bits <= 0 or spec.depth_words <= 0:
        raise ValueError("memory must have positive width and depth")
    configs = (
        geometry.true_dual_port_configs
        if spec.true_dual_port
        else geometry.simple_dual_port_configs
    )
    best: Optional[int] = None
    for depth, width in configs:
        tiles = math.ceil(spec.width_bits / width) * math.ceil(spec.depth_words / depth)
        if best is None or tiles < best:
            best = tiles
    assert best is not None
    return best


def block_memories(device: FPGADevice, state_machine_words: Optional[int] = None) -> List[MemorySpec]:
    """The three true dual-port memories inside one string matching block."""
    words = device.state_machine_words if state_machine_words is None else state_machine_words
    return [
        MemorySpec("state_machine", WORD_BITS, words),
        MemorySpec("match_numbers", MATCH_WORD_BITS, MATCH_MEMORY_WORDS),
        MemorySpec("lookup_table", LOOKUP_WORD_BITS, LOOKUP_TABLE_WORDS),
    ]


@dataclass
class ResourceEstimate:
    """Resource utilisation of a full accelerator on one device."""

    device: FPGADevice
    num_blocks: int
    logic_cells: int
    m9k_blocks: int
    memory_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def logic_utilisation(self) -> float:
        return self.logic_cells / self.device.logic_elements

    @property
    def m9k_utilisation(self) -> float:
        return self.m9k_blocks / self.device.m9k_blocks

    def fits(self) -> bool:
        return (
            self.logic_cells <= self.device.logic_elements
            and self.m9k_blocks <= self.device.m9k_blocks
        )

    def as_table_row(self) -> Dict[str, object]:
        """Row matching the columns of Table I."""
        return {
            "device": self.device.family,
            "logic": f"{self.logic_cells:,}/{self.device.logic_elements:,}",
            "m9k": f"{self.m9k_blocks}/{self.device.m9k_blocks}",
            "fmax_mhz": self.device.memory_fmax_mhz,
        }


def estimate_resources(
    device: FPGADevice,
    num_blocks: Optional[int] = None,
    state_machine_words: Optional[int] = None,
) -> ResourceEstimate:
    """Estimate logic and block-RAM usage for ``num_blocks`` matching blocks."""
    blocks = device.num_matching_blocks if num_blocks is None else num_blocks
    if blocks <= 0:
        raise ValueError(f"num_blocks must be positive, got {blocks}")

    breakdown: Dict[str, int] = {}
    per_block_m9k = 0
    for spec in block_memories(device, state_machine_words):
        tiles = block_rams_for_memory(spec, device.block_ram)
        breakdown[spec.name] = tiles
        per_block_m9k += tiles
    per_block_m9k += device.m9k_overhead_per_block
    breakdown["buffers"] = device.m9k_overhead_per_block

    return ResourceEstimate(
        device=device,
        num_blocks=blocks,
        logic_cells=device.logic_estimate(blocks),
        m9k_blocks=per_block_m9k * blocks,
        memory_breakdown=breakdown,
    )


def max_blocks_that_fit(device: FPGADevice, state_machine_words: Optional[int] = None) -> int:
    """Largest number of matching blocks the device can host (memory + logic)."""
    blocks = 0
    while True:
        estimate = estimate_resources(device, blocks + 1, state_machine_words)
        if not estimate.fits():
            return blocks
        blocks += 1
        if blocks > 64:  # safety net; no realistic device hosts more
            return blocks
