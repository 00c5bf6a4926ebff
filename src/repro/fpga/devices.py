"""FPGA device models for the two targets of the paper (Table I).

The paper implements the accelerator in VHDL on an Altera Cyclone III
EP3C120F484C7 (4 string matching blocks) and a Stratix III EP3SE260H780C2
(6 blocks).  We cannot run Quartus II, so the devices are captured as
parametric models: block-RAM geometry, the memory fmax measured by the paper,
and logic-cost coefficients calibrated against the Table I utilisation
figures.  The calibration constants are data, not derivations — they make the
resource/power models reproduce the paper's operating points so the
*trends* (scaling with block count, ruleset size and clock frequency) can be
explored; see DESIGN.md section 2 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class BlockRAMGeometry:
    """Geometry of one embedded memory block (Altera M9K)."""

    name: str
    bits: int
    #: (depth, width) configurations available in true dual-port mode.
    true_dual_port_configs: Tuple[Tuple[int, int], ...]
    #: (depth, width) configurations available in simple dual-port mode.
    simple_dual_port_configs: Tuple[Tuple[int, int], ...]


#: Altera M9K block: 9,216 bits.  True dual-port mode tops out at x18 data
#: width; simple dual-port allows x36.
M9K = BlockRAMGeometry(
    name="M9K",
    bits=9216,
    true_dual_port_configs=((8192, 1), (4096, 2), (2048, 4), (1024, 9), (512, 18)),
    simple_dual_port_configs=(
        (8192, 1),
        (4096, 2),
        (2048, 4),
        (1024, 9),
        (512, 18),
        (256, 36),
    ),
)


@dataclass(frozen=True)
class FPGADevice:
    """One FPGA target plus the paper's measured/configured operating point."""

    name: str
    family: str
    process_nm: int
    core_voltage: float
    logic_elements: int
    m9k_blocks: int
    m144k_blocks: int
    block_ram: BlockRAMGeometry
    #: memory clock achieved by the paper's implementation (Table I)
    memory_fmax_mhz: float
    #: string matching blocks instantiated by the paper on this device
    num_matching_blocks: int
    #: 324-bit words available per block for the state machine
    state_machine_words: int
    #: calibrated logic cost coefficients (logic cells per ...)
    logic_per_engine: int
    logic_per_block: int
    logic_top_level: int
    #: additional block RAMs per matching block for packet/match buffering
    m9k_overhead_per_block: int
    #: power model calibration (see repro.fpga.power)
    static_power_watts: float
    dynamic_watts_per_mhz_per_block: float

    @property
    def engines_per_block(self) -> int:
        """Six engines per block, three per memory port (Section IV.B)."""
        return 6

    @property
    def engine_fmax_mhz(self) -> float:
        """Engines run at one third of the memory clock."""
        return self.memory_fmax_mhz / 3.0

    def logic_estimate(self, num_blocks: int | None = None) -> int:
        """Logic-cell estimate for ``num_blocks`` matching blocks."""
        blocks = self.num_matching_blocks if num_blocks is None else num_blocks
        per_block = self.engines_per_block * self.logic_per_engine + self.logic_per_block
        return blocks * per_block + self.logic_top_level

    def describe(self) -> Dict[str, object]:
        return {
            "device": self.name,
            "family": self.family,
            "process_nm": self.process_nm,
            "core_voltage": self.core_voltage,
            "logic_elements": self.logic_elements,
            "m9k_blocks": self.m9k_blocks,
            "memory_fmax_mhz": self.memory_fmax_mhz,
            "matching_blocks": self.num_matching_blocks,
            "state_machine_words_per_block": self.state_machine_words,
        }


#: Cyclone III EP3C120F484C7 — the low-power target (4 blocks, OC-192 class).
#: Logic/power coefficients calibrated to Table I (35,511 LEs, 404 M9Ks,
#: 233.15 MHz) and Figure 7 (2.78 W peak).
CYCLONE_III = FPGADevice(
    name="EP3C120F484C7",
    family="Cyclone III",
    process_nm=65,
    core_voltage=1.2,
    logic_elements=119_088,
    m9k_blocks=432,
    m144k_blocks=0,
    block_ram=M9K,
    memory_fmax_mhz=233.15,
    num_matching_blocks=4,
    state_machine_words=2560,
    logic_per_engine=1235,
    logic_per_block=1360,
    logic_top_level=691,
    m9k_overhead_per_block=2,
    static_power_watts=0.35,
    dynamic_watts_per_mhz_per_block=0.0026,
)

#: Stratix III EP3SE260H780C2 — the high-throughput target (6 blocks, OC-768
#: class).  Calibrated to Table I (69,585 ALUTs, 822 M9Ks, 460.19 MHz) and
#: Figure 8 (13.28 W peak).
STRATIX_III = FPGADevice(
    name="EP3SE260H780C2",
    family="Stratix III",
    process_nm=65,
    core_voltage=1.1,
    logic_elements=254_400,
    m9k_blocks=864,
    m144k_blocks=48,
    block_ram=M9K,
    memory_fmax_mhz=460.19,
    num_matching_blocks=6,
    state_machine_words=3584,
    logic_per_engine=1707,
    logic_per_block=1253,
    logic_top_level=825,
    m9k_overhead_per_block=2,
    static_power_watts=1.40,
    dynamic_watts_per_mhz_per_block=0.0043,
)

#: Devices by short name, used by the CLI and benchmark harness.
DEVICES: Dict[str, FPGADevice] = {
    "cyclone3": CYCLONE_III,
    "stratix3": STRATIX_III,
}


def get_device(name: str) -> FPGADevice:
    """Look up a device by short name (``cyclone3`` / ``stratix3``)."""
    key = name.lower().replace(" ", "").replace("-", "")
    if key in DEVICES:
        return DEVICES[key]
    for device in DEVICES.values():
        if device.name.lower() == key:
            return device
    raise KeyError(f"unknown device {name!r}; known: {sorted(DEVICES)}")
