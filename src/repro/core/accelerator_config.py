"""End-to-end compiler: ruleset -> per-block memory images -> accelerator program.

This is the software pipeline a user of the accelerator would run at rule
update time:

1. split the ruleset into as few groups as fit a block's state machine memory
   (Section IV.B / V.C);
2. for every group, build the Aho-Corasick DFA, select default transition
   pointers, prune the per-state pointers (:mod:`repro.core.dtp_automaton`);
3. lay out the match-number memory, pack states into 324-bit words and encode
   the lookup table;
4. report the Table II statistics (states, average pointers, memory bytes,
   throughput) for the resulting configuration.

The result is the hardware view of a ruleset: what Tables II/III, the block
image and the cycle model (:class:`repro.hardware.HardwareAccelerator`)
consume.  A block holds a :class:`PrunedAutomaton` — stored pointers and
lookup table, no lane-kernel views — because nothing in software scans a
block.  Software scans one unpartitioned automaton (the registry's ``dtp``
entry, :meth:`DTPAutomaton.from_patterns`); in hardware the blocks run side
by side, so the partition costs no rate there, but stepped one after another
in software a byte would cost one step per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..fpga.devices import FPGADevice
from ..fpga.throughput import accelerator_throughput_gbps
from ..rulesets.ruleset import RuleSet
from .dtp_automaton import HARDWARE_MAX_POINTERS, PrunedAutomaton, StagedPointerCounts
from .lookup_table import EncodedLookupTable, encode_lookup_table
from .match_memory import MATCH_MEMORY_WORDS, MatchMemory
from .memory_layout import PackedStateMachine, PackingError, pack_state_machine
from .partition import PartitionPlan, partition_ruleset
from .state_types import SLOTS_PER_WORD


class CompilationError(ValueError):
    """Raised when a ruleset cannot be compiled onto the target device."""


@dataclass
class BlockProgram:
    """Everything loaded into one string matching block."""

    index: int
    ruleset: RuleSet
    dtp: PrunedAutomaton
    packed: PackedStateMachine
    lookup: EncodedLookupTable
    match_memory: MatchMemory
    #: local pattern id -> global string number reported to the host
    string_numbers: Dict[int, int]

    @property
    def num_states(self) -> int:
        return self.dtp.num_states

    @property
    def stored_pointers(self) -> int:
        return self.dtp.stored_pointer_count()

    @property
    def words_used(self) -> int:
        return self.packed.num_words

    def memory_bits(self) -> int:
        """State machine (used words) + match memory + lookup table."""
        return (
            self.packed.memory_bits()
            + self.match_memory.memory_bits()
            + self.lookup.memory_bits()
        )

    def memory_bytes(self) -> int:
        return (self.memory_bits() + 7) // 8


@dataclass
class AcceleratorProgram:
    """A compiled accelerator configuration for one device: the blocks of
    one packet group, each holding a disjoint string group and its memory
    images.  Not a scan program (see the module docstring)."""

    device: FPGADevice
    ruleset: RuleSet
    blocks: List[BlockProgram]
    partition: PartitionPlan
    d2_slots: int = 4

    @property
    def blocks_per_group(self) -> int:
        return len(self.blocks)

    @property
    def packet_groups(self) -> int:
        """Independent packet streams the device can scan concurrently."""
        return self.device.num_matching_blocks // self.blocks_per_group

    @property
    def throughput_gbps(self) -> float:
        return accelerator_throughput_gbps(
            self.device.memory_fmax_mhz,
            self.device.num_matching_blocks,
            self.blocks_per_group,
        )

    @property
    def total_states(self) -> int:
        return sum(block.num_states for block in self.blocks)

    @property
    def total_stored_pointers(self) -> int:
        return sum(block.stored_pointers for block in self.blocks)

    @property
    def average_stored_pointers(self) -> float:
        states = self.total_states
        return self.total_stored_pointers / states if states else 0.0

    def total_memory_bytes(self) -> int:
        return sum(block.memory_bytes() for block in self.blocks)

    def staged_counts(self) -> StagedPointerCounts:
        """Aggregate staged pointer counts over all blocks (Table II columns);
        each block rebuilds its DFA for them."""
        totals = StagedPointerCounts(0, 0, 0, 0, 0)
        for block in self.blocks:
            staged = block.dtp.staged_counts()
            totals.num_states += staged.num_states
            totals.original += staged.original
            totals.after_d1 += staged.after_d1
            totals.after_d1_d2 += staged.after_d1_d2
            totals.after_d1_d2_d3 += staged.after_d1_d2_d3
        return totals

    def default_pointer_counts(self) -> Dict[str, int]:
        """Numbers of default pointers summed over blocks (Table II d1/d2/d3 rows)."""
        d1 = sum(block.dtp.defaults.num_d1 for block in self.blocks)
        d2 = sum(block.dtp.defaults.num_d2 for block in self.blocks)
        d3 = sum(block.dtp.defaults.num_d3 for block in self.blocks)
        return {"d1": d1, "d1+d2": d1 + d2, "d1+d2+d3": d1 + d2 + d3}

    @property
    def patterns(self) -> Tuple[bytes, ...]:
        """The compiled patterns; string numbers index this tuple."""
        return tuple(rule.pattern for rule in self.ruleset)

    def string_number_to_sid(self) -> Dict[int, int]:
        """Map global string numbers back to rule sids."""
        return {index: rule.sid for index, rule in enumerate(self.ruleset)}


def _compile_block(
    index: int,
    group: RuleSet,
    global_index: Dict[bytes, int],
    device: FPGADevice,
    d2_slots: int,
    include_d2: bool,
    include_d3: bool,
) -> BlockProgram:
    dtp = PrunedAutomaton.from_patterns(
        group.patterns,
        d2_slots=d2_slots,
        include_d2=include_d2,
        include_d3=include_d3,
        max_stored_pointers=HARDWARE_MAX_POINTERS if include_d2 or include_d3 else None,
    )

    string_numbers = {
        local_id: global_index[rule.pattern] for local_id, rule in enumerate(group)
    }
    matches_by_state = {
        state: [string_numbers[pid] for pid in dtp.outputs[state]]
        for state in dtp.matching_states()
    }
    match_memory = MatchMemory.build(matches_by_state, capacity_words=MATCH_MEMORY_WORDS)
    packed = pack_state_machine(
        dtp, match_memory=match_memory, capacity_words=device.state_machine_words
    )
    lookup = encode_lookup_table(dtp.defaults)
    return BlockProgram(
        index=index,
        ruleset=group,
        dtp=dtp,
        packed=packed,
        lookup=lookup,
        match_memory=match_memory,
        string_numbers=string_numbers,
    )


def _trie_states(patterns: Sequence[bytes]) -> int:
    """States of the patterns' trie, root included, counted without building
    it: in sorted order a pattern adds the prefixes longer than the one it
    shares with its predecessor."""
    states = 1
    previous = b""
    for pattern in sorted(patterns):
        shared = 0
        limit = min(len(pattern), len(previous))
        while shared < limit and pattern[shared] == previous[shared]:
            shared += 1
        states += len(pattern) - shared
        previous = pattern
    return states


def _estimate_groups(ruleset: RuleSet, device: FPGADevice) -> int:
    """Cheap lower-bound estimate of the number of blocks needed."""
    # Most states store 0-1 pointers (one slot); assume a conservative average
    # of 1.5 slots per state for the initial guess, then let packing decide.
    estimated_slots = int(_trie_states(ruleset.patterns) * 1.5)
    capacity_slots = device.state_machine_words * SLOTS_PER_WORD
    return max(1, math.ceil(estimated_slots / capacity_slots))


def compile_ruleset(
    ruleset: RuleSet,
    device: FPGADevice,
    blocks_per_group: Optional[int] = None,
    d2_slots: int = 4,
    include_d2: bool = True,
    include_d3: bool = True,
    partition_strategy: Optional[str] = None,
) -> AcceleratorProgram:
    """Compile ``ruleset`` for ``device``.

    When ``blocks_per_group`` is omitted the compiler finds the smallest
    number of blocks whose memories hold the ruleset, starting from a
    state-count estimate and growing on :class:`PackingError` — mirroring the
    paper's "split the strings into groups until each group fits" procedure.

    When ``partition_strategy`` is omitted the compiler first tries the
    state-sharing ``"prefix"`` split and falls back to the ``"balanced"``
    split (which scatters shared prefixes and therefore lowers per-block
    branching) before adding another block — see
    :mod:`repro.core.partition`.
    """
    if len(ruleset) == 0:
        raise CompilationError("cannot compile an empty ruleset")
    global_index = {rule.pattern: index for index, rule in enumerate(ruleset)}

    candidates: Sequence[int]
    if blocks_per_group is not None:
        if blocks_per_group <= 0:
            raise CompilationError(f"blocks_per_group must be positive, got {blocks_per_group}")
        if blocks_per_group > device.num_matching_blocks:
            raise CompilationError(
                f"requested {blocks_per_group} blocks per group but {device.family} "
                f"hosts only {device.num_matching_blocks} blocks"
            )
        candidates = [blocks_per_group]
    else:
        start = min(_estimate_groups(ruleset, device), device.num_matching_blocks)
        candidates = range(start, device.num_matching_blocks + 1)

    strategies = (
        [partition_strategy] if partition_strategy is not None else ["prefix", "balanced"]
    )
    last_error: Optional[Exception] = None
    for groups in candidates:
        if groups > len(ruleset):
            break
        for strategy in strategies:
            try:
                plan = partition_ruleset(ruleset, groups, strategy=strategy)
                blocks = [
                    _compile_block(
                        index, group, global_index, device, d2_slots, include_d2, include_d3
                    )
                    for index, group in enumerate(plan.groups)
                ]
            except (PackingError, ValueError) as error:
                last_error = error
                continue
            return AcceleratorProgram(
                device=device,
                ruleset=ruleset,
                blocks=blocks,
                partition=plan,
                d2_slots=d2_slots,
            )

    raise CompilationError(
        f"ruleset {ruleset.name!r} ({len(ruleset)} rules, "
        f"{ruleset.total_characters} characters) does not fit on {device.family} "
        f"with {device.num_matching_blocks} blocks: {last_error}"
    )
