"""The paper's core contribution: DTP compression, memory layout, compiler."""

from .accelerator_config import (
    AcceleratorProgram,
    BlockProgram,
    CompilationError,
    compile_ruleset,
)
from .compiled import CompiledDenseProgram
from .default_transitions import (
    DefaultTransitionTable,
    DepthThreeDefault,
    DepthTwoDefault,
    build_default_transition_table,
)
from .dtp_automaton import (
    HARDWARE_MAX_POINTERS,
    DTPAutomaton,
    ScanState,
    StagedPointerCounts,
    staged_pointer_counts,
)
from .lookup_table import (
    LOOKUP_TABLE_WORDS,
    LOOKUP_WORD_BITS,
    EncodedLookupTable,
    encode_lookup_table,
)
from .match_memory import (
    MATCH_MEMORY_WORDS,
    MATCH_WORD_BITS,
    MatchMemory,
    MatchMemoryError,
)
from .memory_layout import (
    PackedStateMachine,
    PackingError,
    Placement,
    StateRecord,
    default_target_order,
    pack_state_machine,
)
from .partition import PartitionPlan, partition_ruleset
from .state_types import (
    MATCH_INFO_BITS,
    MAX_POINTERS_PER_STATE,
    POINTER_BITS,
    SLOTS_PER_WORD,
    STATE_TYPES,
    WORD_BITS,
    StateType,
    allowed_start_slots,
    pointer_capacity,
    slots_for_pointer_count,
    state_type,
    type_for_placement,
)

__all__ = [
    "AcceleratorProgram",
    "BlockProgram",
    "CompilationError",
    "compile_ruleset",
    "CompiledDenseProgram",
    "DefaultTransitionTable",
    "DepthThreeDefault",
    "DepthTwoDefault",
    "build_default_transition_table",
    "HARDWARE_MAX_POINTERS",
    "DTPAutomaton",
    "ScanState",
    "StagedPointerCounts",
    "staged_pointer_counts",
    "LOOKUP_TABLE_WORDS",
    "LOOKUP_WORD_BITS",
    "EncodedLookupTable",
    "encode_lookup_table",
    "MATCH_MEMORY_WORDS",
    "MATCH_WORD_BITS",
    "MatchMemory",
    "MatchMemoryError",
    "PackedStateMachine",
    "PackingError",
    "Placement",
    "StateRecord",
    "default_target_order",
    "pack_state_machine",
    "PartitionPlan",
    "partition_ruleset",
    "MATCH_INFO_BITS",
    "MAX_POINTERS_PER_STATE",
    "POINTER_BITS",
    "SLOTS_PER_WORD",
    "STATE_TYPES",
    "WORD_BITS",
    "StateType",
    "allowed_start_slots",
    "pointer_capacity",
    "slots_for_pointer_count",
    "state_type",
    "type_for_placement",
]
