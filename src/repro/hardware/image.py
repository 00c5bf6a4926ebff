"""Hardware memory images: what actually gets loaded into a string matching block.

The compiler (:mod:`repro.core.accelerator_config`) produces logical
structures (packed state machine, lookup table, match memory).  This module
lowers them to the address-level view the hardware works with:

* states are identified by their *(word address, state type)* pair — exactly
  the 12+4 bits a transition pointer stores;
* the lookup table maps a character to its depth-1/2/3 default information,
  where each default refers to a fixed state address;
* the match memory maps an 11-bit address to two string numbers plus the
  stop bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..automata.trie import ROOT
from ..core.accelerator_config import BlockProgram

StateAddress = Tuple[int, int]  # (word address, state type id)


@dataclass
class StateEntry:
    """Decoded contents of one state as the engine sees it."""

    pointers: Dict[int, StateAddress] = field(default_factory=dict)
    match_address: Optional[int] = None


@dataclass
class LookupEntry:
    """Default-transition information returned by the lookup table for one character."""

    d1_address: Optional[StateAddress]                 # None -> start state
    d2: List[Tuple[int, StateAddress]] = field(default_factory=list)
    d3: Optional[Tuple[int, int, StateAddress]] = None  # (prev2, prev1, address)


@dataclass
class BlockImage:
    """Everything one string matching block needs at run time."""

    root_address: StateAddress
    states: Dict[StateAddress, StateEntry]
    lookup: Dict[int, LookupEntry]
    match_words: Dict[int, Tuple[int, int, bool]]
    string_numbers: Dict[int, int]
    state_machine_words: int

    def state_count(self) -> int:
        return len(self.states)

    def resolve_transition(
        self,
        entry: StateEntry,
        lookup_entry: LookupEntry,
        byte: int,
        prev1: Optional[int],
        prev2: Optional[int],
    ) -> StateAddress:
        """The comparator blocks of Figure 5: explicit pointer, else default.

        This is the single address-level implementation of the DTP matching
        semantics; the cycle-level engine delegates here so its model adds
        *timing* (register stages, memory-port accounting) but never its own
        copy of the match logic.
        """
        pointer = entry.pointers.get(byte)
        if pointer is not None:
            return pointer
        d3 = lookup_entry.d3
        if d3 is not None and prev2 == d3[0] and prev1 == d3[1]:
            return d3[2]
        for preceding, address in lookup_entry.d2:
            if prev1 == preceding:
                return address
        if lookup_entry.d1_address is not None:
            return lookup_entry.d1_address
        return self.root_address


def build_block_image(program: BlockProgram) -> BlockImage:
    """Lower a compiled :class:`BlockProgram` to its hardware image; the
    state entries are decoded from the block memory's 324-bit words."""
    packed = program.packed
    dtp = program.dtp

    address_of: Dict[int, StateAddress] = {
        state_id: packed.address_of(state_id) for state_id in packed.placements
    }

    words = packed.encode_words()
    states: Dict[StateAddress, StateEntry] = {}
    for state_id, address in address_of.items():
        decoded = packed.decode_state(words, state_id)
        states[address] = StateEntry(
            {char: (word, type_id) for char, word, type_id in decoded["pointers"]},
            decoded["match_address"],
        )

    lookup: Dict[int, LookupEntry] = {}
    defaults = dtp.defaults
    for byte in range(len(defaults.d1)):
        depth1 = int(defaults.d1[byte])
        entry = LookupEntry(
            d1_address=address_of[depth1] if depth1 != ROOT else None
        )
        for d2 in defaults.d2.get(byte, []):
            entry.d2.append((d2.preceding_byte, address_of[d2.state]))
        d3 = defaults.d3.get(byte)
        if d3 is not None:
            entry.d3 = (d3.preceding_bytes[0], d3.preceding_bytes[1], address_of[d3.state])
        lookup[byte] = entry

    match_words = {
        address: word for address, word in enumerate(program.match_memory.words)
    }

    return BlockImage(
        root_address=address_of[ROOT],
        states=states,
        lookup=lookup,
        match_words=match_words,
        string_numbers=dict(program.string_numbers),
        state_machine_words=packed.num_words,
    )
