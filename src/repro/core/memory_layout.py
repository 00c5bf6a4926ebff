"""Packing the compressed state machine into 324-bit memory words (Section IV.A).

States are classified into the 15 state types of :mod:`repro.core.state_types`
and assigned to memory words so that no slot is wasted inside a word (the
paper: "a state machine's states are carefully assigned a state type and
memory word after it has been built to insure no gaps of unused memory").

Each stored state consists of 12 bits of match information followed by its
transition pointers; a pointer is 24 bits — the 8-bit character needed to
follow it, the 12-bit word address of the target and the 4-bit type of the
target (the type encodes both the target's size class and its slot position,
so word address + type fully locate it).

The packer places *default target states* (the states the lookup table's
fixed addresses refer to) first, in a canonical order, so their addresses are
deterministic — this is what lets the hardware omit addresses from the
49-bit lookup-table words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..automata.trie import ROOT
from .dtp_automaton import DTPAutomaton
from .match_memory import MatchMemory
from .state_types import (
    ADDRESS_BITS,
    CHAR_BITS,
    MATCH_INFO_BITS,
    MAX_POINTERS_PER_STATE,
    POINTER_BITS,
    SLOTS_PER_WORD,
    STATE_TYPES,
    WORD_BITS,
    StateType,
    slots_for_pointer_count,
)

#: slots a state takes, by its stored pointer count
_SLOTS_FOR_COUNT = np.array(
    [slots_for_pointer_count(count) for count in range(MAX_POINTERS_PER_STATE + 1)]
)
#: state type id of a ``(slots, start slot)`` placement
_TYPE_ID = np.zeros((SLOTS_PER_WORD + 1, SLOTS_PER_WORD), dtype=np.int8)
for _type in STATE_TYPES:
    _TYPE_ID[_type.slots, _type.start_slot] = _type.type_id
#: slots of a state type, by type id
_TYPE_SLOTS = np.array([0] + [state_type.slots for state_type in STATE_TYPES])


class PackingError(ValueError):
    """Raised when the state machine cannot be packed into the target memory."""


@dataclass
class StateRecord:
    """Everything that must be stored for one state."""

    state_id: int
    pointers: List[Tuple[int, int]]          # (character, target state id)
    match_address: Optional[int] = None      # address in the match memory

    @property
    def num_pointers(self) -> int:
        return len(self.pointers)

    @property
    def slots(self) -> int:
        return slots_for_pointer_count(self.num_pointers)


@dataclass(frozen=True)
class Placement:
    """Where a state lives: memory word plus state type (word position)."""

    word_index: int
    state_type: StateType

    @property
    def address(self) -> int:
        return self.word_index

    @property
    def type_id(self) -> int:
        return self.state_type.type_id


@dataclass(eq=False)
class PackedStateMachine:
    """The packed image of one string matching block's state machine.

    The placements are arrays over state ids; :attr:`records` and
    :attr:`placements` are per-state views of them (and of the automaton's
    stored pointers and the match memory), built on first use.
    """

    #: per state: the memory word it lives in and its state type id
    word_index: np.ndarray
    type_id: np.ndarray
    num_words: int
    #: the automaton the words hold (its stored pointers and defaults)
    dtp: DTPAutomaton = field(repr=False)
    match_memory: Optional[MatchMemory] = field(default=None, repr=False)
    capacity_words: Optional[int] = None

    @cached_property
    def records(self) -> Dict[int, StateRecord]:
        bounds = self.dtp.pointer_index.tolist()
        pairs = list(zip(*(column.tolist() for column in self.dtp.pointers[1:])))
        address = self.match_memory.address_of if self.match_memory else lambda state: None
        return {
            state: StateRecord(state, pairs[bounds[state]:bounds[state + 1]], address(state))
            for state in range(len(self.word_index))
        }

    @cached_property
    def placements(self) -> Dict[int, Placement]:
        return {
            state: Placement(word, STATE_TYPES[type_id - 1])
            for state, (word, type_id) in enumerate(
                zip(self.word_index.tolist(), self.type_id.tolist())
            )
        }

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def placement_of(self, state_id: int) -> Placement:
        return self.placements[state_id]

    def address_of(self, state_id: int) -> Tuple[int, int]:
        """(word address, type id) — what a transition pointer stores."""
        placement = self.placements[state_id]
        return placement.word_index, placement.type_id

    def states_in_word(self, word_index: int) -> List[int]:
        return np.flatnonzero(self.word_index == word_index).tolist()

    # ------------------------------------------------------------------
    # utilisation / accounting
    # ------------------------------------------------------------------
    def used_slots(self) -> int:
        return int(_TYPE_SLOTS.take(self.type_id).sum())

    def slot_utilisation(self) -> float:
        total = self.num_words * SLOTS_PER_WORD
        return self.used_slots() / total if total else 0.0

    def memory_bits(self) -> int:
        """Bits of state-machine memory actually used (words x 324)."""
        return self.num_words * WORD_BITS

    def memory_bytes(self) -> int:
        return (self.memory_bits() + 7) // 8

    def fits(self, capacity_words: int) -> bool:
        return self.num_words <= capacity_words

    def type_histogram(self) -> Dict[int, int]:
        histogram = np.bincount(self.type_id)
        return {type_id: int(states) for type_id, states in enumerate(histogram) if states}

    # ------------------------------------------------------------------
    # bit-level encoding
    # ------------------------------------------------------------------
    def encode_state(self, record: StateRecord, pad_lookup=None) -> int:
        """Encode one state into the low bits of its slot span.

        Unused pointer slots are padded with a *redundant but correct* pointer
        (``pad_lookup(state, char)`` must return the true next state for any
        character) so the hardware comparators can treat every slot as live;
        when no pad lookup is supplied, unused slots repeat the first stored
        pointer or, for pointer-less states, are left zeroed.
        """
        placement = self.placements[record.state_id]
        capacity = placement.state_type.max_pointers
        value = 0
        if record.match_address is not None:
            value |= 1
            value |= (record.match_address & ((1 << (MATCH_INFO_BITS - 1)) - 1)) << 1

        pointers = list(record.pointers)
        while len(pointers) < capacity:
            if pointers:
                pointers.append(pointers[0])
            elif pad_lookup is not None:
                pad_char = 0
                pointers.append((pad_char, pad_lookup(record.state_id, pad_char)))
            else:
                break
        for index, (char, target) in enumerate(pointers[:capacity]):
            word_address, type_id = self.address_of(target)
            if word_address >= (1 << ADDRESS_BITS):
                raise PackingError(
                    f"word address {word_address} does not fit in {ADDRESS_BITS} bits"
                )
            pointer_bits = (
                (char & 0xFF)
                | (word_address << CHAR_BITS)
                | (type_id << (CHAR_BITS + ADDRESS_BITS))
            )
            value |= pointer_bits << (MATCH_INFO_BITS + index * POINTER_BITS)
        return value

    def encode_words(self, pad_lookup=None) -> List[int]:
        """Produce the 324-bit word images for the whole state machine."""
        words = [0] * self.num_words
        for state_id, record in self.records.items():
            placement = self.placements[state_id]
            encoded = self.encode_state(record, pad_lookup=pad_lookup)
            words[placement.word_index] |= encoded << placement.state_type.bit_offset
        for image in words:
            if image >= (1 << WORD_BITS):
                raise PackingError("encoded word exceeds 324 bits")
        return words

    def decode_state(self, words: Sequence[int], state_id: int) -> Dict[str, object]:
        """Decode a state from word images (used by tests and the HW model)."""
        placement = self.placements[state_id]
        raw = (words[placement.word_index] >> placement.state_type.bit_offset) & (
            (1 << placement.state_type.width_bits) - 1
        )
        has_match = bool(raw & 1)
        match_address = (raw >> 1) & ((1 << (MATCH_INFO_BITS - 1)) - 1)
        pointers: List[Tuple[int, int, int]] = []
        capacity = placement.state_type.max_pointers
        for index in range(capacity):
            chunk = (raw >> (MATCH_INFO_BITS + index * POINTER_BITS)) & (
                (1 << POINTER_BITS) - 1
            )
            char = chunk & 0xFF
            address = (chunk >> CHAR_BITS) & ((1 << ADDRESS_BITS) - 1)
            type_id = chunk >> (CHAR_BITS + ADDRESS_BITS)
            if chunk != 0 or (index == 0 and capacity > 0):
                pointers.append((char, address, type_id))
        return {
            "has_match": has_match,
            "match_address": match_address if has_match else None,
            "pointers": pointers,
        }


# ----------------------------------------------------------------------
# packing algorithm
# ----------------------------------------------------------------------
def _words_needed(classes: np.ndarray) -> Tuple[int, int, int]:
    """``(words, fives with a three, single slots left over)`` of one group
    with ``classes[k]`` states of ``k`` slots."""
    nines, sevens, fives, threes, singles = (int(classes[k]) for k in (9, 7, 5, 3, 1))
    paired = min(fives, threes)
    lone = threes - paired
    spare = 2 * sevens + paired + 4 * (fives - paired) + (0, 6, 3)[lone % 3]
    fresh = -(-max(0, singles - spare) // SLOTS_PER_WORD)
    return nines + sevens + fives + -(-lone // 3) + fresh, paired, spare


def place_states(slots: np.ndarray, first_word: int = 0) -> Tuple[np.ndarray, np.ndarray, int]:
    """Greedy, deterministic, gap-free placement of one group of states.

    ``slots`` is each state's size class (1, 3, 5, 7 or 9) in group order;
    returns each state's word and start slot, and the words used.  Words are
    not shared across groups.  In group order, every 9-slot state takes a
    word; every 7-slot one a word whose slots 7-8 go to single-slot states;
    every 5-slot one a word that also takes the next 3-slot state at slot 6
    and a single at slot 5 while 3-slot states last, else singles at slots
    5-8; the remaining 3-slot states go three to a word, singles filling the
    last word's free thirds; the remaining singles nine to a word.
    """
    classes = np.bincount(slots, minlength=SLOTS_PER_WORD + 1)
    words, paired, spare = _words_needed(classes)
    word = np.empty(len(slots), dtype=np.int64)
    start = np.zeros(len(slots), dtype=np.int64)
    nines, sevens, fives, threes, singles = (
        np.flatnonzero(slots == size) for size in (9, 7, 5, 3, 1)
    )
    next_word = first_word
    own = []  # the words of the 9-, 7- and 5-slot states: one each
    for members in (nines, sevens, fives):
        own.append(next_word + np.arange(len(members)))
        word[members] = own[-1]
        next_word += len(members)
    _, seven_words, five_words = own
    word[threes[:paired]] = five_words[:paired]
    start[threes[:paired]] = 6
    lone = np.arange(len(threes) - paired)
    word[threes[paired:]] = next_word + lone // 3
    start[threes[paired:]] = 3 * (lone % 3)
    next_word += -(-len(lone) // 3)
    # the single slots left free, in the order they are handed out
    tail = (range(0), range(3, 9), range(6, 9))[len(lone) % 3]
    fresh = np.arange(max(0, len(singles) - spare))
    free_word = np.concatenate([
        np.repeat(seven_words, 2),
        five_words[:paired],
        np.repeat(five_words[paired:], 4),
        np.full(len(tail), next_word - 1),
        next_word + fresh // SLOTS_PER_WORD,
    ])
    free_slot = np.concatenate([
        np.tile([7, 8], len(seven_words)),
        np.full(paired, 5),
        np.tile([5, 6, 7, 8], len(five_words) - paired),
        np.array(tail),
        fresh % SLOTS_PER_WORD,
    ])
    word[singles] = free_word[:len(singles)]
    start[singles] = free_slot[:len(singles)]
    return word, start, words


def default_target_order(dtp: DTPAutomaton) -> List[int]:
    """Canonical ordering of default-target states for fixed addressing.

    Depth-1 targets in character order, then depth-2 targets in (character,
    slot) order, then depth-3 targets in character order, then the root.
    A state appearing in several roles keeps its first position.
    """
    order: List[int] = []
    seen = set()

    def push(state: Optional[int]) -> None:
        if state is None or state in seen or state == ROOT:
            return
        seen.add(state)
        order.append(state)

    defaults = dtp.defaults
    for byte in range(len(defaults.d1)):
        state = int(defaults.d1[byte])
        if state != ROOT:
            push(state)
    for byte in sorted(defaults.d2):
        for entry in defaults.d2[byte]:
            push(entry.state)
    for byte in sorted(defaults.d3):
        push(defaults.d3[byte].state)
    return [ROOT] + order


def pack_state_machine(
    dtp: DTPAutomaton,
    match_memory: Optional[MatchMemory] = None,
    capacity_words: Optional[int] = None,
) -> PackedStateMachine:
    """Pack the whole automaton; raises :class:`PackingError` when it cannot fit.

    The root and every default-target state are packed first (fixed-address
    region); the remaining states follow in state-id order.  Whether the
    block fits is known from the two groups' size-class counts, before any
    state is placed.
    """
    counts = dtp.pointer_counts()
    if counts.max() > MAX_POINTERS_PER_STATE:
        state = int(np.argmax(counts > MAX_POINTERS_PER_STATE))
        raise PackingError(
            f"state {state} stores {counts[state]} pointers; "
            "the hardware handles at most 13 (Section IV.A)"
        )
    slots = _SLOTS_FOR_COUNT.take(counts)
    priority = np.array(default_target_order(dtp))
    rest = np.ones(len(slots), dtype=bool)
    rest[priority] = False
    groups = [priority, np.flatnonzero(rest)]

    num_words = sum(
        _words_needed(np.bincount(slots.take(group), minlength=SLOTS_PER_WORD + 1))[0]
        for group in groups
    )
    if capacity_words is not None and num_words > capacity_words:
        raise PackingError(
            f"state machine needs {num_words} words but the block memory "
            f"holds only {capacity_words}"
        )
    if num_words > (1 << ADDRESS_BITS):
        raise PackingError(
            f"state machine needs {num_words} words; addresses are "
            f"{ADDRESS_BITS} bits (max {1 << ADDRESS_BITS})"
        )

    word_index = np.empty(len(slots), dtype=np.int64)
    start_slot = np.empty(len(slots), dtype=np.int64)
    first_word = 0
    for group in groups:
        group_slots = slots.take(group)
        word_index[group], start_slot[group], words = place_states(group_slots, first_word)
        first_word += words
    return PackedStateMachine(
        word_index=word_index,
        type_id=_TYPE_ID[slots, start_slot],
        num_words=num_words,
        dtp=dtp,
        match_memory=match_memory,
        capacity_words=capacity_words,
    )
