"""Tests for 324-bit word packing and the bit-level state encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import AhoCorasickDFA
from repro.core import DTPAutomaton, MatchMemory, PackingError, pack_state_machine
from repro.core.memory_layout import default_target_order, place_states
from repro.core.state_types import WORD_BITS, slots_for_pointer_count, type_for_placement


def _pack_sizes(pointer_counts):
    """Place synthetic states with the given pointer counts as one group:
    ``(word, start slot, slots)`` per state and the words used."""
    slots = np.array([slots_for_pointer_count(count) for count in pointer_counts])
    word, start, words = place_states(slots)
    return list(zip(word.tolist(), start.tolist(), slots.tolist())), words


class TestPacker:
    def test_no_slot_overlap(self):
        placed, _ = _pack_sizes([0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 0, 0, 3, 3, 1, 1])
        used = {}
        for state, (word, start, slots) in enumerate(placed):
            for slot in type_for_placement(slots, start).slot_range():
                key = (word, slot)
                assert key not in used, f"slot collision at {key}"
                used[key] = state

    def test_every_state_placed(self):
        counts = [0] * 20 + [3] * 7 + [6] * 3 + [9] * 2 + [12]
        placed, words = _pack_sizes(counts)
        assert len(placed) == len(counts)
        assert {word for word, _, _ in placed} == set(range(words))

    def test_gap_free_for_mixed_sizes(self):
        # 1 five-slot + 1 three-slot + 1 one-slot fill a word exactly
        _, words = _pack_sizes([6, 3, 1])
        assert words == 1

    def test_full_word_state(self):
        _, words = _pack_sizes([13])
        assert words == 1

    def test_singles_fill_leftovers(self):
        # a 7-slot state leaves two single slots
        _, words = _pack_sizes([9, 0, 0])
        assert words == 1


class TestPackStateMachine:
    def test_pack_small_automaton(self, example_dtp):
        packed = pack_state_machine(example_dtp)
        assert packed.num_words >= 1
        assert len(packed.placements) == example_dtp.num_states
        assert packed.slot_utilisation() <= 1.0
        assert packed.memory_bits() == packed.num_words * WORD_BITS

    def test_high_utilisation_on_ruleset(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        packed = pack_state_machine(dtp)
        # "no gaps of unused memory": only the per-phase trailing words may be
        # partially filled.
        assert packed.slot_utilisation() > 0.97

    def test_capacity_enforced(self, example_dtp):
        with pytest.raises(PackingError):
            pack_state_machine(example_dtp, capacity_words=1)

    def test_default_targets_packed_first(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        packed = pack_state_machine(dtp)
        priority = default_target_order(dtp)
        # every default target lives in the reserved low-address region
        max_priority_word = max(packed.placements[s].word_index for s in priority)
        non_priority = [s for s in packed.placements if s not in set(priority)]
        if non_priority:
            min_other_word = min(packed.placements[s].word_index for s in non_priority)
            assert max_priority_word <= min_other_word

    def test_pointer_limit_raises(self):
        # without deeper defaults "a" keeps a pointer to each of its 14 children
        over = DTPAutomaton.from_patterns(
            [b"a" + bytes([byte]) for byte in range(14)], include_d2=False, include_d3=False
        )
        assert over.max_pointers_per_state() == 14
        with pytest.raises(PackingError, match="stores 14 pointers"):
            pack_state_machine(over)

    def test_type_histogram_counts_all_states(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        packed = pack_state_machine(dtp)
        assert sum(packed.type_histogram().values()) == dtp.num_states


class TestEncoding:
    def test_encode_decode_roundtrip(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        matches = {s: [pid for pid in dtp.outputs[s]] for s in dtp.matching_states()}
        match_memory = MatchMemory.build(matches)
        packed = pack_state_machine(dtp, match_memory=match_memory)
        table = AhoCorasickDFA.from_patterns(dtp.patterns).table
        padded = packed.encode_words(pad_lookup=lambda state, char: int(table[state, char]))
        reverse = {packed.address_of(s): s for s in packed.placements}
        # unpadded, as the prover and the block image encode them: a
        # pointer-less state's slots stay zero and decode to no pointer
        for words in (padded, packed.encode_words()):
            assert len(words) == packed.num_words
            assert all(word < (1 << WORD_BITS) for word in words)

            for state_id in list(packed.records)[:200]:
                record = packed.records[state_id]
                decoded = packed.decode_state(words, state_id)
                assert decoded["has_match"] == (record.match_address is not None)
                if record.match_address is not None:
                    assert decoded["match_address"] == record.match_address
                # every stored pointer must appear in the decoded pointer list
                decoded_pairs = set(decoded["pointers"])
                for char, target in record.pointers:
                    address, type_id = packed.address_of(target)
                    assert (char, address, type_id) in decoded_pairs
                # every decoded pointer must be *correct* (padding is
                # redundant but never wrong): following char c from this
                # state reaches the state stored at that address
                for char, address, type_id in decoded["pointers"]:
                    assert reverse[(address, type_id)] == int(table[state_id, char])

    def test_encode_without_pad_lookup(self, example_dtp):
        packed = pack_state_machine(example_dtp)
        words = packed.encode_words()
        assert len(words) == packed.num_words

    def test_address_of_matches_placement(self, example_dtp):
        packed = pack_state_machine(example_dtp)
        for state_id, placement in packed.placements.items():
            assert packed.address_of(state_id) == (placement.word_index, placement.type_id)


@settings(max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(min_value=0, max_value=13), min_size=1, max_size=60))
def test_packer_never_overlaps_property(counts):
    placed, _ = _pack_sizes(counts)
    used = set()
    for word, start, slots in placed:
        for slot in type_for_placement(slots, start).slot_range():
            key = (word, slot)
            assert key not in used
            used.add(key)
    # total slots used is exactly the sum of state sizes
    assert len(used) == sum(slots for _, _, slots in placed)
