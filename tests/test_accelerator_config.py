"""Tests for the end-to-end ruleset -> accelerator compiler."""

import pytest

from repro.automata import AhoCorasickDFA
from repro.check import verify_program
from repro.core import CompilationError, compile_ruleset
from repro.core.dtp_automaton import HARDWARE_MAX_POINTERS
from repro.fpga import STRATIX_III
from repro.hardware import HardwareAccelerator
from repro.rulesets import RuleSet, generate_snort_like_ruleset


class TestCompile:
    def test_small_ruleset_fits_single_block(self, small_ruleset, small_program):
        assert small_program.blocks_per_group == 1
        assert small_program.packet_groups == STRATIX_III.num_matching_blocks
        assert small_program.total_states > len(small_ruleset)
        assert small_program.throughput_gbps == pytest.approx(44.2, abs=0.2)

    def test_every_block_fits_device_memory(self, small_program):
        for block in small_program.blocks:
            assert block.words_used <= STRATIX_III.state_machine_words
            assert block.dtp.max_pointers_per_state() <= HARDWARE_MAX_POINTERS

    def test_memory_accounting_includes_all_three_memories(self, small_program):
        block = small_program.blocks[0]
        expected = (
            block.packed.memory_bits()
            + block.match_memory.memory_bits()
            + block.lookup.memory_bits()
        )
        assert block.memory_bits() == expected
        assert small_program.total_memory_bytes() == sum(
            b.memory_bytes() for b in small_program.blocks
        )

    def test_match_agrees_with_reference_dfa(self, small_ruleset, small_program, rng):
        from tests.conftest import text_with_patterns

        reference = AhoCorasickDFA.from_patterns(small_ruleset.patterns)
        data = text_with_patterns(rng, small_ruleset.patterns)
        # the device program matches through its cycle model
        accelerator = HardwareAccelerator(small_program)
        assert sorted(accelerator.match(data)) == sorted(reference.match(data))

    def test_string_numbers_map_to_sids(self, small_ruleset, small_program):
        mapping = small_program.string_number_to_sid()
        assert len(mapping) == len(small_ruleset)
        assert set(mapping.values()) == set(small_ruleset.sids)

    def test_multi_block_compile_partitions_matches(self, medium_ruleset, rng):
        from tests.conftest import text_with_patterns

        program = compile_ruleset(medium_ruleset, STRATIX_III, blocks_per_group=2)
        assert program.blocks_per_group == 2
        assert program.packet_groups == 3
        reference = AhoCorasickDFA.from_patterns(medium_ruleset.patterns)
        data = text_with_patterns(rng, medium_ruleset.patterns)
        assert sorted(HardwareAccelerator(program).match(data)) == sorted(reference.match(data))

    def test_throughput_scales_inversely_with_blocks(self, medium_ruleset):
        one = compile_ruleset(medium_ruleset, STRATIX_III, blocks_per_group=1)
        two = compile_ruleset(medium_ruleset, STRATIX_III, blocks_per_group=2)
        three = compile_ruleset(medium_ruleset, STRATIX_III, blocks_per_group=3)
        assert one.throughput_gbps == pytest.approx(2 * two.throughput_gbps, rel=0.01)
        assert one.throughput_gbps == pytest.approx(3 * three.throughput_gbps, rel=0.01)

    def test_cyclone_throughput_lower_than_stratix(self, small_program, small_program_cyclone):
        assert small_program_cyclone.throughput_gbps < small_program.throughput_gbps

    def test_staged_counts_and_defaults(self, small_program):
        staged = small_program.staged_counts()
        defaults = small_program.default_pointer_counts()
        assert staged.original > staged.after_d1_d2_d3
        assert defaults["d1"] <= defaults["d1+d2"] <= defaults["d1+d2+d3"]
        assert staged.reduction_percent > 90

    def test_invalid_requests_raise(self, small_ruleset):
        with pytest.raises(CompilationError):
            compile_ruleset(RuleSet(name="empty"), STRATIX_III)
        with pytest.raises(CompilationError):
            compile_ruleset(small_ruleset, STRATIX_III, blocks_per_group=0)
        with pytest.raises(CompilationError):
            compile_ruleset(
                small_ruleset,
                STRATIX_III,
                blocks_per_group=STRATIX_III.num_matching_blocks + 1,
            )

    def test_oversized_ruleset_rejected_with_clear_error(self):
        # A tiny fake device cannot hold even a small ruleset in one block.
        from dataclasses import replace

        tiny = replace(STRATIX_III, state_machine_words=8, num_matching_blocks=2)
        ruleset = generate_snort_like_ruleset(60, seed=5)
        with pytest.raises(CompilationError):
            compile_ruleset(ruleset, tiny)

    def test_an_empty_prefix_group_falls_back_to_the_balanced_split(self):
        # sixteen strings fan out of one state: 16 stored pointers, over a
        # word's 13, so one block cannot hold them, and the prefix split of
        # two groups leaves one group empty; the balanced split is tried next
        ruleset = RuleSet.from_patterns([b"abc" + bytes([k]) for k in range(65, 81)])
        program = compile_ruleset(ruleset, STRATIX_III)
        assert program.partition.strategy == "balanced"
        assert program.blocks_per_group == 2
        assert verify_program(program).ok

    def test_a_fan_out_no_split_fits_is_a_compilation_error(self):
        from dataclasses import replace

        two_blocks = replace(STRATIX_III, num_matching_blocks=2)
        ruleset = RuleSet.from_patterns([b"abc" + bytes([k]) for k in range(65, 105)])
        with pytest.raises(CompilationError, match="does not fit"):
            compile_ruleset(ruleset, two_blocks)

    def test_scan_packets_resets_between_payloads(self, small_program):
        pattern = small_program.ruleset[0].pattern
        # split the pattern across two packets: it must NOT be reported
        half = len(pattern) // 2 or 1
        accelerator = HardwareAccelerator(small_program)
        results = accelerator.scan_packets([pattern[:half], pattern[half:]])
        found_numbers = {number for matches in results for _, number in matches}
        assert 0 not in found_numbers or len(pattern) == 1

    def test_balanced_strategy_still_correct(self, medium_ruleset, rng):
        from tests.conftest import text_with_patterns

        program = compile_ruleset(
            medium_ruleset, STRATIX_III, blocks_per_group=2, partition_strategy="balanced"
        )
        reference = AhoCorasickDFA.from_patterns(medium_ruleset.patterns)
        data = text_with_patterns(rng, medium_ruleset.patterns)
        assert sorted(HardwareAccelerator(program).match(data)) == sorted(reference.match(data))
