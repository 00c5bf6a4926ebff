"""The array compile path against the per-state one it replaced.

The DFA table is built one depth level at a time, the block is pruned in one
pass over it (:func:`~repro.core.default_transitions.stored_mask`), the
stored pointers are arrays and the word placement is arithmetic.  Each is
held here to the code it replaced, kept verbatim in ``tests/conftest.py``:
the state-by-state table, the three-gather pointer counts, one dict of stored
pointers per state, and the greedy packer over per-state records.
"""

from __future__ import annotations

import gc
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import AhoCorasickDFA
from repro.automata.trie import Trie
from repro.backend import ScanState, get_backend
from repro.core import DTPAutomaton, MatchMemory, PackingError, compile_ruleset
from repro.core import accelerator_config, default_transitions, dtp_automaton
from repro.core.compiled import CompiledDenseProgram
from repro.core.default_transitions import select_defaults, stored_mask
from repro.core.dtp_automaton import (
    HARDWARE_MAX_POINTERS,
    default_views,
    displace_rows,
    state_values,
)
from repro.core.lanes import LaneBatch
from repro.core.lookup_table import encode_lookup_table
from repro.core.memory_layout import PackedStateMachine, pack_state_machine, place_states
from repro.fpga import STRATIX_III
from repro.hardware import build_block_image
from repro.rulesets import generate_snort_like_ruleset

from tests.conftest import (
    ReferencePacker,
    block_automaton,
    reference_build_stored_pointers,
    reference_build_block_image,
    reference_build_table,
    reference_folded_pointers,
    reference_pack_state_machine,
    reference_scalar_scan,
    reference_stored_pointer_counts,
)


def reference_words(packed) -> list:
    """The 324-bit words of a reference packing, by the one encoder."""
    shim = SimpleNamespace(
        records=packed.records, placements=packed.placements, num_words=packed.num_words
    )
    shim.address_of = lambda state: PackedStateMachine.address_of(shim, state)
    shim.encode_state = lambda record, pad_lookup=None: PackedStateMachine.encode_state(
        shim, record, pad_lookup
    )
    return PackedStateMachine.encode_words(shim)


def assert_dfa_is_the_reference(dfa: AhoCorasickDFA) -> None:
    table, fail, outputs = reference_build_table(dfa.trie)
    assert np.array_equal(dfa.table, table)
    assert dfa.fail == [int(state) for state in fail]
    assert dfa.outputs == outputs


def assert_dtp_is_the_reference(dtp: DTPAutomaton) -> None:
    """Pointer arrays, the scalar walk's dicts, the counts and every kernel
    view equal what the per-state pruning pass made of the same table, the
    kernel's with the transitions the depth-3 defaults prune (the DFA
    rebuilt from the patterns: the program does not keep it)."""
    dfa = AhoCorasickDFA.from_patterns(dtp.patterns)
    stored, arrays = reference_build_stored_pointers(dfa, dtp.defaults)
    for ours, theirs in zip(dtp.pointers, arrays):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    assert dtp.stored == stored
    assert np.array_equal(
        dtp.pointer_counts(), reference_stored_pointer_counts(dfa, dtp.defaults)
    )
    # the kernel's table also holds what the depth-3 defaults prune
    held = [
        np.concatenate(columns)
        for columns in zip(arrays, reference_folded_pointers(dfa, dtp.defaults))
    ]
    order = np.lexsort((held[1], held[0]))
    flagged, value_of, check, following = state_values(
        *displace_rows(*(column[order] for column in held), dtp.num_states),
        np.diff(dtp.match_index) > 0,
    )
    assert dtp.flagged == flagged
    for ours, theirs in (
        (dtp.value_of, value_of), (dtp.check, check), (dtp.next, following),
        (dtp.pair_default, default_views(dtp.defaults, value_of)),
    ):
        assert np.array_equal(ours, theirs)


def assert_packing_is_the_reference(dtp, match_memory=None, capacity_words=None) -> None:
    """Placements, records, word count and encoded words equal the greedy
    packer's; an automaton it refuses is refused with the same message."""
    try:
        reference = reference_pack_state_machine(dtp, dtp.stored, match_memory, capacity_words)
    except PackingError as error:
        with pytest.raises(PackingError) as raised:
            pack_state_machine(dtp, match_memory, capacity_words)
        assert str(raised.value) == str(error)
        return
    packed = pack_state_machine(dtp, match_memory, capacity_words)
    assert packed.num_words == reference.num_words
    assert packed.placements == reference.placements
    assert packed.records == reference.records
    assert packed.encode_words() == reference_words(reference)


# ----------------------------------------------------------------------
# random automata, repairs included
# ----------------------------------------------------------------------
#: a state with more than 13 children: the pointer-limit repair has work
fans = st.tuples(
    st.binary(min_size=0, max_size=2).map(lambda prefix: prefix.replace(b"\x00", b"a")),
    st.sets(st.integers(min_value=0, max_value=255), min_size=14, max_size=30),
    st.sampled_from([b"", b"z", b"yz"]),
).map(lambda fan: [fan[0] + bytes([byte]) + fan[2] for byte in sorted(fan[1])])

automata = st.tuples(
    st.lists(st.binary(min_size=1, max_size=6).map(lambda p: bytes(b % 4 + 97 for b in p)),
             min_size=1, max_size=20),
    st.lists(fans, max_size=2),
).map(lambda parts: sorted(set(parts[0] + [p for fan in parts[1] for p in fan])))


@settings(max_examples=60, deadline=None)
@given(
    patterns=automata,
    d2_slots=st.integers(min_value=0, max_value=6),
    include_d2=st.booleans(),
    include_d3=st.booleans(),
    limit=st.sampled_from([HARDWARE_MAX_POINTERS, 4]),
)
def test_random_blocks_compile_as_before(patterns, d2_slots, include_d2, include_d3, limit):
    dfa = AhoCorasickDFA.from_patterns(patterns)
    assert_dfa_is_the_reference(dfa)

    selected, keep = select_defaults(dfa, d2_slots, include_d2, include_d3)
    assert np.array_equal(
        np.count_nonzero(keep, axis=1), reference_stored_pointer_counts(dfa, selected)
    )
    # the repair pass keeps the mask of the table it repairs
    repaired, keep = select_defaults(
        dfa, d2_slots, include_d2, include_d3, max_stored_pointers=limit
    )
    assert np.array_equal(keep, stored_mask(dfa, repaired))

    dtp = DTPAutomaton(
        dfa, d2_slots=d2_slots, include_d2=include_d2, include_d3=include_d3,
        max_stored_pointers=limit,
    )
    assert_dtp_is_the_reference(dtp)
    matches = {state: dtp.outputs[state] for state in dtp.matching_states()}
    assert_packing_is_the_reference(dtp, MatchMemory.build(matches))


def test_a_moved_depth3_default_moves_what_it_folds():
    """``ab`` keeps five pointers to ``ab?``, whose bytes' depth-3 defaults
    are the more popular ``cc?``; a limit of four makes the repair pass move
    the default of ``d`` to ``abd``, so ``cc --d--> ccd`` is stored again and
    ``ab --d--> abd`` is folded instead."""
    patterns = [b"ab" + bytes([x]) for x in b"defgh"] + [b"cc" + bytes([x]) for x in b"defgh"]
    dfa = AhoCorasickDFA.from_patterns(patterns + [b"cccc"])
    selected = select_defaults(dfa)[0]
    repaired = select_defaults(dfa, max_stored_pointers=4)[0]
    moved = [byte for byte, entry in repaired.d3.items() if selected.d3[byte] != entry]
    assert moved == [ord("d")]
    dtp = DTPAutomaton(dfa, max_stored_pointers=4)
    assert dtp.max_pointers_per_state() == 4
    assert_dtp_is_the_reference(dtp)
    assert dtp.verify().ok
    stream = b"xabdccdcccdabe" * 40
    fresh = ScanState()
    assert dtp._scan_lanes([fresh], LaneBatch([stream])) == [
        reference_scalar_scan(dtp, fresh, stream)
    ]


def test_a_block_prunes_in_one_pass(monkeypatch):
    """Every block the compile builds, kept or not, makes one pruning pass
    over its DFA table — one ``stored_mask`` and the one ``registered_bytes``
    in it; the transitions its depth-3 defaults prune come from that pass's
    mask and the trie's labels."""
    calls = {"blocks": 0, "stored_mask": 0, "registered_bytes": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(default_transitions, "stored_mask")
    counted(default_transitions, "registered_bytes")
    counted(dtp_automaton, "stored_mask")
    compile_block = accelerator_config._compile_block

    def block(*args, **kwargs):
        calls["blocks"] += 1
        return compile_block(*args, **kwargs)

    monkeypatch.setattr(accelerator_config, "_compile_block", block)
    program = compile_ruleset(snort_like(2588), STRATIX_III)
    assert len(program.blocks) == 2
    assert calls["stored_mask"] == calls["registered_bytes"] == calls["blocks"] >= 2, calls


def test_repairs_fire_and_match_the_reference():
    """Without depth-2 defaults ``a`` keeps a pointer to each of its twenty
    children; the repair pass moves defaults until it keeps 13."""
    patterns = [b"a" + bytes([byte]) for byte in range(98, 118)] + [b"b", b"ab"]
    dfa = AhoCorasickDFA.from_patterns(patterns)
    plain = DTPAutomaton(dfa, include_d2=False, include_d3=False)
    assert plain.max_pointers_per_state() == 20
    assert_packing_is_the_reference(plain)  # refused: 20 > 13
    repaired = DTPAutomaton(dfa, include_d2=False, max_stored_pointers=HARDWARE_MAX_POINTERS)
    assert repaired.defaults.num_d2 > 0
    assert repaired.max_pointers_per_state() == HARDWARE_MAX_POINTERS
    assert_dtp_is_the_reference(repaired)
    assert_packing_is_the_reference(repaired)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.tuples(*[st.integers(min_value=0, max_value=12)] * 5),
    shuffle=st.randoms(use_true_random=False),
    first_word=st.integers(min_value=0, max_value=5),
)
def test_placement_is_the_greedy_packers(counts, shuffle, first_word):
    slots = [size for size, count in zip((1, 3, 5, 7, 9), counts) for _ in range(count)]
    shuffle.shuffle(slots)
    records = [
        SimpleNamespace(state_id=state, slots=size) for state, size in enumerate(slots)
    ]
    packer = ReferencePacker()
    packer.next_word = first_word
    packer.pack_group(records)
    word, start, words = place_states(np.array(slots, dtype=np.int64), first_word)
    assert words == packer.next_word - first_word
    assert [
        (placement.word_index, placement.state_type.start_slot)
        for _, placement in sorted(packer.placements.items())
    ] == list(zip(word.tolist(), start.tolist()))


def test_a_block_too_big_is_refused_before_placement(monkeypatch, example_dtp):
    placed = []
    monkeypatch.setattr(
        "repro.core.memory_layout.place_states",
        lambda *args: placed.append(args) or place_states(*args),
    )
    assert_packing_is_the_reference(example_dtp, capacity_words=1)
    assert placed == []
    pack_state_machine(example_dtp)
    assert len(placed) == 2


# ----------------------------------------------------------------------
# the paper's sizes
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def snort_like(strings: int):
    return generate_snort_like_ruleset(strings, seed=2010)


@pytest.fixture(scope="module")
def paper_sized_program():
    """2 588 strings, two Stratix III blocks."""
    return compile_ruleset(snort_like(2588), STRATIX_III)


def test_a_paper_sized_program_compiles_as_before(paper_sized_program):
    """Each block's pruned automaton, match memory, lookup words and packing
    are the per-state builders'; the kernel views, which a block does not
    hold, are checked on the automaton of the block's strings, whose
    pointers and defaults are the block's."""
    assert len(paper_sized_program.blocks) == 2
    for block in paper_sized_program.blocks:
        dtp = block.dtp
        dfa = AhoCorasickDFA.from_patterns(dtp.patterns)
        assert_dfa_is_the_reference(dfa)
        automaton = block_automaton(block)
        assert_dtp_is_the_reference(automaton)
        for ours, theirs in zip(dtp.pointers, automaton.pointers):
            assert np.array_equal(ours, theirs)
        assert dtp.stored == automaton.stored
        _, fail, outputs = reference_build_table(dfa.trie)
        matches = {
            state: [block.string_numbers[pid] for pid in found]
            for state, found in enumerate(outputs) if found
        }
        reference_memory = MatchMemory.build(matches)
        assert block.match_memory.words == reference_memory.words
        assert block.match_memory.state_address == reference_memory.state_address
        assert block.lookup.words == encode_lookup_table(dtp.defaults).words
        assert_packing_is_the_reference(dtp, block.match_memory, STRATIX_III.state_machine_words)


def test_the_block_image_decoded_from_the_words_is_the_one_built_from_records(
    paper_sized_program,
):
    """500 strings on one block and 2 588 on two: the image the cycle model
    runs on, decoded from the encoded words, equals the one built from the
    packed records."""
    for program in (compile_ruleset(snort_like(500), STRATIX_III), paper_sized_program):
        for block in program.blocks:
            assert build_block_image(block) == reference_build_block_image(block)


@pytest.mark.parametrize("strings", [500, 2588, 6275])
def test_the_starting_block_count_is_the_tries(strings):
    """The estimate counts the trie's states without building it."""
    ruleset = snort_like(strings)
    assert accelerator_config._trie_states(ruleset.patterns) == (
        Trie.from_patterns(ruleset.patterns).num_states
    )
    assert accelerator_config._estimate_groups(ruleset, STRATIX_III) == {
        500: 1, 2588: 2, 6275: 4
    }[strings]


@given(st.lists(st.binary(min_size=1, max_size=6), max_size=30))
def test_trie_states_counts_distinct_prefixes(patterns):
    assert accelerator_config._trie_states(patterns) == Trie.from_patterns(patterns).num_states


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
#: tracemalloc peak of compiling the 500-string ruleset: 35.5 MB while the
#: compile gathered the whole table three times over and kept a dict per
#: state; ~16 MB since (the DFA table itself is 7.8 MB of it)
COMPILE_PEAK_MB = 20


def test_compile_peak_memory_is_bounded():
    ruleset = snort_like(500)
    tracemalloc.start()
    try:
        program = compile_ruleset(ruleset, STRATIX_III)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(program.blocks) == 1
    assert peak / 1e6 <= COMPILE_PEAK_MB


def resident_mb(build):
    """``(build(), MB it holds)``: ``tracemalloc``'s count of what is still
    allocated once the build returned and the collector ran."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return built, size / 1e6


def test_a_compiled_program_keeps_one_transition_table():
    """500 strings: the device program's block holds its pointer arrays
    (1.2 MB; 3.3 MB with the kernel views it no longer builds), not also the
    DFA they were pruned from (13.9 MB while it did);
    the dense program its premultiplied table (8.3 MB), not also the plain
    one (16.1 MB while it did)."""
    ruleset = snort_like(500)
    program, dtp_mb = resident_mb(lambda: compile_ruleset(ruleset, STRATIX_III))
    dense, dense_mb = resident_mb(lambda: get_backend("dense").compile(ruleset.patterns))
    assert len(program.blocks) == 1
    assert dtp_mb <= 4 and dtp_mb <= dense_mb / 2, (dtp_mb, dense_mb)
    table_sized = [
        name for name, value in vars(dense).items()
        if isinstance(value, np.ndarray) and value.size >= dense.num_states * 256
    ]
    assert table_sized == ["premultiplied"]
    assert dense_mb <= 1.25 * dense.premultiplied.nbytes / 1e6, dense_mb


def test_the_dense_compile_writes_its_premultiplied_table_over_its_own_dfa():
    """``from_patterns`` owns its DFA and converts the table in place (one
    table-sized array at the compile's peak); ``from_automaton`` leaves the
    caller's DFA as it was."""
    patterns = snort_like(60).patterns
    dfa = AhoCorasickDFA.from_patterns(patterns)
    table = dfa.table.copy()
    kept = CompiledDenseProgram.from_automaton(dfa)
    assert np.array_equal(dfa.table, table)
    assert not np.shares_memory(kept.premultiplied, dfa.table)
    consumed = CompiledDenseProgram(
        dfa.table, dfa.outputs, dfa.trie.patterns, dfa.depth, consume_table=True
    )
    assert np.shares_memory(consumed.premultiplied, dfa.table)
    assert np.array_equal(consumed.premultiplied, kept.premultiplied)
    fresh = CompiledDenseProgram.from_patterns(patterns)
    assert np.array_equal(fresh.premultiplied, kept.premultiplied)

