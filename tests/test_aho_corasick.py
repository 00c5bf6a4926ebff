"""Unit tests for the Aho-Corasick NFA (failure function) and DFA (move function)."""

import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import AhoCorasickDFA, AhoCorasickNFA, verify_equivalent_matches
from repro.automata.aho_corasick import MAPPED_MIN_BYTES, mapped_zeros
from repro.automata.trie import ROOT
from repro.core.compiled import CompiledDenseProgram


def brute_force_matches(patterns, data):
    matches = []
    for pid, pattern in enumerate(patterns):
        start = 0
        while True:
            index = data.find(pattern, start)
            if index < 0:
                break
            matches.append((index + len(pattern), pid))
            start = index + 1
    return sorted(matches)


class TestNFA:
    def test_simple_match(self):
        nfa = AhoCorasickNFA.from_patterns([b"he", b"she", b"his", b"hers"])
        matches = nfa.match(b"ushers")
        assert sorted(matches) == [(4, 1), (4, 0), (6, 3)] or sorted(matches) == sorted(
            [(4, 0), (4, 1), (6, 3)]
        )

    def test_overlapping_matches_reported(self):
        nfa = AhoCorasickNFA.from_patterns([b"aa", b"aaa"])
        matches = nfa.match(b"aaaa")
        assert (2, 0) in matches and (3, 0) in matches and (4, 0) in matches
        assert (3, 1) in matches and (4, 1) in matches

    def test_no_match(self):
        nfa = AhoCorasickNFA.from_patterns([b"abc"])
        assert nfa.match(b"xyz" * 10) == []

    def test_matches_against_brute_force(self, rng):
        patterns = [bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 4))) for _ in range(20)]
        patterns = list(dict.fromkeys(patterns))
        nfa = AhoCorasickNFA.from_patterns(patterns)
        data = bytes(rng.choice(b"abc") for _ in range(3000))
        assert sorted(nfa.match(data)) == brute_force_matches(patterns, data)

    def test_failure_transition_stats_counted(self):
        nfa = AhoCorasickNFA.from_patterns([b"aaaa", b"ab"])
        nfa.match(b"aaab" * 50)
        stats = nfa.last_match_stats
        assert stats is not None
        assert stats.bytes_processed == 200
        assert stats.failure_transitions > 0
        # with fail pointers, more than one state visit per byte is possible
        assert stats.visits_per_byte > 1.0

    def test_memory_accounting_positive(self):
        nfa = AhoCorasickNFA.from_patterns([b"abc", b"abd"])
        assert nfa.stored_pointer_count() > 0
        assert nfa.memory_bytes() == nfa.stored_pointer_count() * 4


class TestDFA:
    def test_matches_equal_nfa(self, rng):
        patterns = [bytes(rng.choice(b"abcd") for _ in range(rng.randint(1, 5))) for _ in range(30)]
        patterns = list(dict.fromkeys(patterns))
        nfa = AhoCorasickNFA.from_patterns(patterns)
        dfa = AhoCorasickDFA.from_patterns(patterns)
        data = bytes(rng.choice(b"abcd") for _ in range(4000))
        equal, differences = verify_equivalent_matches(nfa.match(data), dfa.match(data))
        assert equal, differences

    def test_one_transition_per_byte(self):
        dfa = AhoCorasickDFA.from_patterns([b"he", b"she"])
        states = list(dfa.iter_states(b"ushers"))
        assert len(states) == 6

    def test_root_row_defaults_to_root(self):
        dfa = AhoCorasickDFA.from_patterns([b"he"])
        assert dfa.step(ROOT, ord("x")) == ROOT
        assert dfa.step(ROOT, ord("h")) != ROOT

    def test_depth_and_labels(self, example_dfa):
        assert example_dfa.num_states == 10
        assert int(example_dfa.depth.max()) == 4
        # every non-root state's label matches the final byte of its string
        trie = example_dfa.trie
        for state in range(1, example_dfa.num_states):
            assert trie.string_of(state)[-1] == example_dfa.label[state]

    def test_paper_example_transition_counts(self, example_dfa):
        # Figure 1 example: 26 transitions to non-root states exist in the
        # exact full DFA (the paper's figure reports 25; see EXPERIMENTS.md).
        assert example_dfa.stored_pointer_count() == 26
        assert example_dfa.average_pointers_per_state() == pytest.approx(2.6)

    def test_unique_starting_bytes(self, example_dfa):
        assert example_dfa.unique_starting_bytes() == 2  # 'h' and 's'

    def test_longest_suffix_invariant(self, rng):
        patterns = [b"abab", b"bab", b"ba"]
        dfa = AhoCorasickDFA.from_patterns(patterns)
        trie = dfa.trie
        data = bytes(rng.choice(b"ab") for _ in range(500))
        state = ROOT
        history = b""
        for byte in data:
            history += bytes([byte])
            state = dfa.step(state, byte)
            suffix = trie.string_of(state)
            assert history.endswith(suffix)
            # no longer suffix of the history is a trie prefix
            for longer in range(len(suffix) + 1, min(len(history), 6) + 1):
                assert trie.find_node(history[-longer:]) is None

    def test_full_table_memory_larger_than_sparse(self, example_dfa):
        assert example_dfa.full_table_memory_bytes() > example_dfa.memory_bytes()

    def test_pointer_counts_per_state_sum(self, example_dfa):
        per_state = example_dfa.pointer_counts_per_state()
        assert int(per_state.sum()) == example_dfa.stored_pointer_count()


@settings(max_examples=30, deadline=None)
@given(
    patterns=st.lists(st.binary(min_size=1, max_size=5), min_size=1, max_size=12, unique=True),
    data=st.binary(max_size=300),
)
def test_dfa_matches_brute_force_property(patterns, data):
    dfa = AhoCorasickDFA.from_patterns(patterns)
    assert sorted(dfa.match(data)) == brute_force_matches(patterns, data)


@settings(max_examples=20, deadline=None)
@given(
    patterns=st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=8, unique=True),
    data=st.binary(max_size=200),
)
def test_nfa_and_dfa_agree_property(patterns, data):
    nfa = AhoCorasickNFA.from_patterns(patterns)
    dfa = AhoCorasickDFA.from_patterns(patterns)
    assert sorted(nfa.match(data)) == sorted(dfa.match(data))


def _mapping_of(array):
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


def test_mapped_zeros_is_a_zeroed_writable_array_in_its_own_mapping():
    rows = MAPPED_MIN_BYTES // 1024
    table = mapped_zeros((rows, 256), np.int32)
    assert table.shape == (rows, 256) and table.dtype == np.int32
    assert not table.any()
    table[rows - 1, 7] = 5
    assert table[rows - 1, 7] == 5 and table.sum() == 5
    assert isinstance(_mapping_of(table), mmap.mmap)
    small = mapped_zeros((rows - 1, 256), np.int32)  # heap-sized: plain np.zeros
    assert _mapping_of(small) is None and not small.any()
    assert mapped_zeros((0, 256), np.int32).shape == (0, 256)


def test_compile_tables_stay_out_of_the_malloc_heap():
    """The megabyte tables a compile builds, the DFA's and the dense
    program's premultiplied view, each get a mapping of their own, so a
    dropped program returns them to the system whatever the heap's layout."""
    patterns = [b"%03d-string-%03d" % (number, number * 7) for number in range(40)]
    dfa = AhoCorasickDFA.from_patterns(patterns)
    assert dfa.table.nbytes >= MAPPED_MIN_BYTES
    program = CompiledDenseProgram.from_automaton(dfa)
    assert isinstance(_mapping_of(dfa.table), mmap.mmap)
    assert isinstance(_mapping_of(program.premultiplied), mmap.mmap)
    tracemalloc.start()
    try:
        table = mapped_zeros(dfa.table.shape, np.int32)
        assert tracemalloc.get_traced_memory()[0] >= table.nbytes  # audits see it
        del table
        assert tracemalloc.get_traced_memory()[0] < MAPPED_MIN_BYTES  # and its release
    finally:
        tracemalloc.stop()
    data = b"xx 007-string-049 039-string-273039-string-2"
    assert sorted(program.match(data)) == sorted(dfa.match(data)) == brute_force_matches(
        patterns, data
    )
