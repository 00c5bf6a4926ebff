"""Tests for the DTP-compressed automaton — the paper's core contribution."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import AhoCorasickDFA
from repro.core import DTPAutomaton, build_default_transition_table
from repro.core.dtp_automaton import displace_rows
from repro.core.lanes import LaneBatch, LaneCut


class TestFigure2Example:
    """The worked example of Figures 1 and 2 (strings he, she, his, hers)."""

    def test_staged_averages(self, example_dtp):
        staged = example_dtp.staged_counts()
        averages = staged.averages()
        # exact full-DFA counts; the paper's figure reports 2.5 for the
        # original (see EXPERIMENTS.md), the compressed stages match exactly.
        assert averages["original"] == pytest.approx(2.6)
        assert averages["after_d1"] == pytest.approx(1.1)
        assert averages["after_d1_d2"] == pytest.approx(0.5)
        assert averages["after_d1_d2_d3"] == pytest.approx(0.1)

    def test_only_the_deep_pointer_remains(self, example_dtp, example_dfa):
        trie = example_dfa.trie
        remaining = [
            (state, char, target)
            for state, pointers in enumerate(example_dtp.stored)
            for char, target in pointers.items()
        ]
        assert len(remaining) == 1
        state, char, target = remaining[0]
        assert trie.string_of(state) == b"her"
        assert chr(char) == "s"
        assert trie.string_of(target) == b"hers"

    def test_matches_equal_dfa(self, example_dtp, example_dfa):
        data = b"ushers and heroes share his hers she shed"
        assert sorted(example_dtp.match(data)) == sorted(example_dfa.match(data))

    def test_reduction_percent(self, example_dtp):
        assert example_dtp.reduction_percent() == pytest.approx(100 * (1 - 1 / 26), abs=0.1)


class TestEquivalence:
    def test_state_level_equivalence_on_random_data(self, small_ruleset, rng):
        from tests.conftest import reference_verify_equivalence, text_with_patterns

        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        data = text_with_patterns(rng, small_ruleset.patterns, length=3000)
        assert reference_verify_equivalence(dtp, data)

    def test_match_equivalence_binary_data(self, small_ruleset, rng):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        data = bytes(rng.randrange(0, 256) for _ in range(3000))
        dfa = AhoCorasickDFA.from_patterns(small_ruleset.patterns)
        assert sorted(dtp.match(data)) == sorted(dfa.match(data))

    def test_history_resets_between_packets(self, example_dtp, example_dfa):
        # Two packets scanned separately must not leak history; "rs" after a
        # packet ending in "he" must NOT report "hers".
        first, second = b"she", b"rs"
        combined_matches = example_dfa.match(first + second)
        separate = example_dtp.scan_packets([first, second])
        assert all((len(second), pid) not in separate[1] for pid in range(4))
        assert any(pid == 3 for _, pid in combined_matches)  # sanity: joined text has "hers"

    def test_d1_only_and_d1_d2_variants_equivalent(self, small_ruleset, rng):
        from tests.conftest import text_with_patterns

        dfa = AhoCorasickDFA.from_patterns(small_ruleset.patterns[:60])
        data = text_with_patterns(rng, small_ruleset.patterns[:60])
        expected = sorted(dfa.match(data))
        for include_d2, include_d3 in ((False, False), (True, False), (True, True)):
            dtp = DTPAutomaton(dfa, include_d2=include_d2, include_d3=include_d3)
            assert sorted(dtp.match(data)) == expected

    def test_iter_states_matches_dfa(self, example_dtp, example_dfa):
        from tests.conftest import reference_iter_states

        data = b"hishers"
        assert list(reference_iter_states(example_dtp, data)) == list(example_dfa.iter_states(data))


class TestStatistics:
    def test_pointer_histogram_sums_to_states(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        histogram = dtp.pointer_count_histogram()
        assert sum(histogram.values()) == dtp.num_states
        assert sum(k * v for k, v in histogram.items()) == dtp.stored_pointer_count()

    def test_reduction_on_synthetic_ruleset(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        assert dtp.reduction_percent() > 90.0
        assert dtp.average_stored_pointers() < 5.0

    def test_matching_states_equal_patterns(self, small_ruleset):
        # the generator forbids substring containment, so exactly one
        # matching state per rule
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        assert len(dtp.matching_states()) == len(small_ruleset)

    def test_states_exceeding_limit_listing(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        limit = dtp.max_pointers_per_state()
        assert dtp.states_exceeding(limit) == []
        assert len(dtp.states_exceeding(limit - 1)) >= 1


class TestKernelViews:
    """The lane kernel's flat views of ``stored``, the transitions a depth-3
    default prunes and the lookup table (the static proof of them is
    ``repro.check``'s DTP007-009)."""

    def test_row_displacement_holds_the_stored_and_folded_pointers(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        dfa = AhoCorasickDFA.from_patterns(dtp.patterns)
        pointers = [
            (state, byte, target)
            for state, row in enumerate(dtp.stored) for byte, target in row.items()
        ]
        folded = [
            (state, byte, entry.state)
            for byte, entry in dtp.defaults.d3.items()
            for state in np.flatnonzero(dfa.table[:, byte] == entry.state).tolist()
        ]
        assert folded and not {(s, b) for s, b, _ in folded} & {(s, b) for s, b, _ in pointers}
        pointers += folded
        states, symbols, targets = map(np.array, zip(*pointers))
        slots = (dtp.value_of[states] + symbols) % dtp.flagged
        assert len(set(slots.tolist())) == len(pointers), "two pointers share a slot"
        assert (dtp.check[slots] == dtp.value_of[states]).all()
        assert (dtp.next[slots] == dtp.value_of[targets]).all()
        assert int((dtp.check >= 0).sum()) == len(pointers)  # and nothing else is owned
        # uncapped, that is Table II's pointer count before the depth-3 stage
        assert len(pointers) == dtp.staged_counts().after_d1_d2

    def test_state_values_are_rows_of_their_own_and_carry_the_match_bit(self, small_ruleset):
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        rows = dtp.value_of % dtp.flagged
        assert len(np.unique(rows)) == dtp.num_states
        assert rows.max() + 256 <= dtp.flagged  # no row wraps round the table
        assert np.array_equal(dtp.value_of >= dtp.flagged, [bool(o) for o in dtp.outputs])
        assert np.array_equal(dtp.id_of[dtp.value_of], np.arange(dtp.num_states))

    def test_layout_is_a_function_of_the_pointers(self, small_ruleset):
        first = DTPAutomaton.from_ruleset(small_ruleset)
        again = DTPAutomaton.from_ruleset(small_ruleset)
        for view in ("value_of", "check", "next", "id_of", "pair_default"):
            assert np.array_equal(getattr(first, view), getattr(again, view)), view

    @pytest.mark.parametrize("rows, per_row", [(5, 256), (40, 200), (300, 120), (0, 0)])
    def test_crowded_rows_still_find_room(self, rows, per_row):
        """Near-full rows cannot interleave; the table grows until they fit,
        and every state, storing or not, keeps a displacement of its own."""
        rng = np.random.default_rng(rows)
        states = np.repeat(np.arange(rows) * 3, per_row)  # states in between store nothing
        symbols = np.concatenate(
            [np.sort(rng.choice(256, per_row, replace=False)) for _ in range(rows)]
            or [np.empty(0, dtype=np.int64)]
        )
        targets = rng.integers(0, 3 * rows + 1, len(states))
        base, check, following = displace_rows(states, symbols, targets, 3 * rows + 1)
        slots = base[states] + symbols
        assert (check[slots] == states).all() and (following[slots] == targets).all()
        assert int((check >= 0).sum()) == len(states)
        assert len(np.unique(base)) == 3 * rows + 1
        assert base.max() + 256 <= len(check)

    def test_kernel_memory_is_set_by_the_slab(self, small_ruleset):
        """The ``tracemalloc`` peak of one ``scan_many``, less the packed
        buffer it must hold, at 4 MB and at 16 MB: working memory is a slab's
        and a tile's, so the 12 MB more of batch may move it by little (a
        per-batch array of one byte a cell would add over 12 MB).  The same
        at 16 MB of traffic that cuts every lane 31-40 deep: every lane but
        the first of a job is walked again, and the repair's windows and
        history are tiled by the slab too (one tile of all 20 k repaired
        lanes would add ~4 MB)."""
        dtp = DTPAutomaton.from_ruleset(small_ruleset)
        # never completes on its own periods, so the deep batch reports nothing
        deep = DTPAutomaton.from_patterns([b"abcdefghij" * 4 + b"Z"])

        def working_memory(program, chunks):
            jobs = [(program.initial_scan_states(), chunk) for chunk in chunks]
            packed = len(LaneCut(LaneBatch(chunks), program.warmup, history=1).data)
            tracemalloc.start()
            try:
                program.scan_many(jobs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - packed

        def random_chunks(size):
            rng = np.random.default_rng(size)
            return [rng.integers(0, 256, size // 64, dtype=np.uint8).tobytes() for _ in range(64)]

        small = working_memory(dtp, random_chunks(4 << 20))
        large = working_memory(dtp, random_chunks(16 << 20))
        all_deep = working_memory(deep, [b"abcdefghij" * ((16 << 20) // 640)] * 64)
        assert small < 8 << 20
        assert large - small < 3 << 20, (small, large)
        assert all_deep - small < 3 << 20, (small, all_deep)

    def test_verify_proves_the_views_of_random_automata(self, rng):
        for count in (1, 3, 12):
            patterns = {bytes(rng.choice(b"ab\x00") for _ in range(rng.randint(1, 5)))
                        for _ in range(count)}
            assert DTPAutomaton.from_patterns(sorted(patterns)).verify().ok, patterns


@settings(max_examples=25, deadline=None)
@given(
    patterns=st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=15, unique=True),
    data=st.binary(max_size=400),
)
def test_dtp_equivalent_to_dfa_property(patterns, data):
    """The compressed automaton is observationally equivalent to the full DFA."""
    dfa = AhoCorasickDFA.from_patterns(patterns)
    dtp = DTPAutomaton(dfa)
    assert sorted(dtp.match(data)) == sorted(dfa.match(data))
    # ... and so is the lane kernel, to the byte-at-a-time loop: order, final
    # state and history included, in two jobs so one resumes mid-stream
    fresh = dtp.initial_scan_states()
    head, resumed = dtp._scan_scalar(fresh, data[:len(data) // 3])
    (whole, tail) = dtp._scan_lanes(
        [fresh, resumed], LaneBatch([data, data[len(data) // 3:]])
    )
    assert whole == dtp._scan_scalar(fresh, data)
    assert (head + tail[0], tail[1]) == whole


@settings(max_examples=15, deadline=None)
@given(
    patterns=st.lists(st.binary(min_size=1, max_size=5), min_size=1, max_size=10, unique=True),
    data=st.binary(max_size=200),
    d2_slots=st.integers(min_value=0, max_value=6),
)
def test_dtp_equivalence_for_any_slot_count(patterns, data, d2_slots):
    dfa = AhoCorasickDFA.from_patterns(patterns)
    table = build_default_transition_table(dfa, d2_slots=d2_slots)
    dtp = DTPAutomaton(dfa, defaults=table)
    assert sorted(dtp.match(data)) == sorted(dfa.match(data))
