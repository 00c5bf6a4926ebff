"""Static verification layer: prover, linter, and idiom gate.

The load-bearing properties:

* the verifier *proves* clean programs clean — the paper's Fig. 2 example
  and randomized rulesets pass with zero findings on every backend, with no
  traffic scanned;
* it *catches* seeded corruption — flipping a single table entry, stored
  pointer, bitmap bit, failure link, packed-word pointer or match-memory
  word in any backend produces at least one ERROR;
* the ruleset linter flags duplicates, shadowing, sid conflicts and
  hardware-capacity overruns;
* the AST idiom checker enforces the CLI error idiom, and ``src/repro``
  itself passes it (the self-gate that keeps future drift out).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.automata.trie import ROOT
from repro.automata import PathCompressedAhoCorasick
from repro.backend import ScanState, backend_names, get_backend
from repro.check import (
    Diagnostic,
    Report,
    check_paths,
    check_source,
    lint_rule_file,
    lint_ruleset,
    verify_cross_backend,
    verify_program,
)
from repro.cli import main
from repro.core import DTPAutomaton
from repro.core.accelerator_config import compile_ruleset
from repro.core.memory_layout import PackedStateMachine
from repro.core.state_types import CHAR_BITS, MATCH_INFO_BITS, POINTER_BITS
from repro.fpga.devices import get_device
from repro.rulesets import RuleSet, generate_snort_like_ruleset
from tests.conftest import block_automaton

FIG2_PATTERNS = (b"he", b"she", b"his", b"hers")
SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


# ----------------------------------------------------------------------
# diagnostics currency
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_render_and_dict(self):
        d = Diagnostic("error", "DTP002", "boom", state=3, byte=0x69, source="dtp")
        assert d.render() == "error DTP002 [dtp state=3 byte=0x69] boom"
        assert d.as_dict() == {
            "severity": "error", "code": "DTP002", "message": "boom",
            "state": 3, "byte": 0x69, "source": "dtp",
        }

    def test_report_aggregation(self):
        report = Report(subject="x")
        report.add("warning", "RS004", "shadow")
        report.add("error", "RS001", "dup")
        assert not report.ok
        assert report.counts() == {"error": 1, "warning": 1, "info": 0}
        assert [d.code for d in report.sorted()] == ["RS001", "RS004"]
        assert report.as_dict()["errors"] == 1

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("fatal", "X001", "nope")


# ----------------------------------------------------------------------
# the prover on clean programs: Fig. 2 + randomized, no traffic scanned
# ----------------------------------------------------------------------
class TestVerifyClean:
    @pytest.mark.parametrize("backend", backend_names())
    def test_fig2_example_proves_clean(self, backend):
        program = get_backend(backend).compile(FIG2_PATTERNS)
        report = program.verify()
        assert report.ok and not report.warnings, report.render()

    @pytest.mark.parametrize("backend", backend_names())
    def test_randomized_ruleset_proves_clean(self, backend):
        patterns = tuple(generate_snort_like_ruleset(90, seed=17).patterns)
        report = verify_program(get_backend(backend).compile(patterns))
        assert report.ok, report.render()

    def test_fig2_cross_backend_bisimulation(self):
        report = verify_cross_backend(FIG2_PATTERNS)
        assert report.ok, report.render()

    def test_randomized_cross_backend_bisimulation(self):
        patterns = generate_snort_like_ruleset(150, seed=11).patterns
        report = verify_cross_backend(patterns)
        assert report.ok, report.render()

    def test_accelerator_program_proves_clean(self):
        ruleset = generate_snort_like_ruleset(80, seed=23)
        program = compile_ruleset(ruleset, get_device("stratix3"))
        report = verify_program(program)
        assert report.ok, report.render()

    def test_verify_against_wrong_patterns_fails(self):
        program = get_backend("dense").compile(FIG2_PATTERNS)
        report = verify_program(program, patterns=[b"he", b"she", b"hix", b"hers"])
        assert not report.ok

    def test_unknown_artifact_rejected(self):
        with pytest.raises(TypeError):
            verify_program(object(), patterns=[b"x"])


# ----------------------------------------------------------------------
# mutation detection: corrupt one entry per backend -> at least one ERROR
# ----------------------------------------------------------------------
def _mutate_ac(program):
    program.table[1, ord("e")] = 0  # sever 'h' --e--> 'he'


def _mutate_dense_table(program):
    program.premultiplied[256 + ord("e")] = 0  # 'h' --e--> the root, no match bit


def _mutate_dense_outputs(program):
    # retarget one packed match pid: state still matches, wrong pattern id
    assert len(program.match_pids), "fixture needs a matching state"
    program.match_pids[0] = (program.match_pids[0] + 1) % len(program.patterns)


def _mutate_dense_premultiplied(program):
    # the kernel's copy of one transition now lands one state off
    program.premultiplied[256 + ord("e")] += 256


def _mutate_dense_value_hides_a_match(program):
    # one transition into a reporting state loses the match bit of its value
    size = len(program.premultiplied)
    program.premultiplied[int(np.flatnonzero(program.premultiplied >= size)[0])] -= size


def _mutate_dense_value_invents_a_match(program):
    # one transition into a silent state gains the match bit
    size = len(program.premultiplied)
    program.premultiplied[int(np.flatnonzero(program.premultiplied < size)[0])] += size


def _mutate_dense_value_off_its_row(program):
    # the decoded target and the match bit hold, but the lookup lands one cell off
    program.premultiplied[256 + ord("e")] += 1


def _mutate_dense_flag(program):
    # a reporting state the kernel's flag gather would no longer see
    state = int(program.match_flags.nonzero()[0][0])
    program.match_flags[state] = False


def _mutate_dense_warmup(program):
    # lanes would reach their cut one byte short of the deepest state
    program.warmup -= 1


def _mutate_bitmap(program):
    program.bitmaps[1] ^= 1 << ord("e")  # drop a real child edge


def _mutate_path(program):
    state = next(s for s in range(1, program.trie.num_states) if program.fail[s] == 0)
    program.fail[state] = program.trie.num_states - 1


def _flip_stored_pointer(dtp):
    targets = dtp.pointers[2]
    targets[0] = 0 if targets[0] != 0 else 1


def _dtp_pointer_slot(program):
    """(state, slot) of the one stored pointer of the Figure 2 automaton."""
    state = next(s for s in range(program.num_states) if program.stored[s])
    byte = next(iter(program.stored[state]))
    return state, (int(program.value_of[state]) + byte) % program.flagged


def _dtp_undefaulted_state(program):
    """A reporting state no default leads to ("hers"): its value may move
    without touching the default views."""
    defaulted = set(program.id_of[program.pair_default].tolist())
    return next(
        s for s in range(program.num_states)
        if s not in defaulted and program.value_of[s] >= program.flagged
    )


def _mutate_dtp_check(program):
    # the kernel would no longer find the pointer: a default fires instead
    program.check[_dtp_pointer_slot(program)[1]] = -1


def _mutate_dtp_next(program):
    program.next[_dtp_pointer_slot(program)[1]] -= 1


def _mutate_dtp_value(program):
    # the row now reads its neighbours' slots
    program.value_of[_dtp_pointer_slot(program)[0]] += 1


def _mutate_dtp_value_collision(program):
    # two states share one row: each would read the other's pointers
    program.value_of[_dtp_undefaulted_state(program)] = program.value_of[ROOT]


def _mutate_dtp_reporting_below_flag(program):
    # a reporting state whose value lost the match bit: its hits vanish
    program.value_of[_dtp_undefaulted_state(program)] -= program.flagged


def _mutate_dtp_phantom_slot(program):
    # the root stores nothing; a slot in its window claiming it would be taken
    root = int(program.value_of[ROOT])
    slot = next(
        (root + byte) % program.flagged for byte in range(256)
        if program.check[(root + byte) % program.flagged] < 0
    )
    program.check[slot] = root


def _mutate_dtp_pair_default(program):
    # 'h' then 'i' is the depth-2 default "hi"
    program.pair_default[ord("h") * 256 + ord("i")] = program.value_of[ROOT]


def _mutate_dtp_pair_default_at_stream_start(program):
    # prev1 = None (256): the depth-1 default of 'h' with no byte before it
    program.pair_default[256 * 256 + ord("h")] = program.value_of[ROOT]


def _state_of(program, prefix):
    """The state a fresh stream is in after ``prefix`` (a pattern prefix)."""
    _, scan_state = program._scan_scalar(ScanState(), prefix)
    return scan_state.state


def _dtp_folded_slot(program):
    """The slot of the folded pointer "sh" --'e'--> "she": the depth-3
    default "she" prunes it, and the kernel's table holds it back."""
    return (int(program.value_of[_state_of(program, b"sh")]) + ord("e")) % program.flagged


def _mutate_dtp_dropped_folded_pointer(program):
    # without it the depth-2 default "he" is taken after "sh" too
    program.check[_dtp_folded_slot(program)] = -1


def _mutate_dtp_folded_pointer_target(program):
    program.next[_dtp_folded_slot(program)] = program.value_of[_state_of(program, b"he")]


def _mutate_dtp_pair_table_depth3(program):
    # the pair table would fire the depth-3 default "she" after any 'h'
    program.pair_default[ord("h") * 256 + ord("e")] = program.value_of[_state_of(program, b"she")]


def _mutate_dtp_warmup(program):
    program.warmup -= 1


def _mutate_dtp_packed_outputs(program):
    program.match_pids[0] = (program.match_pids[0] + 1) % len(program.patterns)


DTP_KERNEL_MUTATIONS = [
    pytest.param(_mutate_dtp_check, "DTP007", id="check-entry"),
    pytest.param(_mutate_dtp_next, "DTP007", id="next-entry"),
    pytest.param(_mutate_dtp_value, "DTP007", id="value-entry"),
    pytest.param(_mutate_dtp_value_collision, "DTP007", id="value-collision"),
    pytest.param(_mutate_dtp_reporting_below_flag, "DTP007", id="reporting-state-below-flag"),
    pytest.param(_mutate_dtp_phantom_slot, "DTP007", id="phantom-slot"),
    pytest.param(_mutate_dtp_pair_default, "DTP008", id="pair-table-entry"),
    pytest.param(_mutate_dtp_pair_default_at_stream_start, "DTP008", id="pair-table-none-row"),
    pytest.param(_mutate_dtp_dropped_folded_pointer, "DTP007", id="dropped-folded-pointer"),
    pytest.param(_mutate_dtp_folded_pointer_target, "DTP007", id="folded-pointer-target"),
    pytest.param(_mutate_dtp_pair_table_depth3, "DTP008", id="pair-table-depth3"),
    pytest.param(_mutate_dtp_warmup, "DTP009", id="warmup-length"),
    pytest.param(_mutate_dtp_packed_outputs, "DTP005", id="packed-match-pid"),
]


BACKEND_MUTATIONS = [
    pytest.param("ac", _mutate_ac, id="ac-table-entry"),
    pytest.param("dense", _mutate_dense_table, id="dense-table-entry"),
    pytest.param("dense", _mutate_dense_outputs, id="dense-match-pid"),
    pytest.param("dense", _mutate_dense_premultiplied, id="dense-premultiplied-entry"),
    pytest.param("dense", _mutate_dense_flag, id="dense-match-flag"),
    pytest.param("dense", _mutate_dense_warmup, id="dense-warmup-length"),
    pytest.param("bitmap", _mutate_bitmap, id="bitmap-bit"),
    pytest.param("path", _mutate_path, id="path-fail-link"),
    pytest.param("dtp", _flip_stored_pointer, id="dtp-stored-pointer"),
]


class TestMutationDetection:
    @pytest.mark.parametrize("backend, mutate", BACKEND_MUTATIONS)
    def test_single_entry_corruption_is_an_error(self, backend, mutate):
        program = get_backend(backend).compile(FIG2_PATTERNS)
        assert program.verify().ok  # sanity: clean before the mutation
        mutate(program)
        report = program.verify()
        assert report.errors, f"{backend} mutation went undetected"

    @pytest.mark.parametrize("mutate, code", DTP_KERNEL_MUTATIONS)
    def test_dtp_kernel_view_corruption_names_its_code(self, mutate, code):
        """One corrupt entry of one lane-kernel view: the structures the
        paper describes are untouched, so only the view's own proof fails."""
        program = DTPAutomaton.from_patterns(FIG2_PATTERNS)
        assert program.verify().ok
        mutate(program)
        assert {d.code for d in program.verify().errors} == {code}

    @pytest.mark.parametrize(
        "mutate",
        (
            _mutate_dense_value_hides_a_match,
            _mutate_dense_value_invents_a_match,
            _mutate_dense_value_off_its_row,
        ),
    )
    def test_dense_match_bit_corruption_names_its_code(self, mutate):
        """One premultiplied value with its match bit flipped or its low byte
        set: the decoded target and the flag vector are untouched, so only
        the encoding's proof fails."""
        program = get_backend("dense").compile(FIG2_PATTERNS)
        assert program.verify().ok
        mutate(program)
        assert {d.code for d in program.verify().errors} == {"DEN003"}

    def test_corrupt_kernel_view_in_accelerator_block(self):
        """A block holds no kernel views: they are proved on the automaton
        of the block's strings, the program that scans them."""
        ruleset = generate_snort_like_ruleset(60, seed=5)
        program = compile_ruleset(ruleset, get_device("stratix3"))
        assert verify_program(program).ok
        dtp = block_automaton(program.blocks[0])
        assert verify_program(dtp).ok
        dtp.next[int(np.flatnonzero(dtp.check >= 0)[0])] += 1
        assert {d.code for d in verify_program(dtp).errors} == {"DTP007"}
        assert verify_program(program).ok

    def test_a_flipped_address_bit_in_the_words_is_an_image_error(
        self, monkeypatch, tmp_path, capsys
    ):
        """The block image is decoded from the encoded words: one pointer's
        address bit flipped by the encoder is an HWI001 of ``repro verify
        --device``, which the records alone would not show."""
        encode_state = PackedStateMachine.encode_state
        chosen = []  # the first state encoded with two pointers or more

        def flipping(self, record, pad_lookup=None):
            value = encode_state(self, record, pad_lookup)
            if not chosen and len(record.pointers) >= 2:
                chosen.append(record.state_id)
            if chosen == [record.state_id]:
                # the last pointer's: unused slots repeat the first
                last = MATCH_INFO_BITS + (len(record.pointers) - 1) * POINTER_BITS
                value ^= 1 << (last + CHAR_BITS)
            return value

        argv = ["verify", "--size", "60", "--seed", "5", "--device", "stratix3",
                "--json", str(tmp_path / "report.json")]
        assert main(argv) == 0
        monkeypatch.setattr(PackedStateMachine, "encode_state", flipping)
        capsys.readouterr()
        assert main(argv) == 1
        diagnostics = json.loads((tmp_path / "report.json").read_text())["diagnostics"]
        assert ("HWI001", chosen[0]) in {
            (d["code"], d.get("state")) for d in diagnostics if d["severity"] == "error"
        }

    def test_corrupt_stored_pointer_in_accelerator_block(self):
        ruleset = generate_snort_like_ruleset(60, seed=5)
        program = compile_ruleset(ruleset, get_device("stratix3"))
        block = program.blocks[0]
        block.dtp.pointers[2][0] ^= 1
        assert verify_program(program).errors

    def test_corrupt_match_memory_word(self):
        ruleset = generate_snort_like_ruleset(60, seed=5)
        program = compile_ruleset(ruleset, get_device("cyclone3"))
        block = program.blocks[0]
        first, second, last = block.match_memory.words[0]
        block.match_memory.words[0] = (first ^ 1, second, last)
        assert verify_program(program).errors

    def test_cross_backend_names_the_corrupt_backend(self, monkeypatch):
        """The cross-backend proof checks the program the registry compiles:
        a stored pointer flipped in the one ``dtp`` automaton (whose device
        program takes two blocks) is a BSM001 of ``dtp``."""
        patterns = [b"abc" + bytes([k]) for k in range(65, 81)]
        from_patterns = DTPAutomaton.from_patterns

        def corrupted(patterns, **kwargs):
            program = from_patterns(patterns, **kwargs)
            _flip_stored_pointer(program)
            return program

        assert verify_cross_backend(patterns).ok
        monkeypatch.setattr(DTPAutomaton, "from_patterns", corrupted)
        report = verify_cross_backend(patterns)
        assert {(d.code, d.source) for d in report.errors} == {("BSM001", "dtp")}

    def test_cross_backend_checks_the_path_state_count(self, monkeypatch):
        """``path`` has a state count of its own (its trie's), so the
        cross-backend proof compares it with the reference's rather than
        the reference's with itself: one state too many is an STR001 of
        ``path``."""
        assert verify_cross_backend(FIG2_PATTERNS).ok
        monkeypatch.setattr(
            PathCompressedAhoCorasick, "num_states",
            property(lambda program: program.trie.num_states + 1),
        )
        report = verify_cross_backend(FIG2_PATTERNS)
        assert {(d.code, d.source) for d in report.errors} == {("STR001", "path")}

    def test_cross_backend_names_the_corrupt_block(self, monkeypatch, tmp_path, capsys):
        """``repro verify --backend all --device``: the cross-backend run
        also audits the device program block by block, so a stored pointer
        flipped in block 1 of a 2-block program is an error of ``block[1]``
        alone, while the scanned automaton and the bisimulation still
        prove."""
        import repro.cli

        rules = tmp_path / "fanout.rules"
        rules.write_text("".join(
            f'alert tcp any any -> any 80 (content:"abc{chr(k)}"; sid:{k};)\n'
            for k in range(65, 81)
        ), encoding="utf-8")
        argv = ["verify", "--rules", str(rules), "--backend", "all", "--device", "stratix3",
                "--json", str(tmp_path / "report.json")]
        assert main(argv) == 0
        compile_device = repro.cli.compile_ruleset

        def corrupted(*args, **kwargs):
            program = compile_device(*args, **kwargs)
            assert len(program.blocks) == 2
            _flip_stored_pointer(program.blocks[1].dtp)
            return program

        monkeypatch.setattr(repro.cli, "compile_ruleset", corrupted)
        capsys.readouterr()
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "FAILED: Stratix III device program (2 block(s))" in out
        assert "proved: dtp program" in out and "proved: cross-backend equivalence" in out
        errors = [d for d in json.loads((tmp_path / "report.json").read_text())["diagnostics"]
                  if d["severity"] == "error"]
        assert "DTP001" in {d["code"] for d in errors}
        assert {d["source"] for d in errors} == {"block[1]"}

    def test_corrupt_packed_record_pointer(self):
        ruleset = generate_snort_like_ruleset(60, seed=5)
        program = compile_ruleset(ruleset, get_device("stratix3"))
        block = program.blocks[0]
        state = next(
            s for s, record in sorted(block.packed.records.items())
            if record.pointers
        )
        char, target = block.packed.records[state].pointers[0]
        block.packed.records[state].pointers[0] = (char, (target + 1) % block.dtp.num_states)
        assert verify_program(program).errors

    def test_capacity_overrun_is_a_warning_not_an_error(self, monkeypatch):
        # one state fanning out to 16 children needs 16 stored pointers —
        # over the 13-pointer hardware word, but functionally correct, and
        # the scanned automaton is never packed: no warning
        patterns = tuple(b"abc" + bytes([k]) for k in range(65, 81))
        program = DTPAutomaton.from_patterns(patterns)
        report = program.verify()
        assert report.ok and not report.warnings
        # the device program splits the fan-out over two blocks of at most
        # 13 pointers a state; a block whose state held more would not pack
        device_program = compile_ruleset(RuleSet.from_patterns(patterns), get_device("stratix3"))
        assert not verify_program(device_program).warnings
        dtp = device_program.blocks[1].dtp
        over = np.where(dtp.pointer_counts() > 1, 14, dtp.pointer_counts())
        monkeypatch.setattr(dtp, "pointer_counts", lambda: over)
        report = verify_program(device_program)
        assert report.ok
        assert {(d.code, d.source) for d in report.warnings} == {("DTP006", "block[1]")}


# ----------------------------------------------------------------------
# ruleset linter
# ----------------------------------------------------------------------
class TestRulesetLint:
    def test_clean_ruleset(self):
        report = lint_ruleset([b"alpha", b"bravo", b"charlie"])
        assert report.ok and not report.warnings

    def test_duplicate_pattern_is_error(self):
        report = lint_ruleset([b"he", b"she", b"he"])
        assert any(d.code == "RS001" for d in report.errors)

    def test_substring_shadowing_is_warning(self):
        report = lint_ruleset([b"he", b"she", b"hers"])
        shadows = [d for d in report.warnings if d.code == "RS004"]
        assert len(shadows) == 2  # he-in-she and he-in-hers
        assert report.ok  # warnings only

    def test_sid_conflict_is_error(self):
        from repro.rulesets import PatternRule

        report = lint_ruleset([
            PatternRule(pattern=b"one", sid=7),
            PatternRule(pattern=b"two", sid=7),
        ])
        assert any(d.code == "RS002" for d in report.errors)

    def test_empty_ruleset_is_error(self):
        assert any(d.code == "RS003" for d in lint_ruleset([]).errors)

    def test_overlong_pattern_is_warning(self):
        report = lint_ruleset([b"x" * 300, b"ok"])
        assert any(d.code == "RS006" for d in report.warnings)

    def test_capacity_overrun_is_warning(self):
        patterns = [b"abc" + bytes([k]) for k in range(65, 81)]
        report = lint_ruleset(patterns)
        assert any(d.code == "RS007" for d in report.warnings)

    def test_rule_file_lint_reports_per_line(self, tmp_path):
        rules = tmp_path / "bad.rules"
        rules.write_text(
            'alert tcp any any -> any 80 (content:"ok"; sid:1;)\n'
            "this is not a rule\n"
            'alert tcp any any -> any 80 (msg:"no content"; sid:2;)\n'
            'alert tcp any any -> any 80 (content:"ok"; sid:1;)\n',
            encoding="utf-8",
        )
        report = lint_rule_file(str(rules))
        codes = {(d.code, d.rule) for d in report.errors}
        assert ("RS101", 2) in codes  # unparsable line, with its line number
        assert ("RS003", 3) in codes  # content-less rule
        assert any(code == "RS001" for code, _ in codes)  # duplicate pattern
        assert any(code == "RS002" for code, _ in codes)  # sid conflict


# ----------------------------------------------------------------------
# the idiom gate
# ----------------------------------------------------------------------
class TestIdiomChecker:
    def test_bare_except(self):
        report = check_source("try:\n    pass\nexcept:\n    pass\n")
        assert [d.code for d in report.errors] == ["IDM101"]

    def test_sys_exit_in_handler(self):
        source = "import sys\ndef _cmd_x(args):\n    sys.exit(2)\n"
        assert any(d.code == "IDM102" for d in check_source(source).errors)

    def test_stderr_print_requires_nonzero_return(self):
        bad = (
            "import sys\n"
            "def _cmd_x(args):\n"
            "    print('no', file=sys.stderr)\n"
            "    return 0\n"
        )
        good = bad.replace("return 0", "return 1")
        assert any(d.code == "IDM103" for d in check_source(bad).errors)
        assert check_source(good).ok

    def test_config_error_raise_in_cli_module(self):
        source = (
            "def _cmd_x(args):\n"
            "    raise ConfigError('nope')\n"
        )
        assert any(d.code == "IDM104" for d in check_source(source).errors)
        # ...but a spec-layer module (no _cmd_ handlers) may raise it freely
        assert check_source("def build():\n    raise ConfigError('nope')\n").ok

    def test_must_be_message_requires_value(self):
        bad = "def f(n):\n    raise ValueError('flows must be >= 1')\n"
        good = "def f(n):\n    raise ValueError(f'flows must be >= 1, got {n}')\n"
        protocol = (
            "def f():\n"
            "    raise RuntimeError('start_packet must be called before process_byte')\n"
        )
        assert any(d.code == "IDM105" for d in check_source(bad).errors)
        assert check_source(good).ok
        assert check_source(protocol).ok  # no rejected value to show

    def test_count_flag_requires_require_count(self):
        bad = (
            "def _cmd_x(args):\n"
            "    return do(args.flows)\n"
        )
        good = (
            "def _cmd_x(args):\n"
            "    _require_count('--flows', args.flows)\n"
            "    return do(args.flows)\n"
        )
        assert any(d.code == "IDM106" for d in check_source(bad).errors)
        assert check_source(good).ok

    def test_count_flag_check_follows_the_read_into_a_shared_builder(self):
        """Once the handlers' flag reads move into a builder they share, the
        builder is where the range check has to be: every function of a
        handler module is held to IDM106, not just the ``_cmd_*`` bodies."""
        handler = "def _cmd_x(args):\n    return run(_config(args))\n"
        bad = handler + "def _config(args):\n    return spec(args.flows)\n"
        good = handler + (
            "def _config(args):\n"
            "    _require_count('--flows', args.flows)\n"
            "    return spec(args.flows)\n"
        )
        findings = [d for d in check_source(bad).errors if d.code == "IDM106"]
        assert len(findings) == 1 and "_config reads args.flows" in findings[0].message
        assert check_source(good).ok
        # the same builder in a module without handlers is not CLI code
        assert check_source("def _config(args):\n    return spec(args.flows)\n").ok

    def test_syntax_error_is_reported_not_raised(self):
        report = check_source("def broken(:\n")
        assert any(d.code == "IDM100" for d in report.errors)

    def test_src_repro_passes_the_gate(self):
        """The self-gate: the shipped package conforms to its own idiom."""
        report = check_paths([str(SRC_ROOT)])
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# surfaces: CLI subcommands and the Session hook
# ----------------------------------------------------------------------
class TestSurfaces:
    def test_cli_verify_proves_and_exits_zero(self, capsys, tmp_path):
        artifact = tmp_path / "verify.json"
        assert main(["verify", "--size", "40", "--seed", "3",
                     "--backend", "dtp", "--json", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "proved:" in out
        # the scanned automaton, the device program's per-block hardware
        # audit, then the bisimulation
        assert "proved: dtp program over 40 pattern(s)" in out
        assert "proved: Stratix III device program (1 block(s)) over 40 pattern(s)" in out
        assert "proved: cross-backend equivalence (ac, dense, bitmap, path, dtp)" in out
        import json

        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True and payload["diagnostics"] == []

    def test_cli_verify_proves_the_scanned_automaton_and_the_device_blocks(self, capsys):
        """CI's two-block step: every backend's program, the two-block
        device program's hardware audit, and the bisimulation."""
        assert main(["verify", "--size", "1000", "--seed", "2010",
                     "--device", "cyclone3", "--backend", "all"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "proved: dtp program over 1000 pattern(s)" in out
        assert "proved: Cyclone III device program (2 block(s)) over 1000 pattern(s)" in out
        assert "proved: cross-backend equivalence" in out

    def test_cli_verify_all_backends(self, capsys):
        """``--backend all`` proves every registered program, in registry
        order, then the device program and the bisimulation."""
        assert main(["verify", "--size", "30", "--seed", "3",
                     "--backend", "all"]) == 0
        proofs = [line.split(": ", 1)[1].split(" ", 1)[0]
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  proved: ")]
        assert proofs == ["ac", "dense", "bitmap", "path", "dtp", "Stratix", "cross-backend"]

    def test_cli_lint_flags_bad_rules_file(self, capsys, tmp_path):
        rules = tmp_path / "dup.rules"
        rules.write_text(
            'alert tcp any any -> any 80 (content:"same"; sid:1;)\n'
            'alert tcp any any -> any 80 (content:"same"; sid:2;)\n',
            encoding="utf-8",
        )
        assert main(["lint", "--rules", str(rules)]) == 1
        # RuleSet dedupes identical patterns at ingest; the linter sees the
        # raw file, so the duplicate is reported with its line number
        assert "RS001" in capsys.readouterr().out

    def test_cli_lint_code_paths(self, capsys, tmp_path):
        bad = tmp_path / "handlers.py"
        bad.write_text("def _cmd_x(args):\n    return do(args.flows)\n")
        assert main(["lint", "--code", str(bad)]) == 1
        assert "IDM106" in capsys.readouterr().out
        assert main(["lint", "--code", str(SRC_ROOT / "check")]) == 0

    def test_session_verify_hook(self):
        from repro.api import EngineSpec, PipelineConfig, RulesSpec, Session, SourceSpec

        config = PipelineConfig(
            mode="packets",
            source=SourceSpec(kind="generator", count=2, seed=4),
            rules=RulesSpec(kind="synthetic", size=30, seed=4),
            engine=EngineSpec(backend="dtp"),
        )
        with Session.from_config(config) as session:
            report = session.verify()
        assert report.ok, report.render()

    def test_mixin_verify_hook_on_every_backend(self):
        for name in backend_names():
            assert get_backend(name).compile(FIG2_PATTERNS).verify().ok
