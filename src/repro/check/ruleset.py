"""Ruleset linter: content-level problems a compiled automaton cannot show.

The program verifier (:mod:`repro.check.program`) proves a compiled artifact
faithful to its patterns; this module asks whether the *patterns themselves*
are worth compiling — duplicate or shadowed content, sid conflicts,
un-encodable bytes, and states that will not fit the hardware's 13-pointer
words.  It operates on :class:`~repro.rulesets.RuleSet` instances, plain
pattern lists, or raw Snort rule files (one finding per unparsable line,
instead of the parser's first-error-wins behaviour).

Diagnostic codes
----------------
=======  ========  ==============================================================
code     severity  meaning
=======  ========  ==============================================================
RS001    error     exact duplicate pattern (the automaton rejects these)
RS002    error     two rules share one sid
RS003    error     empty content (matches everywhere / rejected by the parser)
RS004    warning   pattern is a proper substring of another -> duplicate alerts
RS005    error     content is not latin-1 encodable (one byte per character)
RS006    warning   pattern longer than ``OVERLONG_PATTERN`` bytes
RS007    warning   automaton state stores more than 13 pointers (hardware cap)
RS008    error     unsatisfiable window: ``depth``/``within`` shorter than the
                   content it bounds (the window can never contain the pattern)
RS009    warning   rule has only negated contents; the ids engine skips it
                   (no positive content for the prefilter to anchor on)
RS010    error     invalid ``pcre`` option (unbalanced delimiters, bad flag,
                   pattern :mod:`re` cannot compile)
RS011    error     positional window (``offset``/``depth``/``distance``/
                   ``within``) combined with a sticky buffer: windows measure
                   raw-stream offsets, which a normalized buffer does not have
RS012    error     relative content anchored to a sticky-buffer content: a
                   ``distance``/``within`` window cannot cross from a
                   normalized buffer into the raw stream
RS101    error     rule-file line failed to parse (message from the parser)
=======  ========  ==============================================================

RS008–RS012 need the positional/negation/pcre/sticky grammar, so they fire from
:func:`lint_rule_file` (where the full predicate is parsed), not from the
bytes-only :func:`lint_ruleset` entry point.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.dtp_automaton import HARDWARE_MAX_POINTERS, PrunedAutomaton
from ..rulesets.parser import RuleParseError, parse_rule
from ..rulesets.ruleset import PatternRule, RuleSet
from .diagnostics import ERROR, WARNING, Report

#: Patterns longer than this draw RS006 — far beyond any Snort content and a
#: likely sign of a mis-decoded hex block.
OVERLONG_PATTERN = 256

RulesInput = Union[RuleSet, Sequence[bytes], Sequence[PatternRule]]


def _as_rules(rules: RulesInput) -> List[Tuple[bytes, Optional[int], int]]:
    """Normalise input to ``(pattern, sid-or-None, position)`` triples."""
    out: List[Tuple[bytes, Optional[int], int]] = []
    for position, item in enumerate(rules):
        if isinstance(item, PatternRule):
            out.append((item.pattern, item.sid, position))
        else:
            out.append((bytes(item), None, position))
    return out


def _shadow_pairs(
    patterns: Sequence[bytes],
) -> Iterable[Tuple[int, int, int]]:
    """Yield ``(inner, outer, offset)`` where ``patterns[inner]`` occurs
    inside ``patterns[outer]`` at ``offset``.

    Found by scanning each pattern *as traffic* through an Aho-Corasick
    automaton over all patterns — O(total length), not O(n^2) pairs — the
    same trick the matcher itself uses.
    """
    from ..automata.aho_corasick import AhoCorasickDFA

    dfa = AhoCorasickDFA.from_patterns(patterns)
    for outer, pattern in enumerate(patterns):
        state = 0
        for end, byte in enumerate(pattern):
            state = int(dfa.table[state, byte])
            for inner in dfa.outputs[state]:
                if inner == outer and end == len(pattern) - 1:
                    continue  # the pattern matching itself at its own end
                yield inner, outer, end - len(patterns[inner]) + 1


def lint_ruleset(rules: RulesInput, subject: str = "") -> Report:
    """Lint patterns/rules that are already decoded into bytes."""
    triples = _as_rules(rules)
    report = Report(subject=subject or f"ruleset lint over {len(triples)} rule(s)")
    if not triples:
        report.add(ERROR, "RS003", "ruleset is empty: nothing to compile")
        return report

    seen_pattern: Dict[bytes, int] = {}
    seen_sid: Dict[int, int] = {}
    for pattern, sid, position in triples:
        if len(pattern) == 0:
            report.add(
                ERROR,
                "RS003",
                "empty content pattern (would match at every byte)",
                rule=position,
            )
            continue
        if pattern in seen_pattern:
            report.add(
                ERROR,
                "RS001",
                f"pattern {pattern!r} duplicates rule {seen_pattern[pattern]}",
                rule=position,
            )
        else:
            seen_pattern[pattern] = position
        if len(pattern) > OVERLONG_PATTERN:
            report.add(
                WARNING,
                "RS006",
                f"pattern is {len(pattern)} bytes long "
                f"(> {OVERLONG_PATTERN}); likely a mis-decoded content",
                rule=position,
            )
        if sid is not None:
            if sid in seen_sid:
                report.add(
                    ERROR,
                    "RS002",
                    f"sid {sid} already claimed by rule {seen_sid[sid]}",
                    rule=position,
                )
            else:
                seen_sid[sid] = position

    # Shadowing: a substring pattern fires on every hit of its superstring,
    # so the pair always alerts together — usually one of them is dead weight.
    unique = [p for p, _, _ in triples if p]
    positions = [pos for p, _, pos in triples if p]
    deduped: Dict[bytes, int] = {}
    for pattern, position in zip(unique, positions):
        deduped.setdefault(pattern, position)
    ordered = list(deduped)
    for inner, outer, offset in _shadow_pairs(ordered):
        report.add(
            WARNING,
            "RS004",
            f"pattern {ordered[inner]!r} is a substring of "
            f"{ordered[outer]!r} (offset {offset}): every match of the "
            "longer rule also alerts the shorter one",
            rule=deduped[ordered[inner]],
        )

    # Hardware capacity: states keeping more pointers than a 324-bit word
    # holds.  Built without the pointer cap so the raw requirement shows.
    if ordered:
        dtp = PrunedAutomaton.from_patterns(ordered)
        counts = dtp.pointer_counts()
        for state in dtp.states_exceeding(HARDWARE_MAX_POINTERS):
            report.add(
                WARNING,
                "RS007",
                f"automaton state {state} needs {int(counts[state])} "
                f"stored pointers; the hardware word holds "
                f"{HARDWARE_MAX_POINTERS} (the block compiler will have to "
                "split or re-partition)",
                state=state,
            )
    return report


def lint_rule_file(path: str) -> Report:
    """Lint a Snort rules file line by line.

    Unlike :func:`repro.rulesets.parse_rules` (first error aborts), every
    unparsable line becomes its own RS101 finding with the line number in
    ``rule``, and the parsable remainder is linted as a ruleset.
    """
    rules: List[PatternRule] = []
    report = Report(subject=f"rule file lint: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    line_of: Dict[int, int] = {}
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            spec = parse_rule(stripped)
        except RuleParseError as exc:
            message = str(exc)
            if "latin-1" in message:
                code = "RS005"
            elif "empty content" in message:
                code = "RS003"
            elif "pcre" in message:
                code = "RS010"
            elif "raw-stream offsets" in message:
                code = "RS011"
            elif "cannot cross" in message:
                code = "RS012"
            else:
                code = "RS101"
            report.add(ERROR, code, message, rule=number)
            continue
        raw_index = 0
        for content in spec.contents:
            for bound_name, bound in (
                ("depth", content.depth),
                ("within", content.within),
            ):
                if bound is not None and bound < len(content.pattern):
                    report.add(
                        ERROR,
                        "RS008",
                        f"{bound_name} {bound} is shorter than the "
                        f"{len(content.pattern)}-byte content "
                        f"{content.pattern!r}: the window can never contain "
                        "the pattern",
                        rule=number,
                    )
            if content.is_sticky:
                # tested against normalized buffers: never compiled, so the
                # pattern-level lint (duplicates, shadowing) does not apply
                continue
            line_of[len(rules)] = number
            rules.append(
                PatternRule(
                    pattern=content.effective_pattern(),
                    # only the first content carries the rule's sid: the
                    # extras get placeholders, mirroring SidAllocator, so a
                    # multi-content rule does not RS002-conflict with itself
                    sid=spec.sid
                    if spec.sid is not None and raw_index == 0
                    else -(len(rules) + 1),
                    msg=spec.msg,
                )
            )
            raw_index += 1
        if spec.contents and not spec.positive_contents:
            report.add(
                WARNING,
                "RS009",
                "rule has only negated contents; the ids engine skips it "
                "(no positive content for the prefilter to anchor on)",
                rule=number,
            )
        if not spec.contents:
            report.add(
                ERROR,
                "RS003",
                "rule has no content option: nothing to match",
                rule=number,
            )
    content_report = lint_ruleset(rules) if rules else Report()
    # Re-anchor content findings to file line numbers where we can.
    for diagnostic in content_report.diagnostics:
        report.add(
            diagnostic.severity,
            diagnostic.code,
            diagnostic.message,
            state=diagnostic.state,
            byte=diagnostic.byte,
            rule=line_of.get(diagnostic.rule, diagnostic.rule)
            if diagnostic.rule is not None
            else None,
            source=diagnostic.source,
        )
    return report
