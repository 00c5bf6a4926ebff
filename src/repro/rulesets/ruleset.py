"""Ruleset container: the set of fixed strings a DPI engine must search for."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PatternRule:
    """A single fixed-string content rule.

    Attributes
    ----------
    pattern:
        The byte string that must be found in a packet payload.
    sid:
        Rule identifier (Snort "sid").  Unique within a ruleset.
    msg:
        Human readable description.
    """

    pattern: bytes
    sid: int
    msg: str = ""

    def __post_init__(self) -> None:
        if len(self.pattern) == 0:
            raise ValueError("PatternRule.pattern must not be empty")

    @property
    def length(self) -> int:
        return len(self.pattern)


class RuleSet:
    """An ordered collection of unique fixed-string patterns.

    The paper works with *unique strings* extracted from the Snort ruleset;
    accordingly duplicate patterns are rejected (they would be redundant in
    the automaton and would distort the memory statistics).
    """

    def __init__(self, rules: Optional[Iterable[PatternRule]] = None, name: str = "ruleset"):
        self.name = name
        self._rules: List[PatternRule] = []
        self._by_pattern: Dict[bytes, PatternRule] = {}
        self._max_sid = 0
        if rules is not None:
            for rule in rules:
                self.add(rule)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, rule: PatternRule) -> None:
        if rule.pattern in self._by_pattern:
            raise ValueError(f"duplicate pattern {rule.pattern!r} (sid {rule.sid})")
        self._rules.append(rule)
        self._by_pattern[rule.pattern] = rule
        if len(self._rules) == 1 or rule.sid > self._max_sid:
            self._max_sid = rule.sid

    def add_pattern(self, pattern: bytes, msg: str = "") -> PatternRule:
        """Add a raw pattern, assigning the next free sid."""
        rule = PatternRule(pattern=pattern, sid=self.next_sid(), msg=msg)
        self.add(rule)
        return rule

    def next_sid(self) -> int:
        if not self._rules:
            return 1
        return self._max_sid + 1

    @classmethod
    def from_patterns(
        cls, patterns: Sequence[bytes], name: str = "ruleset"
    ) -> "RuleSet":
        ruleset = cls(name=name)
        for index, pattern in enumerate(patterns, start=1):
            ruleset.add(PatternRule(pattern=pattern, sid=index))
        return ruleset

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[PatternRule]:
        return iter(self._rules)

    def __contains__(self, pattern: bytes) -> bool:
        return pattern in self._by_pattern

    def __getitem__(self, index: int) -> PatternRule:
        return self._rules[index]

    def rule_for(self, pattern: bytes) -> PatternRule:
        return self._by_pattern[pattern]

    # ------------------------------------------------------------------
    # views and statistics
    # ------------------------------------------------------------------
    @property
    def patterns(self) -> List[bytes]:
        return [r.pattern for r in self._rules]

    @property
    def sids(self) -> List[int]:
        return [r.sid for r in self._rules]

    @property
    def total_characters(self) -> int:
        """Total number of bytes over all patterns (the paper's '19,124 characters')."""
        return sum(r.length for r in self._rules)

    @property
    def unique_starting_bytes(self) -> int:
        return len({r.pattern[0] for r in self._rules})

    def length_histogram(self) -> Dict[int, int]:
        """Exact histogram: pattern length -> number of patterns."""
        histogram: Dict[int, int] = {}
        for rule in self._rules:
            histogram[rule.length] = histogram.get(rule.length, 0) + 1
        return histogram

    def bucketed_histogram(
        self, bucket_width: int = 5, cap: int = 50
    ) -> Dict[str, int]:
        """Histogram using the bucketing of Figure 6 (1-4, 5-9, ..., 50+)."""
        buckets: Dict[str, int] = {}
        edges: List[Tuple[int, int, str]] = [(1, bucket_width - 1, f"1-{bucket_width - 1}")]
        low = bucket_width
        while low < cap:
            high = low + bucket_width - 1
            edges.append((low, high, f"{low}-{high}"))
            low += bucket_width
        edges.append((cap, 10 ** 9, f"{cap}+"))
        for _, _, name in edges:
            buckets[name] = 0
        for rule in self._rules:
            for lo, hi, name in edges:
                if lo <= rule.length <= hi:
                    buckets[name] += 1
                    break
        return buckets

    def split(self, num_groups: int) -> List["RuleSet"]:
        """Round-robin split into ``num_groups`` child rulesets (see core.partition
        for the size-balanced strategy used by the accelerator compiler)."""
        if num_groups <= 0:
            raise ValueError(f"num_groups must be positive, got {num_groups}")
        groups: List[RuleSet] = [
            RuleSet(name=f"{self.name}/part{i}") for i in range(num_groups)
        ]
        for index, rule in enumerate(self._rules):
            groups[index % num_groups].add(rule)
        return [g for g in groups if len(g) > 0]

    def summary(self) -> Dict[str, float]:
        lengths = [r.length for r in self._rules]
        if not lengths:
            return {
                "rules": 0,
                "characters": 0,
                "min_length": 0,
                "max_length": 0,
                "mean_length": 0.0,
                "unique_starting_bytes": 0,
            }
        return {
            "rules": len(lengths),
            "characters": sum(lengths),
            "min_length": min(lengths),
            "max_length": max(lengths),
            "mean_length": sum(lengths) / len(lengths),
            "unique_starting_bytes": self.unique_starting_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleSet(name={self.name!r}, rules={len(self)}, chars={self.total_characters})"
