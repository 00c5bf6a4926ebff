"""Tests for the RuleSet container."""

import pytest

from repro.rulesets import PatternRule, RuleSet


def test_add_and_lookup():
    ruleset = RuleSet(name="t")
    rule = ruleset.add_pattern(b"abc", msg="demo")
    assert rule.sid == 1
    assert b"abc" in ruleset
    assert ruleset.rule_for(b"abc").msg == "demo"
    assert len(ruleset) == 1


def test_duplicate_pattern_rejected():
    ruleset = RuleSet.from_patterns([b"one"])
    with pytest.raises(ValueError):
        ruleset.add(PatternRule(pattern=b"one", sid=99))


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        PatternRule(pattern=b"", sid=1)


def test_from_patterns_assigns_sequential_sids():
    ruleset = RuleSet.from_patterns([b"a1", b"b2", b"c3"])
    assert ruleset.sids == [1, 2, 3]
    assert ruleset.patterns == [b"a1", b"b2", b"c3"]


def test_total_characters_and_starting_bytes():
    ruleset = RuleSet.from_patterns([b"abc", b"abcd", b"xyz"])
    assert ruleset.total_characters == 10
    assert ruleset.unique_starting_bytes == 2


def test_length_histograms():
    ruleset = RuleSet.from_patterns([b"ab", b"cd", b"efghi", bytes(60)])
    histogram = ruleset.length_histogram()
    assert histogram == {2: 2, 5: 1, 60: 1}
    buckets = ruleset.bucketed_histogram()
    assert buckets["1-4"] == 2
    assert buckets["5-9"] == 1
    assert buckets["50+"] == 1
    assert sum(buckets.values()) == len(ruleset)


def test_round_robin_split():
    ruleset = RuleSet.from_patterns([b"r%d" % i for i in range(10)])
    groups = ruleset.split(3)
    assert sum(len(g) for g in groups) == 10
    assert {p for g in groups for p in g.patterns} == set(ruleset.patterns)
    with pytest.raises(ValueError):
        ruleset.split(0)


def test_summary_fields():
    ruleset = RuleSet.from_patterns([b"ab", b"cdef"])
    summary = ruleset.summary()
    assert summary["rules"] == 2
    assert summary["characters"] == 6
    assert summary["min_length"] == 2
    assert summary["max_length"] == 4
    assert summary["mean_length"] == 3.0


def test_empty_summary():
    assert RuleSet(name="e").summary()["rules"] == 0


def test_indexing_and_iteration():
    ruleset = RuleSet.from_patterns([b"aa", b"bb"])
    assert ruleset[0].pattern == b"aa"
    assert [r.pattern for r in ruleset] == [b"aa", b"bb"]


class _CountingList(list):
    """A list that counts the items its iterators hand out."""

    steps = 0

    def __iter__(self):
        for item in super().__iter__():
            self.steps += 1
            yield item


def test_add_pattern_does_not_rescan_the_rules():
    """Each new sid comes from a running maximum: N ``add_pattern`` calls
    walk none of the rules already held (they walked N²/2 before)."""
    ruleset = RuleSet.from_patterns([b"seed%d" % index for index in range(50)])
    ruleset._rules = counting = _CountingList(ruleset._rules)
    for index in range(200):
        ruleset.add_pattern(b"added%d" % index)
    assert counting.steps == 0
    assert ruleset.sids == list(range(1, 251))


def test_next_sid_follows_the_largest_sid_in_any_order():
    ruleset = RuleSet([PatternRule(b"a", sid=-7), PatternRule(b"b", sid=-9)])
    assert ruleset.next_sid() == -6
    ruleset.add(PatternRule(b"c", sid=40))
    ruleset.add(PatternRule(b"d", sid=12))
    assert ruleset.add_pattern(b"e").sid == 41
    assert RuleSet().next_sid() == 1
