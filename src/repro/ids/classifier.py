"""5-tuple header classification (the first half of a Snort rule).

Section I of the paper: a DPI rule has a header part (5-tuple packet
classification) and a content part (the fixed strings the accelerator
searches for).  This module provides the header side so the example IDS
pipeline can demonstrate the complete rule semantics, not just string
matching.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from ..traffic.packet import FiveTuple


@dataclass(frozen=True)
class HeaderPattern:
    """A header match pattern with Snort-style wildcards.

    * IP fields accept ``"any"``, a single address, or CIDR notation
      (``"192.168.0.0/16"``); Snort's ``$HOME_NET`` style variables should be
      resolved before constructing the pattern.
    * Port fields accept ``"any"``, a single port (``"80"``), or an inclusive
      range (``"1024:65535"``).
    * ``protocol`` accepts ``"ip"`` (any), ``"tcp"``, ``"udp"`` or ``"icmp"``.
    """

    protocol: str = "ip"
    src_ip: str = "any"
    src_port: str = "any"
    dst_ip: str = "any"
    dst_port: str = "any"

    @cached_property
    def _tests(self) -> Tuple[Callable[[str], bool], Callable[[str], bool],
                              Callable[[int], bool], Callable[[int], bool]]:
        """The four field tests, parsed from the pattern strings once."""
        return (
            _ip_test(self.src_ip),
            _ip_test(self.dst_ip),
            _port_test(self.src_port),
            _port_test(self.dst_port),
        )

    def matches(self, header: FiveTuple) -> bool:
        if self.protocol not in ("ip", "any") and header.protocol != self.protocol:
            return False
        src_ip, dst_ip, src_port, dst_port = self._tests
        return (
            src_ip(header.src_ip)
            and dst_ip(header.dst_ip)
            and src_port(header.src_port)
            and dst_port(header.dst_port)
        )


def _always(_value) -> bool:
    return True


def _ip_test(pattern: str) -> Callable[[str], bool]:
    pattern = pattern.strip()
    if pattern in ("any", "*", "0.0.0.0/0", "$EXTERNAL_NET", "$HOME_NET"):
        return _always
    negate = pattern.startswith("!")
    if negate:
        pattern = pattern[1:]
    try:
        network = ipaddress.ip_network(pattern, strict=False)
    except ValueError:
        network = None

    def test(address: str) -> bool:
        result = pattern == address
        if network is not None:
            try:
                result = ipaddress.ip_address(address) in network
            except ValueError:
                pass  # not an address: fall back to the literal comparison
        return result != negate

    return test


def _port_test(pattern: str) -> Callable[[int], bool]:
    pattern = pattern.strip()
    if pattern in ("any", "*"):
        return _always
    negate = pattern.startswith("!")
    if negate:
        pattern = pattern[1:]
    if ":" in pattern:
        low_text, _, high_text = pattern.partition(":")
        low = int(low_text) if low_text else 0
        high = int(high_text) if high_text else 65535
    else:
        low = high = int(pattern)
    return lambda port: (low <= port <= high) != negate


#: distinct candidate lists cached (here per matched-pattern combination, in
#: the confirm stage per list) before the cache starts over: which ones occur
#: is driven by the traffic's addresses and ports, so the cache is bounded
CANDIDATE_CACHE_LIMIT = 1024


class HeaderClassifier:
    """Linear-scan multi-rule header classifier, one test per distinct pattern.

    A production router would use a decision-tree or TCAM classifier; the DPI
    paper's focus is the payload scan, so a simple linear matcher keeps the
    example pipeline easy to follow while exposing the same interface.  Rules
    sharing a header pattern (500 wildcard rules, a port group) are tested
    once per header, and the rule-id list of each combination of matched
    patterns is built once and reused.
    """

    def __init__(self) -> None:
        #: ``(rule id, index of its pattern in _distinct)`` in insertion order
        self._rules: List[Tuple[int, int]] = []
        self._distinct: List[HeaderPattern] = []
        self._index_of: Dict[HeaderPattern, int] = {}
        #: which distinct patterns matched -> the rule ids that follow
        self._combinations: Dict[Tuple[bool, ...], Tuple[int, ...]] = {}

    def add_rule(self, rule_id: int, pattern: HeaderPattern) -> None:
        index = self._index_of.get(pattern)
        if index is None:
            index = self._index_of[pattern] = len(self._distinct)
            pattern._tests  # parse networks and port ranges here, not per header
            self._distinct.append(pattern)
        self._rules.append((rule_id, index))
        self._combinations.clear()

    def __len__(self) -> int:
        return len(self._rules)

    def classify(self, header: Optional[FiveTuple]) -> List[int]:
        """Rule ids whose header pattern matches ``header``, in insertion
        order (a fresh list: the caller may mutate it).

        A packet without a header (payload-only testing) matches every rule,
        which mirrors running Snort with header checks disabled.
        """
        if header is None:
            return [rule_id for rule_id, _ in self._rules]
        matched = tuple(pattern.matches(header) for pattern in self._distinct)
        rule_ids = self._combinations.get(matched)
        if rule_ids is None:
            if len(self._combinations) >= CANDIDATE_CACHE_LIMIT:
                self._combinations.clear()
            rule_ids = self._combinations[matched] = tuple(
                rule_id for rule_id, index in self._rules if matched[index]
            )
        return list(rule_ids)
