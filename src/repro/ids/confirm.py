"""Second-stage rule confirmation: predicates over prefilter hit positions.

The paper's engines are a line-rate *prefilter*: they report where any rule
content occurs in a flow's byte stream (``StreamMatch.end_offset`` is
already absolute in the flow, even for matches straddling segment
boundaries).  Real Snort rules say more than "these strings occur" — where
a content must sit (``offset``/``depth``), how far from the previous one
(``distance``/``within``), contents that must *not* appear
(``content:!"..."``) and a ``pcre`` that must confirm the hit.  This module
evaluates those predicates using only what the prefilter produces: sorted
absolute end offsets per pattern, plus (only when the ruleset carries pcre
options) the flow's bytes, buffered per candidate flow.

Window semantics (shared with the ruleset linter and the naive reference
evaluator in the test suite):

* an occurrence of a content of length ``L`` ending at ``end`` starts at
  ``start = end - L`` (``end`` is one past the final byte, the prefilter's
  convention);
* absolute anchoring — ``start >= offset`` (default 0) and, with ``depth``,
  ``end <= offset + depth``;
* relative anchoring (``distance``/``within``) — against ``doe``, the end
  of the previous positive content's chosen occurrence:
  ``start >= doe + distance`` (default 0) and, with ``within``,
  ``end <= doe + distance + within``;
* a **negated** content must have *no* occurrence inside its window and
  never advances ``doe``.  Its verdict needs the window fully scanned: a
  bounded window (``depth``/``within``) decides once the stream passed its
  end, an unbounded one only at flow end (or eviction);
* content chains **backtrack**: the chosen occurrence of one content is the
  anchor of the next, and a greedy earliest-match choice is wrong (an early
  anchor can push the next content's ``within`` bound out of reach), so
  every satisfying occurrence is tried, memoised on ``(step, doe)``;
* ``pcre`` options run :mod:`re` (compiled once, cached per pattern) over
  the flow's buffered bytes only after the content chain is satisfied — the
  stage that keeps regexes off the no-hit hot path.

A rule without negation is *monotone* — once its predicate holds on a
prefix it holds on the flow — so the pipeline alerts at the first packet
where confirmation succeeds.  A negated component is decided as soon as its
window is: a bounded one (``depth``/``within``) mid-stream, once the flow has
grown past the window's end; an unbounded one (and a negated pcre or sticky
content) only when no more bytes can arrive —
:meth:`ConfirmStage.finalize_flow` decides those at flow end or eviction,
attributing the alert to the flow's last seen packet.

Which rules a packet can turn true (the event-driven due set)
-------------------------------------------------------------
``check`` is never run for "every candidate rule on every packet".  At
construction the stage inverts its evaluators into an index *prefilter string
number → rules with a positive raw step on it* — one for raw-view events
(every such step) and one for lowered-view events (``nocase`` steps only: a
case-sensitive step never sees a lowered hit) — and sorts the rules into
three classes:

* **event-only** — no pcre, no sticky-buffer content, no negated content.
  The verdict is a function of the steps' occurrence lists alone, and lists
  only grow, so it can turn true only on a packet that appended to one of
  them: the rule is asked on the packets whose events the index maps to it.
* **growth-sensitive** — any pcre, sticky or negated component.  The verdict
  can flip with no new positive hit (a bounded negation window closes as
  ``length`` grows, a pcre or an ``http_uri`` matches bytes of a later
  hit-free segment).  It still needs every positive raw step to have
  occurred, so it is false until the index first maps an event of the flow
  to it; from then on the flow keeps it in its ``touched`` set and asks it
  on every packet until it alerts.
* **unanchored** — growth-sensitive with no positive raw step (a pure
  sticky-buffer rule): no event can announce it, so it sits in ``touched``
  from the flow's first packet.

Per packet the due set is ``index[this packet's events] ∪ touched``,
restricted to the flow's header candidates, minus the rules that already
alerted, asked in rule-file order so alerts come out in the order the
exhaustive loop produced.  ``check`` is pure, so asking a rule
that cannot have changed is always safe and asking too few never is; the
naive evaluator in the test suite (every rule on every packet) is the
reference.  ``touched`` is not checkpointed: it is re-derived from the
restored occurrence positions (every recorded position was once an event).
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..proto.http import HttpStream
from ..rulesets.parser import RulePredicate
from ..streaming.flow import FlowKey
from ..traffic.packet import FiveTuple, Packet
from .classifier import CANDIDATE_CACHE_LIMIT


class _Step:
    """One content of a compiled predicate, bound to its prefilter number.

    Sticky-buffer contents (``buffer != "raw"``) have no prefilter number —
    the prefilter never searches normalized buffers — and instead carry
    their effective pattern bytes for the substring test."""

    __slots__ = (
        "number", "length", "nocase", "negated",
        "offset", "depth", "distance", "within", "relative",
        "buffer", "pattern",
    )

    def __init__(self, content, number: Optional[int]):
        self.number = number
        self.length = len(content.pattern)
        self.nocase = content.nocase
        self.negated = content.negated
        self.offset = content.offset
        self.depth = content.depth
        self.distance = content.distance
        self.within = content.within
        self.relative = content.is_relative
        self.buffer = content.buffer
        self.pattern = content.effective_pattern()

    def window(self, doe: int) -> Tuple[int, Optional[int]]:
        """``(min_start, max_end)`` for this step anchored at ``doe``
        (``max_end`` is ``None`` when the window is unbounded)."""
        if self.relative:
            lo = doe + (self.distance or 0)
            hi = lo + self.within if self.within is not None else None
        else:
            lo = self.offset or 0
            hi = lo + self.depth if self.depth is not None else None
        return lo, hi


#: occurrence source handed to :meth:`RuleEvaluator.evaluate`: step -> sorted
#: absolute end offsets of that step's pattern in the flow so far.
OccurrenceFn = Callable[[_Step], Sequence[int]]


def merged_occurrences(
    step: _Step,
    positions: Dict[int, List[int]],
    lower_positions: Dict[int, List[int]],
) -> Sequence[int]:
    """Sorted end offsets of ``step``'s pattern, honouring its case mode.

    Case-sensitive steps see only the raw-view hits; ``nocase`` steps merge
    in the lower-cased-view hits (deduplicated — a hit present in both views
    is one occurrence).  Shared between the streaming :class:`ConfirmStage`
    and the stateless per-packet path in the pipeline.
    """
    raw = positions.get(step.number, ())
    if not step.nocase:
        return raw
    lower = lower_positions.get(step.number, ())
    if not lower:
        return raw
    if not raw:
        return lower
    return sorted(set(raw).union(lower))


class RuleEvaluator:
    """One rule's :class:`RulePredicate` compiled against a prefilter.

    ``number_of`` maps effective pattern bytes to the prefilter's string
    numbers; pcres are compiled (and cached) at construction, so evaluation
    never pays a regex compile.
    """

    def __init__(self, sid: int, predicate: RulePredicate, number_of: Dict[bytes, int]):
        self.sid = sid
        #: the raw-stream content chain (windows resolve against it)
        self.steps: List[_Step] = []
        #: sticky-buffer contents: independent substring tests against the
        #: flow's normalized HTTP buffers (grammar forbids windows on them
        #: and relative anchoring across them, so chain order is irrelevant)
        self.sticky_steps: List[_Step] = []
        for content in predicate.contents:
            if content.is_sticky:
                self.sticky_steps.append(_Step(content, None))
            else:
                self.steps.append(
                    _Step(content, number_of[content.effective_pattern()])
                )
        self.pcres = [(p.compile(), p.negated) for p in predicate.pcres]
        self.plain = predicate.is_plain
        #: verdict can flip at flow end: some component is negated
        self.requires_end = predicate.requires_end
        self.needs_buffer = bool(self.pcres)
        self.needs_http = bool(self.sticky_steps)
        #: the raw positive steps: the cheap candidacy gate (sticky steps
        #: have no prefilter occurrences to gate on)
        self.positive_steps = [s for s in self.steps if not s.negated]
        #: verdict can flip with no new positive hit (see the module docstring)
        self.growth_sensitive = bool(
            self.pcres or self.sticky_steps or len(self.positive_steps) < len(self.steps)
        )

    def _sticky_ok(self, http: Optional[HttpStream], at_end: bool) -> bool:
        """Evaluate the sticky-buffer contents against the flow's normalized
        buffers (empty when the flow is not HTTP or no normalizer ran).

        Positive sticky contents are monotone — the buffers only grow — so
        a hit stands; negated ones are only provable once the flow cannot
        grow, exactly like negated raw contents."""
        for step in self.sticky_steps:
            data = b"" if http is None else http.buffer(step.buffer)
            if step.nocase:
                data = data.lower()
            found = step.pattern in data
            if step.negated:
                if found or not at_end:
                    return False
            elif not found:
                return False
        return True

    def evaluate(
        self,
        occurrences: OccurrenceFn,
        length: int,
        buffer: Optional[bytes],
        at_end: bool,
        http: Optional[HttpStream] = None,
    ) -> bool:
        """Does the flow (``length`` bytes scanned so far) satisfy the rule?

        Mid-stream (``at_end=False``) the answer is conservative: negated
        components whose window is still open and positive pcres that have
        not matched yet report ``False`` — the caller simply re-evaluates
        on later packets, and :meth:`ConfirmStage.finalize_flow` asks once
        more with ``at_end=True``.
        """
        if self.sticky_steps and not self._sticky_ok(http, at_end):
            return False
        if self.plain:
            return all(occurrences(step) for step in self.steps)
        memo: Dict[Tuple[int, int], bool] = {}

        def chain(index: int, doe: int) -> bool:
            if index == len(self.steps):
                return self._pcres_ok(buffer, at_end)
            key = (index, doe)
            cached = memo.get(key)
            if cached is not None:
                return cached
            step = self.steps[index]
            lo, hi = step.window(doe)
            ends = occurrences(step)
            result = False
            if step.negated:
                occupied = any(
                    end - step.length >= lo and (hi is None or end <= hi)
                    for end in ends
                )
                decided = at_end or (hi is not None and length >= hi)
                if not occupied and decided:
                    result = chain(index + 1, doe)
            else:
                for end in ends:
                    if hi is not None and end > hi:
                        break  # ends are sorted: nothing later can fit
                    if end - step.length >= lo and chain(index + 1, end):
                        result = True
                        break
            memo[key] = result
            return result

        return chain(0, 0)

    def _pcres_ok(self, buffer: Optional[bytes], at_end: bool) -> bool:
        if not self.pcres:
            return True
        if buffer is None:
            raise ValueError(
                f"rule {self.sid} has pcre options but no flow buffer was kept"
            )
        for regex, negated in self.pcres:
            found = regex.search(buffer) is not None
            if negated:
                # absence is only provable once the flow cannot grow
                if found or not at_end:
                    return False
            elif not found:
                return False
        return True


class _Candidates(NamedTuple):
    """One header-candidate list and what the stage derives from it, shared
    by every flow whose header matched the same rules."""

    sids: Tuple[int, ...]
    members: FrozenSet[int]
    #: the candidates no prefilter event can announce (pure sticky rules)
    unanchored: FrozenSet[int]


class _FlowRecord:
    """Per-flow confirm state: occurrence positions, optional byte buffer,
    header candidates, which rules already alerted, and which
    growth-sensitive rules are re-asked as the flow grows."""

    __slots__ = (
        "positions", "lower_positions", "buffer", "length",
        "alerted", "view", "last_packet_id", "http", "touched",
    )

    def __init__(self, view: _Candidates):
        self.positions: Dict[int, List[int]] = {}
        self.lower_positions: Dict[int, List[int]] = {}
        self.buffer: Optional[bytearray] = None
        self.length = 0
        self.alerted: Set[int] = set()
        self.view = view
        self.last_packet_id = -1
        #: the flow's HTTP normalizer (only when some rule is sticky)
        self.http: Optional[HttpStream] = None
        #: growth-sensitive candidates asked on every packet until they
        #: alert: the unanchored ones from the start, the rest once touched
        self.touched: Set[int] = set(view.unanchored)

    @property
    def candidates(self) -> Tuple[int, ...]:
        return self.view.sids

    @property
    def has_hits(self) -> bool:
        """Anything for a rule to match on yet: prefilter occurrences, or a
        normalized HTTP buffer a sticky content could hit."""
        if self.positions or self.lower_positions:
            return True
        return self.http is not None and self.http.is_http

    def absorb(self, packet_id: int, payload: bytes, events: Sequence) -> None:
        """Fold one scanned packet in.  ``events`` carry flow-absolute end
        offsets (the scanner's resumability contract), so positions
        accumulate sorted per view without any per-segment rebasing."""
        self.last_packet_id = packet_id
        self.length += len(payload)
        if self.buffer is not None:
            self.buffer += payload
        if self.http is not None:
            self.http.feed(payload)
        for event in events:
            target = self.lower_positions if event.lowered else self.positions
            target.setdefault(event.string_number, []).append(event.end_offset)

    def as_dict(self) -> Dict:
        return {
            "positions": {str(k): v for k, v in self.positions.items()},
            "lower_positions": {str(k): v for k, v in self.lower_positions.items()},
            "buffer": None if self.buffer is None else bytes(self.buffer).hex(),
            "length": self.length,
            "alerted": sorted(self.alerted),
            "candidates": list(self.view.sids),
            "last_packet_id": self.last_packet_id,
            "http": None if self.http is None else self.http.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict, view: _Candidates) -> "_FlowRecord":
        record = cls(view)
        record.positions = {int(k): list(v) for k, v in data["positions"].items()}
        record.lower_positions = {
            int(k): list(v) for k, v in data["lower_positions"].items()
        }
        buffer = data.get("buffer")
        record.buffer = None if buffer is None else bytearray(bytes.fromhex(buffer))
        record.length = int(data["length"])
        record.alerted = set(data["alerted"])
        record.last_packet_id = int(data["last_packet_id"])
        http = data.get("http")
        record.http = None if http is None else HttpStream.from_dict(http)
        return record


class ConfirmStage:
    """Correlates prefilter events into per-rule verdicts, flow by flow.

    One instance backs the serial and the process-parallel flow scans and
    the stateless per-packet path (it is fed :class:`StreamMatch` events
    every way).  Flow byte buffers are kept only when some rule actually
    carries a pcre.  ``evaluators`` arrive in rule-file order, which is the
    order verdicts are asked and alerts come out in.
    """

    def __init__(self, evaluators: Iterable[RuleEvaluator]):
        self.evaluators: Dict[int, RuleEvaluator] = {e.sid: e for e in evaluators}
        self.needs_buffer = any(e.needs_buffer for e in self.evaluators.values())
        #: some rule targets a normalized HTTP buffer: every flow carries an
        #: incremental :class:`HttpStream` alongside its hit positions
        self.needs_http = any(e.needs_http for e in self.evaluators.values())
        #: insertion-ordered: finalize walks flows in first-seen order
        self._flows: Dict[FlowKey, _FlowRecord] = {}
        # the event-driven due set (module docstring): string number -> sids
        # with a positive raw step on it, per prefilter view.  A rule naming
        # one string twice is listed twice; the due set is a set.
        self._rank = {sid: rank for rank, sid in enumerate(self.evaluators)}
        self._raw_index: Dict[int, List[int]] = {}
        self._lower_index: Dict[int, List[int]] = {}
        growth: Set[int] = set()
        unanchored: Set[int] = set()
        for sid, evaluator in self.evaluators.items():
            if evaluator.growth_sensitive:
                growth.add(sid)
                if not evaluator.positive_steps:
                    unanchored.add(sid)
            for step in evaluator.positive_steps:
                self._raw_index.setdefault(step.number, []).append(sid)
                if step.nocase:
                    self._lower_index.setdefault(step.number, []).append(sid)
        self._growth = frozenset(growth)
        self._unanchored = frozenset(unanchored)
        self._requires_end = frozenset(
            sid for sid, e in self.evaluators.items() if e.requires_end
        )
        self._views: Dict[Tuple[int, ...], _Candidates] = {}

    # ------------------------------------------------------------------
    def _view(self, candidates: Iterable[int]) -> _Candidates:
        sids = tuple(candidates)
        view = self._views.get(sids)
        if view is None:
            if len(self._views) >= CANDIDATE_CACHE_LIMIT:
                self._views.clear()
            members = frozenset(sids)
            view = self._views[sids] = _Candidates(
                sids, members, self._unanchored & members
            )
        return view

    def new_record(self, candidates: Iterable[int]) -> _FlowRecord:
        """A flow record the stage does not track: :meth:`observe` creates
        the tracked ones, the stateless per-packet path uses one per packet."""
        record = _FlowRecord(self._view(candidates))
        if self.needs_buffer:
            record.buffer = bytearray()
        if self.needs_http:
            record.http = HttpStream()
        return record

    def observe(
        self,
        key: FlowKey,
        packet: Packet,
        events: Sequence,
        classify: Callable[[Optional[FiveTuple]], Sequence[int]],
    ) -> _FlowRecord:
        """Fold one scanned packet's prefilter events into flow state.

        ``classify`` supplies the header-candidate sids; it is only called
        the first time a flow is seen (the 5-tuple — and therefore the
        candidate set — is constant across a flow's segments).  Returns the
        flow's record for :meth:`verdicts`.
        """
        record = self._flows.get(key)
        if record is None:
            record = self._flows[key] = self.new_record(classify(packet.header))
        record.absorb(packet.packet_id, packet.payload, events)
        return record

    def flow_keys(self) -> List[FlowKey]:
        """Tracked flows in first-seen order."""
        return list(self._flows)

    # ------------------------------------------------------------------
    def _occurrences(self, record: _FlowRecord) -> OccurrenceFn:
        def occ(step: _Step) -> Sequence[int]:
            return merged_occurrences(step, record.positions, record.lower_positions)

        return occ

    def check(self, record: _FlowRecord, sid: int, at_end: bool = False) -> bool:
        """Evaluate rule ``sid`` against a flow's accumulated state (pure)."""
        evaluator = self.evaluators[sid]
        occ = self._occurrences(record)
        # cheap candidacy gate: every positive content must occur somewhere
        # before the positional/pcre machinery is worth running
        if not all(occ(step) for step in evaluator.positive_steps):
            return False
        buffer = (
            bytes(record.buffer)
            if evaluator.needs_buffer and record.buffer is not None
            else None
        )
        return evaluator.evaluate(occ, record.length, buffer, at_end, record.http)

    def _confirmed(
        self, record: _FlowRecord, due: Iterable[int], at_end: bool
    ) -> List[int]:
        """Ask the ``due`` rules in rule-file order; the ones that hold are
        marked alerted (a rule alerts once per flow) and returned."""
        out: List[int] = []
        for sid in sorted(due, key=self._rank.__getitem__):
            if self.check(record, sid, at_end):
                record.alerted.add(sid)
                record.touched.discard(sid)
                out.append(sid)
        return out

    def verdicts(
        self, record: _FlowRecord, events: Sequence, at_end: bool = False
    ) -> List[int]:
        """The rules the packet just absorbed confirms, in rule-file order.

        ``events`` are that packet's prefilter events; only the rules they
        can have changed, plus the flow's growth-sensitive ones, are asked
        (the due set of the module docstring).
        """
        due: Set[int] = set()
        for event in events:
            index = self._lower_index if event.lowered else self._raw_index
            due.update(index.get(event.string_number, ()))
        due &= record.view.members
        due -= record.alerted
        record.touched |= due & self._growth
        due |= record.touched
        return self._confirmed(record, due, at_end)

    def finalize_flow(self, key: FlowKey) -> List[Tuple[int, int]]:
        """Decide end-of-flow rules (negation) for one flow.

        Returns ``(packet_id, sid)`` pairs — the alert is attributed to the
        flow's last seen packet, the point where "no more bytes" became
        true.  Safe to call repeatedly: decided rules are marked alerted.
        """
        record = self._flows.get(key)
        if record is None:
            return []
        # a pending end-of-flow rule is growth-sensitive: unless the flow
        # touched it, one of its positive contents never occurred
        due = record.touched & self._requires_end
        return [
            (record.last_packet_id, sid)
            for sid in self._confirmed(record, due, at_end=True)
        ]

    def drop(self, key: FlowKey) -> None:
        """Forget a flow (after eviction: the scanner restarts it at offset
        0, so stale absolute positions must not survive)."""
        self._flows.pop(key, None)

    def reset(self) -> None:
        self._flows.clear()

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """JSON-serialisable snapshot of every tracked flow's confirm state."""
        return {
            "flows": [
                {"key": list(key.as_tuple()), **record.as_dict()}
                for key, record in self._flows.items()
            ]
        }

    def restore(self, data: Dict) -> None:
        self._flows = {}
        for entry in data["flows"]:
            key = FlowKey.coerced(*entry["key"])
            record = _FlowRecord.from_dict(entry, self._view(entry["candidates"]))
            # ``touched`` is not serialised: every number with a recorded
            # position was once an event, so the index gives it back
            for index, positions in (
                (self._raw_index, record.positions),
                (self._lower_index, record.lower_positions),
            ):
                for number in positions:
                    record.touched.update(index.get(number, ()))
            record.touched &= self._growth & record.view.members
            record.touched -= record.alerted
            self._flows[key] = record


__all__ = ["ConfirmStage", "RuleEvaluator", "merged_occurrences"]
