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

Which rules a packet can turn true (the per-flow open set)
----------------------------------------------------------
``check`` is never run for "every candidate rule on every packet", nor for
every rule a packet's events *name*: a rule is asked only when an input of
its verdict changed.  At construction the stage inverts its evaluators into an
index *prefilter string number → rules with a positive raw step on it* — one
for raw-view events (every such step) and one for lowered-view events
(``nocase`` steps only: a case-sensitive step never sees a lowered hit).  Per
flow it keeps the **open set**: the header candidates whose whole candidacy
gate is open — every positive raw step has occurred — and which have not
alerted.  A rule outside it is false whatever else the packet brought.  A rule
without a positive raw step (a pure sticky-buffer rule) has nothing to wait
for and starts in it; every other rule can only *enter* on the **first**
occurrence of one of its strings in the flow (per view), which
``_FlowRecord.absorb`` sees when it creates the position list.  A packet then
asks, in rule-file order:

* **gate** — the rules its first occurrences just opened;
* **positional** — open rules with an ``offset``/``depth``/``distance``/
  ``within`` on some raw step that one of its events names.  A windowless
  rule reads only whether each list is empty, which no repeat hit changes;
  a new occurrence of a *negated* step's string only removes options, so it
  names nobody;
* **what grew** — when the payload is non-empty, open rules that read the
  flow's bytes or its length (a pcre; a bounded negation window, decided once
  ``length`` passes its end); when ``HttpStream.feed`` reports a normalized
  buffer grew, open rules with a sticky content;
* **end-only** — never mid-stream: a negated pcre, a negated sticky content
  or an unbounded negated content cannot hold while bytes can still arrive,
  so such a rule waits in the open set for :meth:`ConfirmStage.finalize_flow`,
  which asks ``open ∩ requires_end`` with the flow closed.

Soundness, input by input.  A verdict reads: the occurrence lists of its
positive steps (emptiness → *gate*; positions, only through a window →
*positional*), those of its negated steps (more occurrences can only turn it
false), ``length`` and the byte buffer (change only with a non-empty payload →
*what grew*), the normalized HTTP buffers (change only when ``feed`` says so),
and ``at_end`` (flow end).  A rule that was false when last asked and has seen
none of these change is still false, so the first packet on which it holds is
always one that asks it.  ``check`` is pure: asking a rule that cannot have
changed is always safe and asking too few never is; the naive evaluator in the
test suite (every rule on every packet) is the reference, and the stage this
one replaced is kept in ``tests/conftest.py`` as a second one.  The open set is
not checkpointed: it is re-derived from the restored occurrence positions (the
gate is a function of them alone).
"""

from __future__ import annotations

from itertools import count
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
    Union,
)

from ..proto.http import HttpStream
from ..rulesets.parser import RulePredicate
from ..streaming.flow import FlowKey
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

    @property
    def windowed(self) -> bool:
        """Carries a positional modifier: which occurrence is chosen matters,
        not just whether one exists."""
        return self.relative or self.offset is not None or self.depth is not None

    @property
    def bounded(self) -> bool:
        """The window has an end the stream can grow past."""
        return (self.within if self.relative else self.depth) is not None


#: occurrence source handed to :meth:`RuleEvaluator.evaluate`: step -> sorted
#: absolute end offsets of that step's pattern in the flow so far.
OccurrenceFn = Callable[[_Step], Sequence[int]]


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
        # which changes can flip the verdict (see the module docstring)
        negated = [s for s in self.steps if s.negated]
        #: a repeat hit of a positive string can: some raw step has a window
        self.positional = any(s.windowed for s in self.steps)
        #: a non-empty payload can: the verdict reads the flow's bytes (pcre)
        #: or its length (a bounded negation window closing)
        self.reads_stream = bool(self.pcres) or any(s.bounded for s in negated)
        #: nothing can before flow end: a negated pcre, a negated sticky
        #: content or an unbounded negated content
        self.end_only = (
            any(is_negated for _, is_negated in self.pcres)
            or any(s.negated for s in self.sticky_steps)
            or any(not s.bounded for s in negated)
        )

    def gate_open(self, occurrences: OccurrenceFn) -> bool:
        """The cheap candidacy gate: every positive raw content has occurred
        somewhere (a rule with none has no gate to wait at)."""
        for step in self.positive_steps:
            if not occurrences(step):
                return False
        return True

    def _sticky_ok(self, http: Optional[HttpStream], at_end: bool) -> bool:
        """Evaluate the sticky-buffer contents against the flow's normalized
        buffers (empty when the flow is not HTTP or no normalizer ran).

        Positive sticky contents are monotone — the buffers only grow — so
        a hit stands; negated ones are only provable once the flow cannot
        grow, exactly like negated raw contents."""
        for step in self.sticky_steps:
            found = http is not None and step.pattern in http.buffer(
                step.buffer, lowered=step.nocase
            )
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
        buffer: Optional[Union[bytes, bytearray]],
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

    def _pcres_ok(self, buffer: Optional[Union[bytes, bytearray]], at_end: bool) -> bool:
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
    #: the candidates with no positive raw step (pure sticky rules): no gate
    #: to wait at, so every flow's open set starts from them
    gateless: FrozenSet[int]


class _FlowRecord:
    """Per-flow confirm state: occurrence positions, optional byte buffer,
    header candidates, which rules already alerted, the open set, and what
    the last absorbed packet changed (the inputs :meth:`ConfirmStage.verdicts`
    routes on), numbered by ``sequence`` in creation (first-seen) order."""

    __slots__ = (
        "positions", "lower_positions", "buffer", "length",
        "alerted", "view", "last_packet_id", "http",
        "open", "fresh", "fed", "grew", "_merged", "sequence",
    )

    def __init__(self, view: _Candidates, sequence: int):
        self.sequence = sequence
        self.positions: Dict[int, List[int]] = {}
        self.lower_positions: Dict[int, List[int]] = {}
        self.buffer: Optional[bytearray] = None
        self.length = 0
        self.alerted: Set[int] = set()
        self.view = view
        self.last_packet_id = -1
        #: the flow's HTTP normalizer (only when some rule is sticky)
        self.http: Optional[HttpStream] = None
        #: candidates whose whole gate is open and which have not alerted
        self.open: Set[int] = set(view.gateless)
        #: the events that created a position list (a string's first
        #: occurrence in its view) and are not routed yet
        self.fresh: Sequence = ()
        #: did the last packet carry bytes / grow a normalized HTTP buffer
        self.fed = False
        self.grew = False
        #: string number -> (raw count, lowered count, merged list): see
        #: :meth:`occurrences`
        self._merged: Dict[int, Tuple[int, int, List[int]]] = {}

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
        self.fed = bool(payload)
        if self.buffer is not None:
            self.buffer += payload
        if self.http is not None:
            self.grew = self.http.feed(payload)
        if events:
            fresh = []
            for event in events:
                target = self.lower_positions if event.lowered else self.positions
                ends = target.get(event.string_number)
                if ends is None:
                    target[event.string_number] = [event.end_offset]
                    fresh.append(event)
                else:
                    ends.append(event.end_offset)
            self.fresh = fresh

    def occurrences(self, step: _Step) -> Sequence[int]:
        """Sorted end offsets of ``step``'s pattern, honouring its case mode
        (the :data:`OccurrenceFn` of this flow).

        Case-sensitive steps see only the raw-view hits; ``nocase`` steps
        merge in the lower-cased-view hits (deduplicated — a hit present in
        both views is one occurrence).  The merged list is kept until either
        view's list grows.
        """
        raw = self.positions.get(step.number, ())
        if not step.nocase:
            return raw
        lower = self.lower_positions.get(step.number, ())
        if not lower:
            return raw
        if not raw:
            return lower
        cached = self._merged.get(step.number)
        if cached is None or cached[0] != len(raw) or cached[1] != len(lower):
            cached = self._merged[step.number] = (
                len(raw), len(lower), sorted(set(raw).union(lower))
            )
        return cached[2]

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
    def from_dict(cls, data: Dict, view: _Candidates, sequence: int) -> "_FlowRecord":
        record = cls(view, sequence)
        record.positions = {int(k): list(v) for k, v in data["positions"].items()}
        record.lower_positions = {
            int(k): list(v) for k, v in data["lower_positions"].items()
        }
        buffer = data.get("buffer")
        record.buffer = None if buffer is None else bytearray(bytes.fromhex(buffer))
        record.length = int(data["length"])
        record.alerted = set(data["alerted"])
        record.open -= record.alerted
        record.last_packet_id = int(data["last_packet_id"])
        http = data.get("http")
        record.http = None if http is None else HttpStream.from_dict(http)
        return record


class ConfirmStage:
    """Correlates prefilter events into per-rule verdicts, flow by flow.

    One instance backs the flow scan and the stateless per-packet path (it
    is fed :class:`StreamMatch` events either way) and holds no flow: the
    caller keeps each :meth:`new_record`.  Flow byte buffers are kept only
    when some rule actually carries a pcre.  ``evaluators`` arrive in
    rule-file order, which is the order verdicts are asked and alerts come
    out in; ``strings`` is the prefilter program's string count.
    """

    def __init__(self, evaluators: Iterable[RuleEvaluator], strings: int):
        self.evaluators: Dict[int, RuleEvaluator] = {e.sid: e for e in evaluators}
        self.strings = strings
        self.needs_buffer = any(e.needs_buffer for e in self.evaluators.values())
        #: some rule targets a normalized HTTP buffer: every flow carries an
        #: incremental :class:`HttpStream` alongside its hit positions
        self.needs_http = any(e.needs_http for e in self.evaluators.values())
        #: numbers records in creation (first-seen) order
        self._sequence = count()
        # the routing tables of the module docstring: string number -> sids
        # with a positive raw step on it, per prefilter view (a rule naming
        # one string twice is listed twice; what is asked is a set), and the
        # rules each kind of change can flip
        self._rank = {sid: rank for rank, sid in enumerate(self.evaluators)}
        self._raw_index: Dict[int, List[int]] = {}
        self._lower_index: Dict[int, List[int]] = {}
        for sid, evaluator in self.evaluators.items():
            for step in evaluator.positive_steps:
                self._raw_index.setdefault(step.number, []).append(sid)
                if step.nocase:
                    self._lower_index.setdefault(step.number, []).append(sid)

        def rules_where(flag: Callable[[RuleEvaluator], bool]) -> FrozenSet[int]:
            return frozenset(sid for sid, e in self.evaluators.items() if flag(e))

        self._positional = rules_where(lambda e: e.positional)
        self._reads_stream = rules_where(lambda e: e.reads_stream)
        self._sticky = rules_where(lambda e: e.needs_http)
        self._end_only = rules_where(lambda e: e.end_only)
        self._requires_end = rules_where(lambda e: e.requires_end)
        self._views: Dict[Tuple[int, ...], _Candidates] = {}

    # ------------------------------------------------------------------
    def _view(self, candidates: Iterable[int]) -> _Candidates:
        sids = tuple(candidates)
        view = self._views.get(sids)
        if view is None:
            if len(self._views) >= CANDIDATE_CACHE_LIMIT:
                self._views.clear()
            gateless = frozenset(
                sid for sid in sids if not self.evaluators[sid].positive_steps
            )
            view = self._views[sids] = _Candidates(sids, frozenset(sids), gateless)
        return view

    def new_record(self, candidates: Iterable[int]) -> _FlowRecord:
        """A new flow's record over its header-candidate sids: the IDS keeps
        it on the flow's table entry, the stateless path one per packet."""
        record = _FlowRecord(self._view(candidates), next(self._sequence))
        if self.needs_buffer:
            record.buffer = bytearray()
        if self.needs_http:
            record.http = HttpStream()
        return record

    # ------------------------------------------------------------------
    def check(self, record: _FlowRecord, sid: int, at_end: bool = False) -> bool:
        """Evaluate rule ``sid`` against a flow's accumulated state (pure)."""
        evaluator = self.evaluators[sid]
        occ = record.occurrences
        # the gate first: the positional/pcre machinery is only worth running
        # once every positive content occurs somewhere
        return evaluator.gate_open(occ) and evaluator.evaluate(
            occ, record.length, record.buffer, at_end, record.http
        )

    def _named(self, events: Iterable) -> Set[int]:
        """The rules with a positive raw step on a string ``events`` hit."""
        named: Set[int] = set()
        for event in events:
            index = self._lower_index if event.lowered else self._raw_index
            named.update(index.get(event.string_number, ()))
        return named

    def _opened(self, record: _FlowRecord, named: Iterable[int]) -> Set[int]:
        """Move the ``named`` candidates whose whole gate is open into the
        flow's open set; returns the ones that were not in it."""
        members, alerted, open_set = record.view.members, record.alerted, record.open
        occ = record.occurrences
        opened: Set[int] = set()
        for sid in named:
            if (
                sid in members
                and sid not in open_set
                and sid not in alerted
                and self.evaluators[sid].gate_open(occ)
            ):
                open_set.add(sid)
                opened.add(sid)
        return opened

    def _confirmed(
        self, record: _FlowRecord, due: Iterable[int], at_end: bool
    ) -> List[int]:
        """Ask the ``due`` rules in rule-file order; the ones that hold are
        marked alerted (a rule alerts once per flow) and returned."""
        out: List[int] = []
        for sid in sorted(due, key=self._rank.__getitem__):
            if self.check(record, sid, at_end):
                record.alerted.add(sid)
                record.open.discard(sid)
                out.append(sid)
        return out

    def verdicts(
        self, record: _FlowRecord, events: Sequence, at_end: bool = False
    ) -> List[int]:
        """The rules the packet just absorbed confirms, in rule-file order.

        ``events`` are that packet's prefilter events.  Only open rules one
        of whose verdict inputs the packet changed are asked (the module
        docstring says which and why); ``at_end`` — the packet is the whole
        flow — changes the last input of every open rule.
        """
        due: Set[int] = set()
        if record.fresh:
            due = self._opened(record, self._named(record.fresh))
            record.fresh = ()
        open_set = record.open
        if at_end:
            due |= open_set
        elif open_set:
            if events:
                positional = open_set & self._positional
                if positional:
                    due |= positional & self._named(events)
            if record.fed:
                due |= open_set & self._reads_stream
            if record.grew:
                due |= open_set & self._sticky
            due -= self._end_only
        return self._confirmed(record, due, at_end) if due else []

    def finalize_flow(self, record: _FlowRecord) -> List[Tuple[int, int]]:
        """Decide end-of-flow rules (negation) for one flow's record.

        Returns ``(packet_id, sid)`` pairs — the alert is attributed to the
        flow's last seen packet, the point where "no more bytes" became
        true.  Safe to call repeatedly: decided rules are marked alerted.
        """
        # only a negated component reads ``at_end``, and a rule outside the
        # open set is missing a positive content
        due = record.open & self._requires_end
        return [
            (record.last_packet_id, sid)
            for sid in self._confirmed(record, due, at_end=True)
        ]

    # ------------------------------------------------------------------
    def checkpoint(self, flows: Iterable[Tuple[FlowKey, _FlowRecord]]) -> Dict:
        """JSON-serialisable snapshot of ``(key, record)`` flows, in order."""
        return {
            "flows": [
                {"key": list(key.as_tuple()), **record.as_dict()}
                for key, record in flows
            ]
        }

    def restore(self, data: Dict) -> List[Tuple[FlowKey, _FlowRecord]]:
        """A :meth:`checkpoint`'s ``(key, record)`` flows, numbered in order.
        A sid no rule has or a string number outside the program is a
        ``ValueError`` naming the flow and the field."""
        rules = (self.evaluators, "sid", "a loaded rule's")
        strings = (range(self.strings), "string", f"one of the program's {self.strings}")
        known = dict(candidates=rules, alerted=rules, positions=strings, lower_positions=strings)
        out: List[Tuple[FlowKey, _FlowRecord]] = []
        for entry in data["flows"]:
            key = FlowKey.coerced(*entry["key"])
            for field, (within, what, where) in known.items():
                stray = [value for value in entry[field] if int(value) not in within]
                if stray:
                    raise ValueError(
                        f"confirm flow {key.as_tuple()} {field}: {what} {stray[0]} is not {where}"
                    )
            record = _FlowRecord.from_dict(
                entry, self._view(entry["candidates"]), next(self._sequence)
            )
            # the open set is not serialised: the gate reads the positions
            # alone, and every rule it can admit is indexed under one of them
            named: Set[int] = set()
            for index, positions in (
                (self._raw_index, record.positions),
                (self._lower_index, record.lower_positions),
            ):
                for number in positions:
                    named.update(index.get(number, ()))
            self._opened(record, named)
            out.append((key, record))
        return out


__all__ = ["ConfirmStage", "RuleEvaluator"]
