"""Span recorder for the traced benchmark run.

The benchmark owns the tracing: nothing under ``src/`` is edited.  Each
layer's public callables are wrapped *in the measuring process* (class or
module attribute patching), and every call records one span — name, start,
end, parent, and an optional work amount (bytes, segments) measured at the
same boundary — into flat in-memory columns.  Spans are aggregated after a
pass, never during it, and written out only when ``--trace-out`` asks.

A layer's *self* time is its span's duration minus the part its direct
child spans cover, so the self times of one pass partition the root span and
sum to its wall time.
"""

from __future__ import annotations

import functools
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: span name -> the per-layer seconds metric its self time is charged to
SECONDS_METRIC = {
    "api.run": "api.self_s",
    "api.sink": "api.sink_s",
    "capture.read_capture": "capture.decode_s",
    "capture.load_packets": "capture.decode_s",
    "capture.tail_read": "capture.decode_s",
    "proto.process": "proto.reassembly_s",
    "proto.flush_all": "proto.reassembly_s",
    "streaming.service_scan": "streaming.self_s",
    "streaming.scan_batch": "streaming.self_s",
    "backend.scan_chunk": "backend.scan_s",
    "ids.scan_flow": "ids.correlate_s",
    "ids.classify": "ids.classify_s",
    "ids.check": "ids.confirm_s",
    "ids.finalize_flow": "ids.confirm_s",
    "ids.finish": "ids.finish_s",
    "ingest.serve": "ingest.self_s",
    "setup": "api.setup_other_s",
    "rulesets.parse_rules": "rulesets.parse_s",
    "backend.compile": "backend.compile_s",
}

#: everything beneath this span is the end-of-flow sweep (``ids.finish_s``)
FINISH_SPAN = "ids.finish"


class Tracer:
    """In-memory span columns plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.amounts = array("q")
        self._local = threading.local()
        #: the span stack of the thread that owns the pass: a span opened on
        #: a thread with an empty stack of its own (the ingest scan thread)
        #: becomes a child of the owner's innermost open span
        self._owner_stack: List[int] = []
        self._local.stack = self._owner_stack
        self._undo: List[Tuple[object, str, object]] = []
        #: per-span recorder cost, see :meth:`calibrate`
        self.inner_cost = 0.0
        self.outer_cost = 0.0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans (between passes); wrappers stay installed."""
        for column in (self.name_ids, self.starts, self.ends, self.parents, self.amounts):
            del column[:]
        self._local = threading.local()
        self._owner_stack = []
        self._local.stack = self._owner_stack

    def _id(self, name: str) -> int:
        known = self._name_id.get(name)
        if known is None:
            known = self._name_id[name] = len(self.names)
            self.names.append(name)
        return known

    def begin(self, name_id: int, amount: int = 0) -> int:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        if stack:
            parent = stack[-1]
        elif stack is not self._owner_stack and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = -1
        index = len(self.starts)
        stack.append(index)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.amounts.append(amount)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._local.stack.pop()

    # ------------------------------------------------------------------
    def span(self, name: str, amount: int = 0) -> "_SpanContext":
        """Context manager recording one span (used for the root spans)."""
        return _SpanContext(self, self._id(name), amount)

    def wrapped(
        self, target: Callable, name: str, amount_of: Optional[Callable[..., int]] = None
    ) -> Callable:
        """``target`` with one span recorded per call; ``amount_of`` (given
        the call's arguments) measures the work at the same boundary."""
        name_id = self._id(name)
        begin, end = self.begin, self.end

        if amount_of is None:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                index = begin(name_id)
                try:
                    return target(*args, **kwargs)
                finally:
                    end(index)
        else:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                index = begin(name_id, amount_of(*args, **kwargs))
                try:
                    return target(*args, **kwargs)
                finally:
                    end(index)

        return wrapper

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        amount_of: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a module function or a method on
        its defining class) with its span-recording wrapper."""
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, self.wrapped(original, name, amount_of))

    def wrap_async(self, owner: type, attribute: str, name: str) -> None:
        """Like :meth:`wrap` for a coroutine function that never suspends
        while data is available (the pcap tail reader with ``follow`` off)."""
        original = getattr(owner, attribute)
        name_id = self._id(name)
        begin, end = self.begin, self.end

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            index = begin(name_id)
            try:
                return await original(*args, **kwargs)
            finally:
                end(index)

        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (tests run in a shared process)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def calibrate(self, calls: int = 20000) -> None:
        """Measure what one recorded span costs, so :meth:`aggregate` can take
        the recorder's own time back out of the layers it lands in.

        ``inner_cost`` is the part between a span's two timestamps (it
        inflates the span itself); ``outer_cost`` is the rest of the wrapper
        (it inflates the *parent's* self time).  A hot callable — the confirm
        stage's ``check`` runs ~10^6 spans a pass — would otherwise charge
        most of its tracing cost to its caller.
        """
        noop = self.wrapped(lambda: None, "calibration")
        bare = lambda: None
        self.reset()
        start = perf_counter()
        for _ in range(calls):
            noop()
        traced = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            bare()
        untraced = perf_counter() - start
        recorded = sum(self.ends) - sum(self.starts)
        self.inner_cost = recorded / calls
        self.outer_cost = max(0.0, (traced - untraced - recorded) / calls)
        self.reset()

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-metric self seconds, per-span-name counts and amounts."""
        count = len(self.starts)
        ids = np.frombuffer(self.name_ids, dtype=np.intc, count=count)
        parents = np.frombuffer(self.parents, dtype=np.intc, count=count)
        duration = (
            np.frombuffer(self.ends, dtype=np.float64, count=count)
            - np.frombuffer(self.starts, dtype=np.float64, count=count)
        )
        amounts = np.frombuffer(self.amounts, dtype=np.int64, count=count)
        has_parent = parents >= 0
        self_time = duration - self.inner_cost
        np.subtract.at(
            self_time, parents[has_parent], duration[has_parent] + self.outer_cost
        )
        np.maximum(self_time, 0.0, out=self_time)

        # spans beneath ids.finish are charged to the end-of-flow sweep; the
        # chain finish -> finalize_flow -> check is three deep
        under_finish = np.zeros(count, dtype=bool)
        finish_id = self._name_id.get(FINISH_SPAN)
        if finish_id is not None:
            under_finish = ids == finish_id
            safe_parents = np.where(has_parent, parents, 0)
            for _ in range(3):
                under_finish = under_finish | (has_parent & under_finish[safe_parents])

        seconds: Dict[str, float] = {}
        calls: Dict[str, float] = {}
        amount: Dict[str, float] = {}
        for name, name_id in self._name_id.items():
            mask = ids == name_id
            if not mask.any():
                continue
            calls[name] = float(mask.sum())
            amount[name] = float(amounts[mask].sum())
            metric = SECONDS_METRIC[name]
            finishing = mask & under_finish
            seconds["ids.finish_s"] = seconds.get("ids.finish_s", 0.0) + float(
                self_time[finishing].sum()
            )
            seconds[metric] = seconds.get(metric, 0.0) + float(
                self_time[mask & ~under_finish].sum()
            )
        return {"seconds": seconds, "calls": calls, "amount": amount}

    def rows(self) -> List[Tuple[str, float, float, int, int]]:
        """Every span as ``(name, start, end, parent, amount)`` for export."""
        return [
            (
                self.names[self.name_ids[i]],
                self.starts[i],
                self.ends[i],
                self.parents[i],
                self.amounts[i],
            )
            for i in range(len(self.starts))
        ]


class _SpanContext:
    __slots__ = ("tracer", "name_id", "amount", "index")

    def __init__(self, tracer: Tracer, name_id: int, amount: int):
        self.tracer = tracer
        self.name_id = name_id
        self.amount = amount
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.begin(self.name_id, self.amount)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.tracer.end(self.index)
