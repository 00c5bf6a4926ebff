"""Process-parallel shard executor: the scan service across real cores.

The paper's 44.2 Gbps comes from *parallel* string-matching engines scanning
distinct packets concurrently; the serial :class:`repro.streaming.ScanService`
models the partitioning (shards share no mutable state) but still walks its
shards in one Python loop, so adding shards adds bookkeeping, not throughput.
This module makes the module docstring's promise — shards "could run on
separate cores or processes" — literally true:

* :func:`_shard_worker` is the worker-process main loop.  Each worker owns
  the :class:`~repro.streaming.scanner.StreamScanner` + bounded
  :class:`~repro.streaming.flow.FlowTable` of its assigned shards
  *exclusively*; no flow state is ever shared or migrated, which is exactly
  the isolation the serial service already guarantees per shard.
* :class:`ParallelScanService` mirrors the :class:`ScanService` API —
  ``scan`` / ``scan_annotated`` / ``submit`` / ``checkpoint`` / ``restore`` /
  ``shard_occupancy`` and the same :class:`StreamScanResult` /
  :class:`ShardReport` aggregates.
* :func:`build_scan_service` picks between the two: the one function every
  composition (``Session``, the IDS) builds its prefilter through.

Two planes carry the traffic (see :mod:`repro.streaming.transport`):

* **Data plane** — one :class:`~repro.streaming.transport.ShardRing` of
  shared memory per worker carries the raw payload bytes.  The dispatcher
  copies each segment into a ring slot; the worker scans it through a
  ``memoryview`` of the same mapping.  No payload is pickled in either
  direction: flow keys are interned to small integer ids (each
  :class:`FlowKey` crosses the pipe exactly once per worker) and only
  compact ``(end_offset, string_number, lowered)`` match tuples come back,
  inflated to :class:`StreamMatch` records by the dispatcher.  Payloads
  larger than a ring slot spill — pickled — over the control pipe; a full
  ring closes the current chunk and the dispatcher waits for the worker to
  drain it (explicit backpressure, counted in ``TransportStats``).
* **Control plane** — the original pipe still carries the scan *metadata*
  (shard/flow-id/packet-id per item) and every stateful command:
  checkpoint, restore, stats, stop.

Determinism: items are dispatched shard-major per worker, chunk boundaries
only ever split a shard's batch into consecutive ``scan_batch`` calls (the
scanner's batched hot path is split-invariant), and the parent concatenates
each shard's events in shard order before the canonical stable sort — the
identical pre-sort order the serial service produces — so the event stream
is byte-identical to :class:`ScanService` in every configuration.
Checkpoints use the same envelope as the serial service, so a serial
checkpoint restores into a parallel service and vice versa.

Every reply wait polls with a timeout and checks worker liveness, so a
crashed worker raises :exc:`WorkerCrashedError` naming the worker and its
shards instead of blocking the dispatcher forever.

The pool is a context manager (``with ParallelScanService(...) as service:``)
and shuts its workers down gracefully on ``close()``; worker processes are
daemonic as a safety net against leaked services.  Declaratively, an
``EngineSpec(workers=N)`` in a :class:`repro.api.PipelineConfig` makes
:func:`build_scan_service` pick this front-end instead of the serial one —
with, by contract, byte-identical output.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from multiprocessing import connection
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backend import CompiledProgram
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowKey, FlowTable
from .scanner import BatchItem, Eviction, StreamMatch, StreamScanner
from .service import (
    AnnotatedScan,
    ScanService,
    ShardBatch,
    ShardedScanServiceBase,
    ShardReport,
)
from .transport import (
    DEFAULT_RING_SLOTS,
    DEFAULT_RING_SLOT_BYTES,
    ShardRing,
    TransportError,
    TransportStats,
)

#: One batch item on the wire: ``(FlowKey, payload, packet_id)`` — the same
#: shape :meth:`StreamScanner.scan_batch` consumes.  Since the ring
#: transport this shape only ever crosses a process boundary for engines,
#: not for dispatch; it remains the worker-side batch item.
WireItem = BatchItem

#: How often reply waits wake up to check worker liveness (seconds).
_POLL_SECONDS = 0.1


class WorkerCrashedError(RuntimeError):
    """A shard worker process died while a request was in flight."""


def _pick_context(start_method: Optional[str]) -> multiprocessing.context.BaseContext:
    """``fork`` when the platform has it (cheap startup, nothing re-imported);
    the compiled program is picklable, so ``spawn``/``forkserver`` work too."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shard_worker(
    conn,
    ring_name: str,
    ring_slots: int,
    ring_slot_bytes: int,
    program: CompiledProgram,
    shard_ids: Sequence[int],
    flow_capacity: int,
    track_nocase: bool,
) -> None:
    """Worker-process main loop: exclusive owner of ``shard_ids``' engines.

    Speaks a tagged request/response protocol over ``conn``; every request
    gets exactly one ``("ok", value)`` or ``("error", traceback)`` reply, so
    the parent can fan a command out to all workers and collect the replies
    without ever blocking on an out-of-sync pipe.  Payload bytes arrive
    through the shared-memory ring, not the pipe (see the module
    docstring); ``"scan"`` metadata names each item's slot implicitly by
    ring order.
    """
    ring = ShardRing(ring_slots, ring_slot_bytes, name=ring_name)
    engines: Dict[int, StreamScanner] = {
        shard: StreamScanner(
            program, FlowTable(flow_capacity), track_nocase=track_nocase
        )
        for shard in shard_ids
    }
    #: interned flow ids — each FlowKey is pickled to this worker only once.
    keys: Dict[int, FlowKey] = {}

    def resolve(items, views):
        """Materialise chunk items into ``(shard, key, payload, packet_id)``.

        Ring-borne payloads come back as memoryviews into shared memory
        (appended to ``views`` so the caller can release them); spilled
        payloads arrived as bytes in the metadata itself.
        """
        resolved = []
        for shard, flow_id, packet_id, spill in items:
            if spill is None:
                slot_flow_id, view = ring.read()
                if slot_flow_id != flow_id:
                    raise TransportError(
                        f"ring slot flow id {slot_flow_id} does not match "
                        f"scan metadata flow id {flow_id}"
                    )
                views.append(view)
                # memoryview has no .lower(); the case-tracking scan path
                # needs real bytes.  The default path stays zero-copy.
                data = bytes(view) if track_nocase else view
            else:
                data = spill
            resolved.append((shard, keys[flow_id], data, packet_id))
        return resolved

    def handle_scan(payload) -> Dict:
        keys.update(payload["new_keys"])
        views: List[memoryview] = []
        try:
            resolved = resolve(payload["items"], views)
            events_out: List[List[Tuple[int, int, bool]]] = []
            reports: Dict[int, Tuple[int, int]] = {}
            evictions_out: List[Tuple[int, FlowKey]] = []
            index = 0
            while index < len(resolved):
                shard = resolved[index][0]
                end = index
                while end < len(resolved) and resolved[end][0] == shard:
                    end += 1
                engine = engines[shard]
                before_matches = engine.stats.matches
                before_evicted = engine.flows.stats.evicted
                # The engine's batched hot path: same-flow segments are
                # scanned as one backend crossing whenever the batch cannot
                # evict, and eviction records come back (item_index, key).
                per_item, run_evictions = engine.scan_batch(
                    [(key, data, packet_id) for _, key, data, packet_id in resolved[index:end]]
                )
                for item_events in per_item:
                    events_out.append(
                        [
                            (match.end_offset, match.string_number, match.lowered)
                            for match in item_events
                        ]
                    )
                for local_index, key in run_evictions:
                    evictions_out.append((index + local_index, key))
                matches_delta = engine.stats.matches - before_matches
                evicted_delta = engine.flows.stats.evicted - before_evicted
                prior = reports.get(shard)
                if prior is not None:
                    matches_delta += prior[0]
                    evicted_delta += prior[1]
                reports[shard] = (matches_delta, evicted_delta)
                index = end
        finally:
            for view in views:
                view.release()
        return {
            "events": events_out,
            "reports": reports,
            "evictions": evictions_out,
            "gauges": {shard: engine.active_flows for shard, engine in engines.items()},
        }

    def handle_drain(payload) -> Dict:
        """Transport probe: consume the chunk's payload bytes, scan nothing.

        Exists so benchmarks can measure the data plane's cost through the
        production dispatch path, separated from matcher compute.
        """
        keys.update(payload["new_keys"])
        drained = 0
        for shard, flow_id, packet_id, spill in payload["items"]:
            if spill is None:
                _, view = ring.read()
                drained += len(view)
                view.release()
            else:
                drained += len(spill)
        return {"drained": drained}

    def handle_restore(tables: Dict[int, Dict]) -> None:
        for shard, table_data in tables.items():
            engine = engines[shard]
            engine.flows = FlowTable.restore(
                table_data, capacity=engine.flows.capacity
            )

    def handle_stats(_payload) -> Dict[int, Tuple[int, int, int]]:
        return {
            shard: (
                engine.active_flows,
                engine.flows.stats.evicted,
                engine.stats.cross_segment_matches,
            )
            for shard, engine in engines.items()
        }

    handlers = {
        "scan": handle_scan,
        "drain": handle_drain,
        "checkpoint": lambda _payload: {
            shard: engine.flows.checkpoint() for shard, engine in engines.items()
        },
        "restore": handle_restore,
        "stats": handle_stats,
    }

    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, KeyboardInterrupt):
            ring.close()
            return
        if command == "stop":
            ring.close()
            conn.send(("ok", None))
            conn.close()
            return
        try:
            handler = handlers[command]
        except KeyError:
            conn.send(("error", f"unknown command {command!r}"))
            continue
        try:
            conn.send(("ok", handler(payload)))
        except Exception:
            conn.send(("error", traceback.format_exc()))


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    def __init__(self, index: int, process, conn, shards: List[int], ring: ShardRing):
        self.index = index
        self.process = process
        self.conn = conn
        self.shards = shards
        self.ring = ring
        #: flow ids this worker already holds the FlowKey for.
        self.known_flows: set = set()


class _DispatchState:
    """Progress of one worker through one scan's flattened item list.

    ``items`` are ``(shard, arrival_index, key, payload, packet_id)`` in
    shard-major order; ``cursor`` marks the first item not yet dispatched;
    ``chunk_items`` / ``ring_in_flight`` describe the chunk currently in
    flight (its parent-side metadata and how many ring slots it occupies).
    """

    __slots__ = ("items", "cursor", "chunk_items", "ring_in_flight")

    def __init__(self, items: List[Tuple]):
        self.items = items
        self.cursor = 0
        self.chunk_items: List[Tuple] = []
        self.ring_in_flight = 0


class ParallelScanService(ShardedScanServiceBase):
    """Process-parallel drop-in for :class:`repro.streaming.ScanService`.

    ``num_shards`` keeps its meaning (the flow hash space — checkpoints are
    exchangeable between serial and parallel services with equal
    ``num_shards``); ``workers`` says how many OS processes the shards are
    spread over (shard *s* lives in worker ``s % workers``).  ``workers``
    defaults to one per shard, bounded by the machine's CPU count.
    ``ring_slots`` × ``ring_slot_bytes`` size each worker's shared-memory
    payload ring (see :mod:`repro.streaming.transport`); the defaults suit
    MTU-sized segments, and tiny values are legitimate — they just trade
    throughput for backpressure stalls, never correctness.

    The event stream, the per-shard reports and the checkpoint format are
    byte-identical to the serial service on the same traffic; what changes
    is only that shard batches scan concurrently on real cores.
    """

    def __init__(
        self,
        program: CompiledProgram,
        num_shards: int = 4,
        flow_capacity_per_shard: int = DEFAULT_FLOW_CAPACITY,
        track_nocase: bool = False,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        ring_slots: int = DEFAULT_RING_SLOTS,
        ring_slot_bytes: int = DEFAULT_RING_SLOT_BYTES,
    ):
        self._validate_num_shards(num_shards)
        if workers is None:
            workers = max(1, min(num_shards, os.cpu_count() or 1))
        if not 1 <= workers <= num_shards:
            raise ValueError(
                f"workers must be between 1 and num_shards={num_shards}, got {workers}"
            )
        self.program = program
        self.num_shards = num_shards
        self.num_workers = workers
        self.transport_stats = TransportStats()
        context = _pick_context(start_method)
        self._workers: List[_WorkerHandle] = []
        self._worker_of_shard: Dict[int, _WorkerHandle] = {}
        #: global FlowKey -> flow id interning table (ids are service-wide).
        self._flow_ids: Dict[FlowKey, int] = {}
        try:
            for index in range(workers):
                shards = list(range(index, num_shards, workers))
                ring = ShardRing(ring_slots, ring_slot_bytes)
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker,
                    args=(
                        child_conn,
                        ring.name,
                        ring_slots,
                        ring_slot_bytes,
                        program,
                        shards,
                        flow_capacity_per_shard,
                        track_nocase,
                    ),
                    daemon=True,
                    name=f"repro-shard-worker-{index}",
                )
                process.start()
                child_conn.close()  # the parent keeps only its end
                handle = _WorkerHandle(index, process, parent_conn, shards, ring)
                self._workers.append(handle)
                for shard in shards:
                    self._worker_of_shard[shard] = handle
        except Exception:
            self.close()
            raise
        self._closed = False

    # ------------------------------------------------------------------
    # worker pool plumbing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if getattr(self, "_closed", True):
            raise RuntimeError("ParallelScanService is closed")

    def _crash_message(self, handle: _WorkerHandle) -> str:
        exitcode = handle.process.exitcode
        return (
            f"shard worker {handle.index} (shards {handle.shards}) died "
            f"with exit code {exitcode} while a request was in flight"
        )

    def _check_alive(self, handles: Sequence[_WorkerHandle]) -> None:
        for handle in handles:
            if not handle.process.is_alive():
                raise WorkerCrashedError(self._crash_message(handle))

    def _send(self, handle: _WorkerHandle, message) -> None:
        """Send on the control pipe; a dead peer raises WorkerCrashedError
        (a kill between requests surfaces on the *send*, not the recv)."""
        try:
            handle.conn.send(message)
        except (BrokenPipeError, ConnectionResetError, OSError):
            raise WorkerCrashedError(self._crash_message(handle)) from None

    def _exchange(self, handles: List[_WorkerHandle], requests: List[Tuple]) -> List:
        """Send one request to each handle, then collect every reply.

        Sends complete before any receive, so the workers run their commands
        concurrently — this is the fan-out the whole module exists for.
        Waits poll with a timeout and check liveness, so a dead worker
        raises :exc:`WorkerCrashedError` instead of hanging the dispatcher.
        """
        for handle, request in zip(handles, requests):
            self._send(handle, request)
        pending = {handle.conn: handle for handle in handles}
        replies: Dict[int, object] = {}
        failures = []
        while pending:
            ready = connection.wait(list(pending), timeout=_POLL_SECONDS)
            if not ready:
                self._check_alive(list(pending.values()))
                continue
            for conn in ready:  # drain EVERY reply before raising, so one
                handle = pending.pop(conn)  # failure cannot desync the pipes
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrashedError(self._crash_message(handle)) from None
                if status != "ok":
                    failures.append(f"shard worker {handle.index} failed:\n{value}")
                    continue
                replies[handle.index] = value
        if failures:
            raise RuntimeError("; ".join(failures))
        return [replies[handle.index] for handle in handles]

    def _request_all(self, command: str, payloads: Optional[List] = None) -> List:
        self._ensure_open()
        if payloads is None:
            payloads = [None] * len(self._workers)
        return self._exchange(
            self._workers,
            [(command, payload) for payload in payloads],
        )

    def close(self) -> None:
        """Shut the worker pool down gracefully (idempotent)."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for handle in getattr(self, "_workers", []):
            try:
                handle.conn.send(("stop", None))
                handle.conn.recv()  # the worker acks before exiting
            except (OSError, EOFError, BrokenPipeError):
                pass
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.terminate()
                handle.process.join(timeout=5)
            handle.conn.close()
            handle.ring.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # data-plane dispatch
    # ------------------------------------------------------------------
    def _flow_id_for(self, key: FlowKey) -> int:
        flow_id = self._flow_ids.get(key)
        if flow_id is None:
            flow_id = len(self._flow_ids)
            self._flow_ids[key] = flow_id
        return flow_id

    def _send_chunk(
        self, handle: _WorkerHandle, state: _DispatchState, command: str
    ) -> None:
        """Dispatch the next chunk of ``state`` to ``handle``.

        Writes payloads into the worker's ring until the items run out or
        the ring fills (backpressure: the chunk is cut short and the
        remainder waits for this chunk's acknowledgement).  Oversized
        payloads spill into the metadata message itself.
        """
        ring = handle.ring
        stats = self.transport_stats
        wire_items = []
        chunk_items = []
        new_keys: Dict[int, FlowKey] = {}
        stalled = False
        items = state.items
        while state.cursor < len(items):
            shard, arrival, key, payload, packet_id = items[state.cursor]
            flow_id = self._flow_id_for(key)
            if len(payload) > ring.slot_bytes:
                spill = bytes(payload)
                stats.spilled_segments += 1
                stats.spilled_bytes += len(payload)
            else:
                if not ring.try_write(flow_id, payload):
                    stalled = True
                    break
                spill = None
                stats.ring_segments += 1
                stats.ring_bytes += len(payload)
            if flow_id not in handle.known_flows:
                new_keys[flow_id] = key
                handle.known_flows.add(flow_id)
            wire_items.append((shard, flow_id, packet_id, spill))
            chunk_items.append((shard, arrival, key, packet_id))
            state.cursor += 1
        if stalled:
            stats.backpressure_stalls += 1
        stats.chunks += 1
        state.chunk_items = chunk_items
        state.ring_in_flight = ring.pending
        self._send(handle, (command, {"new_keys": new_keys, "items": wire_items}))

    def _pump(
        self,
        jobs: Dict[_WorkerHandle, List[Tuple]],
        command: str,
        on_reply: Callable[[_WorkerHandle, List[Tuple], Dict], None],
    ) -> None:
        """Drive every worker through its item list, chunk by chunk.

        One chunk per worker is in flight at any time; replies free that
        worker's ring slots and trigger the next chunk, so all workers stay
        busy concurrently while the ring enforces bounded memory.
        ``on_reply`` sees each chunk's parent-side metadata next to the
        worker's reply.
        """
        states: Dict[_WorkerHandle, _DispatchState] = {}
        pending: Dict[object, _WorkerHandle] = {}
        for handle, items in jobs.items():
            state = _DispatchState(items)
            states[handle] = state
            self._send_chunk(handle, state, command)
            pending[handle.conn] = handle
        failures: List[str] = []
        while pending:
            ready = connection.wait(list(pending), timeout=_POLL_SECONDS)
            if not ready:
                self._check_alive(list(pending.values()))
                continue
            for conn in ready:
                handle = pending[conn]
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrashedError(self._crash_message(handle)) from None
                state = states[handle]
                handle.ring.consumed(state.ring_in_flight)
                if status != "ok":
                    failures.append(f"shard worker {handle.index} failed:\n{value}")
                    del pending[conn]
                    continue
                if failures:
                    del pending[conn]  # stop feeding once anything failed
                    continue
                on_reply(handle, state.chunk_items, value)
                if state.cursor < len(state.items):
                    self._send_chunk(handle, state, command)
                else:
                    del pending[conn]
        if failures:
            raise RuntimeError("; ".join(failures))

    def _jobs_for(self, batches: List[ShardBatch]) -> Dict[_WorkerHandle, List[Tuple]]:
        """Flatten grouped batches into each worker's shard-major item list.

        Every worker appears in the result — an idle worker still receives
        one empty chunk so its shard gauges come back with the scan.
        """
        jobs: Dict[_WorkerHandle, List[Tuple]] = {}
        for handle in self._workers:
            items: List[Tuple] = []
            for shard in handle.shards:
                items.extend(
                    (shard, arrival, *item) for arrival, item in zip(*batches[shard])
                )
            jobs[handle] = items
        return jobs

    @staticmethod
    def _inflate(key: FlowKey, packet_id: int, compact) -> List[StreamMatch]:
        return [
            StreamMatch(key, packet_id, end_offset, string_number, lowered)
            for end_offset, string_number, lowered in compact
        ]

    # ------------------------------------------------------------------
    # the ScanService API
    # ------------------------------------------------------------------
    def submit(self, packet: Packet) -> List[StreamMatch]:
        """Scan a single packet on its flow's shard (one worker round-trip)."""
        self._ensure_open()
        key = StreamScanner.flow_key(packet)
        shard = self.shard_for(key)
        handle = self._worker_of_shard[shard]
        events: List[StreamMatch] = []

        def on_reply(_handle, chunk_items, reply) -> None:
            for (_, _, item_key, packet_id), compact in zip(
                chunk_items, reply["events"]
            ):
                events.extend(self._inflate(item_key, packet_id, compact))

        self._pump(
            {handle: [(shard, 0, key, packet.payload, packet.packet_id)]},
            "scan",
            on_reply,
        )
        return events

    def scan_annotated(self, packets: Sequence[Packet]) -> AnnotatedScan:
        """See :meth:`ShardedScanServiceBase.scan_annotated`; the shards'
        batches scan concurrently on the worker pool."""
        self._ensure_open()
        keys, batches = self._group_by_shard(packets)
        jobs = self._jobs_for(batches)

        per_shard_events: List[List[StreamMatch]] = [[] for _ in batches]
        # every packet sits in exactly one chunk, so every slot is filled
        per_packet: List = [None] * len(packets)
        matches, evicted = [0] * self.num_shards, [0] * self.num_shards
        gauges: Dict[int, int] = {}
        evictions: List[Eviction] = []

        def on_reply(_handle, chunk_items, reply) -> None:
            for (shard, arrival, key, packet_id), compact in zip(
                chunk_items, reply["events"]
            ):
                item_events = self._inflate(key, packet_id, compact)
                per_packet[arrival] = item_events
                per_shard_events[shard].extend(item_events)
            for shard, (matches_delta, evicted_delta) in reply["reports"].items():
                matches[shard] += matches_delta
                evicted[shard] += evicted_delta
            for local_index, key in reply["evictions"]:
                evictions.append((chunk_items[local_index][1], key))
            gauges.update(reply["gauges"])  # later chunks overwrite: the
            # final value is each shard's end-of-scan gauge, which equals
            # the serial service's after-my-batch gauge (a shard's flow
            # table only changes while its own batch scans).

        self._pump(jobs, "scan", on_reply)

        events: List[StreamMatch] = []
        shard_reports: List[ShardReport] = []
        for shard in range(self.num_shards):
            items = batches[shard][1]
            shard_reports.append(
                ShardReport(
                    shard=shard,
                    packets=len(items),
                    bytes_scanned=sum(len(payload) for _, payload, _ in items),
                    matches=matches[shard],
                    active_flows=gauges[shard],
                    evicted_flows=evicted[shard],
                )
            )
            events.extend(per_shard_events[shard])  # shard order == serial
            # pre-sort order
        evictions.sort(key=itemgetter(0))  # reply order -> arrival order
        result = self._aggregate(len(packets), events, shard_reports)
        return result, per_packet, evictions, keys

    def probe_transport(self, packets: Sequence[Packet]) -> int:
        """Push payloads through the data plane without scanning them.

        Benchmark instrumentation: exercises the exact production dispatch
        path (interning, ring writes, chunking, backpressure, replies) while
        the workers only consume — so ``bench_transport.py`` can report
        transport cost separated from matcher compute.  Returns the total
        payload bytes the workers acknowledged.  Flow tables are untouched.
        """
        self._ensure_open()
        jobs = self._jobs_for(self._group_by_shard(packets)[1])
        drained = [0]

        def on_reply(_handle, _chunk_items, reply) -> None:
            drained[0] += reply["drained"]

        self._pump(jobs, "drain", on_reply)
        return drained[0]

    # ------------------------------------------------------------------
    def _shard_gauges(self) -> List[Tuple[int, int, int]]:
        merged: Dict[int, Tuple[int, int, int]] = {}
        for reply in self._request_all("stats"):
            merged.update(reply)
        return [merged[shard] for shard in range(self.num_shards)]

    def stats(self) -> Dict:
        """Serial-compatible service stats plus a ``transport`` section."""
        merged = super().stats()
        merged["transport"] = self.transport_stats.as_dict()
        return merged

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Collect every worker's shard tables into the serial envelope."""
        merged: Dict[int, Dict] = {}
        for reply in self._request_all("checkpoint"):
            merged.update(reply)
        return {
            "num_shards": self.num_shards,
            "shards": [merged[shard] for shard in range(self.num_shards)],
        }

    def restore(self, data: Dict) -> None:
        """Fan a (serial or parallel) checkpoint out to the worker pool.

        Same semantics as the serial service: each shard keeps its
        *configured* flow capacity, over-capacity flows are dropped LRU-first
        (counted per shard in ``restore_dropped``).
        """
        self._validate_checkpoint(data)
        payloads = [
            {shard: data["shards"][shard] for shard in handle.shards}
            for handle in self._workers
        ]
        self._request_all("restore", payloads)


def build_scan_service(
    program: CompiledProgram,
    *,
    num_shards: int,
    workers: Optional[int] = None,
    flow_capacity: int = DEFAULT_FLOW_CAPACITY,
    track_nocase: bool = False,
    ring_slots: Optional[int] = None,
    ring_slot_bytes: Optional[int] = None,
) -> ShardedScanServiceBase:
    """The one place a scan service is constructed.

    ``workers=None`` builds the in-process :class:`ScanService`, a count the
    :class:`ParallelScanService` over that many worker processes (``0`` is
    invalid, not "serial"); the ring sizes only apply there, ``None`` meaning
    the transport defaults.  :class:`repro.api.Session` and
    :class:`repro.ids.IntrusionDetectionSystem` both compose their prefilter
    through this function, so every engine option reaches every mode.
    """
    shape = dict(
        num_shards=num_shards,
        flow_capacity_per_shard=flow_capacity,
        track_nocase=track_nocase,
    )
    if workers is None:
        return ScanService(program, **shape)
    rings = dict(ring_slots=ring_slots, ring_slot_bytes=ring_slot_bytes)
    rings = {name: size for name, size in rings.items() if size is not None}
    return ParallelScanService(program, workers=workers, **shape, **rings)


__all__ = ["ParallelScanService", "WorkerCrashedError", "build_scan_service"]
