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

One pipe per worker carries everything.  A scan is one ``"scan"`` request
per worker holding that worker's items shard-major as ``(shard, flow_id,
packet_id, payload)``: flow keys are interned to small integer ids (each
:class:`FlowKey` crosses to a worker once, in the request's ``new_keys``),
the payload rides in the request itself, and only compact ``(end_offset,
string_number, lowered)`` match tuples come back, inflated to
:class:`StreamMatch` records by the dispatcher.  A worker with nothing to
scan still gets an empty request, so every shard's gauge returns with the
scan.  Checkpoint, restore, stats and stop are requests on the same pipe.

Determinism: each request is one ``scan_batch`` call in its worker (one
backend crossing for all of the worker's shards, as the serial service makes
one for all of its own), and the parent concatenates each shard's events in
shard order before the canonical stable sort — the identical pre-sort order
the serial service produces — so the event stream is byte-identical to
:class:`ScanService` in every configuration.  Checkpoints use the same
envelope as the serial service, so a serial checkpoint restores into a
parallel service and vice versa.

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
from itertools import groupby
from multiprocessing import connection
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend import CompiledProgram
from ..traffic.packet import Packet
from .flow import DEFAULT_FLOW_CAPACITY, FlowKey, FlowTable
from .scanner import BatchItem, Eviction, SegmentBatch, StreamMatch, StreamScanner
from .service import AnnotatedScan, ScanService, ShardedScanServiceBase, ShardReport

#: How often reply waits wake up to check worker liveness (seconds).
_POLL_SECONDS = 0.1

#: One shard's share of a batch: each item's arrival index in the caller's
#: batch, next to the ``(key, payload, packet_id)`` items themselves.
ShardBatch = Tuple[List[int], List[BatchItem]]


class WorkerCrashedError(RuntimeError):
    """A shard worker process died while a request was in flight."""


def _pick_context() -> multiprocessing.context.BaseContext:
    """``fork`` when the platform has it (cheap startup, nothing re-imported),
    else the platform default — the compiled program is picklable."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shard_worker(
    conn,
    program: CompiledProgram,
    shard_ids: Sequence[int],
    num_shards: int,
    flow_capacity: int,
    track_nocase: bool,
) -> None:
    """Worker-process main loop: exclusive owner of ``shard_ids``' engines.

    Speaks a tagged request/response protocol over ``conn``; every request
    gets exactly one ``("ok", value)`` or ``("error", traceback)`` reply, so
    the parent can fan a command out to all workers and collect the replies
    without ever blocking on an out-of-sync pipe.
    """
    engines: Dict[int, StreamScanner] = {
        shard: StreamScanner(
            program, FlowTable(flow_capacity), track_nocase=track_nocase
        )
        for shard in shard_ids
    }
    #: every shard by number, ``None`` where another worker owns it
    shards = [engines.get(shard) for shard in range(num_shards)]
    crossing = engines[shard_ids[0]]
    #: interned flow ids — each FlowKey is pickled to this worker only once.
    keys: Dict[int, FlowKey] = {}

    def handle_scan(request) -> Dict[int, Tuple]:
        """Scan the request's items — every owned shard's, shard-major — in
        one ``scan_batch`` call, i.e. one backend crossing; reply for *every*
        owned shard with ``(per-item compact events, matches, evicted,
        evictions, active)``, item positions counted within the shard's run."""
        keys.update(request["new_keys"])
        items = request["items"]
        before = {
            shard: (engine.stats.matches, engine.flows.stats.evicted)
            for shard, engine in engines.items()
        }
        hits, evictions = crossing.scan_batch(
            SegmentBatch(
                [keys[item[1]] for item in items],
                [item[3] for item in items],
                [item[2] for item in items],
            ),
            shards,
        )
        runs: Dict[int, Tuple[int, int]] = {}
        start = 0
        for shard, run in groupby(items, key=itemgetter(0)):
            end = start + sum(1 for _ in run)
            runs[shard] = (start, end)
            start = end
        reply = {}
        for shard, engine in engines.items():
            start, end = runs.get(shard, (0, 0))
            matches, evicted = before[shard]
            reply[shard] = (
                [
                    [(match.end_offset, match.string_number, match.lowered)
                     for match in hits.get(index, ())]
                    for index in range(start, end)
                ],
                engine.stats.matches - matches,
                engine.flows.stats.evicted - evicted,
                [(index - start, key) for index, key in evictions if start <= index < end],
                engine.active_flows,
            )
        return reply

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
            return
        if command == "stop":
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

    def __init__(self, index: int, process, conn, shards: List[int]):
        self.index = index
        self.process = process
        self.conn = conn
        self.shards = shards
        #: flow ids this worker already holds the FlowKey for.
        self.known_flows: set = set()


class ParallelScanService(ShardedScanServiceBase):
    """Process-parallel drop-in for :class:`repro.streaming.ScanService`.

    ``num_shards`` keeps its meaning (the flow hash space — checkpoints are
    exchangeable between serial and parallel services with equal
    ``num_shards``); ``workers`` says how many OS processes the shards are
    spread over (shard *s* lives in worker ``s % workers``).  ``workers``
    defaults to one per shard, bounded by the machine's CPU count.

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
        context = _pick_context()
        self._workers: List[_WorkerHandle] = []
        self._worker_of_shard: Dict[int, _WorkerHandle] = {}
        #: global FlowKey -> flow id interning table (ids are service-wide).
        self._flow_ids: Dict[FlowKey, int] = {}
        try:
            for index in range(workers):
                shards = list(range(index, num_shards, workers))
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_shard_worker,
                    args=(
                        child_conn, program, shards, num_shards,
                        flow_capacity_per_shard, track_nocase,
                    ),
                    daemon=True,
                    name=f"repro-shard-worker-{index}",
                )
                process.start()
                child_conn.close()  # the parent keeps only its end
                handle = _WorkerHandle(index, process, parent_conn, shards)
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
        """Send on the pipe; a dead peer raises WorkerCrashedError (a kill
        between requests surfaces on the *send*, not the recv)."""
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

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # scan dispatch
    # ------------------------------------------------------------------
    def _group_by_shard(
        self, packets: Sequence[Packet]
    ) -> Tuple[List[FlowKey], List[ShardBatch]]:
        """Resolve every packet's flow key and group the batch by shard.

        The pool's one per-packet dispatch loop: returns the keys in arrival
        order and, per shard, the arrival indices next to the items its
        worker scans.  Grouping preserves each flow's arrival order (all
        packets of a flow hash to the same shard and the batch is walked
        front to back), which is what keeps cross-segment state consistent.
        """
        keys: List[FlowKey] = []
        batches: List[ShardBatch] = [([], []) for _ in range(self.num_shards)]
        flow_key = StreamScanner.flow_key
        num_shards = self.num_shards
        for index, packet in enumerate(packets):
            key = flow_key(packet)  # resolved once per flow, CRC included
            keys.append(key)
            arrivals, items = batches[key.shard_crc % num_shards]
            arrivals.append(index)
            items.append((key, packet.payload, packet.packet_id))
        return keys, batches

    def _scan_request(self, handle: _WorkerHandle, batches: List[ShardBatch]) -> Tuple:
        """``handle``'s ``"scan"`` request: its shards' items, shard-major,
        with the flow keys it has not seen yet."""
        flow_ids = self._flow_ids
        known = handle.known_flows
        new_keys: Dict[int, FlowKey] = {}
        items = []
        for shard in handle.shards:
            for key, payload, packet_id in batches[shard][1]:
                flow_id = flow_ids.get(key)
                if flow_id is None:
                    flow_id = flow_ids[key] = len(flow_ids)
                if flow_id not in known:
                    known.add(flow_id)
                    new_keys[flow_id] = key
                items.append((shard, flow_id, packet_id, payload))
        return ("scan", {"new_keys": new_keys, "items": items})

    # ------------------------------------------------------------------
    # the ScanService API
    # ------------------------------------------------------------------
    def submit(self, packet: Packet) -> List[StreamMatch]:
        """Scan a single packet on its flow's shard (one worker round-trip)."""
        self._ensure_open()
        key = StreamScanner.flow_key(packet)
        shard = self.shard_for(key)
        handle = self._worker_of_shard[shard]
        batches: List[ShardBatch] = [([], []) for _ in range(self.num_shards)]
        batches[shard] = ([0], [(key, packet.payload, packet.packet_id)])
        (reply,) = self._exchange([handle], [self._scan_request(handle, batches)])
        (compact,) = reply[shard][0]
        return [StreamMatch(key, packet.packet_id, *match) for match in compact]

    def scan_annotated(self, packets: Sequence[Packet]) -> AnnotatedScan:
        """See :meth:`ShardedScanServiceBase.scan_annotated`; the shards'
        batches scan concurrently on the worker pool."""
        self._ensure_open()
        keys, batches = self._group_by_shard(packets)
        replies: Dict[int, Tuple] = {}
        for reply in self._exchange(
            self._workers, [self._scan_request(handle, batches) for handle in self._workers]
        ):
            replies.update(reply)

        hits: Dict[int, List[StreamMatch]] = {}  # shard order == serial order
        evictions: List[Eviction] = []
        shard_reports: List[ShardReport] = []
        for shard, (arrivals, items) in enumerate(batches):
            compact_events, matches, evicted, shard_evictions, active = replies[shard]
            for arrival, (key, _, packet_id), compact in zip(arrivals, items, compact_events):
                if compact:
                    hits[arrival] = [StreamMatch(key, packet_id, *match) for match in compact]
            evictions.extend((arrivals[index], key) for index, key in shard_evictions)
            shard_reports.append(
                ShardReport(
                    shard=shard,
                    packets=len(items),
                    bytes_scanned=sum(len(payload) for _, payload, _ in items),
                    matches=matches,
                    active_flows=active,
                    evicted_flows=evicted,
                )
            )
        evictions.sort(key=itemgetter(0))  # shard order -> arrival order
        return self._aggregate(len(packets), hits, shard_reports), hits, evictions, keys

    # ------------------------------------------------------------------
    def _shard_gauges(self) -> List[Tuple[int, int, int]]:
        merged: Dict[int, Tuple[int, int, int]] = {}
        for reply in self._request_all("stats"):
            merged.update(reply)
        return [merged[shard] for shard in range(self.num_shards)]

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
) -> ShardedScanServiceBase:
    """The one place a scan service is constructed.

    ``workers=None`` builds the in-process :class:`ScanService`, a count the
    :class:`ParallelScanService` over that many worker processes (``0`` is
    invalid, not "serial").  :class:`repro.api.Session` and
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
    return ParallelScanService(program, workers=workers, **shape)


__all__ = ["ParallelScanService", "WorkerCrashedError", "build_scan_service"]
