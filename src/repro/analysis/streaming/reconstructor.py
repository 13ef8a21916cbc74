"""Incremental DSCG reconstruction over a live record stream.

The batch analyzer sorts each chain's records by event number and runs
them through the Figure-4 machine at quiescence. The streaming
reconstructor does the same work record-by-record as probes emit them:
each chain owns a :class:`~repro.analysis.statemachine.ChainBuilder`
(the *same* transition implementation the batch path uses) plus a
re-serialization buffer that holds out-of-order arrivals until their
event number comes up.

Equivalence contract: after :meth:`StreamingReconstructor.finalize`, the
resulting :class:`~repro.analysis.dscg.Dscg` is bit-identical to
``reconstruct(store, run)`` over the same records whenever event numbers
are unique per chain: any fault-free run, and any subset of one in any
arrival order (records lost, delayed or reordered). Records that
*collide* on an event number — a duplicate delivery, or the
mingled-chain hazard — are flagged with an abnormal entry on their chain
and then applied immediately, so such a chain is never clean, though its
tree may differ from the batch analyzer's.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from repro.analysis.dscg import AbnormalEvent, CallNode, Dscg
from repro.analysis.statemachine import _STUB_START, ChainBuilder
from repro.core.records import ProbeRecord
from repro.platform.process import SimProcess

#: Completion hook: (closed node, closing record, global record index).
CompletionHook = Callable[[CallNode, ProbeRecord, int], None]


class _ChainStream(ChainBuilder):
    """One causal chain's Figure-4 machine plus its re-serialization
    buffer; every abnormal entry it records is also appended to the
    reconstructor-wide log."""

    __slots__ = ("expected_seq", "pending", "abnormal_log")

    def __init__(self, chain_uuid: str, abnormal_log: list[AbnormalEvent]):
        super().__init__(chain_uuid)
        self.expected_seq = 0
        self.pending: dict[int, ProbeRecord] = {}
        self.abnormal_log = abnormal_log

    def _abnormal(self, reason: str, record: ProbeRecord) -> None:
        super()._abnormal(reason, record)
        self.abnormal_log.append(self.tree.abnormal[-1])


class StreamingReconstructor:
    """Maintains live DSCG chains from an incremental record stream.

    Thread-safe. Feed records with :meth:`ingest`/:meth:`ingest_many`,
    or attach to live processes and call :meth:`poll` (non-draining
    cursor reads, so the quiescence-time collector still sees every
    record). ``on_complete`` fires inline whenever a call frame closes —
    the hook the spike detector and the online monitor hang off.
    :attr:`abnormal_events` logs every abnormal transition and
    event-number collision as it happens, across all chains.

    ``max_pending`` bounds the re-serialization buffer across all
    chains: a stalled chain (its gap record lost in flight) cannot grow
    memory without limit. Overflow drops the incoming out-of-order
    record and counts it in :attr:`pending_dropped`.
    """

    def __init__(
        self,
        on_complete: CompletionHook | None = None,
        max_pending: int | None = 100_000,
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        self.on_complete = on_complete
        self.max_pending = max_pending
        self.records_ingested = 0
        self.pending_dropped = 0
        self.abnormal_events: list[AbnormalEvent] = []
        self._chains: dict[str, _ChainStream] = {}
        self._pending_total = 0
        self._completed_nodes = 0
        self._open_frames = 0
        #: Chains with a frame open, so live views skip finished chains.
        self._live: set[_ChainStream] = set()
        self._finalized: Dscg | None = None
        self._lock = threading.Lock()
        self._cursors: dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Ingest

    def ingest(self, record: ProbeRecord) -> None:
        self.ingest_many((record,))

    def ingest_many(self, records: Iterable[ProbeRecord]) -> int:
        with self._lock:
            return self._enqueue_all_locked(records)

    def poll(self, processes: Iterable[SimProcess]) -> int:
        """Pull new records from process buffers without draining them."""
        new = 0
        with self._lock:
            for process in processes:
                records, self._cursors[process.pid] = process.log_buffer.read_from(
                    self._cursors.get(process.pid)
                )
                new += self._enqueue_all_locked(records)
        return new

    def _enqueue_all_locked(self, records: Iterable[ProbeRecord]) -> int:
        if self._finalized is not None:
            raise RuntimeError("cannot ingest into a finalized reconstructor")
        before = self.records_ingested
        for record in records:
            self._enqueue_locked(record)
        return self.records_ingested - before

    def _enqueue_locked(self, record: ProbeRecord) -> None:
        self.records_ingested += 1
        stream = self._chains.get(record.chain_uuid)
        if stream is None:
            stream = self._chains[record.chain_uuid] = _ChainStream(
                record.chain_uuid, self.abnormal_events
            )
        seq = record.event_seq
        if seq == stream.expected_seq:
            self._apply_locked(stream, record)
            stream.expected_seq += 1
            pending = stream.pending
            while pending:
                next_record = pending.pop(stream.expected_seq, None)
                if next_record is None:
                    break
                self._pending_total -= 1
                self._apply_locked(stream, next_record)
                stream.expected_seq += 1
        elif seq > stream.expected_seq and seq not in stream.pending:
            if (
                self.max_pending is not None
                and self._pending_total >= self.max_pending
            ):
                self.pending_dropped += 1
                return
            stream.pending[seq] = record
            self._pending_total += 1
        else:
            # Event-number collision (a duplicate, or mingled chains): an
            # earlier record already holds this number. Flag the chain,
            # then apply the record now.
            stream._abnormal(
                f"event number {seq} collides with an earlier record", record
            )
            self._apply_locked(stream, record)

    def _apply_locked(self, stream: _ChainStream, record: ProbeRecord) -> None:
        # Keeps the live counts O(1). Per Figure 4, any start can open a
        # frame on an idle chain, only stub_start opens one on a busy
        # chain, and a frame closes only by completing.
        stack = stream.stack
        if not stack:
            stream.apply(record)
            if stack:
                self._open_frames += 1
                self._live.add(stream)
            return
        completed = stream.apply(record)
        if completed is None:
            if record.event is _STUB_START:
                self._open_frames += 1
            return
        self._open_frames -= 1
        if not stack:
            self._live.discard(stream)
        self._completed_nodes += 1
        if self.on_complete is not None:
            self.on_complete(completed, record, self.records_ingested)

    # ------------------------------------------------------------------
    # Live views

    def live_chain_count(self) -> int:
        """Chains with at least one frame still open."""
        with self._lock:
            return len(self._live)

    def open_frame_count(self) -> int:
        """Invocations currently in flight, across all chains."""
        with self._lock:
            return self._open_frames

    def open_frames(self) -> list[CallNode]:
        """Every invocation currently in flight, outermost first per chain."""
        with self._lock:
            frames: list[CallNode] = []
            for stream in sorted(self._live, key=lambda s: s.tree.chain_uuid):
                frames.extend(stream.stack)
            return frames

    def completed_nodes(self) -> int:
        with self._lock:
            return self._completed_nodes

    def pending_records(self) -> int:
        """Out-of-order records currently buffered awaiting their gap."""
        with self._lock:
            return self._pending_total

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "records_ingested": self.records_ingested,
                "chains": len(self._chains),
                "completed_nodes": self._completed_nodes,
                "pending_records": self._pending_total,
                "pending_dropped": self.pending_dropped,
            }

    # ------------------------------------------------------------------
    # Finalization

    def finalize(self) -> Dscg:
        """Close the stream and return the reconstructed DSCG.

        Any records still waiting on a lost gap record are flushed
        through the machine in ascending event-number order — exactly
        the order the batch analyzer would have applied them — then
        every chain salvages its open frames, chains are grouped
        ascending by chain uuid (the ``chains_for_run`` ordering
        contract) and oneway forks are linked. Idempotent.
        """
        with self._lock:
            if self._finalized is not None:
                return self._finalized
            dscg = Dscg()
            for chain_uuid in sorted(self._chains):
                stream = self._chains[chain_uuid]
                if stream.pending:
                    for seq in sorted(stream.pending):
                        self._apply_locked(stream, stream.pending[seq])
                    self._pending_total -= len(stream.pending)
                    stream.pending.clear()
                dscg.add_chain(stream.finish())
            dscg.link_chains()
            self._finalized = dscg
            return dscg
