"""On-line causality monitoring (paper future work, Section 6).

"Other promising avenues for future research are ... to apply the global
causality capturing technique from the on-line perspective for
application-level system management."

The off-line analyzer collects at quiescence; this module consumes probe
records *as they are produced*. It is a thin consumer of the one live
engine, :class:`~repro.analysis.streaming.StreamingReconstructor`, which
re-serializes each chain and runs the same Figure-4
:class:`~repro.analysis.statemachine.ChainBuilder` the batch analyzer
uses. On top of it the monitor exposes:

- currently open invocations (who is in flight, where, for how long),
- per-function running latency statistics — the paper's Section-3.2
  L(F), compensated for the probe overhead O_F, exactly as
  :func:`~repro.analysis.latency.latency_report` computes it offline,
- threshold alerts (latency SLO violations, abnormal transitions and
  event-number collisions, pending-buffer overflow),

which is exactly the "runtime quality of adaptation" hook the paper
contrasts with BBN's Resource Status Service. Like the reconstructor,
the monitor keeps every chain tree of the run in memory.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from repro.analysis.dscg import CallNode
from repro.analysis.latency import end_to_end_latency
from repro.analysis.quantiles import P2Quantile
from repro.analysis.streaming.reconstructor import StreamingReconstructor
from repro.core.events import TracingEvent
from repro.core.records import ProbeRecord
from repro.platform.process import SimProcess
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsRegistry,
)


@dataclass
class OpenInvocation:
    """One in-flight call on a live chain."""

    function: str
    object_id: str
    chain_uuid: str
    started_wall_ns: int | None
    depth: int
    #: Which probe opened the frame: "stub", or "skel" for the skeleton
    #: side of a oneway fork / an unmonitored client's call.
    opened_by: str = "stub"


def _open_invocation(node: CallNode) -> OpenInvocation:
    """The view of one open frame of the reconstructor's live stack."""
    opener = node.records.get(TracingEvent.STUB_START)
    opened_by = "stub"
    if opener is None:
        opener = node.records[TracingEvent.SKEL_START]
        opened_by = "skel"
    return OpenInvocation(
        function=node.function,
        object_id=node.object_id,
        chain_uuid=node.chain_uuid,
        started_wall_ns=opener.wall_end,
        depth=node.depth() + 1,
        opened_by=opened_by,
    )


@dataclass
class Alert:
    kind: str  # "latency" | "abnormal" | "overflow"
    function: str
    chain_uuid: str
    detail: str
    latency_ns: int | None = None


class LatencyStats(NamedTuple):
    """Per-function completed-call statistics (all latencies in ns)."""

    count: int
    mean_ns: float
    max_ns: int
    p50_ns: float
    p95_ns: float
    p99_ns: float


@dataclass
class _LiveStats:
    count: int = 0
    total_ns: int = 0
    max_ns: int = 0
    # Streaming P² quantile markers: O(1) memory per function however
    # long the run, no sample buffer to bound or rotate.
    p50: P2Quantile = field(default_factory=lambda: P2Quantile(0.50))
    p95: P2Quantile = field(default_factory=lambda: P2Quantile(0.95))
    p99: P2Quantile = field(default_factory=lambda: P2Quantile(0.99))

    def add(self, latency_ns: int) -> None:
        self.count += 1
        self.total_ns += latency_ns
        self.max_ns = max(self.max_ns, latency_ns)
        self.p50.observe(latency_ns)
        self.p95.observe(latency_ns)
        self.p99.observe(latency_ns)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def snapshot(self) -> LatencyStats:
        return LatencyStats(
            count=self.count,
            mean_ns=self.mean_ns,
            max_ns=self.max_ns,
            p50_ns=self.p50.value(),
            p95_ns=self.p95.value(),
            p99_ns=self.p99.value(),
        )


class OnlineMonitor:
    """Streaming analyzer over live probe records.

    Feed records with :meth:`ingest` (or attach to processes and call
    :meth:`poll`). Thread-safe; latency alerts fire inline with ingest,
    abnormal and overflow alerts at the end of the same call.

    ``max_pending`` bounds the reconstructor's buffer of out-of-order
    records across all chains: a chain whose gap record was lost in
    flight must not grow the monitor without limit. Overflow drops the
    incoming record, counts it in :attr:`pending_dropped` and raises one
    ``overflow`` alert per saturation episode.
    """

    def __init__(
        self,
        latency_slo_ns: int | None = None,
        on_alert: Callable[[Alert], None] | None = None,
        registry: MetricsRegistry | None = None,
        max_pending: int | None = 100_000,
    ):
        self.reconstructor = StreamingReconstructor(
            on_complete=self._on_complete, max_pending=max_pending
        )
        self.latency_slo_ns = latency_slo_ns
        self.on_alert = on_alert
        # Live telemetry pipeline (Section 6, "on-line perspective"):
        # with a registry attached, every ingest keeps scrape-ready
        # gauges/histograms current; without one these are no-ops.
        if registry is not None:
            self._m_inflight = registry.gauge(
                "repro_online_inflight_invocations",
                "Invocations currently open on live causal chains.",
            )
            self._m_live_chains = registry.gauge(
                "repro_online_live_chains",
                "Causal chains with at least one open invocation.",
            )
            self._m_completed = registry.counter(
                "repro_online_completed_calls_total",
                "Invocations completed (stub_end observed and matched).",
            )
            self._m_latency = registry.histogram(
                "repro_online_call_latency_ns",
                "Rolling end-to-end latency of completed calls, in ns.",
                labels=("function",),
            )
            self._m_slo_breaches = registry.counter(
                "repro_online_slo_breaches_total",
                "Completed calls whose latency exceeded the configured SLO.",
            )
            self._m_abnormal = registry.counter(
                "repro_online_abnormal_events_total",
                "Records that violated the Figure-4 state machine.",
            )
            self._m_pending = registry.gauge(
                "repro_online_pending_records",
                "Out-of-order records buffered awaiting their gap record.",
            )
            self._m_pending_dropped = registry.counter(
                "repro_online_pending_dropped_total",
                "Out-of-order records dropped because the buffer was full.",
            )
        else:
            self._m_inflight = NULL_GAUGE
            self._m_live_chains = NULL_GAUGE
            self._m_completed = NULL_COUNTER
            self._m_latency = NULL_HISTOGRAM
            self._m_slo_breaches = NULL_COUNTER
            self._m_abnormal = NULL_COUNTER
            self._m_pending = NULL_GAUGE
            self._m_pending_dropped = NULL_COUNTER
        self._stats: dict[str, _LiveStats] = defaultdict(_LiveStats)
        self._alerts: list[Alert] = []
        # How much of the reconstructor's abnormal log and drop count
        # has already been turned into alerts and metrics.
        self._abnormal_seen = 0
        self._dropped_seen = 0
        #: One overflow alert per saturation episode, not one per drop.
        self._overflow_alerted = False
        self._lock = threading.Lock()

    @property
    def max_pending(self) -> int | None:
        return self.reconstructor.max_pending

    @property
    def pending_dropped(self) -> int:
        """Out-of-order records dropped because the buffer was full."""
        return self.reconstructor.pending_dropped

    # ------------------------------------------------------------------

    def ingest(self, record: ProbeRecord) -> None:
        """Advance live chain state with one record."""
        self.ingest_many((record,))

    def ingest_many(self, records: Iterable[ProbeRecord]) -> None:
        with self._lock:
            self.reconstructor.ingest_many(records)
            self._sync_locked()

    def poll(self, processes: list[SimProcess]) -> int:
        """Pull any new records from process buffers (non-draining)."""
        with self._lock:
            new = self.reconstructor.poll(processes)
            self._sync_locked()
        return new

    # ------------------------------------------------------------------

    def _on_complete(self, node: CallNode, record: ProbeRecord, index: int) -> None:
        """A frame closed at its end probe: update stats and metrics.

        Runs inside :meth:`ingest`/:meth:`poll`, under the monitor lock.
        """
        self._m_completed.inc()
        latency = end_to_end_latency(node)
        if latency is None:
            return
        self._stats[node.function].add(latency)
        self._m_latency.labels(node.function).observe(latency)
        if self.latency_slo_ns is not None and latency > self.latency_slo_ns:
            self._m_slo_breaches.inc()
            self._raise_alert(
                Alert(
                    kind="latency",
                    function=node.function,
                    chain_uuid=node.chain_uuid,
                    detail=f"latency {latency}ns exceeds SLO"
                    f" {self.latency_slo_ns}ns",
                    latency_ns=latency,
                )
            )

    def _sync_locked(self) -> None:
        """Turn the reconstructor's new abnormal entries and drops into
        alerts, and refresh the gauges."""
        reconstructor = self.reconstructor
        abnormal = reconstructor.abnormal_events
        for event in abnormal[self._abnormal_seen:]:
            self._m_abnormal.inc()
            self._raise_alert(
                Alert(
                    kind="abnormal",
                    function=event.record.function,
                    chain_uuid=event.chain_uuid,
                    detail=event.reason,
                )
            )
        self._abnormal_seen = len(abnormal)
        dropped = reconstructor.pending_dropped
        if dropped > self._dropped_seen:
            self._m_pending_dropped.inc(dropped - self._dropped_seen)
            self._dropped_seen = dropped
            if not self._overflow_alerted:
                self._overflow_alerted = True
                self._raise_alert(
                    Alert(
                        kind="overflow",
                        function="",
                        chain_uuid="",
                        detail=f"pending-record buffer full"
                        f" ({self.max_pending}); dropping out-of-order records",
                    )
                )
        pending = reconstructor.pending_records()
        if self._overflow_alerted and pending < self.max_pending:
            self._overflow_alerted = False
        self._m_pending.set(pending)
        self._m_inflight.set(reconstructor.open_frame_count())
        self._m_live_chains.set(reconstructor.live_chain_count())

    def _raise_alert(self, alert: Alert) -> None:
        self._alerts.append(alert)
        if self.on_alert is not None:
            self.on_alert(alert)

    # ------------------------------------------------------------------
    # Views

    def open_invocations(self) -> list[OpenInvocation]:
        """Everything currently in flight, deepest frames last per chain."""
        with self._lock:
            return [
                _open_invocation(node)
                for node in self.reconstructor.open_frames()
            ]

    def live_chain_count(self) -> int:
        return self.reconstructor.live_chain_count()

    def completed_calls(self) -> int:
        return self.reconstructor.completed_nodes()

    def alerts(self) -> list[Alert]:
        with self._lock:
            return list(self._alerts)

    def pending_records(self) -> int:
        """Out-of-order records currently buffered awaiting their gap."""
        return self.reconstructor.pending_records()

    def latency_stats(self) -> dict[str, LatencyStats]:
        """function -> :class:`LatencyStats` for completed calls.

        Latencies are the Section-3.2 L(F) of each completed call.
        Percentiles are streaming P² estimates: exact up to five
        observations, marker-interpolated beyond — no retained samples.
        """
        with self._lock:
            return {
                function: stats.snapshot()
                for function, stats in self._stats.items()
            }
