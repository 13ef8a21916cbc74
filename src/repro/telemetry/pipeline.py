"""Live metrics pipeline: process buffers → OnlineMonitor → registry.

This is the "on-line perspective for application-level system
management" of the paper's Section 6, closed into a loop: the same probe
records the quiescence-time collector gathers are streamed through the
:class:`~repro.analysis.online.OnlineMonitor` *while the system runs*,
and the monitor keeps a :class:`~repro.telemetry.metrics.MetricsRegistry`
current with in-flight gauges, rolling latency histograms (the paper's
Section-3.2 L(F)) and SLO-breach counters.
:func:`~repro.telemetry.exposition.render_prometheus` turns any snapshot
into a scrape body. The monitor runs on the one live engine,
:class:`~repro.analysis.streaming.StreamingReconstructor`, so the
pipeline holds the run's chain trees in memory until it is dropped.

The pipeline can be driven manually (:meth:`LiveMetricsPipeline.poll`)
or from a background sampler thread (:meth:`start`/:meth:`stop`)."""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.platform.process import SimProcess
from repro.telemetry.exposition import render_prometheus
from repro.telemetry.metrics import MetricsRegistry


class LiveMetricsPipeline:
    """Feeds live probe records into an online monitor and a registry."""

    def __init__(
        self,
        processes: Iterable[SimProcess],
        registry: MetricsRegistry | None = None,
        latency_slo_ns: int | None = None,
        on_alert: Callable | None = None,
    ):
        # Imported here: repro.analysis.online itself uses telemetry
        # metrics, and a module-level import would close that cycle
        # during package initialization.
        from repro.analysis.online import OnlineMonitor

        self.processes = list(processes)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.monitor = OnlineMonitor(
            latency_slo_ns=latency_slo_ns,
            on_alert=on_alert,
            registry=self.registry,
        )
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: Exception that killed the background sampler, if any. A dead
        #: daemon thread is otherwise invisible: metrics silently stop
        #: updating while the pipeline looks started.
        self.sampler_error: BaseException | None = None

    # ------------------------------------------------------------------

    def poll(self) -> int:
        """Pull any new records from every process buffer; returns count."""
        return self.monitor.poll(self.processes)

    def alerts(self):
        """Alerts raised so far (SLO breaches, abnormal transitions)."""
        return self.monitor.alerts()

    def render(self) -> str:
        """Prometheus exposition text of the registry's current state."""
        return render_prometheus(self.registry)

    # ------------------------------------------------------------------
    # Background sampling

    @property
    def running(self) -> bool:
        """Whether the sampler thread is alive and polling."""
        return self._thread is not None and self._thread.is_alive()

    def start(self, interval_s: float = 0.05) -> None:
        """Poll from a daemon thread every ``interval_s`` seconds."""
        if self._thread is not None:
            return
        self._stop.clear()
        self.sampler_error = None

        def sample() -> None:
            try:
                while not self._stop.wait(interval_s):
                    self.poll()
            except BaseException as exc:
                self.sampler_error = exc

        self._thread = threading.Thread(
            target=sample, name="telemetry-pipeline", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampler, run one final catch-up poll, surface errors.

        If the sampler thread died between polls, the exception that
        killed it is re-raised here (after the catch-up poll) instead of
        vanishing with the daemon thread.
        """
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.poll()
        if self.sampler_error is not None:
            error, self.sampler_error = self.sampler_error, None
            raise RuntimeError("telemetry sampler thread died") from error
