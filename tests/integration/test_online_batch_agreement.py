"""The live monitor reports the same latencies as the batch analyzer.

A real-clock PPS run makes probe costs, and so the O_F compensation of
Section 3.2, non-zero. The monitor polls the process buffers while the
pipeline runs (records arrive interleaved across processes); afterwards
its per-function latency stats must equal the batch ``latency_report``
over the same records, and its completed-call count must equal the
number of batch nodes that their end probe closed.
"""

import threading

import pytest

from repro.analysis import OnlineMonitor, latency_report, reconstruct_from_records
from repro.analysis.latency import causality_overhead
from repro.apps.pps import PpsSystem, four_process_deployment
from repro.core import MonitorMode, TracingEvent
from repro.platform import RealClock


def _closed_by_end_probe(node) -> bool:
    """Stub-opened frames close at stub_end, skeleton-opened ones at skel_end."""
    if TracingEvent.STUB_START in node.records:
        return TracingEvent.STUB_END in node.records
    return TracingEvent.SKEL_END in node.records


@pytest.fixture(scope="module")
def live_run():
    pps = PpsSystem(
        four_process_deployment(),
        mode=MonitorMode.LATENCY,
        clock=RealClock(),
        cost_scale=20_000,
    )
    processes = list(pps.processes.values())
    monitor = OnlineMonitor()
    stop = threading.Event()

    def poller():
        while not stop.wait(0.001):
            monitor.poll(processes)

    thread = threading.Thread(target=poller)
    thread.start()
    try:
        pps.run(njobs=3, pages=2, complexity=1)
        pps.quiesce()
    finally:
        stop.set()
        thread.join()
    monitor.poll(processes)
    records = [r for p in processes for r in p.log_buffer.snapshot()]
    pps.shutdown()
    return monitor, reconstruct_from_records(records)


def test_probe_overhead_is_in_play(live_run):
    _, dscg = live_run
    # A real clock makes the probes cost something, so L(F) subtracts a
    # non-zero O_F, and collocated calls use the skeleton window.
    assert any(causality_overhead(node) > 0 for node in dscg.walk())
    assert any(node.collocated for node in dscg.walk())


def test_latency_stats_equal_batch_latency_report(live_run):
    monitor, dscg = live_run
    live = monitor.latency_stats()
    batch = latency_report(dscg)
    assert sorted(live) == sorted(batch)
    for function, report in batch.items():
        stats = live[function]
        assert (stats.count, stats.mean_ns, stats.max_ns) == (
            report.count,
            report.mean_ns,
            report.max_ns,
        ), function


def test_completed_calls_equal_closed_batch_nodes(live_run):
    monitor, dscg = live_run
    closed = sum(1 for node in dscg.walk() if _closed_by_end_probe(node))
    assert closed > 0
    assert monitor.completed_calls() == closed
    assert monitor.open_invocations() == []
    assert monitor.alerts() == []
