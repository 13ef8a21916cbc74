"""The workloads, their correctness oracles and the pipeline stages.

Every workload is closed-loop: a caller sends its next call only after the
previous reply. Inputs come only from ``random.Random(seed)``; the program
receives the generated values and nothing else.

- ``rpc_async``: ``weigh(items)`` between two ``SimProcess``es on the
  asyncio plane, one event loop with 64 pipelined tasks.
- ``embedded_pipeline``: the paper's synthetic embedded system (176
  components, 4 processes) in CPU mode on a ``VirtualClock``.

The call workload interleaves monitored and unmonitored batches on one
deployment; an unmonitored batch runs with ``process.monitor = None``, the
probe-free path of the generated stubs and skeletons. Every workload then
runs the capture→CCSG pipeline (collect, segment-store ingest and
compaction, reconstruction, CPU/CCSG, CCSG XML), the seeded predicated
queries and a streaming replay over a fixed-size capture of its own
monitored calls.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import random
import shutil
import statistics
import string
import time
from array import array
from dataclasses import dataclass, field

import repro.analysis as analysis
import repro.store as store_pkg
from repro.analysis import dscg_to_json
from repro.analysis.streaming import StreamingReconstructor
from repro.apps.embedded import EmbeddedConfig, EmbeddedSystem
from repro.apps.embedded.system import _EmbeddedServantMixin
from repro.collector import LogCollector
from repro.core import (
    MonitorConfig,
    MonitoringRuntime,
    MonitorMode,
    SequentialUuidFactory,
)
from repro.idl import compile_idl
from repro.orb import AsyncioDispatch, InterfaceRegistry, Orb
from repro.platform import Host, Network, SimProcess
from repro.store import ScanPredicate, ScanStats, SegmentStore

from rules import overhead_per_record, summarize, trimmed_mean
from spans import Tracer

RECORDS_PER_CALL = 4  # the four probes of a synchronous call
#: Monitored calls whose records feed each pipeline round (16k records).
PIPELINE_CALLS = 4000
#: Monitored calls traced in the traced run (bounds the span list).
TRACE_CALLS = 8000
LATENCY_SAMPLES = 100_000
#: Latency samples a run gathers at least: p95 needs ten beyond it.
TAIL_SAMPLES = 200
#: Seconds of calls captured between two pipeline rounds.
SLICE_S = 1.0
#: Share of a run spent on repeated set-ups, spread over the whole run.
SETUP_SHARE = 0.1
QUERY_REPEATS = 5
STREAM_REPEATS = 3

IDL = """
module Bench {
  struct Item { long id; double w; string tag; };
  typedef sequence<Item> Items;
  interface Svc {
    long weigh(in Items items);
  };
};
"""

_clock = time.perf_counter_ns


# ----------------------------------------------------------------------
# Correctness accounting


class Checks:
    """Operations attempted and failed: calls plus correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def calls(self, count: int, wrong: int, what: str) -> None:
        self.attempted += count
        if wrong:
            self._fail(wrong, f"{wrong} of {count} {what} results wrong")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(1, what)

    def _fail(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)


def _span(tracer: Tracer | None, name: str, n: int = 0):
    return tracer.span(name, n) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# The call deployment (rpc_async)


class CallDeployment:
    """A monitored ``Bench::Svc`` deployment on the asyncio plane.

    ``batch()`` runs one closed-loop batch and returns
    ``(latencies_ns, wrong)``.
    """

    kind = "async"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        network = Network()
        host = Host("bench-host")
        registry = InterfaceRegistry()
        ns = compile_idl(IDL, instrument=True, registry=registry,
                         async_mode=True).namespace
        self.stub_classes = [registry.stub_class("Bench::Svc")]
        uuids = SequentialUuidFactory(f"{rng.randrange(16 ** 6):06x}")
        server = SimProcess("bench-server", host)
        client = SimProcess("bench-client", host)
        self.processes = [client, server]
        self.runtimes = [
            MonitoringRuntime(p, MonitorConfig(mode=MonitorMode.LATENCY,
                                               uuid_factory=uuids))
            for p in self.processes
        ]

        class Impl(ns["Bench_Svc"]):
            async def weigh(self, items):
                return len(items)

        self.server_orb = Orb(server, network, policy=AsyncioDispatch(),
                              registry=registry, channel="asyncio")
        self.client_orb = Orb(client, network, registry=registry,
                              channel="asyncio")
        self.servant_methods = [(Impl, "weigh")]
        self.stub = self.client_orb.resolve(self.server_orb.activate(Impl()))

        # (argument, expected result) of every call in a batch. Fixed-size
        # payloads: the seed changes content, not cost.
        item = ns["Bench_Item"]
        payloads = [
            [item(rng.randrange(-(2 ** 31), 2 ** 31), rng.random(),
                  "".join(rng.choices(string.ascii_letters, k=12)))
             for _ in range(4)]
            for _ in range(16)
        ]
        self.calls = [(items, len(items)) for items in payloads * 16]
        # One chain per asyncio task and batch.
        self.tasks = 64
        self.chains_per_batch = self.tasks
        self.calls_per_batch = len(self.calls)
        self._loop = asyncio.new_event_loop()

    def set_monitored(self, monitored: bool) -> None:
        for process, runtime in zip(self.processes, self.runtimes):
            process.monitor = runtime if monitored else None

    def batch(self) -> tuple[list[int], int]:
        return self._loop.run_until_complete(self._batch())

    async def _batch(self) -> tuple[list[int], int]:
        # Looked up per batch, so a traced run sees the patched stub class.
        method = self.stub.weigh
        per_task = len(self.calls) // self.tasks

        async def task(calls) -> tuple[list[int], int]:
            latencies = []
            wrong = 0
            for argument, expected in calls:
                start = _clock()
                result = await method(argument)
                latencies.append(_clock() - start)
                wrong += result != expected
            return latencies, wrong

        results = await asyncio.gather(*(
            task(self.calls[i * per_task:(i + 1) * per_task])
            for i in range(self.tasks)))
        return [ns for lat, _w in results for ns in lat], sum(w for _l, w in results)

    def peak_pending(self) -> int:
        channels = getattr(self.client_orb, "_async_channels", {})
        return max((ch.peak_pending for ch in channels.values()), default=0)

    def shutdown(self) -> None:
        self.client_orb.shutdown()
        self.server_orb.shutdown()
        for process in self.processes:
            process.shutdown()
        self._loop.close()


@dataclass
class Capture:
    """What the capture slices of one measurement gathered."""

    keep_calls: int = 0  # monitored calls whose records feed the pipeline
    #: Monitored call latencies: a uniform sample of at most LATENCY_SAMPLES,
    #: so memory does not grow with throughput.
    monitored_ns: array = field(default_factory=lambda: array("q"))
    latencies_seen: int = 0
    slice_ns: list = field(default_factory=list)  # latencies of this slice
    slice_p50: list = field(default_factory=list)  # median of each slice
    sampler: random.Random = field(default_factory=lambda: random.Random(0))
    monitored_cost: list = field(default_factory=list)  # ns/call per batch
    plain_cost: list = field(default_factory=list)
    monitored_calls: int = 0
    kept: dict = field(default_factory=dict)
    kept_calls: int = 0
    kept_chains: int = 0

    def add_latencies(self, latencies) -> None:
        """Reservoir sampling (Algorithm R) into ``monitored_ns``."""
        self.slice_ns.extend(latencies)
        sample, rng = self.monitored_ns, self.sampler
        for latency in latencies:
            seen = self.latencies_seen
            self.latencies_seen = seen + 1
            if seen < LATENCY_SAMPLES:
                sample.append(latency)
            else:
                slot = rng.randrange(seen + 1)
                if slot < LATENCY_SAMPLES:
                    sample[slot] = latency


def capture_calls(dep: CallDeployment, cap: Capture, checks: Checks,
                  deadline: float, plain: bool, max_calls: int | None = None) -> None:
    """Run batches until ``deadline`` (and until ``cap.keep_calls`` are kept).

    Monitored and, with ``plain``, unmonitored batches alternate. Every
    batch checks each call's result and that the buffers gained exactly
    four records per monitored call and none per unmonitored call. The
    records of the first ``keep_calls`` monitored calls (whole batches)
    are kept for the pipeline; the rest are dropped as they are drained.
    The slice also ends, deadline or not, once ``max_calls`` monitored
    calls have run in total.
    """
    monitored = True
    batches = 0
    # A slice ends after an unmonitored batch, so the i-th batches of the
    # two arms stay neighbours across slices.
    while (time.perf_counter() < deadline or batches < 2
           or cap.kept_calls < cap.keep_calls or not monitored):
        if (monitored and cap.kept_calls >= cap.keep_calls
                and max_calls is not None and cap.monitored_calls >= max_calls):
            break
        dep.set_monitored(monitored)
        start = _clock()
        latencies, wrong = dep.batch()
        elapsed = _clock() - start
        calls = len(latencies)
        checks.calls(calls, wrong, f"{dep.kind} call")
        drained = [(p.name, p.log_buffer.drain()) for p in dep.processes]
        records = sum(len(r) for _n, r in drained)
        expected = RECORDS_PER_CALL * calls if monitored else 0
        checks.check(records == expected,
                     f"batch wrote {records} records, expected {expected}")
        if monitored:
            cap.add_latencies(latencies)
            cap.monitored_cost.append(elapsed / calls)
            cap.monitored_calls += calls
            if cap.kept_calls < cap.keep_calls:
                for name, recs in drained:
                    cap.kept.setdefault(name, []).extend(recs)
                cap.kept_calls += calls
                cap.kept_chains += dep.chains_per_batch
        else:
            cap.plain_cost.append(elapsed / calls)
        batches += 1
        if plain:
            monitored = not monitored
    dep.set_monitored(True)


# ----------------------------------------------------------------------
# The embedded system (embedded_pipeline)

#: Root transactions per capture round and invocations per root. Like the
#: system's own run loops (``EmbeddedSystem.run``: 8 roots of 2,500 calls;
#: the Figure-5 benchmark: 16 roots), a round is a few deep call trees,
#: here 16 trees of 250 nested invocations, 4,000 calls in all.
ROOTS = 16
ROOT_BUDGET = 250


class EmbeddedDeployment:
    """The 176-component system driven by seeded root transactions."""

    kind = "embedded"

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.system = EmbeddedSystem(
            EmbeddedConfig(), mode=MonitorMode.CPU,
            uuid_prefix=f"{self._rng.randrange(16 ** 6):06x}",
        )
        system = self.system
        self.processes = system.processes
        self.runtimes = [p.monitor for p in self.processes]
        self.stub_classes = [system.registry.stub_class(name)
                             for name in system.registry.known_interfaces()]
        self.servant_methods = [(_EmbeddedServantMixin, "_handle")]
        self._stubs: dict[int, object] = {}

    def next_roots(self, count: int) -> list:
        """Draw ``count`` root transactions: (bound stub method, path seed)."""
        system, rng = self.system, self._rng
        roots = []
        for _ in range(count):
            component = rng.randrange(system.config.components)
            interface = system.config.interface_of_component(component)
            method = rng.randrange(system.method_counts[interface])
            stub = self._stubs.get(component)
            if stub is None:
                stub = self._stubs[component] = system.orbs[0].resolve(
                    system.refs[component])
            roots.append((getattr(stub, f"m{method}"), rng.randrange(1, 2 ** 31)))
        return roots

    def set_monitored(self, monitored: bool) -> None:
        for process, runtime in zip(self.processes, self.runtimes):
            process.monitor = runtime if monitored else None

    def run_roots(self, roots: list, cap: Capture, checks: Checks,
                  plain: bool) -> None:
        """Run each root monitored (and, with ``plain``, unmonitored).

        The two arms of one root run the same call tree back to back, in
        alternating order. Checks every result and that the buffers hold
        exactly four records per monitored invocation.
        """
        wrong = 0
        for index, (method, path_seed) in enumerate(roots):
            arms = (True, False) if plain else (True,)
            if index % 2:
                arms = arms[::-1]
            for monitored in arms:
                self.set_monitored(monitored)
                start = _clock()
                result = method(ROOT_BUDGET, path_seed)
                elapsed = _clock() - start
                wrong += result != ROOT_BUDGET
                if monitored:
                    self.runtimes[0].unbind_ftl()
                    cap.add_latencies((elapsed,))
                    cap.monitored_cost.append(elapsed / ROOT_BUDGET)
                else:
                    cap.plain_cost.append(elapsed / ROOT_BUDGET)
        self.set_monitored(True)
        calls = len(roots) * ROOT_BUDGET
        cap.monitored_calls += calls
        checks.calls(len(roots) * len(arms), wrong, "embedded root")
        buffered = sum(len(p.log_buffer) for p in self.processes)
        checks.check(buffered == RECORDS_PER_CALL * calls,
                     f"buffers hold {buffered} records for {calls} calls")

    def shutdown(self) -> None:
        self.system.shutdown()


# ----------------------------------------------------------------------
# The capture→CCSG pipeline, queries and streaming replay


@dataclass
class Expect:
    calls: int
    chains: int
    latency_mode: bool


def _matches(pred: ScanPredicate, record) -> bool:
    """The benchmark's own reading of a predicate (not the store's)."""
    if pred.ts_min is not None or pred.ts_max is not None:
        anchor = record.wall_start if record.wall_start is not None else record.wall_end
        if anchor is None:
            return False
        if pred.ts_min is not None and anchor < pred.ts_min:
            return False
        if pred.ts_max is not None and anchor > pred.ts_max:
            return False
    if pred.interfaces is not None and record.interface not in pred.interfaces:
        return False
    if pred.operations is not None and record.operation not in pred.operations:
        return False
    return pred.chain_prefix is None or record.chain_uuid.startswith(pred.chain_prefix)


def expected_query(groups, pred: ScanPredicate) -> dict:
    """Aggregate of a predicated query computed from an unpredicated scan."""
    chains = set()
    ops: dict[str, list] = {}
    records = 0
    for chain_uuid, group in groups:
        for record in group:
            if not _matches(pred, record):
                continue
            records += 1
            chains.add(chain_uuid)
            entry = ops.setdefault(f"{record.interface}::{record.operation}", [0, []])
            entry[0] += 1
            if record.wall_start is not None and record.wall_end is not None:
                entry[1].append(record.wall_end - record.wall_start)
    return {
        "records": records,
        "chains": len(chains),
        "operations": {
            key: (count, len(walls), min(walls, default=None),
                  max(walls, default=None),
                  round(sum(walls) / len(walls), 1) if walls else None)
            for key, (count, walls) in ops.items()
        },
    }


def _query_shape(result: dict) -> dict:
    def op(entry):
        wall = entry.get("wall_ns")
        if wall is None:
            return (entry["records"], 0, None, None, None)
        return (entry["records"], wall["count"], wall["min"], wall["max"], wall["mean"])

    return {
        "records": result["records"],
        "chains": result["chains"],
        "operations": {key: op(entry) for key, entry in result["operations"].items()},
    }


def query_set(rng: random.Random, groups, latency_mode: bool) -> list[ScanPredicate]:
    """Chain-prefix, single-operation and time-window (or interface) queries."""
    chain_ids = sorted(uuid for uuid, _g in groups)
    records = [r for _u, g in groups for r in g]
    operations = sorted({r.operation for r in records})
    predicates = [
        ScanPredicate(chain_prefix=rng.choice(chain_ids)),
        ScanPredicate(operations=frozenset([rng.choice(operations)])),
    ]
    if latency_mode:
        anchors = sorted(r.wall_start for r in records if r.wall_start is not None)
        low = rng.randrange(0, len(anchors) - len(anchors) // 10)
        predicates.append(ScanPredicate(
            ts_min=anchors[low], ts_max=anchors[low + len(anchors) // 10 - 1]))
    else:
        # CPU-mode records carry no wall clock, so a time window would
        # match nothing; an interface-set query takes its place.
        interfaces = sorted({r.interface for r in records})
        predicates.append(ScanPredicate(
            interfaces=frozenset(rng.sample(interfaces, min(3, len(interfaces))))))
    return predicates


@dataclass
class PipelineResult:
    records: int
    time_to_ccsg_s: float
    query_ms: list
    live_records_per_s: list
    store_bytes_per_record: float
    chains: int
    nodes: int
    frames_decoded: int
    groups_pruned: int
    records_lost: int


def pipeline_round(processes, expect: Expect, rng: random.Random, workdir: str,
                   checks: Checks, tracer: Tracer | None = None) -> PipelineResult:
    """Collect the buffers of ``processes`` and run them through to XML."""
    stream_in = [r for p in processes for r in p.log_buffer.snapshot()]
    store = SegmentStore(workdir, auto_compact=0)
    # Start every round from the same collector state: garbage left by
    # the capture would otherwise be collected inside a timed stage.
    gc.collect()
    try:
        with _span(tracer, "pipeline.time_to_ccsg"):
            start = _clock()
            run_id = LogCollector(backend=store).collect(processes)
            store.compact(run_id)
            dscg = analysis.reconstruct(store, run_id, annotate=True)
            ccsg = analysis.build_ccsg(dscg)
            xml = analysis.render_ccsg_xml(ccsg)
            time_to_ccsg = (_clock() - start) / 1e9

        records = store.record_count(run_id)
        meta = next(m for m in store.runs() if m.run_id == run_id)
        loss = meta.extra["loss"]
        lost = (loss["records_dropped_at_probe"] + loss["records_lost_in_delivery"]
                + loss["records_uncollected"] + len(loss["failed_drains"]))
        checks.check(lost == 0, f"collection lost records: {loss}")
        checks.check(records == RECORDS_PER_CALL * expect.calls == len(stream_in),
                     f"stored {records} records for {expect.calls} calls")
        checks.check(len(dscg.chains) == expect.chains,
                     f"{len(dscg.chains)} chains, expected {expect.chains}")
        abnormal = sum(len(tree.abnormal) for tree in dscg.chains.values())
        checks.check(abnormal == 0, f"{abnormal} abnormal events")
        invocations = sum(node.invocation_times for node in ccsg.walk())
        checks.check(invocations == expect.calls,
                     f"CCSG counts {invocations} invocations, expected {expect.calls}")
        checks.check(xml.count("<Function ") == ccsg.node_count(),
                     "CCSG XML does not hold one element per CCSG node")

        info = store.store_info()
        bytes_per_record = info["runs"][0]["bytes"] / records

        with _span(tracer, "store.scan", records):
            groups = list(store.chains_for_run(run_id))
        predicates = query_set(rng, groups, expect.latency_mode)
        query_ms = []  # mean latency of one pass over the query set
        frames = pruned = 0
        for repeat in range(QUERY_REPEATS):
            elapsed = 0
            for pred in predicates:
                stats = ScanStats()
                start = _clock()
                result = store_pkg.run_query(store, run_id, pred, stats=stats)
                elapsed += _clock() - start
                if repeat == 0:
                    frames += stats.frames_decoded
                    pruned += stats.groups_pruned + stats.segments_pruned
                    checks.check(_query_shape(result) == expected_query(groups, pred),
                                 f"query {pred.to_dict()} disagrees with the full scan")
            query_ms.append(elapsed / len(predicates) / 1e6)

        batch_json = dscg_to_json(dscg)
        live_rates = []
        for _ in range(STREAM_REPEATS):
            with _span(tracer, "pipeline.streaming", len(stream_in)):
                start = _clock()
                live = StreamingReconstructor(max_pending=None)
                live.ingest_many(stream_in)
                streamed = live.finalize()
                live_rates.append(len(stream_in) / ((_clock() - start) / 1e9))
            checks.check(dscg_to_json(streamed) == batch_json,
                         "streaming DSCG differs from the batch DSCG")
        return PipelineResult(
            records=records,
            time_to_ccsg_s=time_to_ccsg,
            query_ms=query_ms,
            live_records_per_s=live_rates,
            store_bytes_per_record=bytes_per_record,
            chains=len(dscg.chains),
            nodes=dscg.node_count(),
            frames_decoded=frames,
            groups_pruned=pruned,
            records_lost=lost,
        )
    finally:
        store.close()
        shutil.rmtree(workdir, ignore_errors=True)


def refill(processes, kept: dict) -> None:
    """Put kept records back into (drained) buffers for another round."""
    for process in processes:
        for record in kept.get(process.name, ()):
            process.log_buffer.append(record)


# ----------------------------------------------------------------------
# Running a workload


WORKLOADS = ("rpc_async", "embedded_pipeline")


def _deploy(workload: str, seed: int):
    if workload == "embedded_pipeline":
        dep = EmbeddedDeployment(seed)
    else:
        dep = CallDeployment(seed)
    dep.workload = workload
    return dep


def _capture_slice(dep, cap: Capture, checks: Checks, plain: bool,
                   max_calls: int | None = None) -> Expect:
    """Capture about a second of calls; return what the pipeline will see.

    A call deployment keeps the records of its first ``PIPELINE_CALLS``
    monitored calls and puts them back into the buffers before each round;
    the embedded system captures a fresh round of ``ROOTS`` roots. The
    median monitored latency of the slice goes to ``cap.slice_p50``.
    """
    cap.slice_ns.clear()
    if isinstance(dep, EmbeddedDeployment):
        dep.run_roots(dep.next_roots(ROOTS), cap, checks, plain)
        expect = Expect(ROOTS * ROOT_BUDGET, ROOTS, False)
    else:
        capture_calls(dep, cap, checks, time.perf_counter() + SLICE_S, plain,
                      max_calls)
        refill(dep.processes, cap.kept)
        expect = Expect(cap.kept_calls, cap.kept_chains, True)
    if cap.slice_ns:
        cap.slice_p50.append(statistics.median(cap.slice_ns))
    return expect


def _warm(dep, checks: Checks, workdir: str, seed: int) -> None:
    """Fill caches and marshal plans, and run the pipeline once, small."""
    cap = Capture()
    if isinstance(dep, EmbeddedDeployment):
        roots = dep.next_roots(2)
        dep.run_roots(roots, cap, checks, plain=True)
        expect = Expect(len(roots) * ROOT_BUDGET, len(roots), False)
    else:
        cap.keep_calls = dep.calls_per_batch
        capture_calls(dep, cap, checks, 0.0, plain=True)
        refill(dep.processes, cap.kept)
        expect = Expect(cap.kept_calls, cap.kept_chains, True)
    pipeline_round(dep.processes, expect, random.Random(seed), workdir, checks)


def setup(workload: str, seed: int, checks: Checks, workdir: str):
    """Build and warm the deployment; return it and the seconds it took."""
    start = _clock()
    dep = _deploy(workload, seed)
    _warm(dep, checks, workdir, seed)
    return dep, (_clock() - start) / 1e9


def measure(dep, seed: int, deadline: float, min_rounds: int, workdir: str,
            checks: Checks, *, plain: bool = True, tracer: Tracer | None = None,
            max_calls: int | None = None, min_latencies: int = 0,
            setup_times: list | None = None) -> tuple[Capture, list]:
    """Alternate capture slices and pipeline rounds until ``deadline``.

    Interleaving spreads all kinds of measurement over the whole run, so
    a slow stretch of the machine weighs on all metrics alike. The run
    goes on past ``deadline`` until ``min_latencies`` monitored latencies
    are in hand. Past ``max_calls`` monitored calls a call deployment
    stops capturing and only runs pipeline rounds. With ``setup_times``,
    a pipeline round is followed by one more set-up (of a second
    deployment of ``dep.workload``, torn down at once) whenever the set-ups
    in the list have taken less than ``SETUP_SHARE`` of the run so far;
    its time is appended to the list.
    """
    cap = Capture(keep_calls=PIPELINE_CALLS)
    results = []
    started = time.perf_counter()
    while (len(results) < min_rounds or time.perf_counter() < deadline
           or cap.latencies_seen < min_latencies):
        if max_calls is None or cap.monitored_calls < max_calls:
            # Free the last round's reference cycles (DSCG trees) here, not
            # in a collector pass inside some timed call of the slice.
            gc.collect()
            expect = _capture_slice(dep, cap, checks, plain, max_calls)
        else:
            refill(dep.processes, cap.kept)
        rng = random.Random(seed * 1000 + len(results))
        results.append(pipeline_round(dep.processes, expect, rng, workdir,
                                      checks, tracer))
        if (setup_times is not None and sum(setup_times)
                < SETUP_SHARE * (time.perf_counter() - started)):
            extra, seconds = setup(dep.workload, seed, checks, workdir)
            extra.shutdown()
            setup_times.append(seconds)
    return cap, results


def _end_to_end(cap: Capture, results: list[PipelineResult],
                setup_times: list) -> tuple[dict, dict]:
    """The end-to-end metrics and the sample counts behind them.

    ``cap.*_cost`` are ns per call of each monitored and unmonitored batch
    (elapsed / calls), in run order. Batch ``i`` of one arm ran next to
    batch ``i`` of the other, so O_F is the trimmed mean over these pairs:
    both arms of a pair saw the same machine. The p50 is the trimmed mean
    of the capture slices' medians, so it moves with the share of the run
    the machine spent in each speed state, as the other means do; a median
    over the whole run would jump to whichever state held longer.
    """
    # The gated tail is p95, the highest percentile the embedded system's
    # ~200 root latencies support; p99 is reported in the provenance.
    mon = summarize(cap.monitored_ns, max_tail=95.0)
    p99 = summarize(cap.monitored_ns)
    o_f = trimmed_mean(overhead_per_record(m, p, RECORDS_PER_CALL)
                       for m, p in zip(cap.monitored_cost, cap.plain_cost))
    queries = [ms for r in results for ms in r.query_ms]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "calls_per_s": 1e9 / trimmed_mean(cap.monitored_cost),
        "call_p50_us": trimmed_mean(cap.slice_p50) / 1e3,
        "call_p95_us": mon["tail"] / 1e3,
        "probe_overhead_ns_per_record": o_f,
        "time_to_ccsg_s": trimmed_mean(r.time_to_ccsg_s for r in results),
        "query_ms": trimmed_mean(queries),
        "live_records_per_s": trimmed_mean(
            rate for r in results for rate in r.live_records_per_s),
        "store_bytes_per_record": statistics.median(
            r.store_bytes_per_record for r in results),
    }
    samples = {
        "call_latency": cap.latencies_seen,
        "call_latency_sampled": mon["n"],
        "call_p50_slices": len(cap.slice_p50),
        "call_p50_whole_run_us": mon["p50"] / 1e3,
        "call_tail_percentile": mon["tail_p"],
        "call_p99_us": p99["tail"] / 1e3 if p99["tail_p"] == 99.0 else None,
        "cost_pairs": min(len(cap.monitored_cost), len(cap.plain_cost)),
        "pipeline_rounds": len(results),
        "pipeline_records": results[0].records,
        "query_passes": len(queries),
        "streaming_replays": sum(len(r.live_records_per_s) for r in results),
        "setup_repeats": len(setup_times),
    }
    return metrics, samples


def run_untraced(workload: str, seed: int, seconds: float, workdir: str):
    checks = Checks()
    dep, setup_s = setup(workload, seed, checks, workdir)
    setup_times = [setup_s]
    try:
        cap, results = measure(dep, seed, time.perf_counter() + seconds, 3,
                               workdir, checks, min_latencies=TAIL_SAMPLES,
                               setup_times=setup_times)
    finally:
        dep.shutdown()
    metrics, samples = _end_to_end(cap, results, setup_times)
    return metrics, samples, checks


def run_traced(workload: str, seed: int, seconds: float, workdir: str,
               spans_path: str):
    """Per-layer metrics: untraced then traced monitored work, then pipeline.

    The untraced stretch only gives the reference for ``trace.overhead_pct``;
    its records are drained and dropped.
    """
    from layers import layer_metrics

    checks = Checks()
    dep, _setup_s = setup(workload, seed, checks, workdir)
    tracer = Tracer()
    embedded = isinstance(dep, EmbeddedDeployment)
    try:
        reference = Capture()
        deadline = time.perf_counter() + 0.35 * seconds
        while time.perf_counter() < deadline:
            _capture_slice(dep, reference, checks, plain=False)
            for process in dep.processes:
                process.log_buffer.drain()
        tracer.install(dep.stub_classes, dep.servant_methods)
        try:
            # The embedded system's pipeline input is its capture, so its
            # traced run is two full rounds; a call deployment traces up to
            # TRACE_CALLS calls and then only pipeline rounds.
            cap, results = measure(
                dep, seed, 0.0 if embedded else time.perf_counter() + 0.65 * seconds,
                2, workdir, checks, plain=False, tracer=tracer,
                max_calls=None if embedded else TRACE_CALLS)
        finally:
            tracer.uninstall()
        guards = {
            # Checked by the oracles; reported here, not as metrics.
            "core.records_dropped": sum(p.log_buffer.dropped for p in dep.processes),
            "collector.records_lost": sum(r.records_lost for r in results),
            # The in-flight depth the workload sets (64 tasks).
            "aio.peak_pending": 0 if embedded else dep.peak_pending(),
        }
    finally:
        dep.shutdown()
    checks.check(tracer.dropped == 0,
                 f"{tracer.dropped} spans past the span limit were dropped")
    tracer.dump(spans_path)
    metrics, ledger = layer_metrics(
        tracer.spans, cap.monitored_calls, results,
        untraced_p50=summarize(reference.monitored_ns)["p50"],
        traced_p50=summarize(cap.monitored_ns)["p50"],
    )
    samples = {"reference_calls": reference.latencies_seen,
               "traced_calls": cap.monitored_calls,
               "spans": len(tracer.spans), "spans_dropped": tracer.dropped,
               "pipeline_rounds": len(results),
               "pipeline_records": results[0].records}
    return metrics, {"samples": samples, "guards": guards, "ledger": ledger}, checks


def workdir_for(out_dir: str) -> str:
    path = os.path.join(out_dir, f"store-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    return path
