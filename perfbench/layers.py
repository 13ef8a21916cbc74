"""Per-layer metrics from the spans of a traced run.

Each metric names the layer whose work it measures; ``README.md`` maps it
to the end-to-end metric it should move and the workload it should move
it on. Times are medians over spans; ``*_per_call`` are counts at the
boundary divided by the monitored calls traced. A layer a workload does
not exercise reads 0 (e.g. ``aio.*`` outside ``rpc_async``): the traced
run prints every per-layer metric on every workload.
"""

from __future__ import annotations

import statistics

from spans import (
    LEDGER_STAGES,
    PROBES,
    children_index,
    durations,
    median_or_zero,
    self_times,
)


def _rate(spans, name: str) -> float:
    """Items per second over the summed duration of ``name`` spans."""
    items = sum(n for _s, span_name, _b, _e, _p, _r, n in spans if span_name == name)
    busy = sum(durations(spans, name))
    return items / (busy / 1e9) if busy else 0.0


def _count(spans, name: str, nonempty: bool = False) -> int:
    return sum(1 for _s, span_name, _b, _e, _p, _r, n in spans
               if span_name == name and (n > 0 or not nonempty))


def ledger(spans) -> dict:
    """Stage times of each pipeline round, adding up to its time_to_ccsg.

    The stages are the direct children of the ``pipeline.time_to_ccsg``
    span; ``unattributed`` is that span's self time, so stages plus
    remainder equal the total exactly when stages do not overlap.
    """
    rounds = []
    by_parent: dict[int, list[tuple]] = {}
    for span in spans:
        by_parent.setdefault(span[4], []).append(span)
    for sid, name, start, end, _p, _r, _n in spans:
        if name != "pipeline.time_to_ccsg":
            continue
        stages = {stage: 0 for stage in LEDGER_STAGES}
        for child in by_parent.get(sid, ()):
            stages[child[1]] = stages.get(child[1], 0) + child[3] - child[2]
        unattributed = (end - start) - sum(stages.values())
        rounds.append({"total_s": (end - start) / 1e9,
                       **{f"{k}_s": v / 1e9 for k, v in stages.items()},
                       "unattributed_s": unattributed / 1e9})
    median = {key: statistics.median(r[key] for r in rounds)
              for key in (rounds[0] if rounds else ())}
    return {"rounds": rounds, "median": median}


def layer_metrics(spans, calls: int, results, *, untraced_p50: float,
                  traced_p50: float) -> tuple[dict, dict]:
    children = children_index(spans)
    probe_self = [t for name in PROBES.values()
                  for t in self_times(spans, name, children)]
    probe_records = sum(_count(spans, name) for name in PROBES.values())

    def med(name: str, scale: float = 1.0) -> float:
        return median_or_zero(durations(spans, name)) / scale

    def med_self(name: str) -> float:
        return median_or_zero(self_times(spans, name, children))

    def per_call(value: float) -> float:
        return value / calls

    sends = [n for _s, name, _b, _e, _p, _r, n in spans if name == "platform.send"]
    metrics = {
        "core.probe_self_ns": median_or_zero(probe_self),
        "core.records_per_call": per_call(probe_records),
        "orb.stub_self_ns": med_self("orb.stub"),
        "orb.send_request_ns": med("orb.send_request"),
        "orb.dispatch_self_ns": med_self("orb.dispatch"),
        "orb.queue_wait_ns": med("orb.queue_wait"),
        "platform.send_ns": med("platform.send"),
        "platform.sends_per_call": per_call(len(sends)),
        "platform.bytes_per_call": per_call(sum(sends)),
        "aio.sends_per_call": per_call(_count(spans, "aio.flush", nonempty=True)),
        "collector.collect_s": med("collector.collect", 1e9),
        "store.ingest_records_per_s": _rate(spans, "store.insert"),
        "store.compact_s": med("store.compact", 1e9),
        "store.scan_records_per_s": _rate(spans, "store.scan"),
        "store.bytes_per_record": statistics.median(
            r.store_bytes_per_record for r in results),
        "store.query_frames_decoded": statistics.median(
            r.frames_decoded for r in results),
        "store.query_groups_pruned": statistics.median(
            r.groups_pruned for r in results),
        "analysis.reconstruct_s": med("analysis.reconstruct", 1e9),
        "analysis.ccsg_s": med("analysis.ccsg", 1e9),
        "analysis.xml_s": med("analysis.xml", 1e9),
        "analysis.streaming_s": med("pipeline.streaming", 1e9),
        "analysis.chains": statistics.median(r.chains for r in results),
        "analysis.nodes": statistics.median(r.nodes for r in results),
        "pipeline.unattributed_s": median_or_zero(
            self_times(spans, "pipeline.time_to_ccsg", children)) / 1e9,
        "trace.overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
    }
    return metrics, ledger(spans)
