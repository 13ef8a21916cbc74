"""Tests of the benchmark's own helpers (no program under test involved).

    python3 -m pytest perfbench/test_rules.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from layers import layer_metrics, ledger
from rules import (
    check_metric_name,
    covered_ns,
    overhead_per_record,
    percentile,
    rank_of,
    self_time_ns,
    summarize,
    tail_percentile,
    trimmed_mean,
)
from spans import LEDGER_STAGES, Tracer, children_index, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# ----------------------------------------------------------------------
# Percentile rule: the highest percentile with >= 10 samples beyond it


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_boundaries(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_qualifying_candidate():
    rng = random.Random(3)
    candidates = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
    for n in [rng.randrange(1, 50_000) for _ in range(500)]:
        chosen = tail_percentile(n)
        qualifying = [p for p in candidates if n - rank_of(p, n) >= 10]
        assert chosen == (max(qualifying) if qualifying else None)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7], 99.0) == 7


def test_summarize_caps_the_tail_and_counts_samples():
    big = summarize(range(20_000))
    assert big["n"] == 20_000 and big["tail_p"] == 99.0
    assert big["tail"] == percentile(list(range(20_000)), 99.0)
    small = summarize([5, 1, 3] * 10)
    assert small["n"] == 30 and small["tail_p"] == 50.0 and small["p50"] == 3
    assert summarize([1.0])["tail"] is None


# ----------------------------------------------------------------------
# Self time: duration minus the union of child intervals


def test_self_time_with_overlapping_children():
    children = [(10, 30), (20, 40), (25, 35), (90, 120)]
    assert covered_ns(children, 0, 100) == 40
    assert self_time_ns(0, 100, children) == 60


def test_self_time_ignores_children_outside_and_clips_partial_ones():
    assert self_time_ns(100, 200, [(0, 50), (250, 300)]) == 100
    assert self_time_ns(100, 200, [(50, 150), (180, 260)]) == 30
    assert self_time_ns(0, 10, [(0, 10), (2, 3)]) == 0
    assert self_time_ns(0, 10, []) == 10


def test_self_time_with_cross_thread_children():
    """Children recorded on other threads, overlapping each other."""
    tracer = Tracer()

    def work(delay):
        time.sleep(delay)

    with tracer.span("parent"):
        parent_id = _current_parent()
        joined = (parent_id, 7)
        child = tracer.wrap("child", work, enter=lambda _args: joined)
        threads = [threading.Thread(target=child, args=(0.05,)),
                   threading.Thread(target=child, args=(0.03,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        time.sleep(0.02)

    spans = tracer.spans
    parent = next(s for s in spans if s[1] == "parent")
    kids = [s for s in spans if s[1] == "child"]
    assert len(kids) == 2
    assert all(k[4] == parent[0] and k[5] == 7 for k in kids)
    union = covered_ns([(k[2], k[3]) for k in kids], parent[2], parent[3])
    assert union < sum(k[3] - k[2] for k in kids)  # they overlapped
    (self_ns,) = self_times(spans, "parent", children_index(spans))
    assert self_ns == (parent[3] - parent[2]) - union
    assert self_ns >= 0.015e9


def _current_parent():
    from spans import _PARENT

    return _PARENT.get()


def test_wrap_nests_same_thread_spans_and_restores_patches():
    tracer = Tracer()
    holder = SimpleNamespace(fn=lambda x: x + 1)
    tracer.patch(holder, "fn", "inner")
    outer = tracer.wrap("outer", lambda: holder.fn(1), root=True)
    assert outer() == 2
    inner, outer_span = tracer.spans
    assert inner[1] == "inner" and outer_span[1] == "outer"
    assert inner[4] == outer_span[0] and inner[5] == outer_span[5] is not None
    tracer.uninstall()
    assert not hasattr(holder.fn, "__wrapped__")


# ----------------------------------------------------------------------
# The O_F arithmetic


def test_overhead_per_record():
    assert overhead_per_record(10_600.0, 900.0, 4) == pytest.approx(2425.0)
    assert overhead_per_record(900.0, 900.0, 4) == 0.0
    with pytest.raises(ValueError):
        overhead_per_record(1.0, 0.0, 0)


def test_trimmed_mean_cuts_a_tenth_from_each_end():
    values = list(range(1, 20)) + [1000]  # 20 values: cut 2 from each end
    assert trimmed_mean(values) == pytest.approx(sum(range(3, 19)) / 16)
    assert trimmed_mean([5.0, 7.0]) == 6.0  # too few to cut
    # Linear in the share of a second state, where a median jumps.
    mixed = [10.0] * 6 + [20.0] * 4
    assert trimmed_mean(mixed) == pytest.approx(13.75)
    with pytest.raises(ValueError):
        trimmed_mean([])


# ----------------------------------------------------------------------
# Metric names


@pytest.mark.parametrize("name", ["setup_s", "core.probe_self_ns", "9x", "a-b.c_d",
                                  "x" * 64])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "ms%", "x" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_declared_metrics_have_valid_unique_names():
    spec = _spec()
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)


def _fake_round(**overrides):
    fields = dict(store_bytes_per_record=95.0, frames_decoded=10, groups_pruned=2,
                  chains=4, nodes=16)
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_layer_metrics_match_the_declared_per_layer_set_and_ledger_adds_up():
    spans = [
        (1, "pipeline.time_to_ccsg", 0, 1000, None, None, 0),
        (2, "collector.collect", 10, 100, 1, None, 0),
        (3, "store.insert", 20, 90, 2, None, 64),
        (4, "store.compact", 100, 300, 1, None, 0),
        (5, "analysis.reconstruct", 300, 600, 1, None, 0),
        (6, "analysis.ccsg", 600, 800, 1, None, 0),
        (7, "analysis.xml", 800, 990, 1, None, 0),
        (8, "orb.stub", 2000, 3000, None, 9, 0),
        (9, "core.stub_start", 2010, 2100, 8, 9, 0),
        (10, "orb.send_request", 2100, 2900, 8, 9, 0),
        (11, "platform.send", 2150, 2160, 10, 9, 40),
    ]
    metrics, book = layer_metrics(spans, 1, [_fake_round()], untraced_p50=100.0,
                                  traced_p50=150.0)
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert metrics["orb.stub_self_ns"] == 1000 - 90 - 800
    assert metrics["platform.bytes_per_call"] == 40
    assert metrics["trace.overhead_pct"] == pytest.approx(50.0)
    assert metrics["pipeline.unattributed_s"] == pytest.approx(20e-9)
    (row,) = book["rounds"]
    stages = sum(row[f"{stage}_s"] for stage in LEDGER_STAGES)
    assert stages + row["unattributed_s"] == pytest.approx(row["total_s"])
    assert ledger(spans)["median"] == row


def test_ledger_without_pipeline_rounds_is_empty():
    assert ledger([(1, "orb.stub", 0, 10, None, 1, 0)]) == {"rounds": [], "median": {}}


# ----------------------------------------------------------------------
# The command refuses to run without the program


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpc_async",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
