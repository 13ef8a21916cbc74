"""Pure arithmetic the benchmark reports with.

Nothing here touches the program under test, so these rules can be
tested on their own (``test_rules.py``) and cited by name:

- :func:`tail_percentile` / :func:`summarize` — a timing is a median plus
  the highest percentile that still has at least ten samples beyond it;
- :func:`covered_ns` / :func:`self_time_ns` — a span's self time is its
  duration minus the part of its interval that child spans cover (children
  may overlap each other and may run on other threads);
- :func:`overhead_per_record` — the paper's probe overhead O_F per record;
- :func:`trimmed_mean` — how a run folds its per-batch and per-round values;
- :func:`check_metric_name` — the metric-name charset.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Iterable, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    A name starts with a letter or digit and is at most 64 characters of
    ``[A-Za-z0-9_.-]``.
    """
    if not isinstance(name, str) or _NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def rank_of(p: float, n: int) -> int:
    """1-based nearest-rank position of the ``p``-th percentile of ``n``."""
    if n < 1:
        raise ValueError("no samples")
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending sequence."""
    return sorted_values[rank_of(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`TAIL_PERCENTILES` with ``MIN_BEYOND`` samples above.

    ``None`` when ``n`` is too small for even the median to qualify.
    """
    for p in TAIL_PERCENTILES:
        if n - rank_of(p, n) >= MIN_BEYOND:
            return p
    return None


def summarize(samples: Iterable[float], max_tail: float = 99.0) -> dict:
    """Median, tail percentile and sample count of a timing sample.

    The tail is the highest percentile up to ``max_tail`` that the sample
    count supports, so a metric named for p99 never silently reads p99.9.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    tail_p = tail_percentile(n)
    if tail_p is not None:
        tail_p = min(tail_p, max_tail)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else None,
    }


def covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0
    run_start = run_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered_ns(children, start, end)


def overhead_per_record(
    monitored_ns_per_call: float, plain_ns_per_call: float, records_per_call: float
) -> float:
    """The paper's O_F per probe record.

    ``(monitored - unmonitored) / records_per_call``: the extra time a
    monitored call costs, spread over the probe records it writes.
    """
    if records_per_call <= 0:
        raise ValueError("records_per_call must be positive")
    return (monitored_ns_per_call - plain_ns_per_call) / records_per_call


#: Share of values cut from each end by :func:`trimmed_mean`.
TRIM = 0.1


def trimmed_mean(values: Iterable[float], cut: float = TRIM) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` of them.

    The machine this benchmark was built on runs in two speed states about
    1.45x apart, each lasting seconds to minutes. A median over a run picks
    the state the run spent most of its time in and so jumps between runs;
    a mean moves in proportion to the time spent in each, and trimming
    keeps single stalls out of it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf
