#!/usr/bin/env python3
"""Run the layered benchmark: one workload (or all), one result line.

    python3 perfbench/run.py --workload rpc_async --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 12 --trace 1

Each workload runs in a fresh subprocess against the program in ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(names and units from ``BENCHMARK.json``). The line before it carries the
provenance: machine facts, seed, sample counts, failures and, for a traced
run, the pipeline ledger. Full results and spans are written under
``.perfbench_out/``. The exit code is non-zero when a correctness check
failed, and the command refuses to run without ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("rpc_async", "embedded_pipeline")
#: Time a child may take beyond ``--seconds``: start-up, the set-ups,
#: the rounds the embedded system needs for 200 root latencies (about
#: 45 s) and the round that ends the run; at ``--seconds 50`` a hung child
#: is killed within the 180 s a run may take.
CHILD_MARGIN_S = 110


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the program's Python sources (names and contents)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Child: one workload in this process


def run_child(args) -> int:
    # One CPU for the whole workload: the interpreter runs one thread at a
    # time anyway, and a thread handoff between CPUs of a virtual machine
    # costs a cross-CPU wakeup whose price drifts with the host's load.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from rules import check_metric_name

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = workloads.workdir_for(OUT_DIR)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{stem}.json")
        metrics, extra, checks = workloads.run_traced(
            args.workload, args.seed, args.seconds, workdir, spans_path)
        extra["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics, samples, checks = workloads.run_untraced(
            args.workload, args.seed, args.seconds, workdir)
        extra = {"samples": samples}
    units = _declared()[args.trace]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "units": {name: units[name] for name in metrics},
        "error_rate": checks.failed / checks.attempted,
        "failures": checks.failures,
        **extra,
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {check_metric_name(name): {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as handle:
        json.dump({"provenance": provenance, "result": result}, handle, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Parent: spawn, time-limit and measure the child


def spawn(workload: str, args) -> dict | None:
    """Run one workload in a fresh subprocess; None if it failed to finish."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"stdout-{os.getpid()}-{workload}.txt")
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(out_path, "w") as out:
        proc = subprocess.Popen(command, stdout=out, cwd=ROOT, env=env)
    timeout = args.seconds + CHILD_MARGIN_S
    deadline = time.monotonic() + timeout
    usage = None
    while usage is None:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            usage = rusage
        elif time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            print(f"perfbench: {workload} exceeded {timeout}s",
                  file=sys.stderr)
            return None
        else:
            time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as handle:
        lines = handle.read().splitlines()
    os.unlink(out_path)
    try:
        result = json.loads(lines[-1])
        provenance = json.loads(lines[-2])["provenance"]
    except (IndexError, ValueError, KeyError):
        print(f"perfbench: {workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux: the child's own peak, since wait4
        # reports the usage of exactly that child.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024,
                                            "unit": "MB"}
    declared = _declared()[args.trace]
    if set(result["metrics"]) != set(declared):
        print(f"perfbench: {workload} metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return None
    print(json.dumps({"provenance": provenance}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return run_child(args)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = spawn(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
