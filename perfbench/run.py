"""Run one benchmark workload against the linid sources of this checkout.

    python3 perfbench/run.py --workload check-stream --seed 1 --seconds 15 --trace 0

One process, one thread, one client in a closed loop: each operation starts
when the previous one has returned.  A run repeats whole passes over the
workload's inputs until the timed passes add up to ``--seconds``, then checks
every output against the oracles.  The last line of standard output is the
result: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Exits with 2, printing no result, when the linid sources are
missing.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def setup_seconds() -> float:
    """Set-up CPU time of a fresh interpreter, scaled to the nominal speed."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    done = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return float(done.stdout)


def run_pass(workload, records: list, sampler=None) -> tuple[float, float, list]:
    """One timed pass; appends (CPU seconds, op) per operation to ``records``
    and returns the pass's wall seconds, the sum of its operations' CPU
    seconds and its outputs.  With a ``speed.Sampler``, reference samples are
    taken during the pass, their own time is left out of the operations, and
    each operation's CPU time is scaled to the nominal speed."""
    outputs, timed = [], []
    wall0 = time.perf_counter()
    with sampler or contextlib.nullcontext():
        for op in workload.ops:
            start = time.thread_time()
            try:
                out = workload.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            timed.append((start, time.thread_time(), op))
            outputs.append(out)
    wall = time.perf_counter() - wall0
    cpu = 0.0
    for start, end, op in timed:
        seconds = end - start
        if sampler is not None:
            seconds = (seconds - sampler.spent_in(start, end)) * sampler.scale(start, end)
        records.append((seconds, op))
        cpu += seconds
    return wall, cpu, outputs


def check_pass(workload, outputs, failures: list, errors: list) -> None:
    """Sort each operation into failed (it raised or exited non-zero) or
    checked; a checked output that is wrong adds to ``errors``."""
    for op, out in zip(workload.ops, outputs):
        if isinstance(out, Exception):
            failures.append(f"{op!r} raised {out!r}")
        elif isinstance(out, tuple) and out[0] != 0:
            failures.append(f"{op!r} exited with {out[0]}")
        else:
            try:
                errors.extend(workload.check(op, out))
            except Exception as exc:  # output the check cannot even read
                errors.append(f"{op!r}: unreadable output ({exc!r})")


def class_report(workload, records) -> list[str]:
    """Per input class: share and median time; and which classes the
    operations next to the median and the 95th percentile belong to."""
    ordered = sorted((t, workload.classes[op]) for t, op in records)
    n = len(ordered)
    lines = []
    by_class: dict[str, list[float]] = {}
    for t, cls in ordered:
        by_class.setdefault(cls, []).append(t)
    for cls, times in sorted(by_class.items()):
        lines.append(f"class {cls}: {len(times) / n:.1%} of ops, median {statistics.median(times) * 1e3:.2f} ms")
    for q in (50, 95):
        rank = max(0, math.ceil(q / 100 * n) - 1)
        window = ordered[max(0, rank - n // 50): rank + n // 50 + 1]
        mix = Counter(cls for _t, cls in window)
        parts = ", ".join(f"{c} {k / len(window):.0%}" for c, k in mix.most_common())
        lines.append(f"p{q} {ordered[rank][0] * 1e3:.2f} ms; ops within 2 points: {parts}")
    return lines


def layer_metrics(tracer, passes: int, all_passes: int, algebra) -> dict:
    """Per-layer figures per traced pass; cache hits per pass of any kind."""
    metrics = {}
    for layer, (calls, seconds) in tracer.self_times().items():
        metrics[f"{layer}.ms"] = (seconds * 1e3 / passes, "ms")
        metrics[f"{layer}.calls"] = (calls / passes, "count")
    for name, total in tracer.counts.items():
        metrics[name] = (total / passes, "count")
    info = algebra.clone_slice.cache_info()
    metrics["algebra.clone_slice.hits"] = (info.hits / all_passes, "count")
    metrics["algebra.clone_slice.misses"] = (info.misses, "count")
    metrics["trace.spans"] = (len(tracer.spans) / passes, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "check-stream", "ledger"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linid" / "__init__.py").is_file():
        print(f"error: no linid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import linid
    from linid import algebra

    if Path(linid.__file__).resolve().parent != SRC / "linid":
        print(f"error: imported linid from {linid.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import setup_probe
    import speed
    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        oracle = workloads.OracleCache()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, oracle)
        digest = hashlib.sha256(json.dumps(workload.ops).encode()).hexdigest()[:16]
        print(f"inputs: workload={args.workload} seed={args.seed} ops_per_pass={len(workload.ops)} "
              f"digest={digest} ({workload.description})", flush=True)

        setup: list[float] = []
        if not args.trace:
            setup_seconds()  # the first probe may compile bytecode; discarded
        setup_probe.warm_caches()

        records: list = []
        walls, cpus, failures, errors = [], [], [], []
        untraced_cpus: list[float] = []
        attempted = 0
        elapsed = 0.0
        tracer = tracing.Tracer() if args.trace else None
        sampler = None if args.trace else speed.Sampler()
        while not walls or elapsed < args.seconds:
            if tracer is None:
                # set-up probes are spread over the run, between passes, so
                # that a change of machine speed within the run evens out
                while len(setup) < SETUP_PROBES * min(elapsed / args.seconds, 1):
                    setup.append(setup_seconds())
            if tracer is not None and len(untraced_cpus) <= len(walls):
                # a traced run alternates untraced and traced passes, so both
                # kinds meet the same machine conditions
                wall, cpu, outputs = run_pass(workload, [])
                untraced_cpus.append(cpu)
            else:
                if tracer is not None:
                    tracer.install()
                try:
                    wall, cpu, outputs = run_pass(workload, records, sampler)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                walls.append(wall)
                cpus.append(cpu)
            elapsed += wall
            check_pass(workload, outputs, failures, errors)
            attempted += len(workload.ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(setup_seconds())
        errors.extend(workload.check_run())

        print(f"wall clock: median pass {statistics.median(walls):.4f} s, "
              f"{len(records) / sum(walls):.2f} ops/s; CPU: median pass {statistics.median(cpus):.4f} s",
              file=sys.stderr)
        for line in class_report(workload, records):
            print(line, file=sys.stderr)
        for line in failures[:20] + errors[:20]:
            print(f"failed: {line}", file=sys.stderr)

        if tracer is None:
            times = [t for t, _op in records]
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "op_p50_ms": (percentile(times, 50) * 1e3, "ms"),
                "op_p95_ms": (percentile(times, 95) * 1e3, "ms"),
            }
        else:
            metrics = layer_metrics(tracer, len(walls), len(walls) + len(untraced_cpus), algebra)
            overhead = statistics.median(cpus) / statistics.median(untraced_cpus) - 1
            metrics["trace.overhead_pct"] = (overhead * 100, "%")
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_file)
            print(f"spans written to {spans_file}; calls per binding: "
                  f"{json.dumps(tracer.binding_calls, sort_keys=True)}", file=sys.stderr)
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
