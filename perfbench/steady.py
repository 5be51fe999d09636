"""Steadiness of the benchmark: run every workload of BENCHMARK.json in two
sets of ten runs, each run with its own seed and ``run_seconds`` long, and
report every end-to-end metric's spread.

    python3 perfbench/steady.py --first-seed 1

For each workload and metric it prints the median of each set, the spread
(distance between the first and third quartile as a share of the median),
and how much worse the second set's median is than the first's.  A metric is
steady when both spreads stay within its bound in BENCHMARK.json and the
second median is no worse than the first by more than the bound; the share
of failed operations must be equal in both sets.  Runs interleave the
workloads.  Exits with 1 when something is not steady.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 900
RUNS = 10
SETS = 2


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first run; each later run takes the next")
    args = parser.parse_args(argv)

    results = {w: [[] for _ in range(SETS)] for w in names}
    seed = args.first_seed
    for k in range(SETS):
        for _ in range(RUNS):
            for w in names:
                start = time.perf_counter()
                result = one_run(w, seed, spec["run_seconds"])
                print(f"set {k + 1} {w} seed {seed}: {time.perf_counter() - start:.1f} s, "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
                results[w][k].append(result)
                seed += 1

    steady = True
    report = {}
    for w in names:
        sets = results[w]
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        if any(len(s) != 1 for s in shares) or len({s[0] for s in shares}) != 1:
            steady = False
        if not all(r["correct"] for runs in sets for r in runs):
            steady = False
        print(f"\n{w}: failed share per set {shares}")
        print(f"  {'metric':<12} {'bound':>6} " + " ".join(f"{'median' + str(k + 1):>12} {'spread' + str(k + 1):>8}" for k in range(SETS)) + f" {'worse':>7}")
        report[w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            ok = worse <= bound and max(spreads) <= bound
            steady = steady and ok
            report[w][name] = {"medians": medians, "spreads": spreads, "worse": worse,
                               "bound": bound, "ok": ok, "values": values}
            cells = " ".join(f"{m:>12.5g} {s:>8.1%}" for m, s in zip(medians, spreads))
            print(f"  {name:<12} {bound:>6.0%} {cells} {worse:>7.1%}{'' if ok else '  NOT STEADY'}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nsteady: {steady}; figures written to {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
