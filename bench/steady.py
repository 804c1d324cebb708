"""Steadiness and determinism checks for the benchmark; writes BENCHMARK.json.

    python3 bench/steady.py                      # 10 seeds on every workload
    python3 bench/steady.py --seeds 5 --workloads ext-ar,cli-calls
    python3 bench/steady.py --sets 2 --write     # two sets; set bounds from them
    python3 bench/steady.py --trace-check        # same-seed traced runs agree

Each run is one ``run.py`` process, one after another, each with another
seed.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  With two sets it also prints how far
the second set's median moved from the first's.  The trace check runs each
workload traced twice with the same seed, requires every count metric to be
identical, and prints the tracing overhead (traced minus untraced items/s).

With --write, each bound in BENCHMARK.json becomes three times the largest
spread or drift seen for that metric, rounded up to 0.05, within 0.10..0.25;
setup_s always gets the largest bound, 0.25.  Raw results go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} items failed")
    return json.loads(lines[-2]), result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(workloads, seeds, sets, seconds):
    """{workload: [per set {metric: [values]}]}, printing a table per set."""
    table = {}
    for w in workloads:
        table[w] = []
        for k in range(sets):
            values = {}
            for seed in range(1 + k * seeds, 1 + (k + 1) * seeds):
                _, result = run_once(w, seed, seconds, 0)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            table[w].append(values)
            for name, vals in values.items():
                q1, med, q3 = quartiles(vals)
                print(f"{w:16s} set {k + 1} {name:13s} median {med:12.4f} "
                      f"q1 {q1:12.4f} q3 {q3:12.4f} spread {(q3 - q1) / med:.3f}", flush=True)
    return table


def drift(first, second, better):
    """How much worse the second median is than the first, as a share of the first."""
    a, b = statistics.median(first), statistics.median(second)
    return (a - b) / a if better == "higher" else (b - a) / a


def trace_check(workloads, seconds, seed=1):
    ok = True
    counts = [n for n, unit, _ in spec.PER_LAYER if unit == "count"]
    for w in workloads:
        runs = [run_once(w, seed, seconds, 1)[1]["metrics"] for _ in range(2)]
        differ = [n for n in counts if runs[0][n]["value"] != runs[1][n]["value"]]
        ok = ok and not differ
        overhead = [r["trace.overhead_items_per_s"]["value"] for r in runs]
        untraced = [r["trace.untraced_items_per_s"]["value"] for r in runs]
        print(f"{w:16s} counts {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"tracing overhead {overhead[0]:+.3f} and {overhead[1]:+.3f} items/s "
              f"(untraced {untraced[0]:.3f} and {untraced[1]:.3f})", flush=True)
    return ok


def bounds_from(table):
    bounds = {}
    for name, _, better, _ in spec.END_TO_END:
        worst = 0.0
        for sets in table.values():
            for values in sets:
                q1, med, q3 = quartiles(values[name])
                worst = max(worst, (q3 - q1) / med)
            if len(sets) > 1:
                worst = max(worst, drift(sets[0][name], sets[1][name], better))
        bounds[name] = min(0.25, max(0.10, math.ceil(3 * worst / 0.05) * 0.05))
    bounds["setup_s"] = 0.25
    return bounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.trace_check:
        return 0 if trace_check(workloads, args.seconds) else 1

    table = steadiness(workloads, args.seeds, args.sets, args.seconds)
    if args.sets == 2:
        for w, (first, second) in table.items():
            for name, _, better, bound in spec.END_TO_END:
                print(f"{w:16s} {name:13s} second median worse by "
                      f"{drift(first[name], second[name], better):+.3f} (bound {bound})")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{int(time.time())}.json").write_text(json.dumps(table))
    if args.write:
        doc = spec.benchmark_json(bounds_from(table))
        (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
        print("bounds:", {e["name"]: e["bound"] for e in doc["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
