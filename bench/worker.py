"""One workload in a fresh process: set up, signal readiness, run timed passes.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  After
set-up it prints ``READY`` so the parent can time set-up from process start;
with --setup-only it exits there.  Otherwise it runs whole passes over the
workload's fixed item list, one item at a time (a closed loop with one
caller), until the next pass would end past --seconds, and prints one JSON
line of results.  With --trace 1 the first half of the time runs untraced and
the second half traced, which gives the per-layer numbers and the overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
TAIL_PERCENTILES = (50, 75, 90, 95, 98, 99)
MIN_PASSES = 2       # passes the statistics use; fixes the tail percentile
START_REPEATS = 3    # launches per CLI start-up measurement


def build(workload, seed, in_process):
    import workloads

    workloads.warm_sympy()
    if workload == "cli-calls":
        return workloads.cli_calls(seed, OUT / f"cli-{seed}", in_process)
    return getattr(workloads, workload.replace("-", "_"))(seed)


def tail_percentile(n_items):
    """The highest listed percentile with at least 10 samples beyond it.

    The tail is taken over n_items per-item medians, each of at least
    MIN_PASSES samples, so the items beyond it hold MIN_PASSES times as many.
    """
    return max((p for p in TAIL_PERCENTILES if MIN_PASSES * n_items * (100 - p) >= 1000),
               default=TAIL_PERCENTILES[0])


def percentile(values, p):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Passes:
    """Timed passes over one item list, with per-item wall times and failures.

    The time metrics come from the run's slowest half of passes, at least
    MIN_PASSES of them.  Wall time on a shared machine switches between a
    slow speed, which holds whenever the machine is otherwise quiet, and fast
    spells of seconds to minutes.  A run of more than a few passes meets the
    slow speed, so its slowest half repeats from run to run, where a mean or
    median over all passes moves with the share of fast time the run got.
    Half, not just the slowest two: when passes are short, the very slowest
    ones are those that met a stall.
    """

    def __init__(self, items, seed, tracer=None):
        self.items, self.seed, self.tracer = items, seed, tracer
        self.pass_s, self.item_ms, self.snapshots = [], [], []
        self.attempted = self.failed = 0

    def run(self, seconds, min_passes):
        begin = time.perf_counter()
        while True:
            self._one_pass(len(self.pass_s))
            elapsed = time.perf_counter() - begin
            if (len(self.pass_s) >= min_passes
                    and elapsed + statistics.median(self.pass_s) > seconds):
                return

    def _one_pass(self, index):
        started = time.perf_counter()
        times = []
        for i, item in enumerate(self.items):
            rng = random.Random(self.seed * 1_000_003 + i)
            if self.tracer is not None:
                self.tracer.item = index * len(self.items) + i
            t0 = time.perf_counter()
            try:
                ok = item.run(rng)
            except Exception:   # a raising item is a failed item; keep measuring
                traceback.print_exc(file=sys.stderr)
                ok = False
            times.append((time.perf_counter() - t0) * 1000)
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"item {i} ({item.kind}) failed its oracle", file=sys.stderr)
        self.pass_s.append(time.perf_counter() - started)
        self.item_ms.append(times)
        if self.tracer is not None:
            self.snapshots.append(self.tracer.snapshot())

    def slowest(self):
        """Indices of the slowest half of the passes, at least MIN_PASSES of them."""
        count = max(MIN_PASSES, len(self.pass_s) // 2)
        return sorted(range(len(self.pass_s)), key=self.pass_s.__getitem__)[-count:]

    def items_per_s(self):
        """Items per second over the slowest half of the passes."""
        slow = self.slowest()
        return len(self.items) * len(slow) / sum(self.pass_s[i] for i in slow)

    def item_p50_ms(self):
        """The median item wall time over the slowest half of the passes."""
        return percentile([t for i in self.slowest() for t in self.item_ms[i]], 50)

    def item_tail_ms(self, p):
        """The p-th percentile, over items, of each item's median time in the slowest half.

        The median per item drops a stall that hit one item in one pass; the
        pooled tail of the slowest passes mostly measured those stalls.
        """
        slow = self.slowest()
        return percentile([statistics.median(self.item_ms[k][i] for k in slow)
                           for i in range(len(self.items))], p)


def cli_start_metrics():
    """Bare interpreter start, and the import times of canrep.cli and then sympy."""
    probe = ("import time; t0 = time.perf_counter(); import canrep.cli; "
             "t1 = time.perf_counter(); import sympy; t2 = time.perf_counter(); "
             "print((t1 - t0) * 1000, (t2 - t1) * 1000)")
    starts, imports = [], []
    for _ in range(START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append((time.perf_counter() - t0) * 1000)
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             stdout=subprocess.PIPE, text=True).stdout.split()
        imports.append([float(x) for x in out])
    return {
        "cli.python_start_ms": statistics.median(starts),
        "cli.import_ms": statistics.median(x for x, _ in imports),
        "cli.sympy_import_ms": statistics.median(y for _, y in imports),
    }


def _per_pass(snapshots):
    """Per-pass {name: (calls, self_ns)} and counter deltas from cumulative snapshots."""
    out, prev_t, prev_c = [], {}, {}
    for table, counters in snapshots:
        out.append(({n: (c - prev_t.get(n, (0, 0))[0], s - prev_t.get(n, (0, 0))[1])
                     for n, (c, s) in table.items()},
                    {n: v - prev_c.get(n, 0) for n, v in counters.items()}))
        prev_t, prev_c = table, counters
    return out


def per_layer_metrics(snapshots):
    """Counts from the first traced pass; self time as the median over traced passes."""
    import spec

    passes = _per_pass(snapshots)
    first, counters = passes[0]
    calls = {n: c for n, (c, _) in first.items()}
    metrics = {}
    for span in spec.REPORTED_SPANS:
        metrics[span + ".calls"] = calls.get(span, 0)
        metrics[span + ".self_s"] = statistics.median(
            p.get(span, (0, 0))[1] / 1e9 for p, _ in passes)
    for name in ("exactla.Matrix.rref.cells", "exactla.Matrix.__init__.calls",
                 "repcat.core.hom_basis.unknowns"):
        metrics[name] = counters.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["repcat.decomp.factor_poly.split_ratio"] = ratio(
        counters.get("repcat.decomp.factor_poly.split", 0),
        calls.get("repcat.decomp.factor_poly", 0))
    metrics["repcat.decomp.is_isomorphic.found_ratio"] = ratio(
        counters.get("repcat.decomp.is_isomorphic.found", 0),
        calls.get("repcat.decomp.is_isomorphic", 0))
    metrics["repcat.decomp.minpoly_per_module"] = ratio(
        calls.get("repcat.decomp.endo_minimal_polynomial", 0),
        calls.get("repcat.decomp.indecomposable_summands", 0))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import canrep

    if Path(canrep.__file__).resolve().parent != ROOT / "src" / "canrep":
        print(f"canrep imported from {canrep.__file__}, not this checkout", file=sys.stderr)
        return 2
    items = build(args.workload, args.seed, in_process=bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"items": len(items)}
    if not args.trace:
        runs = Passes(items, args.seed)
        runs.run(args.seconds, MIN_PASSES)
        p = tail_percentile(len(items))
        slow = runs.slowest()
        rusage = resource.RUSAGE_CHILDREN if args.workload == "cli-calls" else resource.RUSAGE_SELF
        result.update(
            items_per_s=runs.items_per_s(),
            item_p50_ms=runs.item_p50_ms(),
            item_tail_ms=runs.item_tail_ms(p),
            tail_percentile=p,
            timed_passes=len(slow),
            tail_samples=len(items) * len(slow),
            peak_rss_mb=resource.getrusage(rusage).ru_maxrss / 1024,
        )
    else:
        import tracer as tracing
        import workloads

        runs = Passes(items, args.seed)
        runs.run(args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        traced = Passes(items, args.seed, tracer)
        traced.run(args.seconds / 2, 1)
        metrics = per_layer_metrics(traced.snapshots)
        metrics.update(cli_start_metrics())
        metrics["trace.items_per_s"] = traced.items_per_s()
        metrics["trace.untraced_items_per_s"] = runs.items_per_s()
        metrics["trace.overhead_items_per_s"] = traced.items_per_s() - runs.items_per_s()
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "traced_passes": len(traced.pass_s)})
        result.update(per_layer=metrics, layers=tracer.layer_table(),
                      trace_file=str(trace_path.relative_to(ROOT)),
                      traced_passes=len(traced.pass_s))
        runs.attempted += traced.attempted
        runs.failed += traced.failed
    result.update(passes=len(runs.pass_s), attempted=runs.attempted, failed=runs.failed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
