"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tube-certify --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout of the repository; the library is taken
from the checkout's ``src`` directory.  The workload runs in a fresh
single-threaded worker process (worker.py).  Set-up is timed from the
worker's start until it is ready, over SETUP_REPEATS workers, and reported as
the median.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run
(see tracer.py).  The line before it is a JSON object with the details: the
environment, fail_frac, the tail percentile and its sample count, and in a
traced run the per-layer self-time table and the trace file.  The exit code
is 0 only when every run finished and every metric was measured; items that
fail their oracle are counted in ``failed`` and make ``correct`` false.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5        # set-up timings per untraced run; the median is reported
RUN_LIMIT_S = 170        # a whole run must end within 180 s


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"       # set iteration order, hence call counts, repeat
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # write nothing outside the checkout
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, setup_only, env, deadline):
    """Run one worker; return (seconds from launch to READY, result dict or None)."""
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - started), proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:     # interrupted: stop the worker before leaving
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or not (setup_only or lines):
        raise RuntimeError(f"worker exited with code {code} (ready: {ready is not None})")
    return ready, None if setup_only else json.loads(lines[-1])


def git_commit():
    """The checkout's commit from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args, items):
    return {"python": platform.python_version(),
            "sympy": importlib.metadata.version("sympy"),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "items_per_pass": items}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "canrep" / "__init__.py").is_file():
        print(f"no canrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_REPEATS - 1):
            setups.append(spawn(args, True, env, deadline)[0])
        ready, result = spawn(args, False, env, deadline)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    details = {"env": environment(args, result["items"]),
               "fail_frac": result["failed"] / result["attempted"]}
    if args.trace:
        metrics = result["per_layer"]
        units = {n: u for n, u, _ in spec.PER_LAYER}
        details.update(layers=result["layers"], trace_file=result["trace_file"],
                       traced_passes=result["traced_passes"],
                       untraced_passes=result["passes"])
    else:
        metrics = {n: result[n] for n in ("items_per_s", "item_p50_ms", "item_tail_ms",
                                          "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        details.update(passes=result["passes"], timed_passes=result["timed_passes"],
                       setup_samples_s=setups,
                       item_tail={"percentile": result["tail_percentile"],
                                  "samples": result["tail_samples"]})
    if set(metrics) != set(units):
        print(f"metrics differ from the spec: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
