"""envcorr benchmark: one workload per invocation, from the root of a checkout.

    python3 bench/run.py --workload {run,herald,keyrate,presets} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The package is imported from ./src; nothing is installed. The harness times
whole ops of the workload (see workloads.py) until the next op would end
after --seconds, checks every op's outputs, and prints a summary followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced ops and reports the per-layer metrics from the traced ones, plus the
tracing overhead as the difference between the two op-time medians.
--smoke shrinks every Monte Carlo batch to 10^4 trajectories for a quick
functional pass; its timings mean nothing.

Exit status 2, with no result line, when ./src/envcorr is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SETUP_REPEATS = 15
SETUP_PROBE = (
    "import time; start = time.perf_counter(); import envcorr.cli; "
    "print(time.perf_counter() - start)"
)
# (name, unit) in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)
WORKLOAD_NAMES = ("run", "herald", "keyrate", "presets")


def measure_setup(src: Path, repeats: int) -> float:
    """Median time a fresh interpreter takes to import envcorr's CLI.

    The import is timed inside the child, so the jitter of starting a
    process stays out of the figure; work moved into import time shows.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def measure(workloads, tracing, args, workdir: Path) -> dict:
    make = workloads.WORKLOADS[args.workload]
    # lazy imports and first-call costs land outside the timed ops
    warm = make(workdir / "warm", args.seed, True)
    warm.op()
    workload = make(workdir / "main", args.seed, args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    times = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    min_ops = 2 if tracer else 1
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
        began = time.perf_counter()
        try:
            failed += workload.op()
        finally:
            elapsed = time.perf_counter() - began
            if traced:
                tracer.uninstall()
        times[traced].append(elapsed)
        attempted += workload.calls_per_op
        problems += workload.check()
        index += 1
        typical = statistics.median(times[False] + times[True])
        if index >= min_ops and time.perf_counter() - start + typical > args.seconds:
            break

    untraced = times[False]
    median_op = statistics.median(untraced)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "op_seconds": untraced,
    }
    if tracer:
        overhead = (statistics.median(times[True]) / median_op - 1) * 100
        result["metrics"] = tracing.layer_metrics(tracer.spans, len(times[True]), overhead)
    else:
        result["metrics"] = {
            "op_p50_ms": median_op * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # at the median op: a few disturbed ops move it no more than op_p50_ms
            "work_per_s": workload.work_per_op / median_op,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="envcorr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny batches; timings mean nothing")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "envcorr" / "cli.py").is_file():
        print(
            "bench: ./src/envcorr not found; run from the root of an envcorr checkout",
            file=sys.stderr,
        )
        return 2
    setup_s = measure_setup(src, 1 if args.smoke else SETUP_REPEATS)
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(workloads, tracing, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = result["metrics"]
    else:
        values = dict(result["metrics"], setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    ops = result["op_seconds"]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} untraced ops, "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    if len(ops) <= 12:
        print("  untraced op times (s): " + " ".join(f"{t:.3f}" for t in ops))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
