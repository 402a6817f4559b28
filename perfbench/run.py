#!/usr/bin/env python3
"""Benchmark of the conesep engine, run from the repository root:

    python3 perfbench/run.py --workload sym-tail --seed 1 --seconds 20 --trace 0

Workloads: sym-tail, interp-nested, cli-batch, or all (each in turn, each
in a child process of its own so that it reports its own peak memory).  The
run sets up its seeded inputs, runs a fixed number of whole rounds of them
(as many as take about --seconds at the reference speed, and at least 200
operations), checks every output outside the timed region, and prints the
metrics.  Every end-to-end time is scaled to the reference speed of
``pace.py``.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are per-layer self times and counters from spans recorded
around the package's functions.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""
from __future__ import annotations

import os
import sys

# numpy links a threaded BLAS; one thread per process keeps runs comparable.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sym-tail", "interp-nested", "cli-batch")
ROUNDS = 8  # distinct seeded rounds per run; later rounds repeat them
# Reference seconds one round takes at the seed commit; a run holds
# round(--seconds / ROUND_S) rounds, a number that depends on nothing else,
# so that the same seed and --seconds give the same operations on any commit.
ROUND_S = {"sym-tail": 17.0, "interp-nested": 4.5, "cli-batch": 1.25}
# Workers of the CLI's thread pool.  Two workers on the two cores of a
# shared host made the CLI slower than one (the engine's small numpy calls
# hold the GIL) and its times spread by 10 to 18 % between runs of one
# seed set, against 1 to 3 % with one; with one worker the pool still runs.
CLI_THREADS = 1
SETUPS = 5  # set-up repetitions; setup_s is their median
# A run holds at least this many operations, so that 10 or more lie beyond
# latency_p95_ms.
MIN_SAMPLES = 200
IMPORT_PROBE = ("import time; t = time.perf_counter(); import conesep; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
    "slow_share": "ratio", "fail_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def import_package():
    """Import the package from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import conesep
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import conesep from {SRC}: {exc}")
    if not Path(conesep.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: conesep was imported from {conesep.__file__}, not {SRC}")


def import_seconds() -> float:
    """Wall time of ``import conesep`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: float = 1.0, min_samples: int = MIN_SAMPLES) -> dict:
    """One measured run of a workload; returns the result object.

    ``size`` scales every stratum's share of a round and ``min_samples`` is
    the least number of operations; the self-test makes both tiny.
    """
    import pace
    import tracer as tr
    import workloads as wl
    from conesep import basis, cli, distance, geometry, instances, kernels, oracle
    from conesep import regions, separation

    os.environ["CONESEP_THREADS"] = str(CLI_THREADS)
    clock = pace.Clock()

    def bracketed(fn):
        """fn() run between bursts of probes, which alone set its speed:
        its result, its wall time and the speed scale of that time."""
        clock.burst(pace.NEAREST // 2)
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        clock.burst(pace.NEAREST // 2)
        return out, t1 - t0, clock.scale(t0, t1)

    imports, setups = [], []
    for _ in range(SETUPS):
        took, _, k = bracketed(import_seconds)
        imports.append(took * k)
    for _ in range(SETUPS):
        work, took, k = bracketed(lambda: wl.Workload(name, seed, ROUNDS, WORK / name, size))
        setups.append(took * k)
    setup_s = statistics.median(imports) + statistics.median(setups)

    per_round = len(work.rounds[0])
    rounds = max(1, round(seconds / ROUND_S[name]))
    while sum(len(work.rounds[r % ROUNDS]) for r in range(rounds)) < min_samples:
        rounds += 1

    def busy(intervals) -> float:
        return sum(clock.scaled(t0, t1) for t0, t1 in intervals)

    tracer = None
    untraced_round0 = None
    if trace:
        objects = work.build(0)
        gc.collect()
        untraced_round0 = busy(work.run_round(0, objects, clock=clock)[1])
        modules = {"basis": basis, "cli": cli, "distance": distance, "geometry": geometry,
                   "instances": instances, "kernels": kernels, "oracle": oracle,
                   "regions": regions, "separation": separation}
        tracer = tr.Tracer(modules)
    ops, intervals, round0 = [], [], []
    start = time.perf_counter()
    try:
        # probes inside the calls sample the speed during the second-long
        # stalls; the CLI runs its files on a worker thread, where the
        # handler cannot run, and spans would hold the probes
        clock.watch(name != "cli-batch" and not trace)
        for r in range(rounds):
            objects = work.build(r)
            gc.collect()  # start every round from the same collector state
            round_ops, spans = work.run_round(r, objects, tracer, clock)
            ops += round_ops
            intervals += spans
            round0 = round0 or spans
    finally:
        clock.watch(False)
        if tracer:
            tracer.close()
    run_s = time.perf_counter() - start

    t0 = time.perf_counter()
    problems = wl.check(ops, seed)
    check_s = time.perf_counter() - t0
    lat = [op.latency * clock.scale(*op.when) for op in ops]
    failed = sum(op.verdict in wl.FAILED for op in ops)
    if trace:
        metrics = tr.layer_metrics(tracer, len(ops))
        traced_round0 = busy(round0)
        metrics["trace.overhead_s"] = traced_round0 - untraced_round0
        metrics["trace.overhead_share"] = traced_round0 / untraced_round0 - 1.0
        balance = abs(metrics["trace.op_s"] - metrics["trace.self_sum_s"])
        if balance > 1e-6 * max(1.0, metrics["trace.op_s"]):
            problems.append(f"span self times miss the operation time by {balance:.3g} s")
        write_spans(tracer.spans, WORK / f"spans-{name}-seed{seed}.jsonl")
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {
            "ops_per_s": len(ops) / busy(intervals),
            "latency_p50_ms": 1000.0 * statistics.median(lat),
            "latency_p95_ms": 1000.0 * statistics.quantiles(lat, n=20)[18],
            "slow_share": sum(t > wl.SLOW_S for t in lat) / len(ops),
            "fail_share": failed / len(ops),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "round_ops": per_round, "samples": len(ops),
        "run_s": run_s, "busy_s": busy(intervals), "probe_ms": 1000.0 * clock.probe_s,
        "probes": len(clock.durations),
        "threads": {v: os.environ[v] for v in BLAS_THREADS + ("CONESEP_THREADS",)},
        "nproc": len(os.sched_getaffinity(0)), "wrong": len(problems), "check_s": check_s,
    }
    print("info " + json.dumps(info))
    for problem in problems[:20]:
        print("WRONG " + problem)
    for key, value in metrics.items():
        print(f"  {key:<48} {value:.6g} {units[key]}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("speedup", "share", "per_op", "points_mean")):
        return "ratio"
    return "count"


def write_spans(spans, path: Path) -> None:
    """Write the recorded spans, one JSON list per line:
    [id, name, start_s, end_s, parent, operation]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def run_child(name: str, args) -> dict:
    """Run one workload in a child process, pass its output through, and
    return its result object (the child's last line)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: workload {name} exited with {done.returncode}")
    *lines, last = done.stdout.splitlines()
    print("\n".join(lines))
    print(f"result {name} {last}")
    return json.loads(last)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload != "all":
        final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {name: run_child(name, args) for name in WORKLOADS}
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
