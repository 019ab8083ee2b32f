"""Benchmark of `holoising`: end-to-end op metrics, or per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-kernel --seed 1 --seconds 25 --trace 0

One run builds the workload's fixed op list from the seed, runs it once in
order in this process (BLAS pinned to one thread), checks every op's output
and prints the metrics.  Op times are adjusted to a reference host speed
with a short fixed speed slice timed between ops, because the speed of a
shared host drifts by tens of percent over minutes.  `--seconds` sets the
op count through a nominal rate, never a deadline, so every run of a seed
does the same work.  With `--trace 1` the list runs twice, untraced and
then traced, and the per-layer metrics plus the tracing overhead are
printed instead.  The last line of
standard output is one JSON object; the manifest, every failure, the op
outcomes, the exact counts and the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
PROBE_LOOPS = 1_500_000
# A speed slice is timed before the first op, after every SLICE_EVERY_S of
# op time and after the last op.  An op's host speed is the median slice
# time within SLICE_WINDOW_S of its midpoint.  SLICE_REF_S is the slice's
# time on the host the metrics are expressed for: the 2-CPU x86-64
# container the nominal rates were measured on, in a fast stretch.
SLICE_EVERY_S = 0.25
SLICE_WINDOW_S = 1.0
SLICE_REF_S = 0.0015
SLICE_LOOPS = 20_000
SLICE_MATMULS = 10


def pin_interpreter() -> None:
    """Restart under a fixed hash seed and one BLAS/OpenMP thread, so that
    dict and set layouts are the same in every run.  `exec` replaces this
    process; no child is left behind."""
    if os.environ.get("PYTHONHASHSEED") == "0" and all(
        os.environ.get(var) == "1" for var in THREAD_VARS
    ):
        return
    os.environ["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


def bootstrap() -> None:
    """Pin BLAS/OpenMP to one thread and import `holoising` from this
    checkout's src/ only; exit with code 2 when it is missing."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "holoising" / "__init__.py").is_file():
        print(f"perfbench: no holoising package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import holoising

    if Path(holoising.__file__).resolve().parent != SRC / "holoising":
        print(f"perfbench: imported holoising from {holoising.__file__}", file=sys.stderr)
        sys.exit(2)


def probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed reading."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


@functools.lru_cache(maxsize=None)
def _slice_matrix():
    import numpy

    return numpy.random.default_rng(0).normal(size=(60, 60))


def speed_slice() -> float:
    """Seconds for a fixed mix of interpreter and small-matrix work, the
    fastest of three tries, so an interrupt in one try does not count."""
    a = _slice_matrix()
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(SLICE_LOOPS):
            acc += i * i % 7
        for _ in range(SLICE_MATMULS):
            a @ a
        best = min(best, time.perf_counter() - start)
    return best


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "holoising").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(args, n_ops: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_count": n_ops,
        "commit": commit(),
        "src_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def setup_sample(args) -> tuple:
    """Wall time of a fresh process from start until the op list is ready,
    and the inputs digest it printed."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"setup process exited with {code}: {line!r}")
    return elapsed, line.split()[1]


def run_calibrated(ops, runner, pause=None, pauses: int = 0) -> tuple:
    """Run every op once, in order, with speed slices timed between the ops,
    and `pause()` called `pauses` times, evenly spaced from before the first op
    to after the last, outside the op timing.  Returns (durations, outcomes,
    speeds, slices): speeds[i] is op i's slice time, slices the (start
    offset, seconds) of every slice."""
    starts, durations, outcomes, slices = [], [], [], []
    since = math.inf
    origin = time.perf_counter()
    breaks = {round(k * len(ops) / (pauses - 1)) for k in range(pauses)} if pauses > 1 else set()

    def timed_slice():
        slices.append((time.perf_counter() - origin, speed_slice()))

    for i, op in enumerate(ops):
        if i in breaks:
            pause()
            since = math.inf
        if since >= SLICE_EVERY_S:
            timed_slice()
            since = 0.0
        t0 = time.perf_counter()
        error = runner(op)
        duration = time.perf_counter() - t0
        since += duration
        starts.append(t0 - origin)
        durations.append(duration)
        outcomes.append(error)
    timed_slice()
    if len(ops) in breaks:
        pause()
    speeds = []
    for start, duration in zip(starts, durations):
        mid = start + duration / 2
        near = [s for t, s in slices if abs(t - mid) <= SLICE_WINDOW_S + duration / 2]
        speeds.append(statistics.median(near))
    return durations, outcomes, speeds, slices


def guarded(execute):
    """Wrap an op so a failure is returned as (type, message), not raised."""

    def runner(op):
        try:
            execute(op)
        except Exception as exc:  # every failure is recorded, none is fatal
            return (type(exc).__name__, str(exc))
        return None

    return runner


def tail(durations, outcomes) -> tuple:
    """Highest percentile with at least 10 op samples beyond it; a failed op
    ranks above every op that passed."""
    ranked = sorted(
        (err is not None, d) for d, err in zip(durations, outcomes)
    )
    n = len(ranked)
    idx = n - 11
    failed, value = ranked[idx]
    if failed:
        raise RuntimeError("more than 10 ops failed: the tail percentile is undefined")
    return value, 100.0 * (idx + 1) / n, n


def traced_pass(ops) -> tuple:
    """Run the op list with the library wrapped by a fresh Tracer;
    returns (time spent in ops, outcomes, tracer)."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    execute = guarded(workloads.execute)
    tracer.install()
    try:
        durations, outcomes, _, _ = run_calibrated(
            ops, lambda op: tracer.run_op(op.index, lambda: execute(op))
        )
    finally:
        tracer.uninstall()
    return sum(durations), outcomes, tracer


def outcome_digest(ops, outcomes) -> str:
    blob = json.dumps([[op.index, op.kind, err is None] for op, err in zip(ops, outcomes)])
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_interpreter()
    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    n_ops = workloads.op_count(args.workload, args.seconds)
    ops = workloads.build_ops(args.workload, args.seed, n_ops)
    digest = workloads.inputs_digest(ops)
    if args.setup_only:
        print(f"ready {digest}", flush=True)
        return 0

    info = manifest(args, n_ops)
    info["inputs_sha256"] = digest
    info["probe_before_s"] = probe()
    samples = []
    durations, outcomes, speeds, slices = run_calibrated(
        ops, guarded(workloads.execute),
        lambda: samples.append(setup_sample(args)), 0 if args.trace else SETUP_SAMPLES,
    )
    info["probe_after_s"] = probe()
    adjusted = [d * SLICE_REF_S / s for d, s in zip(durations, speeds)]
    info["slice_s"] = {
        "reference": SLICE_REF_S,
        "median": statistics.median(s for _, s in slices),
        "timed": len(slices),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info["outcomes_sha256"] = outcome_digest(ops, outcomes)

    failures = [
        {"workload": args.workload, "kind": op.kind, "index": op.index,
         "error": err[0], "message": err[1]}
        for op, err in zip(ops, outcomes) if err is not None
    ]
    unexpected = [f for f in failures if not workloads.is_known_failure(f["kind"], f["error"])]
    problems = [f"unexpected failure: {f['kind']}#{f['index']} {f['error']}: {f['message']}" for f in unexpected]
    ops_per_s = len(ops) / sum(durations)
    result = {"manifest": info, "failures": failures, "durations_s": durations, "speeds_s": speeds, "slices_s": slices}

    if args.trace:
        t_ops_s, t_outcomes, tracer = traced_pass(ops)
        if outcome_digest(ops, t_outcomes) != info["outcomes_sha256"]:
            problems.append("traced run changed op outcomes")
        problems += [f"trace: {p}" for p in tracer.consistency(t_ops_s)]
        metrics = tracer.layer_metrics(len(ops))
        metrics["experiments.failures"] = (
            sum(1 for f in failures if f["kind"] in workloads.CANNED_CYCLE), "count"
        )
        traced_ops_per_s = len(ops) / t_ops_s
        metrics["trace.untraced_ops_per_s"] = (ops_per_s, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_ops_per_s, "1/s")
        metrics["trace.overhead"] = (ops_per_s / traced_ops_per_s - 1.0, "fraction")
        counts = tracer.exact_counts()
        info["counts_sha256"] = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
        result.update(counts=counts, spans=tracer.records)
    else:
        if any(d != digest for _, d in samples):
            problems.append("a fresh process generated different inputs")
        setup_s = statistics.median(t for t, _ in samples)
        info["setup_samples_s"] = [t for t, _ in samples]
        tail_s, tail_pct, tail_n = tail(adjusted, outcomes)
        info["op_tail"] = {"percentile": tail_pct, "samples": tail_n}
        info["unadjusted"] = {
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(durations),
            "op_tail_s": tail(durations, outcomes)[0],
        }
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / sum(adjusted), "1/s"),
            "op_p50_s": (statistics.median(adjusted), "s"),
            "op_tail_s": (tail_s, "s"),
            "ok_frac": ((len(ops) - len(failures)) / len(ops), "fraction"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    info["problems"] = problems
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, default=repr))

    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  inputs {digest[:16]}")
    print(f"outcomes {info['outcomes_sha256'][:16]}  src {info['src_sha256'][:16]}"
          f"  probe {info['probe_before_s']:.3f}/{info['probe_after_s']:.3f} s"
          f"  slice median {info['slice_s']['median'] * 1e3:.3f} ms")
    if "unadjusted" in info:
        print("unadjusted " + "  ".join(f"{k} {v:.6g}" for k, v in info["unadjusted"].items()))
    if "op_tail" in info:
        print(f"op_tail_s is p{info['op_tail']['percentile']:.1f} of {info['op_tail']['samples']} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:.6g} {unit}")
    for f in failures:
        print(f"  failed {f['kind']}#{f['index']}: {f['error']}: {f['message']}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print(f"details in {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
