"""Benchmark of the scafd fault monitor: training, the toy bench and detection.

Run from the repository root:

    python3 perfbench/run.py --workload train52 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke     # tiny sizes, seconds

Workloads (see BENCHMARK.json for why each was chosen):

* ``train52``  one ``sca.train`` of the 52-variable, p=27 problem
  (N=2757, m=500) stopped at cost_rel_tol=1e-5;
* ``toy5``     one round of ``cli.run_bench`` over five toy seeds x five
  methods (pca, kpca, ae, sae, sca), after one untimed warm-up round;
* ``detect52`` one detection cycle with a saved 52-variable model: load it,
  score ten 960-sample blocks, one 20000-sample block and 500 single
  samples in a closed loop (one caller waiting for each score), save it.

Set-up (input generation; for ``detect52`` also fitting and saving the
model) runs at least three times, and more while all of them took under a
second; ``setup_s`` is the median.  Then operations run
until the next one would end after ``--seconds``, at least one, and
``op_s`` is the median operation time.  ``peak_rss_mb`` is the process's
own peak resident set.  Every operation's outputs are checked; a failed
check or an exception counts against ``failed``.  Every run pins BLAS to
one thread and records numpy, BLAS, thread count, nproc, Python and the
git commit.

With ``--trace 1`` the run instead reports per-layer metrics (see
``layers.py``): it times operations untraced for half of ``--seconds``,
then wraps the public functions of every ``scafd`` module and times the
rest traced.  The traced minus untraced medians are the tracing overhead.
Spans and results are written under ``.perfbench_out/`` at the end.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/scafd`` next to
this directory the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
WORKLOAD_NAMES = ("train52", "toy5", "detect52")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def pin_threads() -> None:
    """Fix the BLAS/OpenMP pool size before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads_in_use(np) -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles scipy-openblas."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(np),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, seconds: float) -> tuple[list[float], int, int]:
    """Operations until the next would end past ``seconds``; at least one."""
    times: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not times or (time.perf_counter() - start) + statistics.median(times) <= seconds:
        try:
            res = workload.op()
        except Exception:  # a crashed operation counts as failed; stop there
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        times.append(res.seconds)
        attempted += res.attempted
        failed += res.failed
    if not times:
        raise SystemExit("no operation completed")
    return times, attempted, failed


def timed_setups(workload) -> float:
    """Median of at least three set-ups, more while they take under a second."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import numpy as np

    import workloads

    env = environment(np)
    print("env " + json.dumps(env), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = workloads.WORKLOADS[name](seed, "smoke" if smoke else "full", work)
        setup_s = timed_setups(workload)
        workload.warmup()
        if trace:
            metrics, (times, attempted, failed) = traced_metrics(workload, seconds, setup_s)
        else:
            times, attempted, failed = run_ops(workload, seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (statistics.median(times), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        details = workload.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{name}: {len(times)} operations, {attempted} checked calls, {failed} failed "
          f"(failed_frac {failed / max(attempted, 1):.6g})")
    for key, value, unit in details:
        print(f"  {key:<24} {value:.6g} {unit}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<24} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  smoke=smoke, env=env, op_times_s=times,
                  details={k: {"value": v, "unit": u} for k, v, u in details})
    tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    return result


def traced_metrics(workload, seconds: float, setup_s: float) -> tuple[dict, tuple]:
    """Per-layer metrics, and (op times, attempted, failed) over both halves."""
    import layers
    from tracing import SpanStats, Tracer

    untraced, attempted, failed = run_ops(workload, seconds / 2)
    tracer = Tracer()
    tracer.install(layers.TRACED_MODULES, layers.HOOKS)
    try:
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        tracer.counters.clear()
        traced, a2, f2 = run_ops(workload, seconds / 2)
        t2 = time.perf_counter()
    finally:
        tracer.uninstall()
    setup_stats = SpanStats(tracer, t0, t1)
    op_stats = SpanStats(tracer, t1, t2)
    values = layers.per_layer_metrics(op_stats, setup_stats, tracer.counters, len(traced))
    values["trace.op_s"] = statistics.median(traced)
    values["trace.op_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["trace.setup_overhead_s"] = (t1 - t0) - setup_s
    tracer.dump(OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.json")

    # Layer values are per-operation means, so shares are taken of the mean.
    mean_op = statistics.fmean(traced)
    total_self = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
    share = (values["optimizer.self_s"] + values["manifold.self_s"]) / mean_op
    print(f"  traced layers' self time covers {total_self / mean_op:.1%} of a traced "
          f"operation; optimizer + manifold self time {share:.1%}")
    metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
    return metrics, (untraced + traced, attempted + a2, failed + f2)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scafd" / "__init__.py").is_file():
        print(f"no scafd sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
