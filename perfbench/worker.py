"""One measured process: set up, run the workload's passes, check every output.

Started by run.py in a fresh interpreter, once per measured run and once per
extra set-up sample.  It pins BLAS threads before numpy is imported, imports
`spinwitness` from the checkout's `src/`, builds the seeded task list, runs one
untimed warm-up task per distinct ensemble shape, and reports its CPU time
up to that point as the set-up time, scaled by the host-speed calibration
measured right after it.  Its only stdout is one JSON object; the program's
own stdout and stderr are captured to memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CAL_SAMPLES = 5


def pin_blas_threads() -> int:
    """Pin every BLAS/OpenMP pool to one thread; must run before numpy loads.

    Tasks are timed in process CPU seconds, which leave out the time another
    process holds the core, and with one thread those are the task's own
    work.  Threaded BLAS on a shared host is worse than slow: with two
    threads that wait on each other while a neighbour's process holds one
    vCPU, a 40 ms kernel with one 192x192 eigensolve ran 8x slower.  Returns
    the usable core count.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import spinwitness.cli from this checkout, never from an installed copy."""
    if not (SRC / "spinwitness" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'spinwitness'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import spinwitness.cli

    if Path(spinwitness.cli.__file__).resolve().parent != (SRC / "spinwitness").resolve():
        raise SystemExit(f"perfbench: imported spinwitness from {spinwitness.cli.__file__}, not {SRC}")
    return spinwitness.cli


def call(cli, argv):
    """Run one CLI command in-process; returns (exit code, stdout, CPU seconds, wall seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    error = None
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a task that raises is a failed task, not a failed run
        error = repr(exc)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return code, out.getvalue(), cpu, wall, error or err.getvalue().strip() or None


def run_pass(cli, tasks, tracer=None, calibration=None):
    """Run every task once; returns (per-task results of `call`, wall seconds).

    With a calibration, its kernel is sampled between tasks whenever one is due.
    """
    results = []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        if calibration is not None:
            calibration.sample_if_due()
        results.append(call(cli, task["argv"]))
    return results, time.perf_counter() - start


def nearest_rank(sorted_values, pct):
    rank = max(1, -(-pct * len(sorted_values) // 100))  # ceil(pct/100 * n)
    return sorted_values[rank - 1]


def environment(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas_vendor = "unknown"
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((SRC / "spinwitness").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_vendor,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    cli = import_program()
    import workloads
    from calibration import REF_S, Calibration

    tasks = workloads.generate(args.workload, args.seed, quick=args.quick)
    for warm in workloads.warmups(args.workload, tasks):
        code, _, _, _, error = call(cli, warm)
        if code != 0:
            raise SystemExit(f"perfbench: warm-up {warm} failed with exit code {code}: {error}")
    setup_cpu_s = time.process_time()  # CPU time since the process started
    # Host speed right after set-up, outside both set-up and the timed phase.
    calibration = Calibration()
    for _ in range(SETUP_CAL_SAMPLES):
        calibration.sample()
    setup_scale = calibration.scale()
    calibration.samples.clear()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_cpu_s * setup_scale}))
        return 0

    report = {"setup_s": setup_cpu_s * setup_scale, "environment": environment(nproc), "seed": args.seed,
              "task_hash": workloads.task_hash(tasks), "tasks_per_pass": len(tasks)}
    if args.trace:
        from tracer import Tracer, leftover_wrappers, per_layer_metrics

        untraced, untraced_wall = run_pass(cli, tasks)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(cli, tasks, tracer)
        finally:
            tracer.uninstall()
        leftovers = leftover_wrappers()
        if leftovers:
            raise SystemExit(f"perfbench: tracer left wrapped bindings: {leftovers}")
        if args.spans_out:
            tracer.write(args.spans_out)
        results = untraced + traced
        metrics = per_layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        report.update(untraced_wall_s=untraced_wall, traced_wall_s=traced_wall, spans=len(tracer.spans),
                      spans_file=args.spans_out)
        checked = tasks + tasks
    else:
        results, wall, passes = [], 0.0, 0
        while passes < workloads.MIN_PASSES or wall < args.seconds:
            pass_results, pass_wall = run_pass(cli, tasks, calibration=calibration)
            results += pass_results
            passes += 1
            wall += pass_wall
            if args.quick:
                break
        calibration.sample()
        checked = tasks * passes
        # Every task time in host-speed-scaled CPU seconds (calibration.py).
        scale = calibration.scale()
        scaled = [r[2] * scale for r in results]
        by_pass = [scaled[i:i + len(tasks)] for i in range(0, len(scaled), len(tasks))]
        # A pass rebuilt from each task's median over the passes: a burst of
        # machine noise that slows one pass does not move it.
        median_pass_s = sum(statistics.median(ts) for ts in zip(*by_pass))
        times = sorted(scaled)
        raw_times = sorted(r[3] for r in results)
        tail_pct = workloads.TAIL_PCT[args.workload]
        metrics = {
            "tasks_per_s": len(tasks) / median_pass_s,
            "task_s.p50": statistics.median(times),
            "task_s.tail": nearest_rank(times, tail_pct),
        }
        cal = calibration.samples
        report.update(passes=passes, pass_task_s=by_pass, timed_wall_s=wall,
                      raw_tasks_per_s=len(results) / sum(r[3] for r in results),
                      median_pass_s=median_pass_s, tail_pct=tail_pct,
                      task_samples=len(times), samples_beyond_tail=sum(t > metrics["task_s.tail"] for t in times),
                      wall_task_s={"p50": statistics.median(raw_times), "tail": nearest_rank(raw_times, tail_pct)},
                      calibration={"ref_s": REF_S, "samples": len(cal), "median_s": statistics.median(cal),
                                   "min_s": min(cal), "max_s": max(cal), "scale": scale})

    failures = []
    for task, (code, out, _, _, error) in zip(checked, results):
        reason = workloads.check(task, code, out)
        if reason is not None:
            failures.append({"argv": task["argv"], "reason": reason, "stderr": error})
    report.update(attempted=len(results), failed=len(failures), failures=failures[:5],
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, metrics=metrics)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
