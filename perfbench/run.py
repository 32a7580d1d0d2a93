"""spinwitness benchmark: one closed-loop client running CLI commands in-process.

    python3 perfbench/run.py --workload {certify,simulate} --seed N \
        --seconds S --trace {0,1} [--quick]

Each measured run is a fresh worker process (worker.py).  With --trace 0 the
worker runs whole passes of the seeded task list until S seconds have passed
(at least three passes), and this script adds set-up-only processes so that
set-up time is the median of 3 fresh starts.  Every reported time is in
process CPU seconds, scaled to the reference host speed by a calibration
kernel timed in the same run (calibration.py); wall times are in the details.  With --trace 1 the worker
runs one untraced and one traced pass of the same tasks and reports per-layer
metrics plus the tracing overhead.  --quick runs a few tasks once (self-test).

The last stdout line is the result object; the line before it holds the
details (seed, task hash, environment, tail percentile, failures).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Run as a script, so this directory is on sys.path and its siblings import directly.
from tracer import unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # the whole run, set-up processes included
# Set-up is timed in this many fresh processes, the measured one included.
SETUP_SAMPLES = 3


def spawn(args, extra, deadline):
    """Run the worker to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.quick:
        cmd.append("--quick")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker did not finish within {TIME_LIMIT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="a few tasks, one pass (benchmark self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "spinwitness" / "__init__.py").is_file():
        print(f"perfbench: no spinwitness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    setup_samples = []
    if not (args.trace or args.quick):
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(spawn(args, ["--setup-only"], deadline)["setup_s"])
    extra = []
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        extra = ["--spans-out", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    report = spawn(args, extra, deadline)
    setup_samples.append(report.pop("setup_s"))

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in report.pop("metrics").items()}
    else:
        m = report.pop("metrics")
        metrics = {
            "tasks_per_s": {"value": m["tasks_per_s"], "unit": "1/s"},
            "task_s.p50": {"value": m["task_s.p50"], "unit": "s"},
            "task_s.tail": {"value": m["task_s.tail"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    report.update(workload=args.workload, fail_frac=failed / attempted, setup_samples_s=setup_samples)
    print(json.dumps({"details": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
