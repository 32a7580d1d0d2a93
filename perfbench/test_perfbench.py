"""Self-test of the benchmark in quick mode.

    python3 -m pytest -q perfbench

Runs a few tasks per workload through run.py (untraced and traced), checks
that every metric BENCHMARK.json names is emitted with its unit, that no task
fails at this commit, and that the tracer leaves no wrapped binding behind.
It also pins the seeded generator and the exact references.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_permutes_fixed_sizes_and_draws_new_parameters(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert a == workloads.generate(workload, 1)
    assert sorted(t["shape"] for t in a) == sorted(t["shape"] for t in b)
    assert [t["argv"] for t in a] != [t["argv"] for t in b]
    assert workloads.task_hash(a) != workloads.task_hash(b)
    argv_a = {tuple(t["argv"]) for t in a}
    assert not argv_a & {tuple(t["argv"]) for t in b}  # every task's draws differ


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tail_percentile_leaves_ten_samples_in_a_minimum_run(workload):
    n = len(workloads.generate(workload, 0)) * workloads.MIN_PASSES
    rank = -(-workloads.TAIL_PCT[workload] * n // 100)
    assert n - rank >= 10


def test_exact_references_agree_with_the_package_table():
    sys.path.insert(0, str(ROOT / "src"))
    from spinwitness.witness import witness_report

    for K in (1, 3, 5, 7, 9, 11, 15):
        rep = witness_report(K)
        assert workloads.noisy_score(K, 3, None, Fraction(0)) == rep.P_max
    assert workloads.k_of("0.5,1,1.5,1.5") == 9 and workloads.dim_of("0.5,1,1.5,1.5") == 96


def test_gate_rejects_wrong_numbers():
    task = next(t for t in workloads.generate("simulate", 0) if t["check"]["state"] == "ghz")
    K, n = workloads.k_of(task["shape"]), len(workloads.spins_of(task["shape"]))
    c = task["check"]
    exact = float(workloads.noisy_score(K, n, c["model"], Fraction(c["p"] or 0)))
    rounds = workloads.SIM_ROUNDS

    def output(p_hat, lost_trials=0):
        positives = round(p_hat * rounds)
        per_k = [[positives // K + (k < positives % K), rounds // K + (k < rounds % K)] for k in range(K)]
        per_k[0][1] -= lost_trials
        return json.dumps({"K": K, "p_hat": positives / rounds, "per_k_counts": per_k})

    assert workloads.check(task, 0, output(exact)) is None
    se = (exact * (1 - exact) / rounds) ** 0.5
    assert "standard errors" in workloads.check(task, 0, output(exact - 6 * se))
    assert "sum to rounds" in workloads.check(task, 0, output(exact, lost_trials=1))
    assert workloads.check(task, 2, "") == "exit code 2"


def test_calibration_scale_is_the_reference_over_the_median_sample():
    from calibration import MAX_DUE, REF_S, Calibration

    cal = Calibration()
    assert cal.samples == []  # the construction run is not a sample
    cal.sample_if_due()  # no sample yet, so the most that may be due are taken
    assert len(cal.samples) == MAX_DUE and min(cal.samples) > 0
    cal.samples[:] = [0.02, 0.08, 0.05]
    assert cal.scale() == REF_S / 0.05


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import spinwitness.cli
    from tracer import Tracer, leftover_wrappers, per_layer_metrics

    eigh = numpy.linalg.eigh
    tracer = Tracer()
    tracer.install()
    try:
        assert leftover_wrappers()
        code = spinwitness.cli.main(["verify", "--spins", "0.5,1,1", "--restarts", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert leftover_wrappers() == []
    assert numpy.linalg.eigh is eigh
    metrics = per_layer_metrics(tracer.spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["seesaw.seesaw_maximize.calls"] == 3
    assert metrics["seesaw.eigensolve.calls"] > 0
    assert metrics["linalg.eigensolve.calls"] == sum(
        metrics[f"{layer}.eigensolve.calls"] for layer in ("witness", "spin", "states", "seesaw", "protocol")
    ) + 1  # verify's own spectrum check is charged to cli


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, details_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    details = json.loads(details_line)["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and details["fail_frac"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    assert details["task_hash"] == workloads.task_hash(workloads.generate(workload, 3, quick=True))
    assert details["environment"]["nproc"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("simulate", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
