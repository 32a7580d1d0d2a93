import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinwitness import cli, noise, seesaw
from spinwitness.noise import NoiseModel, apply_depolarizing, depolarize_table, noisy_score
from spinwitness.protocol import _positive_probabilities, outcome_table
from spinwitness.spin import SpinEnsemble
from spinwitness.states import QuantumState, ghz_like, ghz_mixture
from spinwitness.witness import phase_for_ghz
from spinwitness.cli import (
    MAX_DIM, MAX_GRID_POINTS, MAX_TABLE_K, _dense_spins, _deviation, _grid, main,
)
from test_seesaw import split_ensembles

GOLDEN_TABLE_CSV = """\
K,P_max,P_max_float,P_sep,P_sep_float,P_classical,P_classical_float,gap,gap_float
3,3/4,0.75,5/8,0.625,2/3,0.66666666666666663,1/8,0.125
5,11/16,0.6875,19/32,0.59375,3/5,0.59999999999999998,3/32,0.09375
"""

# noise-sweep --spins 0.5,1,1.5,1.5 --grid 0:1:0.25 per --model: the closed form and
# the channel on every row, to the 17th significant digit.
GOLDEN_NOISE_SWEEP_CSV = {
    "global": """\
p,closed_form_score,brute_force_score,detected
0,0.63671875,0.63671875000000011,true
0.25,0.6025390625,0.60253906250000011,true
0.5,0.568359375,0.56835937500000011,false
0.75,0.5341796875,0.53417968750000022,false
1,0.5,0.50000000000000011,false
""",
    "local": """\
p,closed_form_score,brute_force_score,detected
0,0.63671875,0.63671875000000011,true
0.25,0.5432586669921875,0.5432586669921875,false
0.5,0.508544921875,0.50854492187500011,false
0.75,0.5005340576171875,0.5005340576171875,false
1,0.5,0.5,false
""",
}


def run(capsys, *argv):
    """Exit code, stdout and stderr of one command, whether argparse or the command rejected it."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


# --- table ---


def test_table_csv_golden(capsys):
    rc, out, _ = run(capsys, "table", "--K", "3", "5")
    assert rc == 0
    assert out == GOLDEN_TABLE_CSV


def test_table_json_schema(capsys):
    rc, out, _ = run(capsys, "table", "--K", "3", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["command"] == "table"
    row = obj["rows"][0]
    assert row["P_max"] == "3/4" and row["P_max_float"] == 0.75
    assert row["gap"] == "1/8"


def test_table_even_k_rows(capsys):
    # a K that is not a positive odd integer up to the limit is a usage error, even beside good ones
    for argv in (["4"], ["0"], ["-3"], [str(MAX_TABLE_K + 2)], ["3", "4"]):
        rc, out, err = run(capsys, "table", "--K", *argv)
        assert rc == 2
        assert out == ""
        assert f"argument --K: '{argv[-1]}' is not a positive odd integer up to the limit of {MAX_TABLE_K}" in err


def test_table_prints_up_to_its_k_limit(capsys):
    rc, out, _ = run(capsys, "table", "--K", str(MAX_TABLE_K), "--format", "json")
    assert rc == 0
    assert json.loads(out)["rows"][0]["K"] == MAX_TABLE_K


def test_table_large_k_scaling_row(capsys):
    rc, out, _ = run(capsys, "table", "--K", "19", "401", "--format", "json")
    rows = json.loads(out)["rows"]
    assert rows[0]["gap"] == "12155/262144"  # 48620/1048576 reduced
    assert abs(rows[0]["gap_float"] - 0.046368) < 1e-6
    assert rows[1]["gap_float"] < 0.01


# --- verify ---


def test_verify_passes_for_spin_half_triple(capsys):
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,0.5,0.5", "--restarts", "6")
    assert rc == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 5


def test_verify_passes_a_single_particle(capsys):
    rc, out, _ = run(capsys, "verify", "--spins", "0.5")
    assert rc == 0
    assert "PASS  seesaw: single particle: no bipartitions to check\n" in out
    assert out.count("PASS") == 5


@pytest.mark.parametrize("spins", [
    "0.5,1,1", "1.5,1.5,1.5", "0.5,1,1,1", "0.5,1,1.5,1.5", "0.5,0.5,0.5,0.5,0.5", "2.5,2.5,2.5",
    "0.5,0.5,0.5,0.5,0.5,0.5,0.5",
])
def test_verify_stops_after_restart_0_on_the_benchmark_shapes(capsys, monkeypatch, spins):
    # restart 0 meets the Schmidt bound on every bipartition of these shapes, so the start
    # kets of restarts 1 .. R-1 are never read
    start_kets = seesaw._start_kets

    def restart_0_only(*args):
        kets = start_kets(*args)
        yield next(kets)
        raise AssertionError("the see-saw read start kets for restarts 1 .. R-1")

    monkeypatch.setattr(seesaw, "_start_kets", restart_0_only)
    rc, out, _ = run(capsys, "verify", "--spins", spins)
    assert rc == 0
    assert out.count("PASS") == 5


def test_verify_prints_rounding_noise_as_a_stable_token(capsys):
    # Deviations at the 1e-16 level move with any reordering of a float sum;
    # the report must not, so its checksum stays put.
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,0.5,0.5", "--restarts", "6")
    assert rc == 0
    assert "PASS  seesaw: 3 bipartitions, max |value - P_sep| <1e-12, max bound - P_sep <1e-12, spread <1e-12\n" in out
    assert _deviation(3.2e-7) == "3.20e-07"


@pytest.mark.parametrize("entries, detail", [
    ([(0, 0)], "pi-about-x 1.00e-03, 2pi/K-about-z <1e-12"),  # breaks only the reversal symmetry
    ([(0, 1), (1, 0), (-1, -2), (-2, -1)], "pi-about-x <1e-12, 2pi/K-about-z 1.73e-03"),  # only the z phases
])
def test_verify_symmetry_line_fails_on_a_broken_witness(capsys, monkeypatch, entries, detail):
    build = cli.build_qk_direct

    def perturbed(ensemble):
        witness = build(ensemble)
        q = witness.Q.copy()
        for entry in entries:
            q[entry] += 1e-3
        return dataclasses.replace(witness, Q=q)

    monkeypatch.setattr(cli, "build_qk_direct", perturbed)
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,0.5,0.5", "--restarts", "2")
    assert rc == 1
    assert f"FAIL  symmetry: {detail}\n" in out


def test_verify_spectrum_line_reads_the_direct_witness(capsys, monkeypatch):
    # Both corners of Q - 1/2 scaled by 1.01: still Hermitian and reversal-symmetric, but the
    # extreme eigenvalues of the K = 3 witness move by 1% of 1/4.  The closed form is untouched.
    build = cli.build_qk_direct

    def scaled(ensemble):
        witness = build(ensemble)
        q = witness.Q.copy()
        q[0, -1] *= 1.01
        q[-1, 0] *= 1.01
        return dataclasses.replace(witness, Q=q)

    monkeypatch.setattr(cli, "build_qk_direct", scaled)
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,0.5,0.5", "--restarts", "2")
    assert rc == 1
    assert "FAIL  spectrum: eigenvalue deviation 2.50e-03\n" in out
    assert "PASS  symmetry" in out


@pytest.mark.parametrize("spins", [",".join(["0.5"] * 7), "2.5,2.5,2.5"])
def test_verify_eigensolves_nothing_larger_than_7x7(capsys, monkeypatch, spins):
    # the witness's spectrum comes from its rank-2 factors, never from a dense eigensolve of Q
    sizes = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _solver=solver, **kw:
                            sizes.append(a.shape[-1]) or _solver(a, *args, **kw))
    rc, _, _ = run(capsys, "verify", "--spins", spins, "--restarts", "2")
    assert rc == 0
    assert 0 < max(sizes) <= 7


def test_verify_holds_the_direct_witness_and_one_scratch_buffer():
    # Q is formed in place and every deviation of it is reduced by row blocks; a dense temporary per deviation, and
    # the closed form held to the end, once peaked at 4.06 dim x dim complex buffers here
    buffer = 512**2 * 16
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--spins", ",".join(["0.5"] * 9)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * buffer, peak / buffer


def test_verify_mixed_ensemble(capsys):
    rc, out, _ = run(capsys, "verify", "--spins", "1,0.5", "--restarts", "6")
    assert rc == 0


def test_verify_rejects_integer_total_spin(capsys):
    rc, _, err = run(capsys, "verify", "--spins", "0.5,0.5")
    assert rc == 2
    assert "odd K" in err


def test_verify_rejects_garbage_spins(capsys):
    rc, _, err = run(capsys, "verify", "--spins", "a,b")
    assert rc == 2
    assert "cannot parse" in err


# --- noise-sweep ---


def test_noise_sweep_global_flip_cell(capsys):
    rc, out, _ = run(capsys, "noise-sweep", "--spins", "0.5,0.5,0.5", "--model", "global",
                     "--grid", "0:1:0.05")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,closed_form_score,brute_force_score,detected"
    by_p = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert by_p[0.0][1] == "0.75"  # p = 0 row equals P_max
    assert by_p[0.45][3] == "true"
    assert by_p[0.5][3] == "false"  # boundary itself does not detect
    for cols in by_p.values():
        assert abs(float(cols[1]) - float(cols[2])) < 1e-10


def test_noise_sweep_local_flip_cell(capsys):
    rc, out, _ = run(capsys, "noise-sweep", "--spins", "0.5,0.5,0.5", "--model", "local",
                     "--grid", "0:1:0.05")
    lines = out.strip().splitlines()
    by_p = {float(l.split(",")[0]): l.split(",")[3] for l in lines[1:]}
    assert by_p[0.20] == "true"
    assert by_p[0.25] == "false"


def test_noise_sweep_json_and_explicit_grid(capsys):
    rc, out, _ = run(capsys, "noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0,0.5,1",
                     "--format", "json")
    obj = json.loads(out)
    assert obj["sep_bound"] == "5/8"
    assert [r["p"] for r in obj["rows"]] == [0.0, 0.5, 1.0]
    assert obj["rows"][2]["closed_form_score"] == 0.5


@pytest.mark.parametrize("model", ["global", "local"])
def test_noise_sweep_csv_golden(capsys, model):
    rc, out, _ = run(capsys, "noise-sweep", "--spins", "0.5,1,1.5,1.5", "--model", model, "--grid", "0:1:0.25")
    assert rc == 0
    assert out == GOLDEN_NOISE_SWEEP_CSV[model]


@pytest.mark.parametrize("shift", [0.0, 1e-6])
def test_verify_noise_line_reads_the_noise_sweep_rows(capsys, monkeypatch, shift):
    # verify scores its noise grid on the detected GHZ ket's outcome table under each model's
    # stochastic map, not on channel outputs; those table scores equal noise-sweep's brute-force
    # rows to 1e-12, and verify's deviation is the largest |closed - table| over the rows of both
    # models on its grid.  A closed form shifted per model and p makes the largest deviation a
    # local row at p = 0.9, and fails verify.
    def shifted(ensemble, model):
        p = model.p_global if model.p_locals is None else 2 * model.p_locals[0]
        return noisy_score(ensemble, model) + shift * p

    monkeypatch.setattr(cli, "noisy_score", shifted)
    ensemble = SpinEnsemble((0.5, 1, 1))
    table = outcome_table(ghz_like(ensemble, phi=np.pi * (ensemble.K - 1) / 2))
    positive = ensemble.jz_diagonal > 0
    deviations = []
    for kind in ("global", "local"):
        rc, out, _ = run(capsys, "noise-sweep", "--spins", "0.5,1,1", "--model", kind,
                         "--grid", "0,0.1,0.25,0.5,0.9", "--format", "json")
        assert rc == 0
        for row in json.loads(out)["rows"]:
            model = NoiseModel(p_global=row["p"]) if kind == "global" else NoiseModel(p_locals=(row["p"],) * 3)
            table_score = float(np.mean(depolarize_table(table, model).reshape(ensemble.K, -1) @ positive))
            assert abs(table_score - row["brute_force_score"]) < 1e-12
            deviations.append(abs(row["closed_form_score"] - table_score))
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,1,1")
    (line,) = [line for line in out.splitlines() if "noise-closed-form" in line]
    assert line.endswith(f"max closed-form vs channel deviation {_deviation(max(deviations))}")
    assert rc == (0 if shift == 0 else 1)
    if shift:
        assert line.startswith("FAIL") and _deviation(max(deviations)) == "1.80e-06"


def test_verify_noise_line_sees_a_channel_on_the_wrong_slot(capsys, monkeypatch):
    # depolarizing slot n maps every score s to (1 - p_n) s + p_n/2 whatever n is, so the scores alone
    # pass a channel that always averages the first slot's axis; the product probe's marginals do not.
    # The grid's stacks go through cli._depolarize, so this patch reaches the probe alone
    def first_axis_only(table, model):
        if model.kind == "global":
            return depolarize_table(table, model)
        for p in model.p_locals:
            table = (1 - p) * table + p * table.mean(axis=1, keepdims=True)
        return table

    monkeypatch.setattr(cli, "depolarize_table", first_axis_only)
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,1,1")
    (line,) = [line for line in out.splitlines() if "noise-closed-form" in line]
    assert line.startswith("FAIL  noise-closed-form: max closed-form vs channel deviation ")
    assert rc == 1 and out.count("PASS") == 4


def test_verify_noise_line_sees_a_level_on_the_wrong_row(capsys, monkeypatch):
    # verify maps its noise grid as one stack per kind, one level per row: a kernel that hands the
    # rows their levels in reverse order still applies every level, and only the row-by-row match
    # with the closed form shows it; the probe reaches the kernel through depolarize_table, unpatched
    def reversed_rows(tables, levels, n):
        flip = tuple(p[::-1] for p in levels) if isinstance(levels, tuple) else levels[::-1]
        return noise._depolarize(tables, flip, n)

    monkeypatch.setattr(cli, "_depolarize", reversed_rows)
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,1,1")
    (line,) = [line for line in out.splitlines() if "noise-closed-form" in line]
    assert line.startswith("FAIL  noise-closed-form: max closed-form vs channel deviation ")
    assert rc == 1 and out.count("PASS") == 4


def test_verify_builds_no_density_matrix(capsys, monkeypatch):
    # the noise line reads the ket's outcome table: no channel output, no projector, no rho to validate
    def forbidden(*args, **kwargs):
        raise AssertionError("verify built a density matrix")

    monkeypatch.setattr(cli, "apply_depolarizing", forbidden)
    monkeypatch.setattr(QuantumState, "density", forbidden)
    rc, out, _ = run(capsys, "verify", "--spins", "0.5,1,1", "--restarts", "2")
    assert rc == 0
    assert out.count("PASS") == 5


def test_simulate_builds_no_density_matrix(capsys, monkeypatch):
    # every simulate state, noisy or mixed, is read through the level weights and the model's survival: no
    # channel output, no projector, no rho to validate, and no ket or outcome table either
    def forbidden(*args, **kwargs):
        raise AssertionError("simulate built a density matrix, a ket or an outcome table")

    monkeypatch.setattr(cli, "apply_depolarizing", forbidden)
    monkeypatch.setattr(QuantumState, "density", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    for name in ("ghz_like", "outcome_table", "depolarize_table"):
        monkeypatch.setattr(cli, name, forbidden)
    for state in ("ghz", "mixture"):
        for noise in ((), ("--p", "0.2"), ("--model", "local", "--p", "0.2"), ("--p", "0.1,0.2,0.3")):
            argv = ("simulate", "--spins", "0.5,1,1", "--state", state, "--rounds", "1000", *noise)
            assert run(capsys, *argv)[0] == 0, argv


@st.composite
def simulate_inputs(draw):
    """simulate's argv over a mixed-spin ensemble, with the state, offset and noise model it names."""
    ensemble = draw(split_ensembles()).ensemble
    state = draw(st.sampled_from(["ghz", "mixture"]))
    phi = draw(st.floats(-10, 10))
    argv = ["simulate", "--spins", ",".join(map(repr, ensemble.spins)), "--state", state, f"--phi={phi!r}",
            "--rounds", "1000"]  # --phi=: a negative value would read as a flag
    kind = draw(st.sampled_from(["none", "global", "local", "per-particle"]))
    if kind == "per-particle":
        ps = draw(st.lists(st.floats(0, 1), min_size=ensemble.N, max_size=ensemble.N))
        argv += ["--p", ",".join(map(repr, ps))]
        return ensemble, state, phi, NoiseModel(p_locals=tuple(ps)), argv
    p = 0.0 if kind == "none" else draw(st.floats(0, 1))
    if kind != "none":
        argv += ["--model", kind, "--p", repr(p)]
    model = NoiseModel(p_locals=(p,) * ensemble.N) if kind == "local" else NoiseModel(p_global=p)
    return ensemble, state, phi, model, argv


@settings(max_examples=60, deadline=None)
@given(simulate_inputs())
def test_simulate_table_route_matches_dense_route(inputs):
    # the probabilities simulate samples from the level weights and the survival equal tr(rho pos(J_k)) of the
    # dense channel's output (the noiseless run goes through the channel at p = 0), on the density-matrix branch
    ensemble, state, phi, model, argv = inputs
    seen = []
    sample = cli._sample_signs
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "_sample_signs", lambda probs, *rest: seen.append(probs) or sample(probs, *rest))
        assert main(argv) == 0
    dense = apply_depolarizing(ghz_mixture(ensemble) if state == "mixture" else ghz_like(ensemble, phi), model)
    expected = _positive_probabilities(dense, phase_for_ghz(phi, ensemble.K))
    np.testing.assert_allclose(seen[0], expected, rtol=0, atol=1e-12)


def test_verify_eigensolves_each_particles_jx_once(capsys, monkeypatch):
    # the direct witness and the noise line share the ensemble's cached Jx eigenbases, one solve per spin
    # value (the two spin-1 particles share one), and the one (6, 6) solve is the witness factors'
    # projection; the see-saw's (3, 3) solves are told apart from a spin-1 particle's by the function
    # that calls eigh (a spin-1/2 side gives (2, 2) ones)
    shapes, seesaw_shapes = [], []
    eigh = np.linalg.eigh

    def recording(a, *args, **kw):
        in_seesaw = sys._getframe(1).f_code is seesaw._half_step.__code__
        (seesaw_shapes if in_seesaw else shapes).append(a.shape)
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    rc, _, _ = run(capsys, "verify", "--spins", "0.5,1,1", "--restarts", "2")
    assert rc == 0
    assert shapes == [(2, 2), (3, 3), (6, 6)]
    assert seesaw_shapes and set(seesaw_shapes) <= {(2, 2), (3, 3)}


def test_noise_sweep_range_holds_its_start(capsys):
    # 0.5 + 1e-320 / 2 rounds to 0.5, so np.arange(0.5, 0.5 + step / 2, step) is empty: a header, no rows, exit 0
    rc, out, _ = run(capsys, "noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0.5:0.5:1e-320")
    assert rc == 0
    _, *rows = out.strip().splitlines()
    assert len(rows) == 1 and rows[0].split(",")[0] == "0.5"


def test_noise_sweep_rejects_bad_grid(capsys):
    rc, _, err = run(capsys, "noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0:2:0.5")
    assert rc == 2
    rc, _, err = run(capsys, "noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "nope")
    assert rc == 2


# --- simulate ---


def test_simulate_detects_ghz(capsys):
    rc, out, _ = run(capsys, "simulate", "--K", "3", "--rounds", "100000", "--seed", "7")
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "GME-detected"
    assert obj["ci_low"] > 0.625
    assert obj["sep_bound"] == "5/8"


def test_simulate_mixture_is_inconclusive(capsys):
    rc, out, _ = run(capsys, "simulate", "--K", "3", "--state", "mixture",
                     "--rounds", "50000", "--seed", "7")
    obj = json.loads(out)
    assert obj["verdict"] == "inconclusive"


def test_simulate_is_byte_identical(capsys):
    args = ("simulate", "--K", "3", "--rounds", "20000", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_simulate_subensembles_and_noise(capsys):
    rc, out, _ = run(capsys, "simulate", "--spins", "0.5,0.5,0.5", "--subensembles", "1|2,3",
                     "--rounds", "50000", "--seed", "1", "--p", "0.2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["subensembles"] == [[0], [1, 2]]
    assert obj["verdict"] == "GME-detected"  # p = 0.2 < 1/2 keeps detection alive


def test_simulate_reaches_a_trillion_rounds(capsys):
    rc, out, _ = run(capsys, "simulate", "--K", "3", "--rounds", str(10**12), "--seed", "2")
    assert rc == 0
    obj = json.loads(out)
    assert sum(trials for _, trials in obj["per_k_counts"]) == 10**12
    assert abs(obj["p_hat"] - 0.75) < 5 * (0.75 * 0.25 / 10**12) ** 0.5


def test_simulate_usage_errors(capsys):
    assert run(capsys, "simulate", "--K", "4")[0] == 2
    assert run(capsys, "simulate")[0] == 2  # neither --spins nor --K
    assert run(capsys, "simulate", "--spins", "0.5,0.5,0.5", "--subensembles", "1|2")[0] == 2
    assert run(capsys, "simulate", "--spins", "0.5,0.5,0.5", "--p", "0.1,0.2")[0] == 2


def test_simulate_rejects_k_above_exact_print_limit(capsys):
    # simulate holds nothing of size dim, so its one cap is table's: P_sep prints as an exact fraction
    for k in (str(MAX_TABLE_K + 2), "65537"):
        rc, out, err = run(capsys, "simulate", "--K", k, "--rounds", "10")
        assert rc == 2
        assert out == ""
        assert f"argument --K: '{k}'" in err and f"limit of {MAX_TABLE_K}" in err
    rc, out, err = run(capsys, "simulate", "--spins", ",".join(["0.5"] * (MAX_TABLE_K + 2)))
    assert rc == 2 and out == ""
    assert f"K = {MAX_TABLE_K + 2} exceeds the limit of {MAX_TABLE_K}" in err
    # each particle's Jx is eigensolved densely, so a particle keeps the dense limit
    rc, out, err = run(capsys, "simulate", "--spins", "1024.5")
    assert rc == 2 and out == ""
    assert f"particle dimension 2050 exceeds the limit of {MAX_DIM}" in err


def test_spins_above_dense_limit_are_usage_errors(capsys):
    thirteen = ",".join(["0.5"] * 13)
    for command in ("verify", "seesaw", "noise-sweep", "general-witness"):
        rc, _, err = run(capsys, command, "--spins", thirteen)
        assert rc == 2
        assert "dimension 8192" in err and f"limit of {MAX_DIM}" in err
    assert SpinEnsemble(_dense_spins(",".join(["0.5"] * 11))).dim == 2048 == MAX_DIM
    # 2^14291 has 4303 digits, above Python's limit on int-to-str conversion: the error read "invalid _spins value"
    rc, _, err = run(capsys, "verify", "--spins", ",".join(["0.5"] * MAX_TABLE_K))
    assert rc == 2 and f"ensemble dimension above 2^64 exceeds the dense limit of {MAX_DIM}" in err


@pytest.mark.parametrize("argv, K", [
    (("--spins", ",".join(["0.5"] * 13)), 13),  # dimension 8192, above the dense limit
    (("--K", "1001"), 1001),  # dimension 2^1001
])
def test_simulate_reaches_above_the_dense_limit(capsys, monkeypatch, argv, K):
    # neither the ensemble's dimension nor its Jz diagonal is read, so nothing of size dim is built; the traced
    # peak, mostly the JSON text of the K tallies, stays under 2 MiB (a first call also pays one-off set-up)
    def forbidden(self):
        raise AssertionError("simulate read the ensemble's dimension")

    assert run(capsys, "simulate", "--K", "3", "--rounds", "10")[0] == 0
    monkeypatch.setattr(SpinEnsemble, "dim", property(forbidden))
    monkeypatch.setattr(SpinEnsemble, "jz_diagonal", property(forbidden))
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "simulate", *argv, "--rounds", "1000000", "--seed", "11")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak < 2 * 2**20
    obj = json.loads(out)
    assert obj["K"] == K and len(obj["per_k_counts"]) == K and obj["verdict"] == "GME-detected"
    q = float(Fraction(1, 2) + Fraction(math.comb(K - 1, (K - 1) // 2), 2**K))  # P_max, apart from the package
    assert abs(obj["p_hat"] - q) <= 5 * math.sqrt(q * (1 - q) / 1_000_000)


# --- seesaw and general-witness ---


def test_seesaw_cli(capsys):
    rc, out, _ = run(capsys, "seesaw", "--spins", "1,0.5", "--restarts", "6", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bipartition,best_value,upper_bound,iterations,converged"
    cols = lines[1].split(",")
    assert cols[0] == "1|2"
    assert abs(float(cols[1]) - 0.625) < 1e-6
    assert abs(float(cols[2]) - 0.625) < 1e-12


def test_seesaw_cli_json(capsys):
    rc, out, _ = run(capsys, "seesaw", "--spins", "0.5,0.5,0.5", "--restarts", "6")
    obj = json.loads(out)
    assert len(obj["rows"]) == 3
    assert obj["spread"] < 1e-6
    assert {r["bipartition"] for r in obj["rows"]} == {"1|2,3", "1,2|3", "1,3|2"}


def test_seesaw_output_ignores_a_one_ulp_change(capsys, monkeypatch):
    # A reordered floating-point sum moves a best value by an ulp; stdout must not move.  At K = 15,
    # P_sep = 4525/8192 is a tie at 12 decimals: a value on it must print as both its neighbours do.
    maximize = cli.seesaw_maximize
    for spins, pinned in [("0.5,1,1", None), ("2.5,2.5,2.5", 4525 / 8192)]:
        outputs = set()
        for toward in (None, 1.0, 0.0):  # as computed (or pinned), one ulp up, one ulp down
            calls = []

            def nudged(*args, **kwargs):
                result = maximize(*args, **kwargs)
                calls.append(result)
                if len(calls) > 1:
                    return result
                value = result.best_value if pinned is None else pinned
                if toward is not None:
                    value = np.nextafter(value, toward)
                return dataclasses.replace(result, best_value=float(value))

            monkeypatch.setattr(cli, "seesaw_maximize", nudged)
            rc, out, _ = run(capsys, "seesaw", "--spins", spins, "--restarts", "3")
            assert rc == 0 and len(calls) == 3
            outputs.add(out)
        assert len(outputs) == 1, spins


def test_seesaw_verdict_reads_unrounded_values(capsys, monkeypatch):
    # 4e-13 past the 1e-9 overshoot allowance: the printed value rounds back inside it, the verdict must not.
    maximize = cli.seesaw_maximize
    value = 0.625 + 1e-9 + 4e-13
    monkeypatch.setattr(cli, "seesaw_maximize", lambda *a, **k: dataclasses.replace(maximize(*a, **k), best_value=value))
    rc, out, _ = run(capsys, "seesaw", "--spins", "0.5,0.5,0.5", "--restarts", "2")
    assert rc == 1
    assert {row["best_value"] for row in json.loads(out)["rows"]} == {round(value, 12)}


def test_general_witness_cli(capsys):
    rc, out, _ = run(capsys, "general-witness", "--spins", "0.5,0.5,0.5")
    obj = json.loads(out)
    assert obj["sep_bound"] == pytest.approx(0.625, abs=1e-10)
    rc, out, _ = run(capsys, "general-witness", "--spins", "0.5,0.5,0.5", "--f-odd", "linear")
    assert json.loads(out)["f_K"] == pytest.approx(0.0, abs=1e-10)


def test_general_witness_at_the_dense_limit_is_exact(capsys):
    # one spin-1023.5 (dimension 2048): the cubic's third difference cannot reach K = 2047, so f_K is exactly 0
    rc, out, _ = run(capsys, "general-witness", "--spins", "1023.5", "--f-odd", "cubic")
    obj = json.loads(out)
    assert rc == 0 and (obj["f_K"], obj["sep_bound"]) == (0.0, 0.5)


# --- output files and manifests ---


def test_out_writes_file_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    rc, stdout, _ = run(capsys, "table", "--K", "3", "5", "--out", str(out_path))
    assert rc == 0
    assert stdout == ""  # everything went to the file
    assert out_path.read_text() == GOLDEN_TABLE_CSV
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == "table"
    assert manifest["version"]
    assert manifest["params"]["K"] == [3, 5]
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert manifest["sha256"] == digest


def test_out_manifest_params_are_the_flags(tmp_path, capsys):
    # the repeated-flag check keeps its bookkeeping off the parsed arguments
    out_path = tmp_path / "table.csv"
    assert run(capsys, "table", "--K", "3", "--out", str(out_path))[0] == 0
    assert json.loads((tmp_path / "table.csv.manifest.json").read_text())["params"] == {
        "command": "table", "K": [3], "format": "csv"}


def test_out_manifest_records_p_as_a_list(tmp_path, capsys):
    out_path = tmp_path / "sim.json"
    run(capsys, "simulate", "--K", "3", "--rounds", "500", "--p", "0.2", "--out", str(out_path))
    assert json.loads((tmp_path / "sim.json.manifest.json").read_text())["params"]["p"] == [0.2]


def test_out_manifest_records_seed(tmp_path, capsys):
    out_path = tmp_path / "sim.json"
    run(capsys, "simulate", "--K", "3", "--rounds", "5000", "--seed", "3", "--out", str(out_path))
    manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
    assert manifest["seed"] == 3
    payload = json.loads(out_path.read_text())
    assert payload["seed"] == 3

# --- one renderer: CSV is the JSON rows ---


@pytest.mark.parametrize("argv", [
    ("table", "--K", "3", "19"),
    ("noise-sweep", "--spins", "0.5,1,1", "--model", "local", "--grid", "0,0.3,1"),
    ("seesaw", "--spins", "0.5,1,1", "--restarts", "3"),
    ("general-witness", "--spins", "0.5,1,1", "--f-odd", "cubic", "--f0", "0.25"),
])
def test_csv_cells_equal_json_values(capsys, argv):
    _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    _, json_out, _ = run(capsys, *argv, "--format", "json")
    obj = json.loads(json_out)
    header, *lines = csv.reader(io.StringIO(csv_out))
    rows = obj.get("rows", [obj])
    assert argv[0] != "seesaw" or "upper_bound" in header
    assert len(lines) == len(rows) > 0
    for line, row in zip(lines, rows):
        assert len(line) == len(header)
        for name, cell in zip(header, line):
            value = row[name]
            if isinstance(value, bool):
                assert cell == str(value).lower()
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == str(value)


# --- one error path: only command-line mistakes exit 2 ---


@pytest.mark.parametrize("argv, flag", [
    (("simulate", "--K", "3", "--rounds", "0"), "--rounds"),
    (("simulate", "--K", "3", "--rounds", "-5"), "--rounds"),
    (("seesaw", "--spins", "0.5,1", "--restarts", "0"), "--restarts"),
    (("verify", "--spins", "0.5,1", "--restarts", "0"), "--restarts"),
    (("seesaw", "--spins", "0.5,1", "--restarts", "1", "--seed", "-1"), "--seed"),
    (("verify", "--spins", "0.5,1", "--seed", "-1"), "--seed"),
    (("simulate", "--K", "3", "--seed", str(2**128)), "--seed"),
    (("simulate", "--K", "3", "--p", "1.5"), "--p"),
    (("simulate", "--K", "3", "--p", "nan"), "--p"),
    (("simulate", "--spins", "0.5,1,1", "--p-list", "0.1,x,0"), "--p-list"),
    (("simulate", "--spins", "0.5,1,1", "--p-list", "0.1,1.2,0"), "--p-list"),
    (("simulate", "--K", "3", "--phi", "nan"), "--phi"),
    (("simulate", "--K", "3", "--phi", "inf"), "--phi"),
    (("general-witness", "--spins", "0.5,1,1", "--f0", "inf"), "--f0"),
    (("general-witness", "--spins", "0.5,1,1", "--f0", "nan"), "--f0"),
    (("simulate", "--K", "3", "--format", "csv"), "--format"),
    (("simulate", "--K", "3", "--rounds", str(2**63)), "--rounds"),
    (("simulate", "--K", "3", "--rounds", "1e6"), "--rounds"),
    (("verify", "--spins", "0.5,0.5,0.5", "--restarts", "1025"), "--restarts"),
    (("seesaw", "--spins", "0.5,0.5,0.5", "--restarts", "1025"), "--restarts"),
    (("simulate", "--spins", "0.5,0.5,0.5", "--K", "5"), "--K"),
    (("simulate", "--K", "3", "--p", "0.1", "--p-list", "0.1,0.1,0.1"), "--p-list"),
    (("table", "--K", "3", "--out", "."), "--out"),
    (("simulate", "--spins", "0.5,1,1", "--p", "0.1,x,0"), "--p"),
    (("simulate", "--spins", "0.5,1,1", "--p", "0.1,1.2,0"), "--p"),
    (("simulate", "--K", "4"), "--K"),
    (("simulate", "--K", "14293"), "--K"),
    # a repeated flag, even at the same value: plain store kept only the last one
    (("table", "--K", "3", "--K", "5"), "--K"),
    (("simulate", "--K", "3", "--p", "0.1", "--p", "0.9"), "--p"),
    (("simulate", "--K", "3", "--K", "5"), "--K"),
    (("verify", "--spins", "0.5,1,1", "--spins", "0.5,0.5,0.5"), "--spins"),
    (("noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0,1", "--grid", "0.5"), "--grid"),
    (("seesaw", "--spins", "0.5,1,1", "--seed", "1", "--seed", "1"), "--seed"),
    (("general-witness", "--spins", "0.5,1,1", "--f-odd", "sign", "--f-odd", "cubic"), "--f-odd"),
    (("noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0:1"), "--grid"),
    (("verify", "--spins", "a,b"), "--spins"),
])
def test_argparse_rejects_bad_values(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert f"argument {flag}" in out.err or f"unrecognized arguments: {flag}" in out.err


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--K", "3", "--subensembles", "1||2,3"), "--subensembles"),
    (("simulate", "--K", "3", "--subensembles", "1|2,3|"), "--subensembles"),
    (("noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0:1:1e-9"), f"limit of {MAX_GRID_POINTS} points"),
    (("noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0:1:1e-320"), f"limit of {MAX_GRID_POINTS} points"),
    (("noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "0:inf:0.1"), "--grid"),
    (("noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", "nan:1:0.1"), "--grid"),
    (("verify", "--spins", "inf"), "half-integer"),
    (("simulate", "--K", "0"), "argument --K"),
    (("table", "--K", "3", str(MAX_TABLE_K + 2)), f"limit of {MAX_TABLE_K}"),
    (("simulate", "--K", "3", "--model", "global", "--p", "0.1,0.1,0.1"), "cannot go with --model global"),
    (("simulate", "--K", "3", "--model", "local"), "--model"),
    (("simulate", "--spins", "0.5,1,1", "--model", "global"), "--model"),
    (("simulate", "--spins", "0.5,1,1", "--p", "0.1,0.2"), "--p takes 1 value or 3"),
    (("simulate", "--spins", "0.5,1,1", "--model", "local", "--p", "0.1,0.2,0.3,0.4"), "--p takes 1 value or 3"),
    (("simulate", "--K", "3", "--subensembles", ""), "--subensembles"),  # ran unsplit
    (("seesaw", "--spins", "1.5"), "at least two particles"),
    (("verify", "--spins", "1e308"), "argument --spins"),  # 2j overflowed: OverflowError, exit 1
])
def test_usage_errors_name_the_input(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_simulate_checks_its_flags_before_building_the_state(capsys, monkeypatch):
    def no_state(*args, **kwargs):
        raise AssertionError("state built before the flags were checked")

    monkeypatch.setattr("spinwitness.cli.ghz_like", no_state)
    monkeypatch.setattr("spinwitness.cli.level_weights", no_state)
    assert run(capsys, "simulate", "--spins", "0.5,1,1", "--subensembles", "1|2")[0] == 2
    assert run(capsys, "simulate", "--spins", "0.5,1,1", "--p", "0.1,0.2")[0] == 2
    assert run(capsys, "simulate", "--spins", "0.5,1,1", "--model", "global", "--p", "0.1,0.2,0.3")[0] == 2
    assert run(capsys, "simulate", "--spins", "0.5,1,1", "--model", "local")[0] == 2


def test_out_to_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_table(K):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "witness_report", no_table)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--K", "3", "--out", str(tmp_path / "missing" / "x.csv")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --out" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_an_empty_out_is_a_usage_error(capsys):
    # an empty --out was accepted and ignored: the table went to stdout, with no manifest
    rc, out, err = run(capsys, "table", "--K", "3", "--out", "")
    assert (rc, out) == (2, "")
    assert "argument --out" in err and "Traceback" not in err


def test_out_whose_manifest_is_a_directory_is_a_usage_error(tmp_path, capsys):
    # the table was written, then the manifest's open raised IsADirectoryError with exit 1
    (tmp_path / "t.csv.manifest.json").mkdir()
    rc, out, err = run(capsys, "table", "--K", "3", "--out", str(tmp_path / "t.csv"))
    assert (rc, out) == (2, "")
    assert "argument --out" in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("dangling", ["t.csv", "t.csv.manifest.json"])
def test_out_through_a_dangling_symlink_is_a_usage_error(tmp_path, capsys, dangling):
    # the directory holding the link was checked, not its target's: open raised FileNotFoundError with exit 1,
    # after writing t.csv when only the manifest's link dangled
    (tmp_path / dangling).symlink_to(tmp_path / "missing" / "x")
    rc, out, err = run(capsys, "table", "--K", "3", "--out", str(tmp_path / "t.csv"))
    assert (rc, out) == (2, "")
    assert "argument --out" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [dangling]


def test_out_whose_manifest_links_to_it_is_a_usage_error(tmp_path, capsys):
    # the manifest was written over the table through the link, with exit 0
    (tmp_path / "t.csv.manifest.json").symlink_to(tmp_path / "t.csv")
    rc, out, err = run(capsys, "table", "--K", "3", "--out", str(tmp_path / "t.csv"))
    assert (rc, out) == (2, "")
    assert "argument --out" in err and not (tmp_path / "t.csv").exists()


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    (tmp_path / "t.csv").symlink_to(tmp_path / "dir" / "x.csv")
    assert run(capsys, "table", "--K", "3", "5", "--out", str(tmp_path / "t.csv"))[0] == 0
    assert (tmp_path / "dir" / "x.csv").read_text() == GOLDEN_TABLE_CSV
    assert (tmp_path / "t.csv.manifest.json").is_file()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_p_list_is_local_noise(capsys, p, seed):
    # one --p value per particle is the local channel, as one value with --model local is
    base = ("simulate", "--spins", "0.5,1,1", "--rounds", "2000", "--seed", str(seed))
    rc, listed, _ = run(capsys, *base, "--p", ",".join([repr(p)] * 3))
    assert rc == 0
    assert listed == run(capsys, *base, "--model", "local", "--p", repr(p))[1]


def test_global_and_local_noise_at_one_p_differ(capsys):
    base = ("simulate", "--spins", "0.5,0.5,0.5", "--rounds", "20000", "--seed", "4")
    assert run(capsys, *base, "--p", "0.2,0.2,0.2")[1] != run(capsys, *base, "--p", "0.2")[1]


def _comma_list_with_a_blank(values, position):
    """values joined by commas, with one blank entry inserted at position (clipped to the list)."""
    entries = [str(v) for v in values]
    entries.insert(min(position, len(entries)), "")
    return ",".join(entries)


@st.composite
def _blank_entry_argv(draw):
    """A valid command with one blank entry inserted in one of its list flags; returns (argv, flag)."""
    flag = draw(st.sampled_from(["--spins", "--grid", "--subensembles", "--p"]))
    position = draw(st.integers(0, 4))
    if flag == "--spins":
        spins = draw(st.lists(st.sampled_from([0.5, 1, 1.5]), min_size=1, max_size=3)
                     .filter(lambda s: int(2 * sum(s)) % 2 == 1))
        return ["verify", "--spins", _comma_list_with_a_blank(spins, position)], flag
    if flag == "--grid":
        grid = draw(st.lists(st.sampled_from([0, 0.1, 0.25, 1]), min_size=1, max_size=4))
        return ["noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", _comma_list_with_a_blank(grid, position)], flag
    if flag == "--p":
        levels = draw(st.sampled_from([1, 3]))
        ps = draw(st.lists(st.sampled_from([0, 0.2, 1]), min_size=levels, max_size=levels))
        return ["simulate", "--K", "3", "--p", _comma_list_with_a_blank(ps, position)], flag
    members = draw(st.permutations([1, 2, 3]))
    cut = draw(st.integers(1, 3))
    groups = [list(members[:cut]), list(members[cut:])] if cut < 3 else [list(members)]
    g = draw(st.integers(0, len(groups)))
    if g == len(groups):  # a blank group
        groups.insert(draw(st.integers(0, len(groups))), [])
    else:
        groups[g].insert(min(position, len(groups[g])), "")
    text = "|".join(",".join(str(i) for i in group) for group in groups)
    return ["simulate", "--K", "3", "--subensembles", text], flag


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_blank_entry_argv())
def test_a_blank_list_entry_is_a_usage_error(capsys, case):
    argv, flag = case
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "seesaw"])
def test_verify_and_seesaw_share_one_verdict(capsys, monkeypatch, command):
    # every value passes on its own, but the spread is 1.0007e-6 > 1e-6
    p_sep = 0.625
    maximize = cli.seesaw_maximize
    calls = []

    def spread_out(*args, **kwargs):
        calls.append(None)
        value = p_sep - 9.998e-7 if len(calls) == 1 else p_sep + 9e-10
        return dataclasses.replace(maximize(*args, **kwargs), best_value=value)

    monkeypatch.setattr(cli, "seesaw_maximize", spread_out)
    rc, out, _ = run(capsys, command, "--spins", "0.5,0.5,0.5", "--restarts", "2")
    assert rc == 1 and len(calls) == 3
    if command == "verify":
        assert ("FAIL  seesaw: 3 bipartitions, max |value - P_sep| 1.00e-06, max bound - P_sep <1e-12, "
                "spread 1.00e-06\n") in out


@pytest.mark.parametrize("command", ["verify", "seesaw"])
def test_an_upper_bound_above_p_sep_fails_both_commands(capsys, monkeypatch, command):
    # every value sits exactly on P_sep, but one bound is 2e-9 above it
    p_sep = 0.625
    maximize = cli.seesaw_maximize
    calls = []

    def loose(*args, **kwargs):
        calls.append(None)
        bound = p_sep + 2e-9 if len(calls) == 2 else p_sep
        return dataclasses.replace(maximize(*args, **kwargs), best_value=p_sep, upper_bound=bound)

    monkeypatch.setattr(cli, "seesaw_maximize", loose)
    rc, out, _ = run(capsys, command, "--spins", "0.5,0.5,0.5", "--restarts", "2")
    assert rc == 1 and len(calls) == 3
    if command == "verify":
        assert ("FAIL  seesaw: 3 bipartitions, max |value - P_sep| <1e-12, max bound - P_sep 2.00e-09, "
                "spread <1e-12\n") in out
    else:
        assert [row["upper_bound"] for row in json.loads(out)["rows"]] == [p_sep, round(p_sep + 2e-9, 12), p_sep]


@pytest.mark.parametrize("command", ["verify", "seesaw"])
def test_a_less_entangled_positive_factor_fails_the_seesaw_line(capsys, monkeypatch, command):
    # Q = 1/2 + (1/4)(|P'><P'| - |P-><P-|) with P' = |+> (x) (|00> + |11>)/sqrt(2): P' is orthogonal
    # to P- = (|000> - |111>)/sqrt(2) and a product across 1|2,3, so that split reaches P_max = 3/4
    def product_factor(ensemble):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        p_prime = np.kron(np.array([1, 1]) / np.sqrt(2), bell)
        p_minus = np.zeros(8)
        p_minus[[0, -1]] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        q = np.eye(8) / 2 + (np.outer(p_prime, p_prime) - np.outer(p_minus, p_minus)) / 4
        return dataclasses.replace(cli.build_qk_closed_form(ensemble), Q=q.astype(complex))

    monkeypatch.setattr(cli, "build_qk_direct", product_factor)
    rc, out, _ = run(capsys, command, "--spins", "0.5,0.5,0.5", "--restarts", "8")
    assert rc == 1
    if command == "verify":
        assert "FAIL  seesaw: 3 bipartitions, max |value - P_sep| 1.25e-01, max bound - P_sep 1.25e-01" in out
    else:
        bounds = {row["bipartition"]: row["upper_bound"] for row in json.loads(out)["rows"]}
        assert bounds == {"1|2,3": 0.75, "1,2|3": 0.625, "1,3|2": 0.625}


DECIMALS = st.integers(0, 100).map(lambda n: n / 100)


@st.composite
def grid_ranges(draw):
    """start:stop:step inside [0, 1] with fewer than MAX_GRID_POINTS points: floats, decimals and ranges from 0."""
    start = draw(st.sampled_from([0.0]) | DECIMALS | st.floats(0, 1))
    stop = draw(DECIMALS.filter(lambda x: x >= start) | st.floats(start, 1))
    step = draw(DECIMALS.filter(lambda x: x > 0) | st.floats(max(1e-4, (stop - start) / 5000), 1))
    return start, stop, step


@settings(max_examples=300, deadline=None)
@given(grid_ranges())
@example((0.0, 0.5, 0.3))  # the parent printed a row at p = 0.6, above stop
@example((0.3, 1.0, 0.1))  # its last point read 1.0000000000000002 and exited 2
@example((0.0, 1.0, 0.15))  # np.arange's point 1.05 made it exit 2
@example((0.05, 0.95, 0.15))  # the parent's last point, 0.95000000000000018, lay above stop
@example((0.5, 0.5, 1e-320))
def test_grid_range_points_are_start_plus_i_step_up_to_stop(rng):
    start, stop, step = rng
    values = _grid(f"{start!r}:{stop!r}:{step!r}")
    assert all(start <= p <= stop for p in values)
    np.testing.assert_allclose(np.diff(values), step, rtol=1e-9, atol=1e-15)
    assert stop - values[-1] < step
    if start == 0:  # ranges from 0 keep np.arange's points; those past the returned ones lie above stop
        points = [float(p) for p in np.arange(0, stop + step / 2, step)]
        assert values == [min(p, stop) for p in points[:len(values)]]
        assert all(p > stop for p in points[len(values):])


@pytest.mark.parametrize("text, count, last", [("0:0.5:0.3", 2, 0.3), ("0.3:1:0.1", 8, 1.0), ("0:1:0.15", 7, 0.9)])
def test_noise_sweep_range_ends_at_or_below_stop(capsys, text, count, last):
    rc, out, _ = run(capsys, "noise-sweep", "--spins", "0.5,0.5,0.5", "--grid", text)
    assert rc == 0
    _, *rows = out.strip().splitlines()
    assert len(rows) == count and abs(float(rows[-1].split(",")[0]) - last) < 1e-15


def test_grid_limit_counts_points_before_allocating():
    assert len(_grid("0:1:1e-4")) == MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError, match="limit"):
        _grid("0:1:0.99e-4")


def test_library_errors_propagate(monkeypatch):
    def broken(K):
        raise ValueError("library fault")

    monkeypatch.setattr("spinwitness.cli.witness_report", broken)
    with pytest.raises(ValueError, match="library fault"):
        main(["table", "--K", "3"])


def test_simulate_detects_at_a_large_phi(capsys):
    # phase_for_ghz divided phi by K before reducing it, so the offset lost the phase: p_hat read 0.309
    rc, out, _ = run(capsys, "simulate", "--K", "3", "--rounds", "100000", "--phi", "1e17")
    assert rc == 0
    assert json.loads(out)["verdict"] == "GME-detected"


def test_simulate_prints_strict_json_at_the_largest_phi(capsys):
    def not_json(constant):
        raise AssertionError(f"{constant} is not JSON")

    rc, out, _ = run(capsys, "simulate", "--K", "3", "--phi", "1e308", "--rounds", "100")
    assert rc == 0
    assert 0 <= json.loads(out, parse_constant=not_json)["theta_offset"] < 2.1
