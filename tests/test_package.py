"""The package's public surface: what `spinwitness` exports is what its commands and demos run."""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinwitness
import spinwitness.protocol
from spinwitness import (
    Bipartition,
    NoiseModel,
    QuantumState,
    SpinEnsemble,
    WitnessOperator,
    assert_hermitian,
    binomial_exact,
    build_qk_closed_form,
    build_qk_direct,
    classical_score,
    classical_sweep_max,
    generalized_witness,
    ghz_like,
    phase_for_ghz,
    product_state,
    random_ket,
    rounds_needed,
    run_protocol,
    seesaw_maximize,
    spin_matrices,
    time_schedule,
    wilson_interval,
    witness_report,
)
from spinwitness.spin import direction_phases

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# Dense references the tests compare against and a sampler identical to `run_protocol`: not exported.
NOT_EXPORTED = (
    "collective_operator",
    "CollectiveOperator",
    "direction_operator",
    "rotate_about_z",
    "pos_operator",
    "ZERO_EIGENVALUE_TOL",
    "run_protocol_subensembles",
)


def test_every_exported_name_resolves():
    assert all(hasattr(spinwitness, name) for name in spinwitness.__all__)


def test_test_only_references_are_not_exported():
    assert [name for name in NOT_EXPORTED if hasattr(spinwitness, name)] == []
    assert set(NOT_EXPORTED).isdisjoint(spinwitness.__all__)


def test_no_module_imports_inside_a_function():
    # rotate_about_z imported assert_hermitian at call time, around a spin <-> linalg import cycle
    functions = [(path.name, node) for path in sorted((ROOT / "src" / "spinwitness").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert len(functions) > 100
    assert [f"{name}:{f.name}" for name, f in functions
            if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(f))] == []


def test_protocol_runs_take_their_values_directly():
    # run_protocol(state, rounds, seed, theta_offset): no bundle of the four values, under any name
    assert [name for name in dir(spinwitness) if name.endswith("Config")] == []
    assert [name for name in dir(spinwitness.protocol) if name.endswith("Config")] == []


def test_the_ci_workflow_parses_and_every_step_does_something():
    # a plain `run:` scalar holding ': ' once made the whole workflow invalid YAML
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    assert [step for step in steps if ("run" in step) == ("uses" in step)] == []


E3 = SpinEnsemble((0.5, 1, 1))
ANGLES = st.fractions(-10**6, 10**6, max_denominator=10**6)

# Every public real-valued argument: (the name its errors give, the call on one value, valid values as Fractions).
# Each call returns arrays, floats or ints, so that two results can be compared bit for bit.
REAL_ARGUMENTS = {
    "SpinEnsemble spins": ("spin", lambda x: SpinEnsemble((x, x, 0.5)).spins,
                           st.integers(1, 6).map(lambda n: Fraction(n, 2))),
    "spin_matrices j": ("spin", spin_matrices, st.integers(0, 8).map(lambda n: Fraction(n, 2))),
    "direction_phases theta_offset": ("theta_offset", lambda x: direction_phases(E3, x), ANGLES),
    "build_qk_direct theta_offset": ("theta_offset", lambda x: build_qk_direct(E3, x).Q, ANGLES),
    "build_qk_closed_form theta_offset": ("theta_offset", lambda x: build_qk_closed_form(E3, x).Q, ANGLES),
    "run_protocol theta_offset": ("theta_offset", lambda x: run_protocol(ghz_like(E3), 1000, 0, x), ANGLES),
    "phase_for_ghz phi": ("phi", lambda x: phase_for_ghz(x, 3), ANGLES),
    "ghz_like phi": ("phi", lambda x: ghz_like(E3, x).ket, ANGLES),
    "classical_score phi0": ("phi0", lambda x: classical_score(3, x), ANGLES),
    "generalized_witness f0": ("f0", lambda x: generalized_witness(E3, x, np.sign), ANGLES),
    "time_schedule omega": ("omega", lambda x: time_schedule(3, x), st.fractions(Fraction(1, 1000), 10**6)),
    "rounds_needed power_margin": ("power_margin", lambda x: rounds_needed(3, x),
                                   st.fractions(Fraction(1, 100), Fraction(99, 100))),
    "NoiseModel p_global": ("p_global", lambda x: NoiseModel(p_global=x).p_global, st.fractions(0, 1)),
    "NoiseModel p_locals": ("p_locals[0]", lambda x: NoiseModel(p_locals=(x, 0.5)).p_locals, st.fractions(0, 1)),
}

# float() took the string and True (a True spin built a spin-1); None and the non-finite values failed unevenly;
# an int or Fraction beyond the float range raised OverflowError
NOT_FINITE_REALS = (True, "0.5", None, math.nan, math.inf, 10**400, -10**400, Fraction(10**400, 3))

REAL_TYPES = {"int": int, "float": float, "np.float64": np.float64, "Fraction": lambda f: f}


def _bits(value):
    """A value reduced to what two bitwise-equal results share: dtype and bytes of arrays, hex of floats."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return type(value), value.hex()
    if isinstance(value, (tuple, list)):  # NamedTuples included: entry by entry
        return type(value), tuple(map(_bits, value))
    if hasattr(value, "__dataclass_fields__"):
        return type(value), tuple(_bits(getattr(value, name)) for name in value.__dataclass_fields__)
    return type(value), value


def test_bits_tells_results_apart():
    assert _bits(0.0) != _bits(-0.0) and _bits(np.zeros(2)) != _bits(np.zeros(2, dtype=complex))
    assert _bits((1, 0.5)) != _bits((1.0, 0.5))


@pytest.mark.parametrize("argument", sorted(REAL_ARGUMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_real_argument_takes_one_rule(argument, data):
    name, call, valid = REAL_ARGUMENTS[argument]
    for bad in NOT_FINITE_REALS:
        with pytest.raises(ValueError, match=re.escape(name)):
            call(bad)
    value = data.draw(valid, label="value")
    for type_name, convert in REAL_TYPES.items():
        if type_name != "int" or value.denominator == 1:
            x = convert(value)
            assert _bits(call(x)) == _bits(call(float(x))), type_name


def _gap_witness(ensemble, seed):
    """A random rank-6 witness on which restart 0 ends below the Schmidt bound, so that the seed is read."""
    rng = np.random.default_rng(seed)
    p, _ = np.linalg.qr(rng.standard_normal((ensemble.dim, 6)) + 1j * rng.standard_normal((ensemble.dim, 6)))
    q = np.eye(ensemble.dim) / 2 + (p * rng.uniform(0, 0.5, 6)) @ p.conj().T
    return WitnessOperator(ensemble, (q + q.conj().T) / 2)


GAP3 = _gap_witness(E3, 57)
CUT3 = Bipartition(E3, (0,))
ODD_K = st.integers(0, 15).map(lambda n: 2 * n + 1)
SEEDS = st.integers(0, 2**128 - 1)

# Every public integer argument: (the name its errors give, the call on one value, valid values, the least valid
# value, the least value above the range or None).  Each call returns values `_bits` can compare bit for bit.
INTEGER_ARGUMENTS = {
    "witness_report K": ("K", witness_report, ODD_K, 1, None),
    "phase_for_ghz K": ("K", lambda k: phase_for_ghz(0.3, k), ODD_K, 1, None),
    "classical_score K": ("K", lambda k: classical_score(k, 0.3), ODD_K, 1, None),
    "classical_sweep_max K": ("K", classical_sweep_max, ODD_K, 1, None),
    "time_schedule K": ("K", lambda k: time_schedule(k, 2.0), ODD_K, 1, None),
    "rounds_needed K": ("K", lambda k: rounds_needed(k, 0.5), ODD_K, 1, None),
    "seesaw_maximize seed": ("seed", lambda s: seesaw_maximize(GAP3, CUT3, restarts=3, seed=s), SEEDS, 0, 2**128),
    "seesaw_maximize restarts": ("restarts", lambda r: seesaw_maximize(GAP3, CUT3, restarts=r, seed=1),
                                 st.integers(1, 4), 1, 2**63),
    "run_protocol seed": ("seed", lambda s: run_protocol(ghz_like(E3), 1000, s), SEEDS, 0, 2**128),
    "run_protocol rounds": ("rounds", lambda r: run_protocol(ghz_like(E3), r, 0), st.integers(1, 2**63 - 1), 1, 2**63),
    "random_ket seed": ("seed", lambda s: random_ket(E3, s).ket, SEEDS, 0, 2**128),
    "wilson_interval positives": ("positives", lambda x: wilson_interval(x, 100), st.integers(0, 100), 0, 101),
    "wilson_interval trials": ("trials", lambda t: wilson_interval(0, t), st.integers(1, 2**63 - 1), 1, None),
    "Bipartition index": ("particle index", lambda i: Bipartition(E3, (0, i)).subset_J, st.integers(0, 2), 0, 3),
    "binomial_exact n": ("n", lambda n: binomial_exact(n, 2), st.integers(2, 10**4), 0, None),
    "binomial_exact k": ("k", lambda k: binomial_exact(100, k), st.integers(0, 100), 0, 101),
}

# True drew as seed 1 in random_ket and counted as n = 1 in binomial_exact; 2.0 and "3" ended in numpy's or math's
# TypeError; a restart count at 2^63 passed its own check and failed inside itertools.islice
NOT_INTEGERS = (True, 2.0, "3", None)


@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_integer_argument_takes_one_rule(argument, data):
    name, call, valid, low, over = INTEGER_ARGUMENTS[argument]
    for bad in NOT_INTEGERS + (low - 1,) + (() if over is None else (over,)):
        with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
            call(bad)
    value = data.draw(valid, label="value")
    result = call(value)
    if value < 2**63:
        assert _bits(call(np.int64(value))) == _bits(result)


def test_the_gap_witness_reads_the_seed():
    # else the seed rows above would compare two runs that never draw
    runs = [seesaw_maximize(GAP3, CUT3, restarts=3, seed=seed) for seed in (1, 2)]
    assert [r.restarts_run for r in runs] == [3, 3]
    assert _bits(runs[0]) != _bits(runs[1])


def _unit(d):
    """Real unit vectors of length d: a signed basis vector (integer entries) or a normalized small-integer vector.

    No entry is -0.0, which an integer form cannot hold (so neither do the rho rows' outer products, + 0.0).
    """
    basis = st.tuples(st.integers(0, d - 1), st.sampled_from([1, -1])).map(lambda t: np.eye(d)[t[0]] * t[1] + 0.0)
    spread = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any).map(lambda v: np.array(v) / np.linalg.norm(v))
    return basis | spread


def _symmetric(d):
    """Real symmetric d x d matrices of halves of small integers, integer-valued about as often as not."""
    return st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d).map(
        lambda v: (np.reshape(v, (d, d)) + np.reshape(v, (d, d)).T) / 2)


def _product_ket(n):
    """product_state's ket with local ket n replaced by x and every other local ket |j, j>."""
    return lambda x: product_state(E3, [x if i == n else np.eye(d)[0] for i, d in enumerate(E3.local_dims)]).ket


_F_POINTS = (0.0, *(E3.K / 2 - np.arange(E3.K + 1.0)))


def _f_witness(values):
    """generalized_witness with the f_odd that returns values[i] at the i-th point it is evaluated on."""
    return generalized_witness(E3, 0.5, dict(zip(_F_POINTS, values)).__getitem__)


# Every public array argument: (the name its errors give, the call on one array, valid arrays as float64, the rule).
# Under the array rule the entries are integers, floats or complex numbers; the values of f follow the real rule, in
# which a Fraction is a real number and a complex number is not.
ARRAY_ARGUMENTS = {
    "QuantumState ket": ("ket", lambda x: QuantumState(E3, ket=x).ket, _unit(E3.dim), "array"),
    "QuantumState rho": ("matrix", lambda x: QuantumState(E3, rho=x).rho,
                         _unit(E3.dim).map(lambda v: np.outer(v, v) + 0.0), "array"),
    "WitnessOperator Q": ("matrix", lambda x: WitnessOperator(E3, x).Q, _symmetric(E3.dim), "array"),
    "assert_hermitian matrix": ("matrix", assert_hermitian, _symmetric(3), "array"),
    **{f"product_state local ket {n}": (f"local ket {n}", _product_ket(n), _unit(d), "array")
       for n, d in enumerate(E3.local_dims)},
    "generalized_witness f_odd values": ("f_odd", _f_witness, st.lists(
        st.fractions(-5, 5, max_denominator=8), min_size=3, max_size=3).map(
        lambda h: np.array([0, *h, *(-x for x in reversed(h))], dtype=float)), "real"),
}


def _with_last(a, value):
    b = a.astype(np.result_type(a, value))
    b.flat[-1] = value
    return b


def _ragged(a):
    rows = a.tolist()
    rows[-1] = rows[-1][:-1] if a.ndim > 1 else [rows[-1], rows[-1]]
    return rows


# np.isfinite raised numpy's TypeError on string and object arrays; bool arrays were read as 0 and 1, and
# product_state and assert_hermitian parsed string arrays into numbers
NOT_NUMBER_ARRAYS = {
    "bool": lambda a: a != 0,
    "string": lambda a: a.astype(str),
    "None": lambda a: _with_last(a.astype(object), None),
    "Fraction": lambda a: np.array([Fraction(x) for x in a.flat], dtype=object).reshape(a.shape),
    "ragged": _ragged,
    "nan": lambda a: _with_last(a, math.nan),
    "inf": lambda a: _with_last(a, math.inf),
    "-inf": lambda a: _with_last(a, -math.inf),
    "complex nan": lambda a: _with_last(a, complex(0, math.nan)),
}

ARRAY_FORMS = {"int": lambda a: a.astype(np.int64).tolist(), "float": lambda a: a,
               "complex": lambda a: a.astype(complex).tolist()}
VALUE_FORMS = {"int": lambda a: [int(x) for x in a], "float": lambda a: a.tolist(), "np.float64": list,
               "Fraction": lambda a: [Fraction(x) for x in a]}


@pytest.mark.parametrize("argument", sorted(ARRAY_ARGUMENTS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_array_argument_takes_one_rule(argument, data):
    name, call, valid, rule = ARRAY_ARGUMENTS[argument]
    a = data.draw(valid, label="array")
    bad, forms, reference = dict(NOT_NUMBER_ARRAYS), ARRAY_FORMS, a.astype(complex)
    if rule == "real":
        del bad["Fraction"]
        bad["complex"] = lambda a: a.astype(complex)
        forms, reference = VALUE_FORMS, a.tolist()
    for label, make in bad.items():
        with pytest.raises(ValueError, match=re.escape(name)):
            call(make(a))
    expected = _bits(call(reference))
    for label, form in forms.items():
        if label != "int" or np.array_equal(a, np.round(a)):
            assert _bits(call(form(a))) == expected, label
