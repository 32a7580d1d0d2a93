"""Command-line front end.

Subcommands
    table           exact bound table for a list of odd K
    verify          run the full self-verification suite on one ensemble
    noise-sweep     closed form vs brute-force channel across a noise grid
    simulate        Monte-Carlo protocol run with a detection verdict
    seesaw          product-state maximization over every bipartition
    general-witness odd-function witness coupling and separable bound

Every command is deterministic given its flags (seeds included).  Rational
quantities are printed both as "num/den" strings and as 17-significant-digit
floats; table, noise-sweep, seesaw and general-witness take --format csv|json.
When --out is given, a sibling <out>.manifest.json records the command, the
parsed parameters, package version, timestamp, and output checksum.  simulate
--p takes one noise level (global, or local with --model local) or one level
per particle (local).  Exit codes: 0 pass, 1 verification failure, 2 bad
command-line value, a blank comma-list entry or a repeated flag included (all
are checked before any computation; an error from inside the library is a bug
and raises).  Each flag's own text is checked by its argparse type, so the
error names the flag; UsageError is left to the checks that read a second flag
or the ensemble.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .noise import NoiseModel, _depolarize, apply_depolarizing, depolarize_table, noisy_score
from .protocol import _positive_mass, _sample_signs, outcome_table
from .seesaw import enumerate_bipartitions, seesaw_maximize
from .spin import ROUND_LIMIT, SEED_LIMIT, SpinEnsemble, _max_over_row_blocks, _reduced_angle, level_weights
from .states import ghz_like, product_state
from .witness import (
    _detected_phi,
    build_qk_closed_form,
    build_qk_direct,
    generalized_witness,
    phase_for_ghz,
    score,
    witness_report,
)

SCHEMA_VERSION = 1

# Largest ensemble dimension a dense command accepts: verify, seesaw and noise-sweep hold a dense dim x dim matrix
# (64 MiB at 2048).  General-witness reads K alone but keeps the cap; ROADMAP item 7's "Caps" step lifts it.
# simulate holds nothing of size dim, so it takes no ensemble cap, only this one on each particle's dimension:
# a particle's Jx is eigensolved densely.
MAX_DIM = 2048

# Most points a noise-sweep grid may have; each point runs one dense channel.
MAX_GRID_POINTS = 10_001

# Most see-saw restarts per bipartition: a cap on time alone, since each restart draws its start kets as it runs.
MAX_RESTARTS = 1024
RESTARTS_HELP = ("see-saw restarts per bipartition: at most this many; stops at the first restart "
                 "within 1e-10 of the Schmidt bound")

# Largest K whose exact table row prints: above it a numerator or denominator
# has more than 4300 digits, Python's default limit on int-to-str conversion.
MAX_TABLE_K = 14_291


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _checked(parse, ok, what):
    """An argparse type: text that does not parse, or parses to a value failing ok, exits 2 naming the flag."""

    def convert(text):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return convert


_restarts = _checked(int, lambda n: 1 <= n <= MAX_RESTARTS, f"an integer in [1, {MAX_RESTARTS}]")
_rounds = _checked(int, lambda n: 1 <= n < ROUND_LIMIT, "an integer in [1, 2^63)")
_seed = _checked(int, lambda n: 0 <= n < SEED_LIMIT, "an integer in [0, 2^128)")
_finite = _checked(float, math.isfinite, "a finite number")
_probability_list = _checked(lambda text: [float(p) for p in text.split(",")], lambda ps: all(0 <= p <= 1 for p in ps),
                             "a comma-separated list of probabilities in [0, 1]")


# The namespace attribute where `_Once` notes the flags a parse has seen; `main` drops it.
_SEEN = "_flags_seen"


class _Once(argparse.Action):
    """argparse's default store action, except that a repeated flag exits 2 naming the flag.

    Plain store keeps only the last value of a repeated flag, so `table --K 3 --K 5` printed
    one row.  The seen flags live on the parse's namespace, not on the action, so a parser
    can parse more than once.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        seen = vars(namespace).setdefault(_SEEN, set())
        if self.dest in seen:
            raise argparse.ArgumentError(self, "given more than once")
        seen.add(self.dest)
        setattr(namespace, self.dest, values)


def _odd_k(limit: int, why: str):
    """An argparse type for K: a positive odd integer up to limit."""
    return _checked(int, lambda k: 1 <= k <= limit and k % 2 == 1,
                    f"a positive odd integer up to the limit of {limit} {why}")


def _writable(path: str) -> bool:
    """A nonempty path whose file and sibling manifest resolve (symlinks followed, as the writes follow them) to two
    paths, each in an existing, writable directory and, if present, a writable file."""
    def ok(real: str) -> bool:
        parent = os.path.dirname(real)
        return (os.path.isdir(parent) and os.access(parent, os.W_OK)
                and (not os.path.lexists(real) or os.path.isfile(real) and os.access(real, os.W_OK)))

    reals = {os.path.realpath(p) for p in (path, path + ".manifest.json")}
    return path != "" and len(reals) == 2 and all(map(ok, reals))


_exact_k = _odd_k(MAX_TABLE_K, "for exact printing")

_out_path = _checked(str, _writable, "a file path in an existing, writable directory, with nothing but a "
                                     "writable file at it and at its .manifest.json, two files once symlinks "
                                     "are followed")


def _spins(max_dim: int | None):
    """An argparse type: the spins of a valid ensemble of dimension at most max_dim (None: any dimension).

    Every ensemble also has K at most MAX_TABLE_K, since each command prints an exact P_sep, and particles of
    dimension at most MAX_DIM; a dimension of at most MAX_DIM implies both.
    """

    def convert(text: str) -> tuple[float, ...]:
        try:
            spins = [float(part) for part in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected e.g. '0.5,0.5,0.5'")
        try:
            ensemble = SpinEnsemble(spins)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if max_dim is not None and (dim := ensemble.dim) > max_dim:
            shown = dim if dim < 2**64 else "above 2^64"  # 2^14291 has more digits than an int may print
            raise argparse.ArgumentTypeError(f"ensemble dimension {shown} exceeds the dense limit of {max_dim}")
        if ensemble.K > MAX_TABLE_K:
            raise argparse.ArgumentTypeError(f"K = {ensemble.K} exceeds the limit of {MAX_TABLE_K} for exact printing")
        if max(ensemble.local_dims) > MAX_DIM:
            raise argparse.ArgumentTypeError(f"particle dimension {max(ensemble.local_dims)} exceeds the limit of "
                                             f"{MAX_DIM} for one particle's eigensolve")
        return ensemble.spins

    return convert


def _grid(text: str) -> list[float]:
    """An argparse type: comma-separated values, or start:stop:step for start + i step up to stop, a last point
    within rounding (1e-9 step) of stop reading stop; one or more values, each in [0, 1]."""
    ranged = ":" in text
    try:
        values = [float(p) for p in text.split(":" if ranged else ",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}")
    if ranged:
        if len(values) != 3:
            raise argparse.ArgumentTypeError(f"{text!r} must be start:stop:step or comma-separated values")
        start, stop, step = values
        if not all(map(math.isfinite, values)) or step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("a range needs finite values, step > 0 and stop >= start")
        span = (stop - start) / step + 1e-9
        if span >= MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(f"{text!r} has more than the limit of {MAX_GRID_POINTS} points")
        values = [min(start + i * step, stop) for i in range(math.floor(span) + 1)]
    if not values or not all(0 <= p <= 1 for p in values):
        raise argparse.ArgumentTypeError(f"{text!r} must give one or more values, each in [0, 1]")
    return values


_dense_spins = _spins(MAX_DIM)


# --subensembles: groups of 1-based particle numbers split by '|', parsed to sorted 0-based groups
_groups = _checked(lambda text: tuple(tuple(sorted(int(p) - 1 for p in g.split(","))) for g in text.split("|")),
                   lambda groups: all(i >= 0 for group in groups for i in group),
                   "groups of particles numbered from 1, split by '|', e.g. '1|2,3'")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit(args, obj=None, header=None, *, text=None) -> None:
    """Write text, or obj as JSON after the schema and command, or as CSV: header, then obj["rows"] (or obj)."""
    if text is not None:
        payload = text
    elif getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(row.get(name)) for name in header] for row in obj.get("rows", [obj]))
        payload = buf.getvalue()
    else:
        payload = json.dumps({"schema": SCHEMA_VERSION, "command": args.command, **obj}, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        manifest = {
            "command": args.command,
            "params": {
                k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out") and v is not None
            },
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        }
        with open(str(out) + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")
    else:
        sys.stdout.write(payload)


_BOUNDS = ("P_max", "P_sep", "P_classical", "gap")


def cmd_table(args) -> int:
    rows = []
    for k in args.K:
        rep, row = witness_report(k), {"K": k}
        for name in _BOUNDS:
            row[name], row[f"{name}_float"] = _frac(getattr(rep, name)), float(getattr(rep, name))
        rows.append(row)
    header = ["K", *(f"{name}{suffix}" for name in _BOUNDS for suffix in ("", "_float"))]
    _emit(args, {"rows": rows}, header)
    return 0


def _uniform_model(kind: str, p: float, n: int) -> NoiseModel:
    """The global channel at p, or one local channel at p on each of n particles."""
    return NoiseModel(p_global=p) if kind == "global" else NoiseModel(p_locals=(p,) * n)


def _deviation(x: float) -> str:
    """A check's deviation for the verify report; rounding noise prints as one stable token."""
    return "<1e-12" if x < 1e-12 else f"{x:.2e}"


def _seesaw_sweep(witness, p_sep: float, restarts: int, seed: int):
    """See-saw every bipartition; return results, verdict, max |value - P_sep|, max bound - P_sep, spread.

    The verdict passes if every value is within 1e-6 of P_sep and at most 1e-9
    above it, no upper bound is more than 1e-9 above P_sep, and the spread is
    below 1e-6.
    """
    results = [seesaw_maximize(witness, bip, restarts=restarts, seed=seed)
               for bip in enumerate_bipartitions(witness.ensemble)]
    values = [r.best_value for r in results]
    deviation = max(abs(v - p_sep) for v in values)
    excess = max(r.upper_bound for r in results) - p_sep
    spread = max(values) - min(values)
    passed = deviation < 1e-6 and max(values) - p_sep <= 1e-9 and excess <= 1e-9 and spread < 1e-6
    return results, passed, deviation, excess, spread


def _verify_checks(ensemble: SpinEnsemble, restarts: int, seed: int) -> list[tuple[str, bool, str]]:
    """verify's five (name, passed, detail) lines, each comparing independent routes to one number.

    cross-construction: the direct Q against the closed form.  spectrum: the
    direct witness's factors against +-(P_max - 1/2).  symmetry: exact maps on
    the direct Q.  seesaw: every bipartition's see-saw value and Schmidt bound
    against P_sep.  noise-closed-form: `noisy_score` against the detected GHZ
    ket's outcome table under each model's stochastic map, at five p per
    model in one channel call, and each slot's outcome marginal of a product
    probe under unequal local noise against the one-slot channel's closed
    form.  No line builds or validates a density matrix, and the deviations
    of the dense Q are reduced block by block (`_max_over_row_blocks`), so
    the direct Q and one scratch buffer are the largest arrays held.
    """
    checks = []
    rep = witness_report(ensemble.K)

    direct, closed = build_qk_direct(ensemble), build_qk_closed_form(ensemble).Q
    dev = _max_over_row_blocks(lambda rows: direct.Q[rows] - closed[rows], ensemble.dim)
    del closed  # freed before the factors form their dim x dim remainder
    checks.append(("cross-construction", dev < 1e-10, f"max entry deviation {_deviation(dev)}"))

    # Q - 1/2 is the factored part plus a remainder of norm <= residual, so by Weyl's inequality
    # each sorted eigenvalue of Q is within residual of 1/2 or of 1/2 + one factor value: this
    # bounds max |eig(Q) - (1 - P_max, 1/2, ..., 1/2, P_max)| with no dense eigensolve.
    _, values, residual = direct.factors
    lam = float(rep.P_max - Fraction(1, 2))
    spec_dev = float(np.abs(np.sort(values) - [-lam, lam]).max()) + residual if len(values) == 2 else math.inf
    checks.append(("spectrum", spec_dev < 1e-10, f"eigenvalue deviation {_deviation(spec_dev)}"))

    # Exact maps: exp(-i pi Jx) is a phase times the basis reversal, the z-rotation a phase diagonal.
    q, ph = direct.Q, np.exp(-2j * np.pi / ensemble.K * ensemble.jz_diagonal)
    sym_x = _max_over_row_blocks(lambda rows: q[::-1, ::-1][rows] - q[rows], ensemble.dim)
    sym_z = _max_over_row_blocks(lambda rows: q[rows] * np.outer(ph[rows], ph.conj()) - q[rows], ensemble.dim)
    detail = f"pi-about-x {_deviation(sym_x)}, 2pi/K-about-z {_deviation(sym_z)}"
    checks.append(("symmetry", max(sym_x, sym_z) < 1e-10, detail))

    if ensemble.N >= 2:
        results, passed, deviation, excess, spread = _seesaw_sweep(direct, float(rep.P_sep), restarts, seed)
        detail = (f"{len(results)} bipartitions, max |value - P_sep| {_deviation(deviation)}, "
                  f"max bound - P_sep {_deviation(excess)}, spread {_deviation(spread)}")
        checks.append(("seesaw", passed, detail))
    else:
        checks.append(("seesaw", True, "single particle: no bipartitions to check"))

    # The witness reads a state only through the Jx outcome probabilities along its K directions, and
    # depolarizing commutes with the local rotations and measurements, so each noisy score is the
    # detected GHZ ket's outcome table under the model's stochastic map: no density matrix is built.
    # The table is stacked once per level, and one channel call per kind maps every row at its own level.
    table = outcome_table(ghz_like(ensemble, phi=_detected_phi(ensemble.K)))
    levels = (0.0, 0.1, 0.25, 0.5, 0.9)
    stack, column = np.broadcast_to(table, (len(levels), *table.shape)), np.array(levels)[:, None]
    worst = 0.0
    for kind in ("global", "local"):
        noisy = _depolarize(stack, column if kind == "global" else (column,) * ensemble.N, ensemble.N)
        for p, table_score in zip(levels, _positive_mass(noisy, ensemble).sum(axis=-1) / ensemble.K):
            worst = max(worst, abs(noisy_score(ensemble, _uniform_model(kind, p, ensemble.N)) - float(table_score)))
    # A score cannot tell which slot a local channel hit: depolarizing slot n at p_n maps any score s to
    # (1 - p_n) s + p_n/2 whatever n is.  A slot's outcome marginal can: under the channel it must become
    # (1 - p_n) marginal + p_n/d_n.  The probe is a product of Jx eigenstates, whose marginals along the
    # K directions are not uniform, and the levels p_n are unequal, so a channel on the wrong slot shows.
    probe = outcome_table(product_state(ensemble, [v[:, 0] for v in ensemble.jx_eigenbases]))
    ps = tuple((n + 1) / (ensemble.N + 2) for n in range(ensemble.N))
    noisy = depolarize_table(probe, NoiseModel(p_locals=ps))
    for n, (p, d) in enumerate(zip(ps, ensemble.local_dims)):
        others = tuple(axis for axis in range(1, ensemble.N + 1) if axis != n + 1)
        want = (1 - p) * probe.sum(axis=others) + p / d
        worst = max(worst, float(np.abs(noisy.sum(axis=others) - want).max()))
    checks.append(("noise-closed-form", worst < 1e-10, f"max closed-form vs channel deviation {_deviation(worst)}"))
    return checks


def cmd_verify(args) -> int:
    ensemble = SpinEnsemble(args.spins)
    checks = _verify_checks(ensemble, args.restarts, args.seed)
    lines = [f"ensemble {','.join(_fmt(j) for j in ensemble.spins)}  K={ensemble.K}  dim={ensemble.dim}"]
    for name, passed, detail in checks:
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    all_pass = all(p for _, p, _ in checks)
    lines.append("all checks passed" if all_pass else "verification FAILED")
    _emit(args, text="\n".join(lines) + "\n")
    return 0 if all_pass else 1


def cmd_noise_sweep(args) -> int:
    ensemble = SpinEnsemble(args.spins)
    rep = witness_report(ensemble.K)
    witness, state = build_qk_direct(ensemble), ghz_like(ensemble, phi=_detected_phi(ensemble.K))
    rows = []
    for p in args.grid:  # the dense channel, scored against the direct witness: the brute-force reference
        model = _uniform_model(args.model, p, ensemble.N)
        closed = noisy_score(ensemble, model)
        rows.append({"p": p, "closed_form_score": closed,
                     "brute_force_score": score(apply_depolarizing(state, model), witness),
                     "detected": bool(closed > float(rep.P_sep))})
    _emit(args, {"model": args.model, "spins": list(ensemble.spins), "sep_bound": _frac(rep.P_sep), "rows": rows},
          ["p", "closed_form_score", "brute_force_score", "detected"])
    return 0


def cmd_simulate(args) -> int:
    ensemble = SpinEnsemble(args.spins or (0.5,) * args.K)
    if args.model is not None and args.p is None:
        raise UsageError(f"--model {args.model} needs a noise level: give --p")
    if args.subensembles is not None and sorted(i for g in args.subensembles for i in g) != list(range(ensemble.N)):
        raise UsageError(f"--subensembles do not partition particles 1..{ensemble.N}")
    if args.p is not None and len(args.p) not in (1, ensemble.N):
        raise UsageError(f"--p takes 1 value or {ensemble.N} (one per particle), got {len(args.p)}")
    if args.p is not None and len(args.p) > 1 and args.model == "global":
        raise UsageError("--p with one value per particle sets local noise and cannot go with --model global")
    K = ensemble.K
    phi = args.phi if args.phi is not None else _detected_phi(K)
    theta = phase_for_ghz(phi, K)
    # Only the |up><down| corner of a GHZ-like state moves a direction's positive probability, by
    # <up| pos(J_k) |down> = S e^{-i K a_k}, S the sum of the level weights over M > 0; the rest scores 1/2.
    # Noise scales the corner by the model's survival, and the mixture has none.  K a_k = 2 pi k + K theta, so
    # every direction has q = 1/2 + s S cos(K theta - phi): no ket, no outcome table, nothing of size dim.  A
    # subensemble split cannot change q (see `protocol`).
    if args.state == "mixture":
        survival = 0.0
    elif args.p is None:
        survival = 1.0
    else:
        survival = (_uniform_model(args.model or "global", args.p[0], ensemble.N) if len(args.p) == 1
                    else NoiseModel(p_locals=tuple(args.p))).survival
    corner = level_weights(ensemble)[: (K + 1) // 2].sum()
    q = 0.5 + survival * corner * np.cos(K * theta - _reduced_angle(phi, "phi"))
    estimate = _sample_signs(np.full(K, q), args.rounds, args.seed)
    rep = witness_report(K)
    verdict = "GME-detected" if estimate.ci_low > float(rep.P_sep) else "inconclusive"
    obj = {
        "spins": list(ensemble.spins),
        "K": K,
        "phi": float(phi),
        "theta_offset": float(theta),
        "state": args.state,
        "rounds": args.rounds,
        "seed": args.seed,
        "subensembles": args.subensembles,
        "p_hat": estimate.p_hat,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "per_k_counts": [list(pair) for pair in estimate.per_k_counts],
        "sep_bound": _frac(rep.P_sep),
        "sep_bound_float": float(rep.P_sep),
        "verdict": verdict,
    }
    _emit(args, obj)
    return 0


def _round12(x: float) -> float:
    """x to 12 decimals for the seesaw report, so that noise of a few ulps does not move stdout.

    Rounding to 14 significant digits first absorbs noise of up to about
    5e-15 even where x sits on a 12-decimal tie: P_sep = 4525/8192 at K = 15
    ends in ...0625, and a few ulps either way would otherwise flip its last
    printed digit.  The verdict reads the unrounded values.
    """
    return round(float(f"{x:.14g}"), 12)


def cmd_seesaw(args) -> int:
    ensemble = SpinEnsemble(args.spins)
    if ensemble.N < 2:
        raise UsageError("seesaw needs at least two particles")
    rep = witness_report(ensemble.K)
    witness = build_qk_direct(ensemble)
    results, passed, _, _, spread = _seesaw_sweep(witness, float(rep.P_sep), args.restarts, args.seed)
    rows = [{"bipartition": "|".join(",".join(str(i + 1) for i in side)
                                     for side in (r.bipartition.subset_J, r.bipartition.complement)),
             "best_value": _round12(r.best_value), "upper_bound": _round12(r.upper_bound),
             "iterations": r.iterations, "converged": r.converged}
            for r in results]
    obj = {
        "spins": list(ensemble.spins),
        "sep_bound": _frac(rep.P_sep), "sep_bound_float": float(rep.P_sep),
        "spread": _round12(spread), "rows": rows,
    }
    _emit(args, obj, ["bipartition", "best_value", "upper_bound", "iterations", "converged"])
    return 0 if passed else 1


_F_ODD_CHOICES = {
    "sign": lambda x: float(np.sign(x)),
    "half-sign": lambda x: float(np.sign(x)) / 2,
    "linear": lambda x: float(x),
    "cubic": lambda x: float(x) ** 3,
}


def cmd_general_witness(args) -> int:
    ensemble = SpinEnsemble(args.spins)
    gw = generalized_witness(ensemble, args.f0, _F_ODD_CHOICES[args.f_odd])
    rep = witness_report(ensemble.K)
    obj = {
        "spins": list(ensemble.spins),
        "f0": args.f0, "f_odd": args.f_odd, "f_K": gw.f_K, "sep_bound": gw.sep_bound,
        "pos_witness_sep_bound_float": float(rep.P_sep),
    }
    _emit(args, obj, ["f0", "f_odd", "f_K", "sep_bound"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinwitness", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.register("action", None, _Once)  # the default action of every flag below
        p.set_defaults(func=func)
        return p

    def output(p, fmt_default=None):
        p.add_argument("--out", type=_out_path, help="write output here (plus a sibling .manifest.json)")
        if fmt_default:
            p.add_argument("--format", choices=["csv", "json"], default=fmt_default)

    p = command("table", "exact bound table per K", cmd_table)
    p.add_argument("--K", type=_exact_k, nargs="+", required=True)
    output(p, fmt_default="csv")

    p = command("verify", "self-verification suite for one ensemble", cmd_verify)
    p.add_argument("--spins", type=_dense_spins, required=True)
    p.add_argument("--restarts", type=_restarts, default=32, help=RESTARTS_HELP)
    p.add_argument("--seed", type=_seed, default=0)
    output(p)

    p = command("noise-sweep", "noisy scores across a grid", cmd_noise_sweep)
    p.add_argument("--spins", type=_dense_spins, required=True)
    p.add_argument("--model", choices=["global", "local"], default="global")
    p.add_argument("--grid", type=_grid, default="0:1:0.05")
    output(p, fmt_default="csv")

    p = command("simulate", "Monte-Carlo protocol run", cmd_simulate)
    ensemble = p.add_mutually_exclusive_group(required=True)
    ensemble.add_argument("--spins", type=_spins(None))
    ensemble.add_argument("--K", type=_exact_k)
    p.add_argument("--phi", type=_finite, default=None)
    p.add_argument("--state", choices=["ghz", "mixture"], default="ghz")
    p.add_argument("--rounds", type=_rounds, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--subensembles", type=_groups)
    p.add_argument("--model", choices=["global", "local"], help="noise model for one --p value (default global)")
    p.add_argument("--p", type=_probability_list, help="one noise level, or one per particle (local noise)")
    output(p)

    p = command("seesaw", "bipartition product-state maximization", cmd_seesaw)
    p.add_argument("--spins", type=_dense_spins, required=True)
    p.add_argument("--restarts", type=_restarts, default=32, help=RESTARTS_HELP)
    p.add_argument("--seed", type=_seed, default=0)
    output(p, fmt_default="json")

    p = command("general-witness", "odd-function witness bound", cmd_general_witness)
    p.add_argument("--spins", type=_dense_spins, required=True)
    p.add_argument("--f0", type=_finite, default=0.5)
    p.add_argument("--f-odd", dest="f_odd", choices=sorted(_F_ODD_CHOICES), default="half-sign")
    output(p, fmt_default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    vars(args).pop(_SEEN, None)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
