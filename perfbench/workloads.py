"""Seeded task lists for the two workloads and their independent correctness gate.

A task is one `spinwitness.cli.main(argv)` call, described by a plain dict:
``{"shape": <spins text>, "argv": [...], "check": {...}}``.  A workload's pass
is a fixed multiset of ensemble shapes; the seed only permutes the pass and
draws the continuous parameters (phi, noise p, subensemble membership, the
CLI --seed).  Every pass of one seed therefore does the same
work in the same order, and two seeds do the same work in different orders.

Expected values come from this file alone (`math.comb` and `fractions`), never
from the package under test, so a kernel change that moves the 17th printed
digit still passes while a wrong number fails.

This module imports neither numpy nor spinwitness.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("certify", "simulate")

# Passes a timed run always completes, whatever --seconds says: three, so
# that each task's time is a median of at least three samples.
MIN_PASSES = 3

# The fixed tail percentile per workload: below the highest whole percentile
# that leaves 10 samples beyond it in a run of MIN_PASSES passes, and placed
# mid-way through one shape's band of task times so that it does not flip
# between two shapes from run to run.  It stays fixed when a faster program
# fits more passes, so two commits report the same percentile.
#   certify: 18 tasks a pass; p50 falls on (1/2,1,1,1), p75 on five spin-1/2
#     and (1/2,1,3/2,3/2).
#   simulate: 54 tasks a pass; the six split spin-1/2x7 tasks form a broad
#     top band, and p84 falls in the tight band of the split (3/2,3/2,3/2)
#     tasks below it.
TAIL_PCT = {"certify": 75, "simulate": 84}

SIM_ROUNDS = 1_000_000
QUICK_TASKS = 3  # tasks in a --quick run (benchmark self-test)


def _spins(*js: float) -> str:
    return ",".join(format(j, "g") for j in js)


HALF5 = _spins(*[0.5] * 5)
HALF7 = _spins(*[0.5] * 7)

# Shape -> tasks per pass.  Seven spin-1/2 particles (63 bipartitions, dim 128)
# carry most of the see-saw time; the cheap shapes are repeated so that the
# median and the tail percentile land inside a shape's band: the median in
# the middle of the (1/2,1,1,1) band, which is 5 of the 18 tasks.
CERTIFY_MIX = {
    _spins(0.5, 1, 1): 3,
    _spins(1.5, 1.5, 1.5): 3,
    _spins(0.5, 1, 1, 1): 5,
    _spins(0.5, 1, 1.5, 1.5): 2,
    HALF5: 2,
    _spins(2.5, 2.5, 2.5): 2,
    HALF7: 1,
}

# Shape -> group sizes of its subensemble split.  The seed picks which
# particles go into which group; the sizes stay fixed so the work does too.
SIMULATE_SPLITS = {
    _spins(0.5, 0.5, 0.5): (1, 2),
    HALF5: (2, 3),
    HALF7: (3, 4),
    _spins(0.5, 1, 1): (1, 2),
    _spins(0.5, 1, 1, 1): (2, 2),
    _spins(1.5, 1.5, 1.5): (1, 1, 1),
}


def spins_of(shape: str) -> list[Fraction]:
    return [Fraction(part) for part in shape.split(",")]


def k_of(shape: str) -> int:
    return int(2 * sum(spins_of(shape)))


def dim_of(shape: str) -> int:
    return math.prod(int(2 * j + 1) for j in spins_of(shape))


def p_max_minus_half(K: int) -> Fraction:
    """P_max - 1/2 = C(K-1, (K-1)/2) / 2^K for odd K."""
    return Fraction(math.comb(K - 1, (K - 1) // 2), 2**K)


def noisy_score(K: int, n: int, model: str | None, p: Fraction) -> Fraction:
    """Exact tr(rho Q) of the phase-matched GHZ-like state under depolarizing noise.

    Noise only shrinks the |up><down| coherence, by (1 - p) globally or by
    (1 - p)^N with one channel per particle; everything else scores 1/2.
    """
    survival = {None: Fraction(1), "global": 1 - p, "local": (1 - p) ** n}[model]
    return Fraction(1, 2) + survival * p_max_minus_half(K)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _certify_tasks(rng: random.Random) -> list[dict]:
    shapes = [shape for shape, count in CERTIFY_MIX.items() for _ in range(count)]
    rng.shuffle(shapes)
    return [
        {"shape": s, "argv": ["verify", "--spins", s, "--seed", str(rng.randrange(2**31))], "check": {}}
        for s in shapes
    ]


def _simulate_argv(shape: str) -> list[str]:
    # Identical spin-1/2 particles go through --K, everything else through --spins.
    if set(shape.split(",")) == {"0.5"}:
        return ["simulate", "--K", str(k_of(shape))]
    return ["simulate", "--spins", shape]


def _split_text(members: list[int], sizes: tuple[int, ...]) -> str:
    groups, start = [], 0
    for size in sizes:
        groups.append(",".join(str(i) for i in sorted(members[start:start + size])))
        start += size
    return "|".join(groups)


def _simulate_tasks(rng: random.Random) -> list[dict]:
    # Per shape, every ghz/mixture x no/global/local noise pair runs split into
    # subensembles, and every other pair also runs whole (alternating from one
    # shape to the next, so each pair runs whole on half the shapes).  A whole
    # run takes about a third of a split one; with one whole task to two split
    # ones the median lands inside the split tasks' band, not in the gap
    # between the two.
    pairs = [(state, model) for state in ("ghz", "mixture") for model in (None, "global", "local")]
    combos = []
    for i, shape in enumerate(SIMULATE_SPLITS):
        combos += [(shape, state, model, True) for state, model in pairs]
        combos += [(shape, state, model, False) for state, model in pairs[i % 2::2]]
    rng.shuffle(combos)
    tasks = []
    for shape, state, model, split in combos:
        phi = rng.uniform(0, 2 * math.pi)
        p = rng.uniform(0.02, 0.3)
        argv = _simulate_argv(shape) + ["--rounds", str(SIM_ROUNDS), "--seed", str(rng.randrange(2**31)),
                                        "--phi", repr(phi), "--state", state]
        if model is not None:
            argv += ["--model", model, "--p", repr(p)]
        if split:
            members = list(range(1, len(spins_of(shape)) + 1))
            rng.shuffle(members)
            argv += ["--subensembles", _split_text(members, SIMULATE_SPLITS[shape])]
        check = {"state": state, "model": model, "p": p if model else None}
        tasks.append({"shape": shape, "argv": argv, "check": check})
    return tasks


_GENERATORS = {"certify": _certify_tasks, "simulate": _simulate_tasks}


def generate(workload: str, seed: int, quick: bool = False) -> list[dict]:
    """One pass of the workload; the same (workload, seed) always gives the same list."""
    tasks = _GENERATORS[workload](_rng(workload, seed))
    return tasks[:QUICK_TASKS] if quick else tasks


def warmups(workload: str, tasks: list[dict]) -> list[list[str]]:
    """One untimed argv per distinct shape, with fixed (seed-free) small parameters.

    Each takes the same command path at the same dimensions as the timed
    tasks, which is what the first-call cost (allocation, BLAS start-up)
    depends on, at a fraction of the work.
    """
    shapes = list(dict.fromkeys(t["shape"] for t in tasks))
    if workload == "certify":
        return [["verify", "--spins", s, "--restarts", "1"] for s in shapes]
    return [["simulate", "--spins", s, "--rounds", "20000", "--state", "mixture", "--model", "local",
             "--p", "0.1", "--subensembles", _split_text(list(range(1, len(spins_of(s)) + 1)),
                                                         SIMULATE_SPLITS[s])]
            for s in shapes]


def task_hash(tasks: list[dict]) -> str:
    return hashlib.sha256(json.dumps([t["argv"] for t in tasks]).encode()).hexdigest()


# --- correctness gate -------------------------------------------------------


def _check_verify(task: dict, out: str) -> str | None:
    lines = out.splitlines()
    shape = task["shape"]
    if not lines or not lines[0].startswith("ensemble "):
        return "missing ensemble header"
    header = lines[0].split()
    if f"K={k_of(shape)}" not in header or f"dim={dim_of(shape)}" not in header:
        return f"header {lines[0]!r} does not match K={k_of(shape)} dim={dim_of(shape)}"
    passes = sum(line.startswith("PASS ") for line in lines)
    if passes != 5 or any(line.startswith("FAIL ") for line in lines):
        return f"{passes} PASS lines, expected 5"
    return None


def _check_simulate(task: dict, out: str) -> str | None:
    obj = json.loads(out)
    K = k_of(task["shape"])
    n = len(spins_of(task["shape"]))
    c = task["check"]
    if obj["K"] != K or len(obj["per_k_counts"]) != K:
        return f"K={obj['K']} with {len(obj['per_k_counts'])} directions, expected {K}"
    if sum(trials for _, trials in obj["per_k_counts"]) != SIM_ROUNDS:
        return "per-direction trials do not sum to rounds"
    if sum(pos for pos, _ in obj["per_k_counts"]) != round(obj["p_hat"] * SIM_ROUNDS):
        return "per-direction positives do not sum to p_hat * rounds"
    if c["state"] == "mixture":
        expected = 0.5
    else:
        p = Fraction(c["p"]) if c["p"] is not None else Fraction(0)
        expected = float(noisy_score(K, n, c["model"], p))
    se = math.sqrt(expected * (1 - expected) / SIM_ROUNDS)
    if not abs(obj["p_hat"] - expected) <= 5 * se:
        return f"p_hat {obj['p_hat']} more than 5 standard errors from {expected}"
    return None


_CHECKS = {"verify": _check_verify, "simulate": _check_simulate}


def check(task: dict, exit_code: int, out: str) -> str | None:
    """None if the task's output is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _CHECKS[task["argv"][0]](task, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
