"""Simulating the measurement protocol round by round.

Each round draws one of the K directions at random and records the sign of
the collective component along it.  The positive fraction estimates the
witness score; a Wilson 95% interval entirely above P_sep is the detection
verdict.  The mixture — identical to the superposition on every proper
subsystem — never gets there.
"""

import numpy as np

from spinwitness import (
    SpinEnsemble,
    ghz_like,
    ghz_mixture,
    rounds_needed,
    run_protocol,
    time_schedule,
    witness_report,
)

e = SpinEnsemble((0.5, 0.5, 0.5))
sep = float(witness_report(3).P_sep)
rounds = 100_000

print(f"{rounds} rounds per run, verdict = (ci_low > {sep})")
print()
for label, state in [("superposition", ghz_like(e, phi=np.pi)), ("mixture", ghz_mixture(e))]:
    print(f"{label}:")
    for seed in range(4):
        est = run_protocol(state, rounds, seed)
        verdict = "GME detected" if est.ci_low > sep else "inconclusive"
        print(f"  seed {seed}: p_hat = {est.p_hat:.4f}  ci = [{est.ci_low:.4f}, {est.ci_high:.4f}]  {verdict}")
    print()

print("splitting into subensembles measured separately, signs added afterwards:")
# Any partition draws from the same per-direction probabilities, so the whole-ensemble sampler
# serves it and run_protocol takes no partition; the command line's --subensembles only checks and echoes the split.
est = run_protocol(ghz_like(e, phi=np.pi), rounds, 0)
print(f"  groups (1) and (2,3): p_hat = {est.p_hat:.4f}  ci = [{est.ci_low:.4f}, {est.ci_high:.4f}]")
print()

print("planning helpers:")
for margin in (0.5, 0.25):
    print(f"  rounds needed to shrink the CI to {margin} of the half-gap: {rounds_needed(3, margin)}")
ts = time_schedule(3, omega=2 * np.pi * 1000)
print(f"  at a 1 kHz precession the 3 directions become wait times {[f'{t * 1e6:.1f} us' for t in ts]}")
