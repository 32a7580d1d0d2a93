"""Certifying the biseparable bound from both sides.

For every bipartition, alternate eigenvector ascent on one side against the
other (a see-saw) until the product-state value stops improving or reaches
the upper bound below: that value is attained by a product state, so it is
a lower bound on the bipartition's maximum.  The same witness factors give
an upper bound in closed form, the largest Schmidt coefficient of the
positive GHZ-like factor across the split.
Every bipartition of every ensemble is squeezed onto the same P_sep — the
bound does not depend on how the particles are split.  Restart 0 starts from
the balanced stretched superpositions and meets the upper bound in its
first half-step, one iteration, so the other 15 restarts, which could not
beat it, never run.
"""

from spinwitness import (
    SpinEnsemble,
    build_qk_direct,
    enumerate_bipartitions,
    seesaw_maximize,
    witness_report,
)

for spins in [(0.5, 0.5, 0.5), (1, 0.5), (0.5, 1, 1), (0.5,) * 5]:
    e = SpinEnsemble(spins)
    w = build_qk_direct(e)
    sep = float(witness_report(e.K).P_sep)
    print(f"spins {spins}  (K = {e.K}, P_sep = {sep})")
    for bip in enumerate_bipartitions(e):
        r = seesaw_maximize(w, bip, restarts=16, seed=0)
        label = f"{list(bip.subset_J)} | {list(bip.complement)}"
        print(f"  {label:<22} {r.best_value:.12f} <= max <= {r.upper_bound:.12f}"
              f"   (see-saw iters = {r.iterations}, restarts run = {r.restarts_run} of 16)")
    print()
