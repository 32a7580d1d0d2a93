"""How much depolarizing noise detection survives.

Both channel families shrink the score linearly toward 1/2.  Detection needs
the score to stay above P_sep, which happens globally up to p = 1/2 and, for
identical local noise on N particles, up to 1 - 2^(-1/N).  The closed forms
are cross-checked against actually applying the channel.
"""

import numpy as np

from spinwitness import (
    NoiseModel,
    SpinEnsemble,
    apply_depolarizing,
    build_qk_direct,
    detection_thresholds,
    ghz_like,
    noisy_score,
    score,
    witness_report,
)

e = SpinEnsemble((0.5, 0.5, 0.5))
w = build_qk_direct(e)
state = ghz_like(e, phi=np.pi)
sep = float(witness_report(3).P_sep)
g_max, local_max, limit = detection_thresholds(e)

print(f"biseparable bound P_sep = {sep}")
print(f"thresholds: global p < {g_max}, identical local p < {local_max:.6f}")
print(f"(for comparison, the GHZ-fidelity witness detects global p < {float(limit):.6f})")
print()
print(f"{'p':>6} {'global (closed)':>16} {'global (channel)':>17} {'detect':>7}"
      f" {'local (closed)':>15} {'detect':>7}")
for p in np.arange(0, 1.0001, 0.1):
    g_model = NoiseModel(p_global=p)
    g_closed = noisy_score(e, g_model)
    g_brute = score(apply_depolarizing(state, g_model), w)
    l_closed = noisy_score(e, NoiseModel(p_locals=(p, p, p)))
    print(f"{p:>6.2f} {g_closed:>16.6f} {g_brute:>17.6f} {str(g_closed > sep):>7}"
          f" {l_closed:>15.6f} {str(l_closed > sep):>7}")

print()
print("unequal local noise only cares about the survival product prod(1 - p_n):")
for ps in [(0.5, 0.0, 0.0), (0.2, 0.2, 0.2), (0.29289321881345254,) * 2 + (0.0,)]:
    surv = np.prod([1 - p for p in ps])
    print(f"  p = {ps}  survival = {surv:.4f}  score = {noisy_score(e, NoiseModel(p_locals=ps)):.6f}")
