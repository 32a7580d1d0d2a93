"""What a classical precessing vector can score.

A classical magnetic moment pointing at in-plane angle phi0 gives a definite
sign along each of the K directions; the best it can do is have the positive
half-plane swallow (K+1)/2 of them, i.e. (1 + 1/K)/2.  The quantum optimum
P_max beats that at every K.  Against the biseparable bound the ordering
flips with size: for K = 3, 5 a classical vector outscores any biseparable
quantum state, from K = 7 on it falls below even that.  The score is
constant between the 2K angles where the moment is perpendicular to a
direction, and a 2 pi / K turn only relabels the directions, so
classical_sweep_max reads the two arcs of one period: the maximum is exact,
not sampled.
"""

import numpy as np

from spinwitness import classical_score, classical_sweep_max, witness_report

for K in (3, 5, 7, 9):
    rep = witness_report(K)
    got = classical_sweep_max(K)
    print(f"K = {K}:  classical max = {got:.6f}  (= (1 + 1/{K})/2)"
          f"   P_sep = {float(rep.P_sep):.6f}   P_max = {float(rep.P_max):.6f}")

print()
print("score landscape at K = 3 (plateaus of width 2 pi / K):")
for phi0 in np.linspace(0, 2 * np.pi, 13):
    s = classical_score(3, phi0)
    print(f"  phi0 = {phi0:4.2f}  score = {s:.4f}  {'#' * int(round(30 * s))}")
