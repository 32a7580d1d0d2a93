"""Matching the measurement directions to the state's phase.

The score of a phase-phi superposition under an offset-theta witness follows
a pure cosine in (phi - K theta).  phase_for_ghz inverts that relation, so
any phase can be detected at full strength by rotating all K directions.
"""

import numpy as np

from spinwitness import SpinEnsemble, build_qk_closed_form, ghz_like, phase_for_ghz, score, witness_report

e = SpinEnsemble((0.5, 0.5, 0.5))
rep = witness_report(3)

print("fixed witness (offset 0), sweeping the state phase:")
w0 = build_qk_closed_form(e)
for phi in np.linspace(0, 2 * np.pi, 9):
    s = score(ghz_like(e, phi), w0)
    bar = "#" * int(round(40 * (s - 0.25) / 0.5))
    print(f"  phi = {phi:5.2f}   score = {s:.4f}  {bar}")

print()
print(f"matched offsets (P_max = {float(rep.P_max)}):")
for phi in (0.0, np.pi / 4, np.pi, 3 * np.pi / 2):
    theta = phase_for_ghz(phi, 3)
    s = score(ghz_like(e, phi), build_qk_closed_form(e, theta))
    print(f"  phi = {phi:5.2f}  ->  theta = {theta:.4f}   score = {s:.12f}")
