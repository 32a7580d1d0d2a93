"""Two routes to the same witness operator.

The direct route averages spectral sign projectors over K directions; the
closed form writes the result as 1/2 * identity plus a rank-2 coupling of the
two stretched product states.  They agree to machine precision, and the
spectrum shows why detection works: a single eigenvalue sticks out above 1/2.
"""

import numpy as np

from spinwitness import SpinEnsemble, build_qk_closed_form, build_qk_direct, witness_report

for spins in [(0.5, 0.5, 0.5), (1, 0.5), (0.5, 1, 1)]:
    e = SpinEnsemble(spins)
    direct = build_qk_direct(e)
    closed = build_qk_closed_form(e)
    dev = np.abs(direct.Q - closed.Q).max()
    eigs = np.linalg.eigvalsh(direct.Q)
    rep = witness_report(e.K)
    print(f"spins {spins}  (K = {e.K}, dim = {e.dim})")
    print(f"  max |direct - closed| = {dev:.3e}")
    print(f"  top eigenvalue  {eigs[-1]:.6f}   (P_max = {rep.P_max} = {float(rep.P_max)})")
    print(f"  bottom          {eigs[0]:.6f}   (1 - P_max)")
    print(f"  all {e.dim - 2} others exactly 1/2: {np.allclose(eigs[1:-1], 0.5, atol=1e-12)}")
    print()

# the entire deviation from 1/2 * identity lives in the two corner entries
e = SpinEnsemble((0.5, 0.5, 0.5))
delta = build_qk_direct(e).Q - np.eye(e.dim) / 2
print("corner coupling |Q[0, -1] - 0| =", f"{abs(delta[0, -1]):.6f}", "(= C(2,1)/2^3 = 1/4)")
print("largest entry elsewhere       =", f"{np.abs(delta[1:-1, :]).max():.2e}")
