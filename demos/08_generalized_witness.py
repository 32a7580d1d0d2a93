"""Beyond the sign: which odd response functions still detect.

Replace the sign readout with any odd function f of the measured component.
Detection hinges on the stretched-state coupling f_K = |<up| f(Jx) |down>|,
the K-th central difference of f over 2^K, exact and the same for every
ensemble of one K: with f = sign it reproduces the standard construction, a
linear response has f_K = 0 (mean values see nothing), and odd polynomials of
degree below K give exactly 0, while x^K couples at K!/2^K.
"""

import numpy as np

from spinwitness import SpinEnsemble, generalized_witness, witness_report

FUNCTIONS = [
    ("sign(x)/2", lambda x: float(np.sign(x)) / 2),
    ("x", lambda x: float(x)),
    ("x^3", lambda x: float(x) ** 3),
    ("x^5", lambda x: float(x) ** 5),
    ("sin(pi x)", lambda x: float(np.sin(np.pi * x))),
]

for spins in [(0.5, 0.5, 0.5), (0.5,) * 5]:
    e = SpinEnsemble(spins)
    rep = witness_report(e.K)
    print(f"spins {spins}  (K = {e.K}, P_sep = {float(rep.P_sep)})")
    for name, f in FUNCTIONS:
        gw = generalized_witness(e, 0.5, f)
        note = ""
        if gw.f_K < 1e-12:
            note = "  <- blind: cannot distinguish anything"
        elif abs(gw.sep_bound - float(rep.P_sep)) < 1e-12:
            note = "  <- the standard sign witness"
        print(f"  f = {name:<10} f_K = {gw.f_K:.6f}   separable bound = {gw.sep_bound:.6f}{note}")
    print()

print("a linear readout is blind at every K, the cubic one dies past K = 3:")
print("detection requires an odd response with enough high-order structure.")
