"""Exact detection bounds as the number of directions grows.

P_max is what the optimal superposition scores, P_sep caps every biseparable
state, and their difference — the detection gap — shrinks like 1/sqrt(K).
All four columns are exact rationals; floats are just renderings.
"""

from fractions import Fraction

from spinwitness import witness_report

print(f"{'K':>4} {'P_max':>10} {'P_sep':>10} {'P_classical':>12} {'gap':>14} {'gap (float)':>12}")
for K in range(1, 22, 2):
    r = witness_report(K)
    print(f"{K:>4} {str(r.P_max):>10} {str(r.P_sep):>10} {str(r.P_classical):>12}"
          f" {str(r.gap):>14} {float(r.gap):>12.6f}")

print()
print("Where does the gap cross 5% and 1%?")
for K in range(1, 500, 2):
    gap = witness_report(K).gap
    if gap < Fraction(5, 100):
        print(f"  below 5% from K = {K}  (gap = {float(gap):.6f})")
        break
for K in range(301, 500, 2):
    gap = witness_report(K).gap
    if gap < Fraction(1, 100):
        print(f"  below 1% from K = {K}  (gap = {float(gap):.6f})")
        break
print("so a constant-precision experiment resolves the gap up to a few hundred spins.")
