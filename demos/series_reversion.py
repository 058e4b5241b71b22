"""The exact series toolkit: reversion, its oracle, and a group inverse.

Reverting e^t - 1 must give log(1+t); the Newton-built coefficients are
re-derived through the Lagrange coefficient formula, which shares no code
with the iteration.  The same reversion drives the Sheffer group inverse,
so the generalized Stirling triangle times its inverse collapses to the
identity matrix.
"""

import math

from apsums import Fps, Progression, identity_triangle, reverse_coefficient_lagrange
from apsums.stirling import s2_pair, s2_triangle

ORDER = 8

f = Fps.exp_of(1, ORDER) - 1
g = f.reverse()
print("f       =", f)
print("f^[-1]  =", g)
print("log(1+t)=", Fps([1, 1], order=ORDER).log())
print()

print("Lagrange oracle for the reversion coefficients (n! * [t^n]):")
for n in range(ORDER + 1):
    newton = g[n] * math.factorial(n)
    lagrange = reverse_coefficient_lagrange(f, n)
    marker = "ok" if newton == lagrange else "MISMATCH"
    print(f"  n={n}: newton={newton}  lagrange={lagrange}  {marker}")
print()

prog = Progression(d=3, a=2)
s1 = s2_pair(prog, ORDER).inverse().triangle(ORDER)  # reverts e^(3t) - 1
product = s2_triangle(prog, ORDER).multiply(s1)
print(f"S2[{prog.d},{prog.a}] * S1[{prog.d},{prog.a}] == identity:",
      product == identity_triangle(ORDER))
