"""The companion vector: steering orbit weights to 2^n n!^2.

Given any vector y with nonzero leading coordinates, one can build x so that
the even orbit weights of the pair (x, y) under the weighted-shift operator
are exactly 2^n n!^2: large enough to beat the shift's norm decay (n!^2) with
room to spare (2^n).  The construction divides out every coordinate of y and
every weight, then multiplies in powers of 2 whose integer exponents a_i are
defined by a_n = n - sum a_{n-j} F(2j+1); the builders read them from the
proved closed form a_n = 1 - n(n-1)/2, and the recursion certifies it.
"""

import numpy as np

from hyperorbit import SeqVector, SpaceTag, companion_pair, phi_map, vector_from_json
from hyperorbit.arith import a_closed, a_recursion

rng = np.random.default_rng(1)
y = SeqVector.from_complex(SpaceTag.l1(),
                           rng.uniform(0.4, 2.5, 60) * np.exp(1j * rng.uniform(-3, 3, 60)))
print("recursion == closed form for n <= 80:",
      a_recursion(80)[1:] == [a_closed(n) for n in range(1, 81)])

# the builder returns x, as the JSON object its vector file holds, with its
# certificates, one family per property with row n for n = 1, 2, ...; a
# failed row is listed in its family's "failing"
x_obj, certs = companion_pair(y)
x = vector_from_json(x_obj)
print("x_1 is free and set to zero:", x.coord(1).is_zero)
print("log|x_21| =", round(x.coord(21).log_mag, 2),
      " (the 2^{a_i} factor decays like -i^2/2 log 2)")

# the identity is verified with exact big-integer exponent bookkeeping: the
# exponent of every log y_j telescopes to 0, of every log w_l to -1, and of
# log 2 to exactly n (for n <= 59); the float recursion then checks it on x
# as its vector file holds it (for n <= 15)
families = {c.name: c for c in certs}
print("certificates:", {name: len(c) for name, c in families.items()})
print("all pass:", all(c.ok for c in certs))
value = families["weight-identity-value"]
print("n = 50: |relative deviation from 50 log 2 + 2 log 50!| =",
      f"{value.measured[50 - value.first]:.2e}")
recursion = families["recursion-identity"]
print("recursion route, n <= 15: worst measured / bound =",
      f"{(recursion.measured / recursion.bound).max():.1e}")

# the summability witness Phi(y) controls whether x lands in the space
from hyperorbit import norm

phi = phi_map(y)
print("log Phi(y) head:", [round(float(v), 1) for v in phi.lm[:6]])
print("log ||Phi(y)||_1 =", round(norm(phi), 3),
      " (finite: the -i^2/2 exponent dominates everything)")
