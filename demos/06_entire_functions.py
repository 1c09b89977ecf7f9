"""Entire-function constructions: reciprocal pairs, block-built universal
functions, and the doubly exponential weight collapse.

Vectors tagged ``hc`` store monomial coefficients; differentiation is the
backward shift with weights w_j = j, translation mixes coefficients through
exact big-integer binomials.
"""

import math

import numpy as np

from hyperorbit import (
    LogComplex,
    SeqVector,
    SpaceTag,
    delta_d_pair,
    hc_Q_blocks,
    verify_weight_collapse,
)
from hyperorbit.constructions import stacked_primitive_g
from hyperorbit.dynamics import collapse_constant

HC = SpaceTag.hc(1)

# --- the reciprocal-coefficient pair ---------------------------------------
# choosing f^(n)(0) as the reciprocal product of g's derivative values makes
# every even orbit weight of (f, g) exactly one: the exponents telescope
# exactly, and the relation f^(n)(0) prod_{i<n} g^(i)(0) = 1 is checked per
# index on f as its vector file holds it
g = stacked_primitive_g(blocks=8)
f, certs = delta_d_pair(g)
telescopes = [c for c in certs if c.name == "reciprocal-exponent-telescopes"]
relation = [c for c in certs if c.name == "reciprocal-coefficient"]
print("even weights whose exponents telescope:", len(telescopes))
print("coefficients certified:", len(relation),
      " worst relation residual =", max(c.measured for c in relation))
print("all certificates pass:", all(c.ok for c in certs))

# --- the block-built universal function ------------------------------------
# each block solves two monomial equations to pin two consecutive weights to
# one on the principal root branch
qb = hc_Q_blocks(K=3)
print("\nblock tops:", qb.ns)
print("|alpha| per block:", [round(math.exp(a.log_mag), 6) for a in qb.alphas])
print("|beta| per block: ", [round(math.exp(b.log_mag), 6) for b in qb.betas])
print("all certificates pass:", all(c.ok for c in qb.certificates))

# --- the weight collapse ----------------------------------------------------
# with |f(0)| below the threshold and g's coefficients at most one in modulus,
# the weights fall under 1/(k 2^(2^(n/2))): no such pair can have dense orbit
rng = np.random.default_rng(0)
mags = rng.uniform(0.3, 1.0, 50)
g2 = SeqVector.from_complex(HC, mags * np.exp(1j * rng.uniform(-np.pi, np.pi, 50)))
k_log, delta_log = collapse_constant(40)
rep = verify_weight_collapse(LogComplex(delta_log + math.log(0.99), 0.0), g2, 40)
print("\ncollapse bound holds for n <= 40:", rep.ok)
print("margin at n = 40 (log):", round(rep.margins[-1], 1),
      " (bound is -2^20 log 2 ~ -727000)")
