"""Transporting the dynamics onto a host space through a biorthogonal basis.

A bounded biorthogonal system (vectors plus coordinate functionals) lets one
rewrite the weighted-shift bilinear operator in host coordinates; the factor
map sends canonical vectors to basis vectors and intertwines the two
operators.  Orbits then push forward state by state.
"""

import numpy as np

from hyperorbit import (
    SeqVector,
    SpaceTag,
    build_N,
    commutation_check,
    host_basis,
    pushforward_orbit_check,
)

rng = np.random.default_rng(0)

for kind in ("identity", "diagonal", "banded"):
    basis = host_basis(kind, 200)
    print(f"{kind:9s} biorthogonality residual: "
          f"{basis.biorthogonality_residual():.1e}   bound: {basis.bound():.4f}")

print("\ncommutation phi(M(u, v)) = N(phi u, phi v):")
for kind in ("identity", "diagonal", "banded"):
    basis = host_basis(kind, 200)
    rep = commutation_check(build_N(basis), 200, rng)
    print(f"  {kind:9s} max residual over all 200^2 basis pairs: "
          f"{rep.max_basis_residual:.2e}, random vectors: "
          f"{rep.max_random_residual:.2e}")

print("\npush-forward of a contraction-ball orbit, 50 steps:")
for kind in ("identity", "diagonal", "banded"):
    basis = host_basis(kind, 150)
    mk = lambda: SeqVector.from_complex(
        SpaceTag.l1(), 0.002 * rng.uniform(0.2, 1.0, 150)
        * np.exp(1j * rng.uniform(-np.pi, np.pi, 150)))
    rep = pushforward_orbit_check(build_N(basis), (mk(), mk()), 50)
    worst = max(r - b for r, b in zip(rep.residual_logs, rep.bound_logs))
    print(f"  {kind:9s} all {rep.steps} states inside their bounds: {rep.ok}"
          f"  (worst log margin {worst:.1f})")
