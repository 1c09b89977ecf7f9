"""Bracketing the boundary of the zero basin along a ray.

The square map induced by the symmetric operator, P(x) = x_1 * B_w(x), sends
small vectors to zero doubly exponentially fast and blows large ones up.
Along a ray t * v the classification flips at some t*, and bisection with the
orbit classifier as oracle produces a certified bracket around the flip.
Directions with factorially decaying tails are the interesting ones: rays
through sparse vectors can be absorbed entirely (the shift annihilates the
first basis vector), which the bracket checker reports instead of bisecting.
"""

from hyperorbit import SeqVector, SpaceTag, julia_ray_bisection
from hyperorbit.constructions import classify_polynomial_ray, factorial_tail_direction
from hyperorbit.errors import BadBracketError

# a two-coordinate direction dies in two steps for every t: no flip to find
flat = SeqVector.from_complex(SpaceTag.l1(), [1.0, 1.0, 0, 0, 0, 0])
try:
    julia_ray_bisection(flat, 0.5, 50.0, 1e-9)
except BadBracketError as exc:
    print("sparse direction:", exc)

# the factorial-tail direction has a genuine basin boundary on its ray
v = factorial_tail_direction(200)
for t in (1.0, 4.0, 8.0, 16.0):
    print(f"  classify t = {t:5.1f}:", classify_polynomial_ray(v, t).value)

probe = julia_ray_bisection(v, 1.0, 20.0, tol=1e-9)
print(f"\nflip bracketed in [{probe.t_lo:.12f}, {probe.t_hi:.12f}]")
print(f"width {probe.width:.1e} after {probe.bisection_steps} bisections")
print("endpoint classifications:",
      probe.class_lo.value, "/", probe.class_hi.value)
