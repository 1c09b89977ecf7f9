"""Block-building a universal vector for the scaled shift powers on l1.

The vector is assembled in blocks: each block plants a forward-shifted test
vector deep enough that (i) its own norm is summable, (ii) the summability
witness of the whole vector stays under 1/i^2, and (iii) applying the scaled
shift power recovers the test vector up to an explicit tail bound.  The block
boundaries come from a log-domain predicate scan; each boundary is minimal.
The certificates read the vector as its file holds it, and the file holds it
bit for bit.
"""

import numpy as np

from hyperorbit import gap_schedule_search, read_vector, universal_y_l1, write_vector
from hyperorbit.report import CheckFamily

schedule = gap_schedule_search(blocks=4)
print("block boundaries:", schedule.ns[1:])
for rec in schedule.records:
    print(f"  j={rec['j']}: n_j={rec['n_j']}, margins "
          f"({rec['margin_main']:.1f}, {rec['margin_gap']:.1f})")

# the certificates, the schedule's minimality and monotonicity among them.
# A property checked per block or per coordinate is one family entry: its
# columns from index `first` on, every failing index and the worst margin.
certs = universal_y_l1(schedule)
print("\nbuilt window:", len(schedule.z), "coordinates; all pass:",
      all(c.ok for c in certs))

for c in certs:
    if isinstance(c, CheckFamily):
        entry = c.to_json()
        print(f"  {c.name:24s} x{len(c):5d}  worst margin {entry['worst_margin']:9.3f}"
              f"  at {entry['worst_index']} of {c.first}..{c.first + len(c) - 1},"
              f" failing: {entry['failing']}")
    else:
        print(f"  {c.name:24s} x{1:5d}  margin {c.margin:9.3f}  pass: {c.ok}")

print("\nuniversality residuals per block (log, against 2 * zeta tail):")
residuals = next(c for c in certs if c.name == "universality-residual")
for j, (measured, bound) in enumerate(zip(residuals.measured, residuals.bound),
                                      residuals.first):
    print(f"  block {j}: measured {measured:10.3f}  bound {bound:8.3f}")

# the vector file: hi, lo and phase columns, read back bit for bit
write_vector("universal_y.json", schedule.z)
back = read_vector("universal_y.json")
same = all(getattr(back, part).tobytes() == getattr(schedule.z, part).tobytes()
           for part in ("hi", "lo", "phase"))
print(f"\nuniversal_y.json: {len(back)} coordinates, "
      f"{np.count_nonzero(schedule.z.lo)} with a nonzero lo part; read back bit-equal: {same}")
assert same
