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

# the certificates, the schedule's minimality and monotonicity among them; a
# failed one is a failing row.  The summability witness Phi(z)_i <= 1/i^2 is
# one family entry: its columns, every failing index and the worst margin.
certs = universal_y_l1(schedule)
print("\nbuilt window:", len(schedule.z), "coordinates; all pass:",
      all(c.ok for c in certs))

by_name = {}
for c in certs:
    if isinstance(c, CheckFamily):
        entry = c.to_json()
        print(f"  {c.name:24s} x{len(c):5d}  worst margin {entry['worst_margin']:9.3f}"
              f"  at i = {entry['worst_index']} of {c.first}..{c.first + len(c) - 1},"
              f" failing: {entry['failing']}")
    else:
        by_name.setdefault(c.name, []).append(c)
for name, group in by_name.items():
    worst = max(c.margin for c in group)
    print(f"  {name:24s} x{len(group):5d}  worst margin {worst:9.3f}  "
          f"all pass: {all(c.ok for c in group)}")

print("\nuniversality residuals per block (log, against 2 * zeta tail):")
for c in by_name["universality-residual"]:
    print(f"  block {c.index}: measured {c.measured:10.3f}  bound {c.bound:8.3f}")

# the vector file: hi, lo and phase columns, read back bit for bit
write_vector("universal_y.json", schedule.z)
back = read_vector("universal_y.json")
same = all(getattr(back, part).tobytes() == getattr(schedule.z, part).tobytes()
           for part in ("hi", "lo", "phase"))
print(f"\nuniversal_y.json: {len(back)} coordinates, "
      f"{np.count_nonzero(schedule.z.lo)} with a nonzero lo part; read back bit-equal: {same}")
assert same
