#!/usr/bin/env python3
"""How the point reduction works, step by step.

A budget of k planes buys 4k directions, the 4k-point spherical Fibonacci
set, spread evenly over the whole sphere, and the point extreme along each
direction is kept. The union of the picks is the reduced set P_s; the
sphere of P_s is verified against the full cloud and repaired if any point
pokes out.
"""

import numpy as np

from minisphere import reduce, solve
from minisphere.datagen import generate

# --- the direction matrix -------------------------------------------------
# m = 4k spherical Fibonacci directions, the published set
# z_i = 1 - (2i+1)/m, phi_i = 2*pi*frac(i/golden ratio)
k = 6
m = 4 * k
i = np.arange(m)
z = 1.0 - (2 * i + 1) / m
phi = 2 * np.pi * np.mod(i / ((1 + 5 ** 0.5) / 2), 1.0)
D = np.column_stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z])
print(f"k={k} buys {m} spherical Fibonacci directions:")
for n, d in enumerate(D):
    print(f"  {n:2d}: {np.round(d, 4)}")
body_diag = np.ones(3) / np.sqrt(3.0)
print(f"closest direction to the body diagonal is {np.degrees(np.arccos((D @ body_diag).max())):.1f} deg away")

# the picks are the points extreme along those directions
cloud = generate("uniform-ball", 30, seed=0)
red = reduce(cloud, k)
print(f"reduce(k={k}) on a 30-point ball picks the argmax along each direction:",
      red.picks.tolist() == np.argmax(cloud @ D.T, axis=0).tolist())

# --- reduction on a cube with an interior point --------------------------
corners = np.array([(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
P = np.vstack([corners, [[0.5, 0.5, 0.5]]])

red = reduce(P, k)
print(f"\ncube + center, k={k}: selected rows {red.indices.tolist()}")
print("per-direction picks (an exact tie goes to the largest x, then y, then z):")
for n, (d, pick) in enumerate(zip(D, red.picks)):
    print(f"  {n:2d}: {np.round(d, 3)} -> row {pick} {P[pick]}")
print("row 8 (the interior center) is never selected:", 8 not in red.indices)

# --- the budget and the automatic plane count ----------------------------
# sel=None means k = 1, a measured constant: four extremes and a few
# full-cloud pivots were the fastest total over every generator kind from
# 1e4 to 1e6 points; from 65,536 points up only a strided sample is reduced
print()
for n in (100, 10_000, 100_000):
    rep = solve(generate("uniform-ball", n, seed=1), seed=1)
    print(f"n={n:>7,}: auto k={rep.k} -> reduced set of {rep.reduced_size} (at most {4 * rep.k}) points")

# --- end to end, with the reduction visible in the report ----------------
Q = generate("co-spherical", 50_000, seed=7)
rep = solve(Q, seed=7)
print(f"\nco-spherical n=50k: k={rep.k}, |P_s|={rep.reduced_size}, "
      f"radius={rep.sphere.radius:.12f}, repairs={rep.repair_rounds}")
