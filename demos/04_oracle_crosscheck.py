#!/usr/bin/env python3
"""Trust, but verify: the package carries its own slow reference
implementations, and this script runs the fast paths against them."""

import numpy as np

from minisphere import brute_force_ses, is_hull_vertex, reduce, solve, welzl_solve
from minisphere.datagen import generate, kinds

print(f"{'kind':16s} {'n':>3s}  {'oracle r':>18s}  {'welzl rel':>9s}  {'solve rel':>9s}")
worst = 0.0
for kind in kinds():
    for seed in (0, 1):
        P = generate(kind, 48, seed=seed)
        oracle = brute_force_ses(P)
        fast, _ = welzl_solve(P, seed=seed)
        rep = solve(P, seed=seed)
        rw = abs(fast.radius - oracle.radius) / max(oracle.radius, 1e-300)
        rs = abs(rep.sphere.radius - oracle.radius) / max(oracle.radius, 1e-300)
        worst = max(worst, rw, rs)
        if seed == 0:
            print(f"{kind:16s} {len(P):3d}  {oracle.radius:18.15f}  {rw:9.1e}  {rs:9.1e}")
print(f"\nworst relative disagreement across all of the above: {worst:.2e}")

# the reduction only ever picks convex hull vertices; check with the LP oracle
P = generate("clustered", 40, seed=5)
red = reduce(P, 1)  # k = 1, as solve picks
flags = [is_hull_vertex(int(i), P) for i in red.indices]
print(f"\nreduced rows {red.indices.tolist()}")
print(f"all hull vertices: {all(flags)}")

# and interior points are provably never picked
center = P.mean(axis=0)
Q = np.vstack([P, center[None, :]])
red = reduce(Q, 1)
print(f"appended centroid (row 40) selected: {40 in red.indices}")
