#!/usr/bin/env python3
"""Degenerate clouds are the usual failure mode of incremental solvers;
here they are first-class citizens. Each family below has an analytic
answer to compare against."""

import numpy as np

from minisphere import solve, welzl_solve
from minisphere.datagen import generate

n = 100_000

# collinear: the ball of a segment is centered at its midpoint
P = generate("collinear", n, seed=3)
rep = solve(P, seed=3)
half = 0.5 * float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))
print(f"collinear      r={rep.sphere.radius:.15f}  segment/2={half:.15f}  "
      f"rel={abs(rep.sphere.radius - half) / half:.1e}")

# coplanar disk: the answer is the 2D enclosing circle of the flattened cloud
P = generate("coplanar-disk", n, seed=3)
rep = solve(P, seed=3)
print(f"coplanar-disk  r={rep.sphere.radius:.15f}  repairs={rep.repair_rounds}")

# co-spherical: everything already sits on the answer
P = 2.5 * generate("co-spherical", n, seed=3)
rep = solve(P, seed=3)
print(f"co-spherical   r={rep.sphere.radius:.15f}  shell=2.5  "
      f"rel={abs(rep.sphere.radius - 2.5) / 2.5:.1e}")

# near-degenerate: a disk with 1e-8 of normal jitter; tolerance predicates
# must neither blow up nor collapse the problem
P = generate("near-degenerate", n, seed=3)
rep = solve(P, seed=3)
ref, _ = welzl_solve(P, seed=3)
print(f"near-degenerate r={rep.sphere.radius:.15f}  full-welzl={ref.radius:.15f}  "
      f"rel={abs(rep.sphere.radius - ref.radius) / ref.radius:.1e}")

# tiny pathological inputs round out the picture
for pts, label in [
    (np.tile([[1.0, 2.0, 3.0]], (5, 1)), "five identical points"),
    (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), "two points"),
    (np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]), "three collinear"),
]:
    rep = solve(pts)
    print(f"{label:22s} r={rep.sphere.radius:.12f} center={np.round(rep.sphere.center, 6)}")
