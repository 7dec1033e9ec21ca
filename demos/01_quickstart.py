#!/usr/bin/env python3
"""Smallest enclosing sphere in five lines, then a look inside the report."""

import numpy as np

from minisphere import generate, solve

# 20k points in a unit ball, deterministic
P = generate("uniform-ball", 20_000, seed=42)

report = solve(P, seed=42)

print(f"center        {np.round(report.sphere.center, 12)}")
print(f"radius        {report.sphere.radius:.12f}")
print(f"strategy      {report.strategy} with k={report.k} planes")
print(f"reduced set   {report.reduced_size} of {report.input_count} points")
print(f"support       rows {list(report.support_indices)}")
print(f"repair rounds {report.repair_rounds}")
t = report.timings
print(f"stages        ingest {t['ingest_ms']:.2f} ms, reduce {t['reduce_ms']:.2f} ms, "
      f"solve {t['solve_ms']:.2f} ms, verify {t['verify_ms']:.2f} ms")

# every input point is inside (up to the verification band)
d = np.linalg.norm(P - report.sphere.center, axis=1)
print(f"max distance  {d.max():.12f} (radius {report.sphere.radius:.12f})")

# the support points sit exactly on the boundary
for i in report.support_indices:
    print(f"  support row {i}: |p - c| = {np.linalg.norm(P[i] - report.sphere.center):.12f}")
