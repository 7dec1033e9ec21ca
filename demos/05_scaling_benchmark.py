#!/usr/bin/env python3
"""A small version of the scaling study: median solve time across sizes,
log-log slope, the per-stage split, and the full-cloud Welzl baseline at
every size. The full-size run (to 10^6 points) lives in the acceptance
tests; this one finishes in seconds.

The last column is the north-star bar: `solve` over `welzl_solve` on the
same clouds, which should stay at or below 1.

Pass --full for the big sizes.
"""

import sys

from minisphere.bench import run_scaling

full = "--full" in sys.argv
sizes = [10_000, 30_000, 100_000, 300_000, 1_000_000] if full else [2_000, 8_000, 32_000, 128_000]

rep = run_scaling(sizes, strategy="projection", seeds=(0, 1, 2), k_mode=24)
base = run_scaling(sizes, strategy="welzl", seeds=(0, 1, 2))

print(f"{'n':>10s} {'k':>4s} {'median':>10s} {'reduce':>9s} {'solve':>9s} {'verify':>9s} {'welzl':>10s} {'ratio':>6s}")
for row, ref in zip(rep["per_size"], base["per_size"]):
    s = row["stage_ms"]
    print(f"{row['n']:>10,} {row['k']:>4d} {row['median_ms']:>8.1f}ms "
          f"{s['reduce_ms']:>7.1f}ms {s['solve_ms']:>7.1f}ms {s['verify_ms']:>7.1f}ms "
          f"{ref['median_ms']:>8.1f}ms {row['median_ms'] / ref['median_ms']:>6.2f}")

print(f"\nlog-log slope: {rep['slope']:.4f}  (1.0 = linear growth)")
if not full:
    print("note: at these small sizes the fixed per-solve cost flattens the "
          "slope; run with --full for the 10^4..10^6 sweep where it sits near 1.0")
