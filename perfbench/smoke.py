"""Smoke test of the benchmark itself; about two minutes.

    python3 perfbench/smoke.py

1. Runs every workload at a tiny size, untraced and traced.
2. Runs each traced workload twice with one seed and requires the inputs
   and every exact count to repeat.
3. Requires the correctness check to pass the reference sphere and to
   flag the same sphere shrunk by a factor of (1 - 1e-6).
4. Requires run.py to fail without printing a result where there is no
   src/ to benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import inputs
import run

COUNTS = ("projection.k", "projection.reduced_size", "projection.repair_rounds", "projection.fallback_count",
          "welzl.calls_per_solve", "welzl.subset_points", "welzl.violators_appended")


def check_counts_repeat(workload: str) -> None:
    a, b = (run.run(workload, 7, 0.01, True, run.TINY) for _ in range(2))
    names = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(a["metrics"]) == names, (workload, sorted(names ^ set(a["metrics"])))
    for key in ("attempted", "failed"):
        assert a[key] == b[key], (workload, key, a[key], b[key])
    assert a["record"]["inputs"] == b["record"]["inputs"], workload
    for name in COUNTS:
        assert name in a["metrics"], (workload, name)
        assert a["metrics"][name] == b["metrics"][name], (workload, name, a["metrics"][name], b["metrics"][name])
    counts = ", ".join(f"{n}={a['metrics'][n]['value']:g}" for n in COUNTS)
    print(f"ok  {workload}: inputs and exact counts repeat ({counts})")


def check_untraced(workload: str) -> None:
    r = run.run(workload, 7, 0.01, False, run.TINY)
    names = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(r["metrics"]) == names, (workload, sorted(r["metrics"]))
    assert all(m["value"] > 0 for m in r["metrics"].values()), (workload, r["metrics"])
    print(f"ok  {workload}: untraced run reports {', '.join(sorted(names))}")


def check_shrunk_sphere_flagged() -> None:
    welzl_solve = run.Program().welzl_solve
    for kind in inputs.KINDS:
        P = inputs.transform(inputs.make_cloud(kind, 2000, inputs.rng_for(1, 9, 0)), "offset-1e6")
        box_center, D = inputs.bbox(P)
        r, certified = inputs.reference(P, welzl_solve, box_center, D)
        c = welzl_solve(P, seed=0)[0].center
        assert certified, kind
        assert inputs.check(P, c, r, r, D) is None, kind
        assert inputs.check(P, c, r * (1 - 1e-6), r, D) is not None, kind
    print("ok  check passes the reference and flags a sphere shrunk by (1 - 1e-6)")


def check_fails_without_src() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli-1e4", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok  without src/ run.py exits {proc.returncode}: {proc.stderr.strip()}")


def main() -> int:
    check_shrunk_sphere_flagged()
    check_fails_without_src()
    for workload in run.WORKLOADS:
        check_untraced(workload)
        check_counts_repeat(workload)
    shutil.rmtree(run.WORK, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
