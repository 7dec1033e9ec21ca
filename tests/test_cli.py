import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minisphere
from minisphere import welzl
from minisphere.cli import main
from minisphere.cloudio import load_points
from minisphere.datagen import generate, kinds
from minisphere.geom import as_cloud
from minisphere.projection import solve

from conftest import cube_corners, rel_err


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def cube_csv(tmp_cloud_file):
    return str(tmp_cloud_file(np.vstack([cube_corners(), [[0.5, 0.5, 0.5]]]), fmt="csv"))


def test_solve_cube(capsys, cube_csv):
    code, out, err = run_cli(capsys, "solve", cube_csv, "--k", "6", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["report_version"] == 1
    assert rel_err(doc["sphere"]["radius"], math.sqrt(3.0) / 2.0) < 1e-12
    assert doc["strategy"] == "projection"
    assert doc["k"] == 6
    assert doc["input_count"] == 9
    assert doc["seed"] == 42
    assert doc["exact_pivots"] == 0
    # one chunk: the first scan is full, a later one computes the rows its bounds do not certify
    assert 9 <= doc["scanned_rows"] <= 9 * (doc["repair_rounds"] + 1)
    assert isinstance(doc["support_indices"], list)
    assert set(doc["timings"]) == {"ingest_ms", "reduce_ms", "solve_ms", "verify_ms"}


def test_solve_welzl_strategy_nulls_projection_fields(capsys, cube_csv):
    code, out, _ = run_cli(capsys, "solve", cube_csv, "--strategy", "welzl", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["strategy"] == "welzl"
    assert doc["k"] is None
    assert doc["reduced_size"] is None
    pivots, exact, scanned = welzl._pivot_solve(as_cloud(load_points(cube_csv)))[2:]
    assert (doc["repair_rounds"], doc["exact_pivots"], doc["scanned_rows"]) == (pivots, exact, scanned)
    assert doc["timings"]["reduce_ms"] == doc["timings"]["solve_ms"] == 0.0
    assert doc["timings"]["verify_ms"] > 0.0
    assert rel_err(doc["sphere"]["radius"], math.sqrt(3.0) / 2.0) < 1e-12


def test_solve_welzl_strategy_is_the_library_report(capsys, tmp_cloud_file):
    """``--strategy welzl`` prints ``solve(strategy="welzl")``'s report."""
    path = tmp_cloud_file(generate("coplanar-disk", 500, seed=1), fmt="xyz")
    code, out, _ = run_cli(capsys, "solve", str(path), "--strategy", "welzl", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    lib = solve(load_points(path), seed=4, strategy="welzl").to_dict()
    del doc["timings"], lib["timings"]
    assert doc == {"report_version": 1, **lib}


@pytest.mark.parametrize("argv", [["--strategy", "auto"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "0.9"]],
                         ids=["strategy-auto", "tol-negative", "tol-nan", "tol-removed"])
def test_solve_bad_option_value_exits_2(capsys, cube_csv, argv):
    code, _, err = run_cli(capsys, "solve", cube_csv, *argv)
    assert code == 2
    assert err


def test_gen_then_solve(capsys, tmp_path):
    out_file = str(tmp_path / "shell.xyz")
    code, _, _ = run_cli(capsys, "gen", "co-spherical", "50", "--seed", "2", "-o", out_file)
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", out_file, "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert rel_err(doc["sphere"]["radius"], 1.0) < 1e-12


def test_gen_scientific_count(capsys, tmp_path):
    out_file = str(tmp_path / "b.csv")
    code, _, _ = run_cli(capsys, "gen", "uniform-ball", "1e3", "--seed", "0", "-o", out_file)
    assert code == 0
    assert sum(1 for _ in open(out_file)) == 1000


def test_env_seed_fallback(capsys, cube_csv, monkeypatch):
    monkeypatch.setenv("MINISPHERE_SEED", "17")
    _, out_env, _ = run_cli(capsys, "solve", cube_csv)
    monkeypatch.delenv("MINISPHERE_SEED")
    _, out_flag, _ = run_cli(capsys, "solve", cube_csv, "--seed", "17")
    assert json.loads(out_env)["seed"] == 17
    assert json.loads(out_env)["sphere"] == json.loads(out_flag)["sphere"]


def test_flag_beats_env(capsys, cube_csv, monkeypatch):
    monkeypatch.setenv("MINISPHERE_SEED", "9")
    _, out, _ = run_cli(capsys, "solve", cube_csv, "--seed", "3")
    assert json.loads(out)["seed"] == 3


def test_empty_input_exits_3(capsys, tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    code, _, err = run_cli(capsys, "solve", str(p))
    assert code == 3
    assert "no points" in err


def test_nonfinite_input_exits_3(capsys, tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("1,2,3\n4,inf,6\n")
    code, _, err = run_cli(capsys, "solve", str(p))
    assert code == 3


def test_cloud_beyond_1e150_exits_3(capsys, tmp_cloud_file):
    """A cloud whose squared distances would overflow is refused, not
    answered with a wrong sphere and exit 0."""
    path = tmp_cloud_file(generate("uniform-ball", 1000, seed=0) * 1e200, fmt="xyz")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 3 and out == ""
    assert "1e+150" in err


def test_parse_error_reports_line(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\nx,y\n")
    code, _, err = run_cli(capsys, "solve", str(p))
    assert code == 2
    assert "line 2" in err


def test_unknown_kind_exits_2(capsys, tmp_path):
    """``gen`` and ``bench --kind`` refuse an unknown kind with exit 2 and
    name the valid ones, and ``gen --help`` lists them, though a ``solve``
    call never loads ``datagen``."""
    code, _, err = run_cli(capsys, "gen", "uniform-donut", "10", "-o", str(tmp_path / "x.csv"))
    assert code == 2
    assert all(kind in err for kind in kinds())
    for study in ("scaling", "convergence"):
        code, _, err = run_cli(capsys, "bench", study, "--kind", "uniform-donut")
        assert code == 2
        assert all(kind in err for kind in kinds())
    code, out, _ = run_cli(capsys, "gen", "--help")
    assert code == 0
    assert all(kind in "".join(out.split()) for kind in kinds())  # help wraps lines, even at a hyphen


def test_missing_file_exits_2(capsys):
    """In process, and through ``python -m minisphere``, whose ``cli.run``
    passes ``main``'s code to the exit."""
    code, _, _ = run_cli(capsys, "solve", "/nonexistent/cloud.csv")
    assert code == 2
    proc = subprocess.run([sys.executable, "-m", "minisphere", "solve", "/nonexistent/cloud.csv"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("minisphere: error: ")


def test_bench_scaling_single_size_exits_2(capsys):
    code, _, err = run_cli(capsys, "bench", "scaling", "--sizes", "1000")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "t.xyz", "--k", "0"],  # InvalidKError
    ["solve", "cloud.parquet"],  # UnknownFormatError
    ["bench", "convergence", "--n", "401"],  # TooLargeError
], ids=["k-0", "parquet", "convergence-401"])
def test_library_error_exits_2_with_one_line(capsys, tmp_path, monkeypatch, argv):
    """Every library error besides a parse error and empty or invalid
    geometry exits 2, through the one ``MinisphereError`` handler."""
    np.savetxt(tmp_path / "t.xyz", cube_corners())
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("minisphere: error: ")


def test_new_library_error_exits_2(capsys, cube_csv, monkeypatch):
    """A ``MinisphereError`` subclass the CLI does not name exits 2, as
    does a bad ``MINISPHERE_SEED``."""

    class NewError(minisphere.errors.MinisphereError):
        pass

    def raise_new(*args, **kwargs):
        raise NewError("brand new")

    monkeypatch.setattr("minisphere.cli.solve", raise_new)
    code, _, err = run_cli(capsys, "solve", cube_csv)
    assert (code, err) == (2, "minisphere: error: brand new\n")
    monkeypatch.undo()
    monkeypatch.setenv("MINISPHERE_SEED", "-1")
    code, _, err = run_cli(capsys, "solve", cube_csv)
    assert code == 2 and err.startswith("minisphere: error: MINISPHERE_SEED: ")


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "solve")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_bench_convergence_small(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "convergence", "--n", "25", "--ks", "6,12", "--seeds", "0..2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report_version"] == 1
    assert [row["k"] for row in doc["per_k"]] == [6, 12]
    for row in doc["per_k"]:
        assert 0.0 <= row["coverage_mean"] <= 1.0
        assert row["repair_mean"] >= 0.0


def _strip_timings(doc):
    if isinstance(doc, dict):
        return {k: _strip_timings(v) for k, v in doc.items()
                if not (k.endswith("_ms") or k in ("slope", "intercept"))}
    if isinstance(doc, list):
        return [_strip_timings(v) for v in doc]
    return doc


def test_subprocess_determinism_modulo_timings(tmp_path):
    """Two real CLI invocations with one seed agree byte-for-byte after the
    timing fields are dropped."""
    cloud = tmp_path / "c.csv"
    lines = ["%r,%r,%r" % tuple(map(float, row)) for row in np.random.default_rng(0).normal(size=(500, 3))]
    cloud.write_text("\n".join(lines) + "\n")
    cmd = [sys.executable, "-m", "minisphere", "solve", str(cloud), "--seed", "5"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    da = _strip_timings(json.loads(a.stdout))
    db = _strip_timings(json.loads(b.stdout))
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    # and the timing fields were actually present before stripping
    assert json.loads(a.stdout)["timings"]["solve_ms"] >= 0.0


_NO_SCIPY = """
import runpy, sys
import minisphere
LAZY = ("scipy", "fractions", "minisphere.bench", "minisphere.oracle", "minisphere.datagen")
for lazy in LAZY:
    assert lazy not in sys.modules, "import minisphere loaded " + lazy
sys.argv = ["minisphere", "solve", sys.argv[1]]
try:
    runpy.run_module("minisphere", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
for lazy in LAZY:
    assert lazy not in sys.modules, "minisphere solve loaded " + lazy
public = {}
exec("from minisphere import *", public)
missing = [name for name in minisphere.__all__ if name not in public]
assert not missing, missing
"""


def test_import_and_solve_leave_scipy_unloaded(tmp_cloud_file):
    """Only the oracles use SciPy and only exact pivots use ``fractions``,
    so neither ``import minisphere`` nor ``python -m minisphere solve`` on
    a 1e4-point file that takes no exact pivot loads them. Nor do they load
    ``bench``, ``oracle`` or ``datagen``, whose public names a star import
    in the same process still resolves."""
    cloud = tmp_cloud_file(generate("uniform-ball", 10_000, seed=0), fmt="xyz")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(cloud)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    assert doc["input_count"] == 10_000
    assert doc["exact_pivots"] == 0


def test_every_public_name_resolves():
    """Each name in ``minisphere.__all__`` is an attribute of the package
    and comes with ``from minisphere import *``; ``dir`` lists them all."""
    missing = [name for name in minisphere.__all__ if not hasattr(minisphere, name)]
    assert not missing
    assert len(set(minisphere.__all__)) == len(minisphere.__all__)
    public = {}
    exec("from minisphere import *", public)
    assert set(minisphere.__all__) <= set(public)
    assert set(minisphere.__all__) <= set(dir(minisphere))
    with pytest.raises(AttributeError):
        minisphere.no_such_name
