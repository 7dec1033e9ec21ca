import numpy as np
import pytest

from minisphere.bench import run_convergence, run_scaling
from minisphere.errors import InsufficientSamplesError, InvalidKError, InvalidParamsError, TooLargeError


def test_scaling_validation():
    with pytest.raises(InsufficientSamplesError):
        run_scaling([2000])  # need at least two sizes for a slope
    with pytest.raises(InsufficientSamplesError):
        run_scaling([2000, 1000])  # must ascend
    with pytest.raises(InsufficientSamplesError):
        run_scaling([500, 2000])  # sizes start at 1000
    with pytest.raises(InsufficientSamplesError):
        run_scaling([1000, 2000], seeds=(0, 1))  # three seeds minimum
    with pytest.raises(InvalidParamsError):
        run_scaling([1000, 2000], strategy="bogo")
    with pytest.raises(InvalidKError):
        run_scaling([1000, 2000], k_mode="general")  # None asks for the automatic k


def test_arguments_that_are_not_integers_are_refused():
    with pytest.raises(InvalidParamsError):
        run_scaling([1000.5, 2000])
    with pytest.raises(InvalidParamsError):
        run_scaling([1000, 2000], seeds=(0, 1, 2.9))
    for n, ks, seeds in ((30.5, (6,), (0,)), (30, (1.5, 2.9), (0,)), (30, (6,), (0.5,))):
        with pytest.raises(InvalidParamsError):
            run_convergence(n, ks, seeds)


def test_scaling_report_structure():
    rep = run_scaling([1000, 2000], seeds=(0, 1, 2), k_mode=8)
    assert rep["report_version"] == 1
    assert rep["benchmark"] == "scaling"
    assert rep["strategy"] == "projection"
    assert rep["sizes"] == [1000, 2000]
    assert isinstance(rep["slope"], float) and isinstance(rep["intercept"], float)
    assert [row["n"] for row in rep["per_size"]] == [1000, 2000]
    for row in rep["per_size"]:
        assert row["k"] == 8
        assert row["median_ms"] > 0
        assert len(row["times_ms"]) == 3
        assert set(row["stage_ms"]) == {"ingest_ms", "reduce_ms", "solve_ms", "verify_ms"}


def test_scaling_stage_medians_account_for_total():
    """Per-stage medians have to land near the total median: nothing big may
    happen outside the three accounted stages."""
    rep = run_scaling([1000, 3000], seeds=(0, 1, 2), k_mode=8)
    for row in rep["per_size"]:
        parts = sum(row["stage_ms"].values())
        assert parts == pytest.approx(row["median_ms"], rel=0.25, abs=1.0)


def test_scaling_auto_k_mode():
    rep = run_scaling([1000, 2000], seeds=(0, 1, 2), k_mode=None)
    assert rep["k_mode"] is None
    ks = [row["k"] for row in rep["per_size"]]
    assert ks == [1, 1]


def test_scaling_welzl_strategy():
    rep = run_scaling([1000, 2000], seeds=(0, 1, 2), strategy="welzl")
    assert rep["strategy"] == "welzl"
    for row in rep["per_size"]:
        assert row["k"] is None
        assert row["stage_ms"]["reduce_ms"] == 0.0


def test_convergence_report():
    rep = run_convergence(30, ks=(6, 12), seeds=range(4))
    assert rep["report_version"] == 1
    assert rep["n"] == 30 and rep["kind"] == "uniform-ball"
    ks = [row["k"] for row in rep["per_k"]]
    assert ks == [6, 12]
    for row in rep["per_k"]:
        assert 0.0 <= row["coverage_mean"] <= 1.0
        assert row["coverage_std"] >= 0.0
        assert row["repair_mean"] >= 0.0
    # more planes never hurt coverage on this tiny sweep
    assert rep["per_k"][1]["coverage_mean"] >= rep["per_k"][0]["coverage_mean"]


def test_convergence_coverage_needs_small_n():
    rep = run_convergence(80, ks=(6,), seeds=(0, 1))
    assert rep["per_k"][0]["coverage_mean"] is None  # hull oracle cap is 40
    assert rep["per_k"][0]["repair_mean"] >= 0.0


def test_convergence_size_cap():
    with pytest.raises(TooLargeError):
        run_convergence(401, ks=(6,), seeds=(0,))


def test_convergence_deterministic():
    a = run_convergence(25, ks=(6, 12), seeds=(0, 1, 2))
    b = run_convergence(25, ks=(6, 12), seeds=(0, 1, 2))
    assert a == b
