"""Shared helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """pyproject.toml's ``pythonpath`` puts src/ on this process's import
    path only; export it too, so that the CLI subprocesses the tests start
    import the same checkout without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def random_rotation(seed: int) -> np.ndarray:
    """A seeded proper rotation matrix (QR of a Gaussian, det forced to +1)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def cube_corners() -> np.ndarray:
    """Unit cube corners in binary counting order: (0,0,0), (0,0,1), ... (1,1,1)."""
    import itertools

    return np.array(list(itertools.product((0.0, 1.0), repeat=3)))


def noisy_shell(n: int, noise: float = 1e-7, seed: int = 11) -> np.ndarray:
    """n Gaussian directions on the unit sphere with relative radial noise."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None] * (1.0 + noise * rng.normal(size=(n, 1)))


def max_violation(points: np.ndarray, center, radius: float) -> float:
    """Largest distance beyond the radius over the cloud (0 when enclosed)."""
    d = np.linalg.norm(np.asarray(points, dtype=np.float64) - np.asarray(center)[None, :], axis=1)
    return float(max(d.max() - radius, 0.0))


@pytest.fixture
def tmp_cloud_file(tmp_path):
    """Write a cloud to a temp file in the requested format, return the path."""

    def _write(points, fmt="csv", name=None):
        from minisphere.cloudio import save_points

        path = tmp_path / (name or f"cloud.{fmt}")
        save_points(path, points, fmt=fmt)
        return path

    return _write
