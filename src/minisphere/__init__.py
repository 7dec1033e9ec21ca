"""Smallest enclosing sphere for 3D point clouds.

The production path reduces a cloud to its points extreme along a few
directions (4 per plane of the budget) before running a randomized
incremental solver, then verifies and repairs the result against the full
cloud. Desk-scale oracles, seeded data generators, and benchmark harnesses
live alongside for validation; their modules (``oracle``, ``datagen``,
``bench``) load when one of their names is first used, so ``import
minisphere`` and a CLI solve do not compile them.
"""

import importlib

from . import errors
from .cloudio import load_points, save_points
from .geom import (
    Sphere,
    Tolerance,
    as_cloud,
    contains,
    sphere_from_four,
    sphere_from_three,
    sphere_from_two,
    tolerance_for,
)
from .projection import ReducedSet, SolveReport, reduce, solve
from .welzl import SupportSet, welzl_solve

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Sphere",
    "Tolerance",
    "as_cloud",
    "contains",
    "tolerance_for",
    "sphere_from_two",
    "sphere_from_three",
    "sphere_from_four",
    "welzl_solve",
    "SupportSet",
    "ReducedSet",
    "SolveReport",
    "reduce",
    "solve",
    "brute_force_ses",
    "is_hull_vertex",
    "enclosing_circle_2d",
    "generate",
    "kinds",
    "run_scaling",
    "run_convergence",
    "load_points",
    "save_points",
    "__version__",
]

# public names of the modules a solve does not use, loaded on first use
_LAZY = {
    "brute_force_ses": "oracle",
    "is_hull_vertex": "oracle",
    "enclosing_circle_2d": "oracle",
    "generate": "datagen",
    "kinds": "datagen",
    "run_scaling": "bench",
    "run_convergence": "bench",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
