"""Smallest enclosing sphere for 3D point clouds.

The production path reduces a cloud to its points extreme along a few
directions (4 per plane of the budget) before running a randomized
incremental solver, then verifies and repairs the result against the full
cloud. Desk-scale oracles, seeded data generators, and benchmark harnesses
live alongside for validation.
"""

from . import errors
from .bench import run_convergence, run_scaling
from .cloudio import load_points, save_points
from .datagen import generate, kinds
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
from .oracle import brute_force_ses, enclosing_circle_2d, is_hull_vertex
from .projection import (
    KSelection,
    ReducedSet,
    SolveReport,
    reduce,
    solve,
)
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
    "KSelection",
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
