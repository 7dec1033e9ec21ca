"""Desk-scale ground truth, independent of the production solver.

``brute_force_ses`` and ``enclosing_circle_2d`` share one enumeration core
that tries every candidate support set (pairs, triples and, in 3D,
quadruples) with its own batched linear algebra; it shares no code with
the solvers, which is what makes cross-checks meaningful.
``is_hull_vertex`` answers membership in the convex-hull vertex set through
a linear feasibility problem. All three are capped to small inputs on
purpose. SciPy is imported inside the functions that use it, so ``import
minisphere`` and the CLI do not load it.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import EmptyInputError, InvalidGeometryError, TooLargeError
from .geom import _EPS, Sphere, _real_array, as_cloud, tolerance_for

_MAX_BRUTE = 80
_MAX_HULL = 60
_MAX_HULL_2D = 400


def brute_force_ses(points) -> Sphere:
    """Smallest enclosing sphere by exhaustive candidate enumeration.

    Parameters
    ----------
    points : (N, 3) array-like, 1 <= N <= 80. Its bounding-box diagonal
        (``tolerance_for``'s scale) sets the enclosure bands; the
        degeneracy cut is ``geom._EPS``.

    Returns
    -------
    Sphere. Near-ties between enclosing candidates (radius within 1e-12
    relative) are resolved toward the lexicographically smallest center.

    Candidate spheres come from all point pairs (diametral), all
    non-collinear triples (circumcircle in the triangle plane) and all
    non-coplanar quadruples (circumsphere). Degenerate subsets are skipped;
    their minimal spheres are produced by lower-order subsets anyway.
    """
    P = as_cloud(points)
    n = len(P)
    if n > _MAX_BRUTE:
        raise TooLargeError(f"brute_force_ses supports at most {_MAX_BRUTE} points, got {n}")
    return Sphere(*_min_ball(P, P))


def _min_ball(P, H):
    """(center, radius) of the smallest ball enclosing the rows of P.

    P has d = 2 or 3 columns; H holds rows of P, every hull vertex of P
    among them, and supplies the candidates: diametral pairs, triple
    circumcircles and, for d = 3, quadruple circumspheres (a minimal ball
    rests on at most d + 1 points). The bands are relative to P's
    bounding-box diagonal, and the result is checked against all of P.
    """
    if len(H) == 1:
        return H[0].copy(), 0.0
    scale = math.sqrt(sum((float(x.max()) - float(x.min())) ** 2 for x in P.T))
    i, j = np.triu_indices(len(H), 1)
    balls = [(0.5 * (H[i] + H[j]), 0.25 * ((H[i] - H[j]) ** 2).sum(axis=1)), _circumcircles(H)]
    if H.shape[1] == 3:
        balls.append(_circumspheres(H))
    C = np.concatenate([c for c, _ in balls], axis=0)
    R2 = np.concatenate([r2 for _, r2 in balls], axis=0)

    abs2 = (1e-14 * scale) ** 2
    band = 1.0 + 1e-12

    def outside(ci):
        """Index of a row of H outside candidate ci, or -1 when it encloses."""
        d2 = ((H - C[ci][None, :]) ** 2).sum(axis=1)
        if d2.max() <= R2[ci] * band + abs2:
            return -1
        return int(d2.argmax())

    # Witness pruning: a candidate is dropped only when a specific point is
    # proven outside it, so the surviving minimum is the exhaustive minimum.
    # Seed witnesses with the coordinate extremes, then add violators found
    # by full checks of the current smallest surviving candidate.
    active = np.ones(len(C), dtype=bool)
    seen = set()
    queue = []
    for x in H.T:
        for w in (int(x.argmin()), int(x.argmax())):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    r2min = -1.0
    while True:
        for w in queue:
            d2w = ((C - H[w][None, :]) ** 2).sum(axis=1)
            active &= d2w <= R2 * band + abs2
        queue = []
        alive = np.flatnonzero(active)
        if not len(alive):
            raise RuntimeError("no enclosing candidate found; enumeration is broken")
        m = int(alive[np.argmin(R2[alive])])
        v = outside(m)
        if v < 0:
            r2min = float(R2[m])
            break
        active[m] = False
        if v not in seen:
            seen.add(v)
            queue.append(v)

    # near-ties resolve to the lexicographically smallest enclosing center
    cand = np.flatnonzero(active & (R2 <= r2min * (1.0 + 2.5e-12)))
    order = np.lexsort(C[cand].T[::-1])
    center = None
    for ci in cand[order]:
        if not active[ci]:
            continue
        v = outside(ci)
        if v < 0:
            center = C[ci]
            break
        d2w = ((C[cand] - H[v][None, :]) ** 2).sum(axis=1)
        active[cand] &= d2w <= R2[cand] * band + abs2
    assert center is not None  # the r2min candidate itself always qualifies

    r = float(np.sqrt(r2min))
    d2 = ((P - center[None, :]) ** 2).sum(axis=1).max()
    lim = r + _EPS * scale
    if d2 > lim * lim:
        raise RuntimeError("oracle result fails its own enclosure check")
    return center.copy(), r


def _combo_index(n, k):
    """All k-subsets of range(n) as an (C(n,k), k) index array, built
    column-block-wise; Python-level tuple iteration is too slow at C(80,4)."""
    if n < k:
        return np.empty((0, k), dtype=np.intp)
    if k == 1:
        return np.arange(n, dtype=np.intp)[:, None]
    if k == 2:
        i, j = np.triu_indices(n, 1)
        return np.column_stack((i, j)).astype(np.intp, copy=False)
    blocks = []
    for a in range(n - k + 1):
        tail = _combo_index(n - 1 - a, k - 1) + (a + 1)
        if len(tail):
            head = np.full((len(tail), 1), a, dtype=np.intp)
            blocks.append(np.concatenate((head, tail), axis=1))
    return np.concatenate(blocks, axis=0)


def _circumcircles(P):
    idx = _combo_index(len(P), 3)
    A, B, C = P[idx[:, 0]], P[idx[:, 1]], P[idx[:, 2]]
    ba = B - A
    ca = C - A
    d11 = (ba * ba).sum(axis=1)
    d22 = (ca * ca).sum(axis=1)
    d12 = (ba * ca).sum(axis=1)
    bc = C - B
    l2 = np.maximum(np.maximum(d11, d22), (bc * bc).sum(axis=1))
    det = d11 * d22 - d12 * d12
    keep = det > (_EPS * l2) ** 2
    d11, d22, d12, det = d11[keep], d22[keep], d12[keep], det[keep]
    alpha = d22 * (d11 - d12) / (2.0 * det)
    beta = d11 * (d22 - d12) / (2.0 * det)
    centers = A[keep] + alpha[:, None] * ba[keep] + beta[:, None] * ca[keep]
    r2 = alpha * alpha * d11 + 2.0 * alpha * beta * d12 + beta * beta * d22
    return centers, r2


def _circumspheres(P):
    idx = _combo_index(len(P), 4)
    A = P[idx[:, 0]]
    e1 = P[idx[:, 1]] - A
    e2 = P[idx[:, 2]] - A
    e3 = P[idx[:, 3]] - A
    l2 = np.zeros(len(idx))
    for d in (e1, e2, e3, e2 - e1, e3 - e1, e3 - e2):
        l2 = np.maximum(l2, (d * d).sum(axis=1))
    # Cramer on the row system [e1; e2; e3] x = b via cofactor cross products;
    # much faster than batched LAPACK at half a million quadruples
    c23 = np.cross(e2, e3)
    det = (e1 * c23).sum(axis=1)
    keep = det * det > (_EPS * _EPS) * l2 ** 3
    e1, e2, e3, c23 = e1[keep], e2[keep], e3[keep], c23[keep]
    b1 = 0.5 * (e1 * e1).sum(axis=1)
    b2 = 0.5 * (e2 * e2).sum(axis=1)
    b3 = 0.5 * (e3 * e3).sum(axis=1)
    x = b1[:, None] * c23 + b2[:, None] * np.cross(e3, e1) + b3[:, None] * np.cross(e1, e2)
    x /= det[keep][:, None]
    centers = A[keep] + x
    r2 = (x * x).sum(axis=1)
    return centers, r2


def is_hull_vertex(index: int, points) -> bool:
    """True iff ``points[index]`` is a vertex of the convex hull.

    Decides whether the point can be written as a convex combination of the
    others by solving a linear feasibility problem (HiGHS). Coordinates are
    normalized by the cloud scale (``tolerance_for``), so the feasibility
    tolerance acts as ``1e-9 * scale``: points within that band of a hull
    face count as non-vertices.
    """
    from scipy.optimize import linprog

    P = as_cloud(points)
    n = len(P)
    if n > _MAX_HULL:
        raise TooLargeError(f"is_hull_vertex supports at most {_MAX_HULL} points, got {n}")
    index = operator.index(index)
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for {n} points")
    if n == 1:
        return True
    scale = tolerance_for(P).scale
    div = scale if scale > 0 else 1.0
    Q = (np.delete(P, index, axis=0) - P[index]) / div
    m = len(Q)
    a_eq = np.vstack([Q.T, np.ones((1, m))])
    b_eq = np.array([0.0, 0.0, 0.0, 1.0])
    res = linprog(
        np.zeros(m),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    if res.status == 0:
        return False
    if res.status == 2:
        return True
    raise RuntimeError(f"hull-vertex feasibility solve ended with status {res.status}")


def enclosing_circle_2d(points2d) -> tuple[np.ndarray, float]:
    """Smallest enclosing circle of 2D points, for cross-checking flat clouds.

    Reduces the points to their convex-hull vertices (the enclosing circle
    of the hull encloses everything), or collinear and coincident input to
    its two lexicographic extremes. Then it runs ``brute_force_ses``'s own
    enumeration on them: pairs and triples, the same bands, witness pruning
    and near-tie rule, and the enclosure check against every point. The
    hull must have at most 400 vertices: at that cap, its C(400, 3)
    triples take 9 s (on an ellipse) to 15 s (on a circle) and a 2.4 GB
    peak, measured on a 2-CPU Xeon with NumPy 2.4.
    """
    from scipy.spatial import ConvexHull, QhullError

    Q = _real_array(points2d)
    if Q.size == 0:
        raise EmptyInputError("no points")
    if Q.ndim != 2 or Q.shape[1] != 2:
        raise InvalidGeometryError(f"expected an (N, 2) point array, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise InvalidGeometryError("non-finite coordinates")
    H = Q
    if len(Q) > 3:
        try:
            H = Q[np.sort(ConvexHull(Q).vertices)]
        except QhullError:  # flat input, which Qhull refuses
            order = np.lexsort(Q.T[::-1])
            H = Q[[order[0], order[-1]]]
    if len(H) > _MAX_HULL_2D:
        raise TooLargeError(f"2D hull has {len(H)} vertices, cap is {_MAX_HULL_2D}")
    return _min_ball(Q, H)
