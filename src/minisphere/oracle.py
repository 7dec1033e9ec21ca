"""Desk-scale ground truth, independent of the production solver.

``brute_force_ses`` enumerates every candidate support set (pairs, triples,
quadruples) with its own batched linear algebra; it shares no code with the
incremental solver, which is what makes cross-checks meaningful.
``is_hull_vertex`` answers membership in the convex-hull vertex set through
a linear feasibility problem. Both are capped to small inputs on purpose.
SciPy is imported inside the functions that use it, so ``import
minisphere`` and the CLI do not load it.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, InvalidGeometryError, TooLargeError
from .geom import _EPS, Sphere, as_cloud, tolerance_for

_MAX_BRUTE = 80
_MAX_HULL = 60
_MAX_HULL_2D = 400


def brute_force_ses(points) -> Sphere:
    """Smallest enclosing sphere by exhaustive candidate enumeration.

    Parameters
    ----------
    points : (N, 3) array-like, 1 <= N <= 80. Its ``tolerance_for`` sets
        the enclosure bands; the degeneracy cut is ``geom._EPS``.

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
    tol = tolerance_for(P)
    if n == 1:
        return Sphere(P[0].copy(), 0.0)

    centers = []
    radii2 = []

    i, j = np.triu_indices(n, 1)
    centers.append(0.5 * (P[i] + P[j]))
    radii2.append(0.25 * ((P[i] - P[j]) ** 2).sum(axis=1))

    if n >= 3:
        c, r2 = _circumcircles(P)
        if len(c):
            centers.append(c)
            radii2.append(r2)
    if n >= 4:
        c, r2 = _circumspheres(P)
        if len(c):
            centers.append(c)
            radii2.append(r2)

    C = np.concatenate(centers, axis=0)
    R2 = np.concatenate(radii2, axis=0)

    abs2 = (1e-14 * tol.scale) ** 2
    band = 1.0 + 1e-12

    def outside(ci):
        """Index of a point outside candidate ci, or -1 when it encloses."""
        d2 = ((P - C[ci][None, :]) ** 2).sum(axis=1)
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
    for ax in range(3):
        for w in (int(P[:, ax].argmin()), int(P[:, ax].argmax())):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    r2min = -1.0
    while True:
        for w in queue:
            d2w = ((C - P[w][None, :]) ** 2).sum(axis=1)
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
    order = np.lexsort((C[cand, 2], C[cand, 1], C[cand, 0]))
    best = None
    for ci in cand[order]:
        if not active[ci]:
            continue
        v = outside(ci)
        if v < 0:
            best = (r2min, C[ci])
            break
        d2w = ((C[cand] - P[v][None, :]) ** 2).sum(axis=1)
        active[cand] &= d2w <= R2[cand] * band + abs2
    assert best is not None  # the r2min candidate itself always qualifies

    r = float(np.sqrt(best[0]))
    center = best[1]
    d2 = ((P - center[None, :]) ** 2).sum(axis=1).max()
    lim = r + tol.abs_eps
    if d2 > lim * lim:
        raise RuntimeError("oracle result fails its own enclosure check")
    return Sphere(center.copy(), r)


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
    if not keep.any():
        return np.empty((0, 3)), np.empty(0)
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
    if not keep.any():
        return np.empty((0, 3)), np.empty(0)
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
    index = int(index)
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

    Reduces to convex-hull vertices first (the enclosing circle of the hull
    encloses everything), then enumerates pair and triple candidates the
    same way the 3D oracle does. The hull must have at most 400 vertices.
    """
    from scipy.spatial import ConvexHull, QhullError

    Q = np.asarray(points2d, dtype=np.float64)
    if Q.size == 0:
        raise EmptyInputError("no points")
    if Q.ndim != 2 or Q.shape[1] != 2:
        raise InvalidGeometryError(f"expected an (N, 2) point array, got shape {Q.shape}")
    if not np.isfinite(Q).all():
        raise InvalidGeometryError("non-finite coordinates")
    if len(Q) == 1:
        return Q[0].copy(), 0.0
    H = Q
    if len(Q) > 3:
        try:
            H = Q[np.sort(ConvexHull(Q).vertices)]
        except QhullError:
            H = Q
    if len(H) > _MAX_HULL_2D:
        raise TooLargeError(f"2D hull has {len(H)} vertices, cap is {_MAX_HULL_2D}")

    scale = float(np.linalg.norm(H.max(axis=0) - H.min(axis=0)))
    centers = []
    radii2 = []
    i, j = np.triu_indices(len(H), 1)
    centers.append(0.5 * (H[i] + H[j]))
    radii2.append(0.25 * ((H[i] - H[j]) ** 2).sum(axis=1))
    if len(H) >= 3:
        idx = _combo_index(len(H), 3)
        A, B, C = H[idx[:, 0]], H[idx[:, 1]], H[idx[:, 2]]
        ba, ca = B - A, C - A
        d11 = (ba * ba).sum(axis=1)
        d22 = (ca * ca).sum(axis=1)
        d12 = (ba * ca).sum(axis=1)
        det = d11 * d22 - d12 * d12
        l2 = np.maximum(d11, d22)
        keep = det > (1e-9 * l2) ** 2
        if keep.any():
            alpha = (d22 * (d11 - d12) / (2.0 * det))[keep]
            beta = (d11 * (d22 - d12) / (2.0 * det))[keep]
            centers.append(A[keep] + alpha[:, None] * ba[keep] + beta[:, None] * ca[keep])
            radii2.append(alpha * alpha * d11[keep] + 2 * alpha * beta * d12[keep] + beta * beta * d22[keep])
    C2 = np.concatenate(centers, axis=0)
    R2 = np.concatenate(radii2, axis=0)
    d2max = ((H[None, :, :] - C2[:, None, :]) ** 2).sum(axis=2).max(axis=1)
    ok = d2max <= R2 * (1.0 + 1e-12) + (1e-14 * scale) ** 2
    cand_r2 = R2[ok]
    cand_c = C2[ok]
    k = int(np.argmin(cand_r2))
    # final sanity against the full cloud, not just the hull
    r = float(np.sqrt(cand_r2[k]))
    center = cand_c[k]
    worst = float(np.sqrt(((Q - center[None, :]) ** 2).sum(axis=1).max()))
    if worst > r + 1e-9 * scale:
        raise RuntimeError("2D oracle result fails its enclosure check")
    return center.copy(), r
