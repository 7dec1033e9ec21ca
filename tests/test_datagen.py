import numpy as np
import pytest

from minisphere.datagen import generate, kinds
from minisphere.errors import InvalidParamsError, UnknownKindError


def test_kind_registry():
    assert set(kinds()) == {
        "uniform-ball", "uniform-cube", "collinear", "coplanar-disk",
        "co-spherical", "clustered", "near-degenerate",
    }


@pytest.mark.parametrize("kind", sorted({
    "uniform-ball", "uniform-cube", "collinear", "coplanar-disk",
    "co-spherical", "clustered", "near-degenerate",
}))
def test_shape_dtype_determinism(kind):
    a = generate(kind, 123, seed=9)
    b = generate(kind, 123, seed=9)
    c = generate(kind, 123, seed=10)
    assert a.shape == (123, 3) and a.dtype == np.float64
    assert np.isfinite(a).all()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_validation_errors():
    with pytest.raises(UnknownKindError):
        generate("uniform-donut", 10)
    with pytest.raises(InvalidParamsError):
        generate("uniform-ball", 0)
    with pytest.raises(InvalidParamsError):
        generate("uniform-ball", 10, seed=-1)
    with pytest.raises(TypeError):
        generate("uniform-ball", 10, wobble=3)  # no per-kind options


@pytest.mark.parametrize("n, seed", [(2.7, 0), (5, 1.9), ("5", 0), (5, "1")])
def test_arguments_that_are_not_integers_are_refused(n, seed):
    with pytest.raises(InvalidParamsError):
        generate("uniform-ball", n, seed=seed)


def test_numpy_integers_are_accepted():
    assert np.array_equal(generate("uniform-ball", np.int64(5), seed=np.int32(1)), generate("uniform-ball", 5, seed=1))


def test_uniform_ball_inside_radius():
    P = generate("uniform-ball", 5000, seed=0)
    r = np.linalg.norm(P, axis=1)
    assert r.max() <= 1.0
    assert r.min() >= 0.0
    # actually fills the ball rather than hugging the shell
    assert (r < 0.5).mean() > 0.05


def test_uniform_cube_inside_side():
    P = generate("uniform-cube", 5000, seed=1)
    assert P.min() >= 0.0 and P.max() <= 1.0


def test_collinear_is_exactly_collinear():
    """Dyadic parameter grid: cross products of differences are literal zero."""
    P = generate("collinear", 400, seed=5)
    d = P - P[0]
    cr = np.cross(d[1][None, :], d[2:])
    assert (cr == 0.0).all()
    # and the points are pairwise distinct
    assert len(np.unique(P, axis=0)) == len(P)


def _exact_triple(a, b, c):
    """Triple product in rational arithmetic; floats are dyadic so this is exact."""
    from fractions import Fraction as F

    a = [F(x) for x in a]
    b = [F(x) for x in b]
    c = [F(x) for x in c]
    cx = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    return cx[0] * c[0] + cx[1] * c[1] + cx[2] * c[2]


def test_coplanar_disk_is_exactly_coplanar():
    """The dyadic parameter grid keeps every difference in the exact span of
    the two integer axes, so triple products vanish in exact arithmetic."""
    P = generate("coplanar-disk", 300, seed=7)
    d = P - P[0]
    rng = np.random.default_rng(0)
    for _ in range(60):
        i, j, k = rng.integers(1, 300, 3)
        assert _exact_triple(d[i], d[j], d[k]) == 0


def test_coplanar_disk_radius_bound():
    P = generate("coplanar-disk", 2000, seed=3)
    c = P.mean(axis=0)
    assert np.linalg.norm(P - c, axis=1).max() <= 1.05


def test_co_spherical_exact_shell():
    P = generate("co-spherical", 1000, seed=2)
    r = np.linalg.norm(P, axis=1)
    assert np.abs(r - 1.0).max() < 5e-16


def test_near_degenerate_sits_near_a_plane():
    P = generate("near-degenerate", 500, seed=4)
    c = P.mean(axis=0)
    _, s, _ = np.linalg.svd(P - c, full_matrices=False)
    # thinnest direction carries only the jiggle
    assert s[2] / np.sqrt(len(P)) < 5e-8
    assert s[1] / np.sqrt(len(P)) > 1e-3
    # the jiggle sits on the exactly coplanar disk of the same seed
    jiggle = np.abs(P - generate("coplanar-disk", 500, seed=4))
    assert 0.0 < jiggle.max() < 1e-7


def test_clustered_parameters():
    P = generate("clustered", 400, seed=6)
    # five blobs of spread 0.05: points sit near the nearest of five means,
    # where a uniform cloud of the same extent gives a median of about 0.42
    from scipy.cluster.vq import kmeans2

    centroids, label = kmeans2(P, 5, seed=1, minit="++")
    spreadd = np.linalg.norm(P - centroids[label], axis=1)
    assert np.median(spreadd) < 0.15


def test_collinear_span_is_positive():
    P = generate("collinear", 2, seed=8)
    assert np.linalg.norm(P[1] - P[0]) > 0.0
