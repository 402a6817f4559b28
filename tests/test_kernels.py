import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesep import geometry, kernels
from conesep.errors import ConesepError
from conesep.kernels import min_norm_point, nnls, project_onto_cone


def test_nnls_clips_negative_component():
    G = np.array([[1.0, 0.0], [0.0, 1.0]]).T
    res = nnls(G, np.array([1.0, -1.0]))
    assert np.allclose(res.coeffs, [1.0, 0.0])
    assert res.residual == pytest.approx(1.0, abs=1e-12)
    assert res.certified


def test_nnls_single_ray_closed_form():
    g = np.array([[1.0], [1.0]]) / np.sqrt(2)
    res = nnls(g, np.array([1.0, 0.0]))
    assert res.coeffs[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert res.residual == pytest.approx(1 / np.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nnls_rejects_non_finite_target(bad):
    G = np.eye(2)
    with pytest.raises(ConesepError, match="finite"):
        nnls(G, np.array([1.0, bad]))
    cone = geometry.make_polycone(np.eye(2))
    with pytest.raises(ConesepError, match="finite"):
        geometry.cone_membership(np.array([bad, 0.0]), cone)


def test_nnls_interior_point_exact():
    G = np.eye(2)
    res = nnls(G, np.array([2.0, 3.0]))
    assert np.allclose(res.coeffs, [2.0, 3.0])
    assert res.residual == pytest.approx(0.0, abs=1e-12)


def test_projection_orthant_clamps():
    G = np.eye(2)
    assert np.allclose(project_onto_cone(G, np.array([1.0, -1.0])).point, [1.0, 0.0])
    assert np.allclose(project_onto_cone(G, np.array([-1.0, -1.0])).point, [0.0, 0.0])


def test_projection_onto_ray_inner_product_formula():
    g = np.array([[1.0], [1.0]]) / np.sqrt(2)
    res = project_onto_cone(g, np.array([1.0, 0.0]))
    assert np.allclose(res.point, [0.5, 0.5])
    assert res.moreau_inner < 1e-12
    assert res.polar_slack < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 9))
def test_projection_moreau_identity(seed, dim, n_gens):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, n_gens))
    y = rng.standard_normal(dim) * rng.uniform(0.1, 5.0)
    res = project_onto_cone(G, y)
    # Moreau decomposition: the projection and the residual are orthogonal
    # and the residual lies in the polar cone.
    assert res.moreau_inner < 1e-10
    assert res.polar_slack < 1e-8
    assert res.certified


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 9))
def test_nnls_kkt_certificate(seed, dim, n_gens):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, n_gens))
    y = rng.standard_normal(dim)
    res = nnls(G, y)
    assert np.all(res.coeffs >= 0)
    grad = G.T @ (G @ res.coeffs - y)
    scale = max(1.0, float(np.linalg.norm(y)))
    assert grad.min(initial=0.0) >= -1e-9 * scale
    assert abs(res.coeffs @ grad) <= 1e-9 * scale**2


def test_min_norm_point_segment():
    # segment from (1,1) to (1,-1): closest point to the origin is (1,0)
    P = np.array([[1.0, 1.0], [1.0, -1.0]])
    res = min_norm_point(P)
    assert np.allclose(res.point, [1.0, 0.0], atol=1e-10)
    assert res.norm == pytest.approx(1.0, abs=1e-10)
    assert np.all(res.weights >= -1e-12)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_min_norm_point_nearly_flat_corral():
    # three points 2e-4 apart near a curved cap plus one far point, from a
    # stalled distance solve: the corral's affine hull is nearly flat, and a
    # Gram-matrix affine step gave it a negative weight on every cycle
    P = np.array([
        [0.061846114381423956, 0.07148574792214302, 0.11123634174496555],
        [-0.09543516189056828, -1.2603819616465013, -0.3455752350906746],
        [-0.09567197364216301, -1.2603700561070368, -0.345415158281089],
        [-0.09555357306246998, -1.2603760133879713, -0.345495204187143],
    ])
    res = min_norm_point(P)
    assert res.certified
    assert res.iterations <= 8
    gaps = P @ res.point - res.point @ res.point
    assert gaps.min() >= -1e-12


@pytest.mark.parametrize("gap_in_tols, certified", [(1e12, False), (10.0, True)])
def test_min_norm_point_stops_when_the_corral_comes_back(monkeypatch, gap_in_tols,
                                                         certified):
    # An affine step that always gives the new vertex a negative weight makes
    # the minor cycle drop it at theta = 0: the corral comes back unchanged,
    # so Wolfe stops after one major cycle (it used to repeat to max_iter)
    # and certifies by the same 100 * tol rule as a repeated vertex.
    def drop_newest(Q):
        k = len(Q) - 1
        if k == 0:
            return np.ones(1)
        return np.append(np.full(k, 1.5 / k), -0.5)

    monkeypatch.setattr(kernels, "_affine_min_norm", drop_newest)
    P = np.array([[1.0, 0.0], [1.0, 5.0]])
    tol = kernels.MNP_TOL * float((P * P).sum(axis=1).max())
    P[1, 0] = 1.0 - gap_in_tols * tol  # the first gap, <x, x - p_1> at x = p_0
    res = min_norm_point(P)
    assert res.iterations == 1
    assert res.certified is certified
    assert np.array_equal(res.point, P[0])
    assert np.array_equal(res.weights, [1.0, 0.0])


def test_min_norm_point_hull_contains_origin():
    P = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    res = min_norm_point(P)
    assert res.norm < 1e-12
    assert np.allclose(P.T @ res.weights, 0.0, atol=1e-10)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 8))
def test_min_norm_point_is_hull_optimal(seed, dim, n_pts):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_pts, dim))
    res = min_norm_point(P)
    combo = P.T @ res.weights
    assert np.allclose(combo, res.point, atol=1e-9)
    # optimality: no vertex improves the first-order gap
    gaps = P @ res.point - res.point @ res.point
    assert gaps.min(initial=0.0) >= -1e-8 * max(1.0, res.norm**2)
