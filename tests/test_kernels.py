import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conesep import distance, geometry, kernels
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
# y deep in the cone, coefficients up to 881 against |G.T @ y| = 4.3: a KKT
# slack set by |G.T @ y| alone kept NNLS cycling to its cap, uncertified
@example(seed=14756, dim=4, n_gens=6)
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


def _least_norm_point(P, tol):
    # the origin-to-polytope solve of min_norm_point, run to the end:
    # min_norm_point stops it at its first deciding bracket
    return distance.body_distance(distance.origin_body(P.shape[1]),
                                  distance.PolytopeBody(P), tol)


def test_min_norm_point_segment():
    # segment from (1,1) to (1,-1): closest point to the origin is (1,0)
    P = np.array([[1.0, 1.0], [1.0, -1.0]])
    res = _least_norm_point(P, 1e-9)
    assert np.allclose(res.witness_b, [1.0, 0.0], atol=1e-10)
    assert res.distance == pytest.approx(1.0, abs=1e-10)
    assert np.all(res.weights >= -1e-12)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)
    # min_norm_point stops once decided, at a bracket holding that distance
    P = np.array([[1.0, 1.0], [1.2, -0.3]])
    full, res = _least_norm_point(P, 1e-9), min_norm_point(P, 1e-9)
    assert res.stop == "decided" and res.certified
    assert res.lower_bound <= full.distance < res.distance


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
    res = _least_norm_point(P, 1e-9)
    assert res.certified
    assert res.iterations <= 8
    gaps = P @ res.witness_b - res.witness_b @ res.witness_b
    assert gaps.min() >= -1e-12


@pytest.mark.parametrize("gap_in_tols, certified", [(1e12, False), (10.0, True)])
def test_min_norm_point_stops_when_the_corral_comes_back(monkeypatch, gap_in_tols,
                                                         certified):
    # An affine step that always gives the new vertex a negative weight makes
    # the minor cycles drop it at theta = 0: the corral comes back unchanged,
    # so the solve stops after one iteration as a repeated point, certified
    # when the gap is within 100 * GAP_REL_FLOOR * |x|^2.
    def drop_newest(Q):
        k = len(Q) - 1
        if k == 0:
            return np.ones(1)
        return np.append(np.full(k, 1.5 / k), -0.5)

    monkeypatch.setattr(kernels, "_affine_min_norm", drop_newest)
    P = np.array([[1.0, 0.0], [1.0, 5.0]])
    # x = p_0 has |x|^2 = 1; tol is small enough that the gap rule, at
    # GAP_REL_FLOOR, does not certify first
    P[1, 0] = 1.0 - gap_in_tols * distance.GAP_REL_FLOOR  # the first gap, <x, x - p_1>
    res = _least_norm_point(P, 1e-15)
    assert res.iterations == 1
    assert res.stop == "repeat_point" and res.certified is certified
    assert np.array_equal(res.witness_b, P[0])
    assert np.array_equal(res.weights, [1.0])


def test_corral_step_no_drop_and_drop_paths():
    # Weights pinned to the bit.  The origin lies inside the triangle, so no
    # vertex drops and no mask is made; the new row comes in at weight 0.
    Q = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    w, keep = kernels.corral_step(Q, np.array([0.25, 0.75]))
    assert keep is None
    assert w.tolist() == [0.5000000000000001, 0.24999999999999994, 0.24999999999999994]
    # the origin's affine weight on (1, -1) is negative: that vertex goes
    Q = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -3.0]])
    w, keep = kernels.corral_step(Q, np.array([0.5, 0.5]))
    assert keep.tolist() == [True, False, True]
    assert w.tolist() == [0.7, 0.3]
    Q = np.array([[1.0, 2.0, 0.5], [0.5, -1.0, 2.0], [2.0, 0.3, 1.0], [0.1, 0.2, -3.0]])
    w, keep = kernels.corral_step(Q, np.array([0.2, 0.3, 0.5]))
    assert keep.tolist() == [True, True, False, True]
    assert w.tolist() == [0.15334865572719036, 0.4809182746271846, 0.36573306964562496]


def test_min_norm_point_hull_contains_origin():
    P = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    res = min_norm_point(P, 1e-9)
    assert res.distance < 1e-12
    assert np.allclose(res.support_b.T @ res.weights, 0.0, atol=1e-10)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 8))
def test_min_norm_point_is_hull_optimal(seed, dim, n_pts):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_pts, dim))
    res = _least_norm_point(P, 1e-9)
    combo = res.support_b.T @ res.weights
    assert np.allclose(combo, res.witness_b, atol=1e-9)
    # optimality: no vertex improves the first-order gap
    gaps = P @ res.witness_b - res.witness_b @ res.witness_b
    assert gaps.min(initial=0.0) >= -1e-8 * max(1.0, res.distance**2)


def _reference_nnls(G, y):
    """Lawson-Hanson with every least squares solve on np.linalg.lstsq:
    the loop ``nnls`` runs, without its closed-form first step."""
    n = G.shape[1]
    gnorm = np.linalg.norm(G, axis=0)
    scale_y = max(1.0, float(np.abs(G.T @ y).max(initial=0.0)))
    lam = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    outer = 0
    certified = True
    while True:
        scale = max(scale_y, float(gnorm.max(initial=0.0)) * float(lam @ gnorm))
        w = np.where(passive, -np.inf, G.T @ (y - G @ lam))
        j = int(np.argmax(w))
        if w[j] <= kernels.KKT_TOL * scale:
            break
        if outer >= 3 * n + 30:
            certified = False
            break
        outer += 1
        passive[j] = True
        for _ in range(n + 1):
            idx = np.flatnonzero(passive)
            z = np.zeros(n)
            z[idx] = np.linalg.lstsq(G[:, idx], y, rcond=None)[0]
            if z[idx].min() > 0.0:
                lam = z
                break
            blocking = passive & (z <= 0.0)
            theta = float((lam[blocking] / (lam[blocking] - z[blocking])).min())
            lam = lam + theta * (z - lam)
            drop = passive & (lam <= kernels.WEIGHT_FLOOR * max(1.0, lam.max()))
            lam[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                lam = np.zeros(n)
                break
    w = G.T @ (y - G @ lam)
    kkt = max(float(w.max(initial=0.0)), float(np.abs(w[lam > 0.0]).max(initial=0.0)))
    return lam, outer, certified and kkt / scale <= 10.0 * kernels.KKT_TOL


def _threshold_case(rng, dim, n_gens, offset):
    """G and y on which Lawson-Hanson's first step takes column 0 and then
    column 1 scores tol_w + offset: the step is accepted iff offset <= 0.

    y = 4 g_0 + b v with v the unit part of g_1 orthogonal to g_0, so the
    step leaves the residual b v and column 1 scores b (g_1 . v).  The other
    columns are orthogonal to v and score about 0 after the step.  Each is
    turned to g_0 . g_j <= 0, so column 0 is the unique first pick: in R^2
    they all lie along +-g_0, and one near +g_0 would tie with it.
    """
    G = rng.standard_normal((dim, n_gens))
    G /= np.linalg.norm(G, axis=0)
    g0 = G[:, 0]
    v = G[:, 1] - (G[:, 1] @ g0) * g0
    v /= np.linalg.norm(v)
    G[:, 2:] -= np.outer(v, v @ G[:, 2:])
    G[:, 2:] /= np.linalg.norm(G[:, 2:], axis=0)
    G[:, 2:] *= np.where(g0 @ G[:, 2:] > 0.0, -1.0, 1.0)
    tol_w = kernels.KKT_TOL * 4.0  # the scale is |g_0 . y| = 4
    y = 4.0 * g0 + (tol_w + offset) / (G[:, 1] @ v) * v
    return G, y


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9),
       st.sampled_from(["random", "tie", "mirror", "threshold"]),
       st.sampled_from([-1e-10, -1e-11, -1e-12, -1e-13, 1e-13, 1e-12, 1e-11, 1e-10]))
@example(seed=13703, dim=2, n_gens=4, case="threshold", offset=-1e-13)
def test_nnls_matches_the_lstsq_reference_loop(seed, dim, n_gens, case, offset):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, n_gens))
    y = rng.standard_normal(dim)
    if case == "tie" and n_gens >= 2:
        G[:, 1] = G[:, 0]  # an exact tie in argmax at lam = 0
    elif case == "mirror" and dim >= 2 and n_gens >= 2:
        # column 1 is column 0 with two coordinates swapped, on which y is
        # symmetric: the two score alike up to the order of summation
        y[1] = y[0]
        G[:, 1] = G[[1, 0, *range(2, dim)], 0]
    elif case == "threshold" and dim >= 2 and n_gens >= 2:
        G, y = _threshold_case(rng, dim, n_gens, offset)
        w = G.T @ (y - (G[:, 0] @ y) * G[:, 0])
        assert (w[1] > kernels.KKT_TOL * 4.0) == (offset > 0)
    ref, iters, certified = _reference_nnls(G, y)
    res = nnls(G, y)
    assert np.abs(res.coeffs - ref).max() <= 1e-12 * np.abs(ref).max(initial=0.0)
    assert res.certified == certified
    assert res.iterations == iters
    if case == "threshold" and dim >= 2 and n_gens >= 2:
        assert iters == (1 if offset < 0 else 2)


def test_one_column_solves_make_no_lstsq_call(monkeypatch):
    calls = []
    real = np.linalg.lstsq
    monkeypatch.setattr(kernels.np.linalg, "lstsq",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    g = np.array([[3.0], [4.0], [0.0]])
    res = nnls(g, np.array([1.0, 2.0, 5.0]))
    assert res.coeffs[0] == pytest.approx(11.0 / 25.0, rel=1e-15)
    assert res.iterations == 1 and res.certified
    # two rays, the first step accepted: the second ray scores below zero
    res = nnls(np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([2.0, -1.0]))
    assert np.array_equal(res.coeffs, [2.0, 0.0])
    assert res.iterations == 1 and res.certified
    # Wolfe on a segment: its only corral of two points
    P = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(_least_norm_point(P, 1e-9).witness_b, [1.0, 0.0], atol=1e-15)
    assert np.allclose(kernels._affine_min_norm(P), [0.5, 0.5], atol=1e-15)
    assert calls == []


def _lstsq_affine_weights(Q):
    D = (Q[1:] - Q[0]).T
    mu = np.linalg.lstsq(D, -Q[0], rcond=None)[0]
    return np.concatenate(([1.0 - mu.sum()], mu))


def test_two_point_affine_step_on_duplicate_points():
    Q = np.array([[0.3, -1.2, 2.0], [0.3, -1.2, 2.0]])
    assert np.array_equal(kernels._affine_min_norm(Q), [1.0, 0.0])
    assert np.array_equal(_lstsq_affine_weights(Q), [1.0, 0.0])


@pytest.mark.parametrize("seed", range(50))
def test_two_point_affine_step_on_points_1e_8_apart(seed):
    rng = np.random.default_rng(seed)
    q0 = rng.standard_normal(int(rng.integers(2, 7)))
    Q = np.stack([q0, q0 + 1e-8 * rng.standard_normal(q0.size)])
    # the weights grow like |q_0| / |q_1 - q_0|, and so does their error
    scale = np.abs(Q).max() / np.abs(Q[1] - Q[0]).max()
    got, ref = kernels._affine_min_norm(Q), _lstsq_affine_weights(Q)
    assert np.abs(got - ref).max() <= 1e-15 * scale
