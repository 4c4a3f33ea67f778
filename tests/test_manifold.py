"""Geometry checks: projection, polar retraction, transport, metric.

Tangency is always measured through the defining identity
W^T H + H^T W = 0, never through the code paths being tested.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scafd.manifold import (
    ProductPoint,
    StiefelPoint,
    TangentPair,
    _polar_inv_sqrt,
    inner,
    norm,
    orthonormality_error,
    project_tangent,
    random_stiefel,
    random_tangent,
    retract,
    riemannian_grad,
    tangency_error,
    transport,
)

dims = st.tuples(st.integers(2, 8), st.integers(1, 3)).filter(lambda t: t[1] <= t[0])
seeds = st.integers(0, 2**31 - 1)


def _case(N, p, seed):
    rng = np.random.default_rng(seed)
    base = random_stiefel(N, p, rng)
    H = random_tangent(base, rng)
    Z = rng.standard_normal((N, p))
    return rng, base, H, Z


# ---------------------------------------------------------------------------
# StiefelPoint / TangentPair invariants


def test_stiefel_point_rejects_skewed_columns():
    with pytest.raises(ValueError, match="not orthonormal"):
        StiefelPoint(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stiefel_point_rejects_non_finite_entries(bad):
    # rejected before W^T W is formed, so numpy has nothing to warn about
    one_bad = np.eye(4)[:, :2]
    one_bad[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not orthonormal"):
            StiefelPoint(np.full((4, 2), bad))
        with pytest.raises(ValueError, match="not orthonormal"):
            StiefelPoint(one_bad)


def test_tangent_pair_shape_mismatch():
    with pytest.raises(ValueError, match="factor shapes differ"):
        TangentPair(np.zeros((3, 2)), np.zeros((3, 1)))


def test_product_point_shape_mismatch(rng):
    base = random_stiefel(4, 2, rng)
    with pytest.raises(ValueError, match="factor shapes differ"):
        ProductPoint(w=np.zeros((4, 1)), w_tilde=base)


# ---------------------------------------------------------------------------
# project_tangent


@given(dims, seeds)
def test_projection_of_base_is_zero(dim, seed):
    N, p = dim
    _, base, _, _ = _case(N, p, seed)
    out = project_tangent(base, base.matrix)
    assert np.linalg.norm(out) <= 1e-12 * np.sqrt(p)


@given(dims, seeds)
def test_projection_is_idempotent(dim, seed):
    N, p = dim
    _, base, _, Z = _case(N, p, seed)
    once = project_tangent(base, Z)
    twice = project_tangent(base, once)
    assert np.linalg.norm(twice - once) <= 1e-12 * max(1.0, np.linalg.norm(once))


@given(dims, seeds)
def test_projection_output_is_tangent(dim, seed):
    N, p = dim
    _, base, _, Z = _case(N, p, seed)
    H = project_tangent(base, Z)
    assert tangency_error(base, H) <= 1e-10 * max(1.0, np.linalg.norm(H))


@given(dims, seeds)
def test_projection_is_self_adjoint(dim, seed):
    N, p = dim
    rng, base, _, Z1 = _case(N, p, seed)
    Z2 = rng.standard_normal((N, p))
    lhs = float(np.sum(project_tangent(base, Z1) * Z2))
    rhs = float(np.sum(Z1 * project_tangent(base, Z2)))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_projection_shape_mismatch(rng):
    base = random_stiefel(5, 2, rng)
    with pytest.raises(ValueError, match="shape mismatch"):
        project_tangent(base, np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# retract


def test_retract_zero_step_returns_base(rng):
    base = random_stiefel(6, 2, rng)
    H = random_tangent(base, rng)
    out = retract(base, H, 0.0)
    assert np.linalg.norm(out.matrix - base.matrix) <= 1e-14


def test_retract_zero_tangent_returns_base(rng):
    base = random_stiefel(6, 2, rng)
    out = retract(base, np.zeros((6, 2)), 1.7)
    assert np.linalg.norm(out.matrix - base.matrix) <= 1e-14


@given(dims, seeds, st.floats(-3.0, 3.0, allow_nan=False))
def test_retract_result_is_orthonormal(dim, seed, t):
    N, p = dim
    _, base, H, _ = _case(N, p, seed)
    out = retract(base, H, t)
    assert orthonormality_error(out.matrix) <= 1e-10


def test_retract_fixed_step_example(rng):
    base = random_stiefel(7, 3, rng)
    H = random_tangent(base, rng)
    out = retract(base, H, 0.37)
    assert orthonormality_error(out.matrix) <= 1e-10


@pytest.mark.parametrize("t", [0.0, 1e-9, 0.01, 0.5, 1.0, 3.0, 10.0])
def test_polar_inv_sqrt_matches_direct_inverse_root(rng, t):
    H = rng.standard_normal((9, 4))
    hth = H.T @ H
    vals, vecs = np.linalg.eigh(np.eye(4) + t * t * hth)
    direct = (vecs / np.sqrt(vals)) @ vecs.T
    got = _polar_inv_sqrt(np.linalg.eigh(hth), t)
    assert np.max(np.abs(got - direct)) <= 1e-13


def test_polar_inv_sqrt_is_exactly_identity_at_zero_step(rng):
    H = rng.standard_normal((9, 4))
    assert np.array_equal(_polar_inv_sqrt(np.linalg.eigh(H.T @ H), 0.0), np.eye(4))


def test_retract_rejects_non_tangent(rng):
    base = random_stiefel(5, 2, rng)
    # symmetric-part direction: maximally non-tangent
    bad = base.matrix * 2.0
    with pytest.raises(ValueError, match="not tangent"):
        retract(base, bad, 0.5)


def test_retract_tolerates_large_tangent_norm(rng):
    # Tangency residual scales with ||H||; a big but genuinely tangent
    # direction must not trip the absolute-looking guard.
    base = random_stiefel(40, 5, rng)
    H = 1e5 * random_tangent(base, rng)
    out = retract(base, H, 1.0)
    assert orthonormality_error(out.matrix) <= 1e-10


@given(dims, seeds)
def test_retract_first_order_rigidity(dim, seed):
    N, p = dim
    _, base, H, _ = _case(N, p, seed)
    t = 1e-5
    residual = np.linalg.norm((retract(base, H, t).matrix - base.matrix) / t - H)
    assert residual <= 1e-4 * max(np.linalg.norm(H), 1e-12)


@given(dims, seeds)
def test_retract_velocity_is_tangent_at_endpoint(dim, seed):
    # Central-difference velocity of the retraction curve lands in the
    # tangent space of the curve point: the cancellation that makes the
    # transported direction a legal tangent vector.
    N, p = dim
    _, base, H, _ = _case(N, p, seed)
    t, eps = 0.3, 1e-6
    mid = retract(base, H, t)
    vel = (retract(base, H, t + eps).matrix - retract(base, H, t - eps).matrix) / (
        2 * eps
    )
    assert tangency_error(mid, vel) <= 1e-6 * max(1.0, np.linalg.norm(vel))


# ---------------------------------------------------------------------------
# inner / norm


def test_inner_identity_pads():
    eye = np.eye(2)
    a = TangentPair(eye, eye)
    assert inner(a, a) == pytest.approx(4.0)


def test_inner_with_zero_is_zero(rng):
    a = TangentPair(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    zero = TangentPair(np.zeros((3, 2)), np.zeros((3, 2)))
    assert inner(a, zero) == 0.0


@given(dims, seeds)
def test_inner_matches_loop_oracle(dim, seed):
    N, p = dim
    rng = np.random.default_rng(seed)
    a = TangentPair(rng.standard_normal((N, p)), rng.standard_normal((N, p)))
    b = TangentPair(rng.standard_normal((N, p)), rng.standard_normal((N, p)))
    acc = 0.0
    for i in range(N):
        for j in range(p):
            acc += a.dw[i, j] * b.dw[i, j] + a.dh[i, j] * b.dh[i, j]
    assert inner(a, b) == pytest.approx(acc, rel=1e-12, abs=1e-12)


def test_norm_is_sqrt_of_inner(rng):
    a = TangentPair(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    assert norm(a) == pytest.approx(np.sqrt(inner(a, a)))


def test_inner_shape_mismatch():
    a = TangentPair(np.zeros((3, 2)), np.zeros((3, 2)))
    b = TangentPair(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        inner(a, b)


# ---------------------------------------------------------------------------
# transport


def test_transport_to_same_base_is_identity(rng):
    base = random_stiefel(6, 2, rng)
    H = TangentPair(rng.standard_normal((6, 2)), random_tangent(base, rng))
    out = transport(base, H)
    assert np.linalg.norm(out.dh - H.dh) <= 1e-12 * max(1.0, np.linalg.norm(H.dh))
    assert np.array_equal(out.dw, H.dw)


def test_transport_of_zero_is_zero(rng):
    base = random_stiefel(6, 2, rng)
    out = transport(base, TangentPair(np.zeros((6, 2)), np.zeros((6, 2))))
    assert np.all(out.dh == 0.0) and np.all(out.dw == 0.0)


@given(dims, seeds)
def test_transport_lands_in_new_tangent_space(dim, seed):
    N, p = dim
    rng = np.random.default_rng(seed)
    old = random_stiefel(N, p, rng)
    new = random_stiefel(N, p, rng)
    H = TangentPair(rng.standard_normal((N, p)), random_tangent(old, rng))
    out = transport(new, H)
    assert tangency_error(new, out.dh) <= 1e-10 * max(1.0, np.linalg.norm(out.dh))


# ---------------------------------------------------------------------------
# riemannian_grad


def test_riemannian_grad_of_zero_is_zero(rng):
    base = random_stiefel(5, 2, rng)
    point = ProductPoint(w=rng.standard_normal((5, 2)), w_tilde=base)
    out = riemannian_grad(point, (np.zeros((5, 2)), np.zeros((5, 2))))
    assert np.all(out.dw == 0.0) and np.all(out.dh == 0.0)


def test_riemannian_grad_keeps_tangent_part(rng):
    base = random_stiefel(5, 2, rng)
    point = ProductPoint(w=rng.standard_normal((5, 2)), w_tilde=base)
    H = random_tangent(base, rng)
    out = riemannian_grad(point, (H, H))
    assert np.array_equal(out.dw, H)
    assert np.linalg.norm(out.dh - H) <= 1e-12 * max(1.0, np.linalg.norm(H))


@pytest.mark.parametrize(
    "gw_shape, gwt_shape",
    [((5, 2), (5, 3)), ((6, 2), (5, 2)), ((5, 3), (5, 3))],
    ids=["stiefel-half-off", "free-half-off", "halves-agree-point-differs"],
)
def test_riemannian_grad_rejects_mis_shaped_gradients(rng, gw_shape, gwt_shape):
    point = ProductPoint(w=rng.standard_normal((5, 2)), w_tilde=random_stiefel(5, 2, rng))
    with pytest.raises(ValueError):
        riemannian_grad(point, (np.zeros(gw_shape), np.zeros(gwt_shape)))


def test_riemannian_grad_directional_derivative(rng):
    # <grad f, xi> must match d/dt f(curve(t)) at t=0 for the ambient
    # quadratic f(W, Wt) = sum(A*W) + sum(B*Wt); the Stiefel factor feels
    # only the tangent component of B.
    from scafd.optimizer import move

    N, p = 6, 2
    base = random_stiefel(N, p, rng)
    point = ProductPoint(w=rng.standard_normal((N, p)), w_tilde=base)
    A = rng.standard_normal((N, p))
    B = rng.standard_normal((N, p))

    def f(pt):
        return float(np.sum(A * pt.w) + np.sum(B * pt.w_tilde.matrix))

    grad = riemannian_grad(point, (A, B))
    xi = TangentPair(rng.standard_normal((N, p)), random_tangent(base, rng))
    eps = 1e-6
    fd = (f(move(point, xi, eps)) - f(move(point, xi, -eps))) / (2 * eps)
    assert inner(grad, xi) == pytest.approx(fd, rel=1e-4)
