"""Cost/gradient correctness and conjugate-gradient behavior on the manifold."""

import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from scafd import optimizer
from scafd.data import DataMatrix
from scafd.manifold import (
    ProductPoint,
    StiefelPoint,
    TangentPair,
    inner,
    orthonormality_error,
    random_stiefel,
    random_tangent,
    riemannian_grad,
)
from scafd.optimizer import (
    CgConfig,
    LineSearchError,
    cg_optimize,
    cost,
    euclidean_grad,
    get_activation,
    init_product_point,
    line_search,
    move,
)
from scafd.optimizer import (
    _ARMIJO_C1,
    _BACKTRACK,
    _INITIAL_STEP,
    _MAX_BACKTRACKS,
    _STEPS,
    _forward,
    _grad,
    _Ray,
    _sq_norm,
)
from scafd.sca import train

IDENTITY = get_activation("identity")
TANH_ID = get_activation("tanh")


def _random_point(N, p, rng):
    return ProductPoint(
        w=rng.standard_normal((N, p)), w_tilde=random_stiefel(N, p, rng)
    )


def _loose_stiefel(matrix):
    """StiefelPoint carrier without the orthonormality check, for probing
    the cost off the manifold in finite-difference tests."""
    pt = object.__new__(StiefelPoint)
    pt.matrix = matrix
    return pt


def _fd_grad(point, X, activations, eps=1e-6):
    """Central finite differences of the cost in every parameter entry."""
    grads = []
    for which in ("w", "w_tilde"):
        base = point.w if which == "w" else point.w_tilde.matrix
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            for sgn in (1.0, -1.0):
                shifted = base.copy()
                shifted[idx] += sgn * eps
                if which == "w":
                    probe = ProductPoint(w=shifted, w_tilde=point.w_tilde)
                else:
                    probe = ProductPoint(
                        w=point.w, w_tilde=_loose_stiefel(shifted)
                    )
                g[idx] += sgn * cost(probe, X, activations) / (2 * eps)
        grads.append(g)
    return tuple(grads)


# ---------------------------------------------------------------------------
# CgConfig


def test_cg_config_defaults():
    cfg = CgConfig()
    assert cfg.max_iters == 500
    assert cfg.grad_tol == 1e-5
    assert cfg.cost_rel_tol == 1e-9
    assert cfg.seed == 0


@pytest.mark.parametrize("kwargs", [{"max_iters": 0}])
def test_cg_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        CgConfig(**kwargs)


# ---------------------------------------------------------------------------
# cost


def test_cost_zero_data_is_zero(rng):
    point = _random_point(7, 2, rng)
    assert cost(point, np.zeros((7, 5))) == 0.0


def test_cost_identity_equals_projection_residual(rng):
    # With identity activations and tied weights the autoencoder is the
    # orthogonal projector onto span(w_tilde).
    N, p, m = 8, 3, 20
    base = random_stiefel(N, p, rng)
    point = ProductPoint(w=base.matrix.copy(), w_tilde=base)
    X = rng.standard_normal((N, m))
    projector = base.matrix @ base.matrix.T
    oracle = float(np.sum((X - projector @ X) ** 2))
    assert cost(point, X, IDENTITY) == pytest.approx(oracle, rel=1e-12)


def test_cost_perfect_reconstruction_at_full_rank(rng):
    N = 4
    point = ProductPoint(w=np.eye(N), w_tilde=StiefelPoint(np.eye(N)))
    X = rng.standard_normal((N, 6))
    assert cost(point, X, IDENTITY) == 0.0


def test_cost_shape_mismatch(rng):
    point = _random_point(5, 2, rng)
    with pytest.raises(ValueError, match="do not match data rows"):
        cost(point, np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# euclidean_grad


def test_grad_zero_data_is_zero(rng):
    point = _random_point(6, 2, rng)
    gw, gwt = euclidean_grad(point, np.zeros((6, 4)))
    assert np.all(gw == 0.0) and np.all(gwt == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_grad_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    N, p, m = 7, 2, 5
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    gw, gwt = euclidean_grad(point, X, TANH_ID)
    fw, fwt = _fd_grad(point, X, TANH_ID)
    for analytic, fd in ((gw, fw), (gwt, fwt)):
        err = np.abs(analytic - fd)
        assert np.all(err <= 1e-5 * np.maximum(1.0, np.abs(analytic)))


def test_grad_linear_decoder_closed_form(rng):
    # Identity activations: d/d w_tilde reduces to 2 (w_tilde G - X) G^T.
    N, p, m = 6, 2, 9
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    _, gwt = euclidean_grad(point, X, IDENTITY)
    G = point.w.T @ X
    closed = 2.0 * (point.w_tilde.matrix @ G - X) @ G.T
    assert np.allclose(gwt, closed, rtol=1e-12, atol=1e-12)


def _direct_grad(point, X, enc):
    """The N x m residual formula: D = 2 (W~ G - X), d/dW~ = D G^T and
    d/dw = X (enc'(w^T X) * W~^T D)^T.  Oracle for the forward-pass form."""
    pre = point.w.T @ X
    G = enc.fn(pre)
    W = point.w_tilde.matrix
    D = 2.0 * (W @ G - X)
    return X @ (enc.deriv(G) * (W.T @ D)).T, D @ G.T


def _grad_term_sizes(point, direction, t, R, moved, X):
    """Sizes of the terms that the trial and the direct tanh gradient cancel.

    A rounded sum is off by a few eps times the sum of its terms' magnitudes,
    however small the sum.  Entrywise, in units of eps:
    - both sides sum w^T X + t dw^T X from terms of size
      P = (|w| + t |dw|)^T |X|, so G moves by up to enc'(G) P + |G| and
      enc'(G) = 1 - G^2 by up to 2 |G| enc'(G) P + 1 + G^2;
    - the trial sums W~^T X and W~^T W~ from terms of size Y^T |X| and Y^T Y,
      Y = (|W~_0| + t |H|) |R| with R the ray's polar factor;
    - Delta = enc'(G) * 2 (W~^T W~ G - W~^T X) cancels those terms again,
      and d/dw = X Delta^T carries them through |X|;
    - d/dW~ = 2 (W~ G G^T - X G^T) cancels |W~| |G| |G|^T against |X| |G|^T.
    Returns the Frobenius norms of the resulting bounds for d/dw and d/dW~.
    """
    W = moved.w_tilde.matrix
    G = np.tanh(moved.w.T @ X)
    deriv = 1.0 - G * G
    abs_x, abs_g = np.abs(X), np.abs(G)
    pre = (np.abs(point.w) + t * np.abs(direction.dw)).T @ abs_x
    err_g = deriv * pre + abs_g
    Y = (np.abs(point.w_tilde.matrix) + t * np.abs(direction.dh)) @ np.abs(R)
    residual = np.abs(2.0 * (W.T @ (W @ G) - W.T @ X))
    residual_terms = (Y.T @ Y) @ (abs_g + err_g) + Y.T @ abs_x
    err_delta = (2.0 * abs_g * deriv * pre + 1.0 + G * G) * residual
    err_delta += 2.0 * deriv * residual_terms
    size_w = np.linalg.norm(abs_x @ err_delta.T)
    wide_g = abs_g + err_g
    size_wt = np.linalg.norm(
        2.0 * (np.abs(W) @ (wide_g @ abs_g.T + abs_g @ err_g.T) + abs_x @ wide_g.T)
    )
    return size_w, size_wt


@given(
    st.integers(1, 4),
    st.integers(0, 8),
    st.integers(1, 20),
    st.floats(-6.0, 1.0),
    st.floats(-2.0, 1.0),
    st.integers(0, 2**31 - 1),
)
# ||X||^2 = 0.67 cancels down to a cost of 2.8e-6, 1.4e-11 apart relative
@example(p=1, extra=0, m=1, log_t=0.0, log_scale=-1.0, seed=11735)
# d/dw 3.97e-13 apart at norm 0.32: w^T X + t dw^T X cancels terms of ~200
@example(p=3, extra=2, m=1, log_t=1.0, log_scale=1.0, seed=391055789)
@example(p=1, extra=7, m=3, log_t=-1.9140625, log_scale=-0.21875, seed=7594)
# the trial's W~^T X cancels (W~ + tH)^T X, t |H| = 125, down to size 3
@example(p=3, extra=0, m=17, log_t=1.0, log_scale=1.0, seed=154828682)
def test_closed_form_trial_matches_moved_point(p, extra, m, log_t, log_scale, seed):
    # t up to 10 with direction norms up to ~10 drives (I + t^2 H^T H) far
    # from I, exercising the eigenvalue floor and the Newton-Schulz sweep.
    rng = np.random.default_rng(seed)
    N = p + extra
    enc = TANH_ID
    point = _random_point(N, p, rng)
    scale = 10.0**log_scale
    direction = TangentPair(
        scale * rng.standard_normal((N, p)),
        scale * random_tangent(point.w_tilde, rng),
    )
    X = rng.standard_normal((N, m))
    t = 10.0**log_t

    ray = _Ray(point, _forward(point, X, enc), direction, X, enc)
    fwd = ray.at(t)
    moved = move(point, direction, t)
    oracle = cost(moved, X)
    # The expanded cost ||X||^2 - 2 <W~^T X, G> + <G, W~^T W~ G> sums terms
    # of size ||X||^2, so its rounding error is a few eps * ||X||^2 however
    # small the cost they cancel down to; the relative term alone cannot hold.
    x_sq = _sq_norm(X)
    tol = 1e-12 * oracle + 16 * np.finfo(float).eps * x_sq
    assert abs(fwd.cost(x_sq) - oracle) <= tol

    gw, gwt = _grad(fwd, X, moved.w_tilde.matrix, enc)
    ow, owt = _direct_grad(moved, X, enc)
    # The same holds for the gradients: their rounding error scales with the
    # terms they cancel, which t |dw| and t |H| can make far larger than the
    # gradients themselves (see _grad_term_sizes).
    size_w, size_wt = _grad_term_sizes(point, direction, t, fwd.polar, moved, X)
    eps = np.finfo(float).eps
    assert np.linalg.norm(gw - ow) <= 1e-12 * np.linalg.norm(ow) + 16 * eps * size_w
    assert np.linalg.norm(gwt - owt) <= 1e-12 * np.linalg.norm(owt) + 16 * eps * size_wt


def test_euclidean_grad_matches_direct_formula(rng):
    point = _random_point(9, 3, rng)
    X = rng.standard_normal((9, 25))
    oracle = _direct_grad(point, X, TANH_ID)
    for got, want in zip(euclidean_grad(point, X), oracle):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# line_search


def test_line_search_accepts_armijo_step(rng):
    N, p, m = 6, 2, 12
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    grad = riemannian_grad(point, euclidean_grad(point, X))
    direction = -1.0 * grad
    f0 = cost(point, X)
    t, f_t, new_point, _, new_grad, trials = line_search(
        point, _forward(point, X, TANH_ID), direction, X, grad, f0, _sq_norm(X)
    )
    assert t > 0 and trials >= 1
    assert f_t <= f0 + _ARMIJO_C1 * t * inner(grad, direction)
    assert f_t == pytest.approx(cost(new_point, X), rel=1e-12)
    direct = riemannian_grad(new_point, euclidean_grad(new_point, X))
    for got, want in ((new_grad.dw, direct.dw), (new_grad.dh, direct.dh)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_line_search_builds_the_decoder_from_the_accepted_trials_factor(rng, monkeypatch):
    # Each trial computes one polar factor; the accepted point reuses its
    # trial's factor instead of computing it again.
    N, p, m = 6, 2, 12
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    grad = riemannian_grad(point, euclidean_grad(point, X))
    direction = -50.0 * grad  # too long a step: the search backtracks
    fwd = _forward(point, X, TANH_ID)
    calls = []
    real_factor = optimizer._polar_factor

    def counted(*args):
        calls.append(1)
        return real_factor(*args)

    monkeypatch.setattr(optimizer, "_polar_factor", counted)
    t, _, new_point, _, _, trials = line_search(
        point, fwd, direction, X, grad, cost(point, X), _sq_norm(X)
    )
    assert trials > 1
    assert len(calls) == trials
    R = _Ray(point, fwd, direction, X, TANH_ID).at(t).polar
    assert np.array_equal(
        new_point.w_tilde.matrix, (point.w_tilde.matrix + t * direction.dh) @ R
    )


def test_line_search_rejects_zero_gradient(rng):
    point = _random_point(5, 2, rng)
    X = np.zeros((5, 4))
    zero = TangentPair(np.zeros((5, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="not a descent direction"):
        line_search(point, _forward(point, X, TANH_ID), zero, X, zero, 0.0, 0.0)


def test_line_search_rejects_ascent_direction(rng):
    N, p, m = 6, 2, 12
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    grad = riemannian_grad(point, euclidean_grad(point, X))
    with pytest.raises(ValueError, match="not a descent direction"):
        line_search(point, _forward(point, X, TANH_ID), grad, X, grad, cost(point, X), _sq_norm(X))


def test_line_search_rejects_start_outside_the_step_set(rng):
    N, p, m = 6, 2, 12
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    grad = riemannian_grad(point, euclidean_grad(point, X))
    for start in (0.3, 2.0 * _INITIAL_STEP, _STEPS[-1] * _BACKTRACK):
        with pytest.raises(ValueError, match="start must be"):
            line_search(
                point, _forward(point, X, TANH_ID), -1.0 * grad, X, grad, cost(point, X),
                _sq_norm(X), start=start,
            )


def _backtrack_from_one(
    point, fwd, direction, X, grad, f0, x_sq, encoder=TANH_ID, start=_INITIAL_STEP
):
    """Reference search: backtrack from _INITIAL_STEP whatever ``start`` says,
    so it returns the largest accepted step of the set."""
    slope = inner(grad, direction)
    ray = _Ray(point, fwd, direction, X, encoder)
    t = _INITIAL_STEP
    for trials in range(1, _MAX_BACKTRACKS + 2):
        new_fwd = ray.at(t)
        f_t = new_fwd.cost(x_sq)
        if f_t <= f0 + _ARMIJO_C1 * t * slope:
            w_tilde = StiefelPoint((point.w_tilde.matrix + t * direction.dh) @ new_fwd.polar)
            new_point = ProductPoint(point.w + t * direction.dw, w_tilde)
            eucl = _grad(new_fwd, X, new_point.w_tilde.matrix, encoder)
            return t, f_t, new_point, new_fwd, riemannian_grad(new_point, eucl), trials
        t *= _BACKTRACK
    raise LineSearchError("no Armijo step", trials)


@given(
    st.integers(1, 3),
    st.integers(0, 6),
    st.integers(2, 30),
    st.floats(-1.0, 3.0),
    st.integers(0, 12),
    st.integers(0, 2**31 - 1),
)
def test_warm_started_search_climbs_to_the_top_of_its_run(p, extra, m, log_scale, k0, seed):
    rng = np.random.default_rng(seed)
    N = p + 1 + extra
    point = _random_point(N, p, rng)
    X = 3.0 * rng.standard_normal((N, m))
    grad = riemannian_grad(point, euclidean_grad(point, X))
    direction = -(10.0**log_scale) * grad
    f0, x_sq = cost(point, X), _sq_norm(X)
    if not inner(grad, direction) < 0:
        return  # stationary start
    slope = inner(grad, direction)
    fwd = _forward(point, X, TANH_ID)
    ray = _Ray(point, fwd, direction, X, TANH_ID)
    accepted = [
        k for k, t in enumerate(_STEPS) if ray.at(t).cost(x_sq) <= f0 + _ARMIJO_C1 * t * slope
    ]
    if not accepted:
        with pytest.raises(LineSearchError):
            line_search(point, fwd, direction, X, grad, f0, x_sq, start=_STEPS[k0])
        return
    t, f_t, new_point, _, _, trials = line_search(
        point, fwd, direction, X, grad, f0, x_sq, start=_STEPS[k0]
    )
    k = _STEPS.index(t)  # t is a step, so at most _INITIAL_STEP
    assert k in accepted
    assert k == 0 or k - 1 not in accepted
    assert 1 <= trials <= len(_STEPS)
    if accepted == list(range(accepted[0], accepted[-1] + 1)):
        ref_t, ref_f, ref_point, _, _, _ = _backtrack_from_one(
            point, fwd, direction, X, grad, f0, x_sq
        )
        assert (t, f_t) == (ref_t, ref_f)
        assert np.array_equal(new_point.w, ref_point.w)
        assert np.array_equal(new_point.w_tilde.matrix, ref_point.w_tilde.matrix)


def test_failing_search_tries_every_step_from_a_warm_start(rng, monkeypatch):
    N, p, m = 6, 2, 12
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    grad = riemannian_grad(point, euclidean_grad(point, X))
    tried = []
    real_at = _Ray.at

    def recording_at(self, t):
        tried.append(t)
        return real_at(self, t)

    monkeypatch.setattr(_Ray, "at", recording_at)
    # the cost is a squared norm, so no step reaches below f0 = -1
    with pytest.raises(LineSearchError) as failed:
        line_search(
            point, _forward(point, X, TANH_ID), -1.0 * grad, X, grad, -1.0, _sq_norm(X),
            start=_STEPS[30],
        )
    assert tried == [_STEPS[k] for k in [*range(30, len(_STEPS)), *range(30)]]
    assert failed.value.trials == len(_STEPS) == _MAX_BACKTRACKS + 1
    assert failed.value.trace is None  # only cg_optimize attaches one


def test_search_below_an_isolated_run_falls_back_to_larger_steps(rng, monkeypatch):
    # Only k = 2 and 3 pass: a search started at k = 30 halves to the floor,
    # then tries k = 0, 1, 2 and returns the largest accepted step.
    N, p, m = 6, 2, 12
    point = _random_point(N, p, rng)
    X = rng.standard_normal((N, m))
    grad = riemannian_grad(point, euclidean_grad(point, X))
    step_of = {}
    real_at = _Ray.at

    def recording_at(self, t):
        fwd = real_at(self, t)
        step_of[id(fwd)] = t
        return fwd

    def rigged_cost(self, x_sq):
        return -2.0 if step_of[id(self)] in (_STEPS[2], _STEPS[3]) else 0.0

    monkeypatch.setattr(_Ray, "at", recording_at)
    monkeypatch.setattr(optimizer._Forward, "cost", rigged_cost)
    t, f_t, _, _, _, trials = line_search(
        point, _forward(point, X, TANH_ID), -1.0 * grad, X, grad, -1.0, _sq_norm(X),
        start=_STEPS[30],
    )
    assert (t, f_t) == (_STEPS[2], -2.0)
    assert trials == (len(_STEPS) - 30) + 3


def test_warm_start_keeps_the_backtracking_iterates_at_ac10(monkeypatch):
    # On the AC10 data every search's accepted steps form one run, so the
    # warm start must reproduce backtracking from _INITIAL_STEP exactly.
    rng = np.random.default_rng(0)
    latent = rng.standard_normal((52, 12)) @ rng.standard_normal((12, 500))
    X = DataMatrix(latent + 0.3 * rng.standard_normal((52, 500)))
    cfg = CgConfig(seed=0, cost_rel_tol=1e-5)
    _, warm = train(X, p=27, cfg=cfg)
    monkeypatch.setattr(optimizer, "line_search", _backtrack_from_one)
    _, ref = train(X, p=27, cfg=cfg)
    assert warm.step_per_iter == ref.step_per_iter
    assert warm.cost_per_iter == ref.cost_per_iter
    assert sum(warm.trials_per_iter) < sum(ref.trials_per_iter)


# ---------------------------------------------------------------------------
# init_product_point


def test_init_is_tied_and_orthonormal(rng):
    point = init_product_point(9, 3, rng)
    assert np.array_equal(point.w, point.w_tilde.matrix)
    assert point.w is not point.w_tilde.matrix
    assert orthonormality_error(point.w_tilde.matrix) <= 1e-10


# ---------------------------------------------------------------------------
# cg_optimize


def test_cg_returns_stationary_init_unchanged(rng):
    # zero data with tanh: enc(0) = 0 reconstructs 0, gradient vanishes
    point = _random_point(6, 2, rng)
    out, trace = cg_optimize(point, np.zeros((6, 5)), CgConfig())
    assert trace.iterations == 0
    assert out is point
    assert trace.stop_reason == "grad_tol"
    assert trace.step_per_iter == []


def test_cg_trace_is_monotone_and_orthonormal(rng):
    N, p, m = 10, 2, 40
    X = rng.standard_normal((N, m))
    point, trace = cg_optimize(
        init_product_point(N, p, rng), X, CgConfig(seed=0, max_iters=60)
    )
    costs = np.array(trace.cost_per_iter)
    assert np.all(np.diff(costs) <= 1e-12)
    assert orthonormality_error(point.w_tilde.matrix) <= 1e-8
    assert len(trace.cost_per_iter) == len(trace.grad_norm_per_iter)
    assert trace.iterations == len(costs) - 1


def test_cg_trace_wall_time_is_the_run_time(rng):
    N, p, m = 10, 2, 40
    X = rng.standard_normal((N, m))
    init = init_product_point(N, p, rng)
    before = time.perf_counter()
    _, trace = cg_optimize(init, X, CgConfig(max_iters=20))
    elapsed = time.perf_counter() - before
    assert trace.iterations > 0
    assert 0.0 < trace.wall_time <= elapsed


def test_cg_trace_cost_matches_final_point(rng):
    # The trace carries the closed-form cost of the accepted trials; it must
    # agree with the direct formula at the point that is returned.
    N, p, m = 15, 3, 80
    X = rng.standard_normal((N, m))
    point, trace = cg_optimize(
        init_product_point(N, p, rng), X, CgConfig(max_iters=40)
    )
    final = cost(point, X)
    assert abs(trace.cost_per_iter[-1] - final) <= 1e-10 * final


def test_cg_trace_steps_and_stop_reasons(rng):
    # A cost_rel_tol stop, as in the 52-variable benchmark, reads "flat".
    N, p, m = 31, 4, 120  # N = 1 + n + n^2 for n = 5
    X = rng.standard_normal((N, m))
    cfg = CgConfig(cost_rel_tol=1e-5)
    _, trace = cg_optimize(init_product_point(N, p, rng), X, cfg)
    assert trace.stop_reason == "flat"
    assert trace.iterations < cfg.max_iters
    assert len(trace.step_per_iter) == trace.iterations
    assert len(trace.trials_per_iter) == trace.iterations
    assert all(t in _STEPS for t in trace.step_per_iter)

    _, short = cg_optimize(init_product_point(N, p, rng), X, CgConfig(max_iters=3))
    assert short.stop_reason == "max_iters"
    assert short.iterations == 3 and len(short.step_per_iter) == 3


def _count_trials(monkeypatch):
    calls = [0]
    real_at = _Ray.at

    def counting_at(self, t):
        calls[0] += 1
        return real_at(self, t)

    monkeypatch.setattr(_Ray, "at", counting_at)
    return calls


def test_cg_trace_counts_line_search_trials(rng, monkeypatch):
    N, p, m = 10, 2, 40
    X = rng.standard_normal((N, m))
    calls = _count_trials(monkeypatch)
    _, trace = cg_optimize(init_product_point(N, p, rng), X, CgConfig(max_iters=30))
    assert len(trace.trials_per_iter) == trace.iterations > 0
    assert all(n >= 1 for n in trace.trials_per_iter)
    assert sum(trace.trials_per_iter) == calls[0]


def test_carried_products_and_points_stay_exact_over_a_long_run(rng, monkeypatch):
    # Each search is seeded with the previous accepted trial's products and
    # builds its point from the trial's polar factor; neither may drift
    # from what the iterate itself gives, however many iterations run.
    N, p, m = 31, 4, 120
    X = 2.0 * rng.standard_normal((N, m))
    real_search = optimizer.line_search

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    def checked(point, fwd, direction, X, grad, f0, x_sq, encoder, start=_INITIAL_STEP):
        out = real_search(point, fwd, direction, X, grad, f0, x_sq, encoder, start)
        t, _, new_point, new_fwd, _, _ = out
        for x, carried in ((point, fwd), (new_point, new_fwd)):
            W = x.w_tilde.matrix
            assert rel(carried.pre, x.w.T @ X) <= 1e-12
            assert rel(carried.wt_x, W.T @ X) <= 1e-12
            assert rel(carried.gram, W.T @ W) <= 1e-12
        moved = move(point, direction, t)
        assert rel(new_point.w, moved.w) <= 1e-12
        assert rel(new_point.w_tilde.matrix, moved.w_tilde.matrix) <= 1e-12
        assert orthonormality_error(new_point.w_tilde.matrix) <= 1e-12
        return out

    monkeypatch.setattr(optimizer, "line_search", checked)
    cfg = CgConfig(max_iters=250, grad_tol=0.0, cost_rel_tol=0.0)
    _, trace = cg_optimize(init_product_point(N, p, rng), X, cfg)
    assert trace.iterations >= 200


def test_cg_trace_counts_the_failed_search_before_a_retry(rng, monkeypatch):
    # The first conjugate (not steepest-descent) direction gets a search that
    # cannot succeed; cg_optimize retries along -grad and that iteration's
    # count must include both searches.
    N, p, m = 8, 2, 30
    X = rng.standard_normal((N, m))
    real_search = optimizer.line_search
    failed = []

    def failing_once(point, fwd, direction, X, grad, f0, x_sq, encoder, start=_INITIAL_STEP):
        if not failed and inner(direction + grad, direction + grad) != 0.0:
            failed.append(True)
            f0 = -1.0  # below any squared norm: every step is rejected
        return real_search(point, fwd, direction, X, grad, f0, x_sq, encoder, start)

    calls = _count_trials(monkeypatch)
    monkeypatch.setattr(optimizer, "line_search", failing_once)
    _, trace = cg_optimize(init_product_point(N, p, rng), X, CgConfig(max_iters=10))
    assert failed, "no conjugate direction was searched"
    assert max(trace.trials_per_iter) > len(_STEPS)
    assert sum(trace.trials_per_iter) == calls[0]


def test_line_search_error_carries_the_trace_so_far(rng, monkeypatch):
    # From the third iteration on every search is rigged to fail, the
    # steepest-descent retry included; the error must carry the first two.
    N, p, m = 8, 2, 30
    X = rng.standard_normal((N, m))
    init = init_product_point(N, p, rng)
    _, ref = cg_optimize(init, X, CgConfig(max_iters=2))
    real_search = optimizer.line_search
    searches = []

    def failing_from_the_third(
        point, fwd, direction, X, grad, f0, x_sq, encoder, start=_INITIAL_STEP
    ):
        searches.append(start)
        if len(searches) > 2:
            f0 = -1.0  # below any squared norm: every step is rejected
        return real_search(point, fwd, direction, X, grad, f0, x_sq, encoder, start)

    monkeypatch.setattr(optimizer, "line_search", failing_from_the_third)
    with pytest.raises(LineSearchError) as failed:
        cg_optimize(init, X, CgConfig(max_iters=10))
    trace = failed.value.trace
    assert len(searches) == 4  # the conjugate search and its retry failed
    assert trace.stop_reason == "line_search"
    assert trace.iterations == 2
    assert trace.cost_per_iter == ref.cost_per_iter
    assert trace.step_per_iter == ref.step_per_iter
    assert trace.trials_per_iter == ref.trials_per_iter
    assert trace.wall_time > 0.0
    assert failed.value.trials == len(_STEPS)


def test_cg_identity_cost_reaches_pca_floor(rng):
    # The projector onto the top-p eigenvectors is a feasible point, so the
    # optimizer must match its residual (the linear-case optimum).
    N, p, m = 9, 3, 60
    X = rng.standard_normal((N, 4)) @ rng.standard_normal((4, m))
    X += 0.05 * rng.standard_normal((N, m))
    point, _ = cg_optimize(
        init_product_point(N, p, rng),
        X,
        CgConfig(seed=1, max_iters=2000, grad_tol=1e-9, cost_rel_tol=1e-14),
        IDENTITY,
    )
    vals = np.linalg.eigvalsh(X @ X.T)
    pca_residual = float(vals[:-p].sum())
    assert cost(point, X, IDENTITY) <= pca_residual * (1 + 1e-6) + 1e-9


def test_cg_identity_recovers_principal_subspace(rng):
    # separated spectrum: the terminal decoder spans the top-p eigenspace
    N, p, m = 12, 3, 200
    sing = np.array([10.0, 7.0, 5.0, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
    U, _ = np.linalg.qr(rng.standard_normal((N, N)))
    X = U @ np.diag(sing) @ rng.standard_normal((N, m)) / np.sqrt(m)
    point, _ = cg_optimize(
        init_product_point(N, p, np.random.default_rng(3)),
        X,
        CgConfig(seed=3, max_iters=2000, grad_tol=1e-10, cost_rel_tol=1e-15),
        IDENTITY,
    )
    vals, vecs = np.linalg.eigh(X @ X.T)
    top = vecs[:, ::-1][:, :p]
    angles = subspace_angles(top, point.w_tilde.matrix)
    assert np.max(angles) <= 1e-3


def test_cg_is_deterministic_for_a_seed(rng):
    N, p, m = 8, 2, 30
    X = rng.standard_normal((N, m))
    runs = []
    for _ in range(2):
        pt, tr = cg_optimize(
            init_product_point(N, p, np.random.default_rng(11)),
            X,
            CgConfig(seed=11, max_iters=40),
        )
        runs.append((pt.w.copy(), pt.w_tilde.matrix.copy(), list(tr.cost_per_iter)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


def test_line_search_error_is_runtime_error():
    assert issubclass(LineSearchError, RuntimeError)
