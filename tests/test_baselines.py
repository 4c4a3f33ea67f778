"""PCA / kernel-PCA / autoencoder baseline monitors and their shared scoring."""

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from scafd.activations import get_activation
from scafd.baselines import (
    _COST_REL_TOL,
    _FLAT_WINDOW,
    _LR_FLOOR,
    _LR_START,
    _NORM_BLOCK_ELEMS,
    AeModel,
    KpcaModel,
    PcaModel,
    _gradient_descent,
    ae_cost_grad,
    ae_train,
    center_gram,
    gaussian_kernel,
    kpca_fit,
    pca_fit,
)
from scafd.cli import gen_toy
from scafd.data import (
    DataMatrix,
    apply_scaler,
    expand_second_order,
    expanded_dim,
    fit_scaler,
    load_csv,
)
from scafd.optimizer import FitTrace
from scafd.sca import monitor

IDENTITY = get_activation("identity")
TANH_ID = get_activation("tanh")


def _correlated_pair(m=2000, rho=0.8, seed=5):
    """Two unit-variance variables with correlation rho.

    After z-scoring, the sample covariance is the correlation matrix with
    eigenvalues near 1+rho and 1-rho — a 90/10 split at rho = 0.8, so the
    0.85 energy rule keeps exactly one component.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, m))
    x1 = z[0]
    x2 = rho * z[0] + np.sqrt(1.0 - rho**2) * z[1]
    return DataMatrix(np.vstack([x1, x2]))


# ---------------------------------------------------------------------------
# pca_fit


def test_pca_energy_rule_keeps_dominant_component():
    X = _correlated_pair()
    model = pca_fit(X, energy=0.85)
    assert model.n_components == 1
    # dominant eigenvector of a 2x2 correlation matrix is (1,1)/sqrt(2)
    align = abs(float(model.loading[:, 0] @ np.full(2, np.sqrt(0.5))))
    assert align >= 0.999


def test_pca_matches_brute_force_eigendecomposition(rng):
    X = DataMatrix(rng.standard_normal((6, 300)) * np.arange(1, 7)[:, None])
    p = 3
    model = pca_fit(X, n_components=p)
    scaled = apply_scaler(fit_scaler(X), X.values)
    vals, vecs = np.linalg.eigh(np.cov(scaled, ddof=1))
    top = vecs[:, np.argsort(vals)[::-1][:p]]
    assert np.max(subspace_angles(top, model.loading)) <= 1e-8
    assert np.linalg.norm(model.loading.T @ model.loading - np.eye(p)) <= 1e-10


def test_pca_reconstruction_equals_discarded_eigenvalue_mass(rng):
    X = DataMatrix(rng.standard_normal((5, 120)))
    p = 2
    model = pca_fit(X, n_components=p)
    scaled = apply_scaler(model.scaler, X.values)
    recon = model.loading @ (model.loading.T @ scaled)
    resid = float(np.sum((scaled - recon) ** 2))
    m = X.n_samples
    oracle = float(model.eigenvalues[p:].sum()) * (m - 1)
    assert resid == pytest.approx(oracle, rel=1e-8)


def test_pca_isotropic_energy_pick(rng):
    n = 10
    X = DataMatrix(rng.standard_normal((n, 4000)))
    model = pca_fit(X, energy=0.85)
    # near-equal eigenvalues: the 85% rule keeps about 0.85 * n components
    assert 8 <= model.n_components <= 10


def test_pca_requires_exactly_one_size_argument(rng):
    X = DataMatrix(rng.standard_normal((3, 40)))
    with pytest.raises(ValueError, match="exactly one"):
        pca_fit(X)
    with pytest.raises(ValueError, match="exactly one"):
        pca_fit(X, n_components=2, energy=0.85)


def test_pca_validates_energy_and_p(rng):
    X = DataMatrix(rng.standard_normal((3, 40)))
    with pytest.raises(ValueError, match="energy"):
        pca_fit(X, energy=1.5)
    with pytest.raises(ValueError, match="out of range"):
        pca_fit(X, n_components=0)
    with pytest.raises(ValueError, match="out of range"):
        pca_fit(X, n_components=4)


def test_pca_rejects_rank_deficient_covariance(rng):
    base = rng.standard_normal(200)
    X = DataMatrix(np.vstack([base, 2.0 * base]))  # perfectly correlated pair
    with pytest.raises(ValueError, match="rank-deficient"):
        pca_fit(X, n_components=2)


def test_pca_model_validation(rng):
    X = DataMatrix(rng.standard_normal((3, 60)))
    model = pca_fit(X, n_components=2)
    bad = dict(
        scaler=model.scaler,
        loading=model.loading * 2.0,
        eigenvalues=model.eigenvalues,
        sigma_g_inv=model.sigma_g_inv,
        g_mean=model.g_mean,
        t2_train=model.t2_train,
        kde_bandwidth=model.kde_bandwidth,
        control_limit=model.control_limit,
    )
    with pytest.raises(ValueError, match="orthonormal"):
        PcaModel(**bad)
    bad["loading"] = model.loading
    bad["eigenvalues"] = model.eigenvalues[::-1]
    with pytest.raises(ValueError, match="descending"):
        PcaModel(**bad)


# ---------------------------------------------------------------------------
# kernel machinery


def test_gaussian_gram_hand_values():
    X = np.array([[-1.0, 0.0, 1.0]])
    K = gaussian_kernel(X, X, width=2.0)
    assert K[0, 0] == 1.0 and K[1, 1] == 1.0 and K[2, 2] == 1.0
    assert K[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert K[0, 2] == pytest.approx(np.exp(-2.0), rel=1e-12)
    assert np.array_equal(K, K.T)


def test_centered_gram_rows_sum_to_zero(rng):
    X = rng.standard_normal((3, 25))
    K = gaussian_kernel(X, X, width=6.0)
    Kc = center_gram(K)
    assert np.max(np.abs(Kc.sum(axis=0))) <= 1e-10
    assert np.max(np.abs(Kc.sum(axis=1))) <= 1e-10


def test_centered_gram_is_psd(rng):
    X = rng.standard_normal((4, 30))
    K = gaussian_kernel(X, X, width=8.0)
    Kc = center_gram(K)
    vals = np.linalg.eigvalsh(0.5 * (Kc + Kc.T))
    assert vals.min() >= -1e-10 * max(vals.max(), 1.0)


# ---------------------------------------------------------------------------
# kpca_fit


def test_kpca_width_is_ten_n_on_scaled_data(rng):
    X = DataMatrix(5.0 + 3.0 * rng.standard_normal((4, 60)))
    model = kpca_fit(X, p=3)
    assert model.kernel_width == pytest.approx(40.0, rel=1e-12)


def test_kpca_training_features_self_consistent(rng):
    X = DataMatrix(rng.standard_normal((2, 40)))
    model = kpca_fit(X, p=3)
    scaled = apply_scaler(model.scaler, X.values)
    Kc = center_gram(gaussian_kernel(scaled, scaled, model.kernel_width))
    features = (Kc @ model.alphas).T
    out = model.encode_batch(X.values)
    assert np.max(np.abs(out - features)) <= 1e-8 * max(1.0, np.abs(features).max())


def test_kpca_features_are_whitened(rng):
    X = DataMatrix(rng.standard_normal((3, 50)))
    model = kpca_fit(X, p=4)
    cov = np.cov(model.encode_batch(X.values), ddof=1)
    assert np.allclose(cov, np.eye(4), atol=1e-8)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues > 0)


def test_kpca_rejects_small_sample(rng):
    X = DataMatrix(rng.standard_normal((2, 4)))
    with pytest.raises(ValueError, match=r"p\+1"):
        kpca_fit(X, p=4)


def test_kpca_rejects_rank_overflow(rng):
    vals = rng.standard_normal((2, 10))
    vals[:, -1] = vals[:, 0]  # duplicated sample lowers the centered rank
    X = DataMatrix(vals)
    with pytest.raises(ValueError, match="rank"):
        kpca_fit(X, p=9)


def test_kpca_model_validation(rng):
    X = DataMatrix(rng.standard_normal((2, 30)))
    model = kpca_fit(X, p=2)
    kwargs = dict(
        scaler=model.scaler,
        train_scaled=model.train_scaled,
        alphas=model.alphas,
        eigenvalues=-model.eigenvalues,
        kernel_width=model.kernel_width,
        gram_col_means=model.gram_col_means,
        gram_mean=model.gram_mean,
        sigma_g_inv=model.sigma_g_inv,
        g_mean=model.g_mean,
        t2_train=model.t2_train,
        kde_bandwidth=model.kde_bandwidth,
        control_limit=model.control_limit,
    )
    with pytest.raises(ValueError, match="positive"):
        KpcaModel(**kwargs)
    kwargs["eigenvalues"] = model.eigenvalues[::-1]
    with pytest.raises(ValueError, match="descending"):
        KpcaModel(**kwargs)


# ---------------------------------------------------------------------------
# autoencoder cost/gradient


def test_ae_cost_zero_at_bias_free_solution_on_zero_data():
    X = np.zeros((4, 6))
    params = (
        np.ones((4, 2)),  # any encoder weight works when the input is zero
        np.zeros(2),
        np.ones((4, 2)),
        np.zeros(4),
    )
    value, grads = ae_cost_grad(params, X, TANH_ID)
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grads)


@pytest.mark.parametrize("seed", range(3))
def test_ae_grad_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n, p, m = 4, 2, 6
    X = rng.standard_normal((n, m))
    params = (
        rng.standard_normal((n, p)),
        rng.standard_normal(p),
        rng.standard_normal((n, p)),
        rng.standard_normal(n),
    )
    value, grads = ae_cost_grad(params, X, TANH_ID)
    eps = 1e-6
    for k, g in enumerate(grads):
        fd = np.zeros_like(g)
        for idx in np.ndindex(g.shape):
            plus = [q.copy() for q in params]
            minus = [q.copy() for q in params]
            plus[k][idx] += eps
            minus[k][idx] -= eps
            f_plus, _ = ae_cost_grad(tuple(plus), X, TANH_ID)
            f_minus, _ = ae_cost_grad(tuple(minus), X, TANH_ID)
            fd[idx] = (f_plus - f_minus) / (2 * eps)
        assert np.all(np.abs(g - fd) <= 1e-5 * np.maximum(1.0, np.abs(g)))


def _random_ae_params(rng, n, p):
    return (
        rng.standard_normal((n, p)),
        rng.standard_normal(p),
        rng.standard_normal((n, p)),
        rng.standard_normal(n),
    )


@pytest.mark.parametrize("encoder", [TANH_ID, IDENTITY], ids=lambda e: e.name)
def test_ae_cost_grad_out_matches_fresh_arrays_bit_for_bit(encoder):
    rng = np.random.default_rng(3)
    n, p = 5, 3
    X = rng.standard_normal((n, 11))
    params = _random_ae_params(rng, n, p)
    value, grads = ae_cost_grad(params, X, encoder)
    buf = np.full(2 * n * p + p + n, np.nan)
    value_out, grads_out = ae_cost_grad(params, X, encoder, out=buf)
    assert value_out == value
    for got, want in zip(grads_out, grads):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, buf)
    # laid out as (w_enc, b_enc, w_dec, b_dec), the descent's theta layout
    assert buf.tobytes() == np.concatenate(grads, axis=None).tobytes()


def test_ae_cost_grad_without_out_returns_fresh_arrays():
    rng = np.random.default_rng(4)
    n, p = 4, 2
    X = rng.standard_normal((n, 9))
    first = ae_cost_grad(_random_ae_params(rng, n, p), X, TANH_ID)[1]
    kept = [g.copy() for g in first]
    second = ae_cost_grad(_random_ae_params(rng, n, p), X, TANH_ID)[1]
    kept_second = [g.copy() for g in second]
    ae_cost_grad(_random_ae_params(rng, n, p), X, TANH_ID, out=np.empty(2 * n * p + p + n))
    for a, b, a_kept, b_kept in zip(first, second, kept, kept_second):
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, a_kept) and np.array_equal(b, b_kept)
    assert not any(np.array_equal(a, b) for a, b in zip(first, second))


@pytest.mark.parametrize(
    "out", [np.empty(20), np.empty(23), np.empty((1, 22)), np.empty(22, dtype=np.float32)],
    ids=["short", "long", "2-d", "float32"],
)
def test_ae_cost_grad_rejects_a_mis_sized_out(out):
    n, p = 4, 2  # 2 n p + p + n = 22 parameters
    params = _random_ae_params(np.random.default_rng(0), n, p)
    with pytest.raises(ValueError, match="22 entries"):
        ae_cost_grad(params, np.ones((n, 5)), TANH_ID, out=out)


# ---------------------------------------------------------------------------
# ae_train


def test_linear_ae_cannot_beat_pca(rng):
    X = DataMatrix(rng.standard_normal((6, 80)))
    p = 2
    scaled = apply_scaler(fit_scaler(X), X.values)
    _, trace = _gradient_descent(scaled, p, np.random.default_rng(1), IDENTITY, 2000)
    vals = np.linalg.eigvalsh(np.cov(scaled, ddof=1))
    pca_residual = float(vals[:-p].sum()) * (X.n_samples - 1)
    assert trace.cost_per_iter[-1] >= pca_residual - 1e-6


def test_ae_trace_is_non_increasing(rng):
    X = DataMatrix(rng.standard_normal((5, 60)))
    model, trace = ae_train(X, 2, max_iters=200, seed=2)
    costs = np.array(trace.cost_per_iter)
    assert np.all(np.diff(costs) <= 0.0)
    assert trace.iterations == costs.size - 1
    assert len(trace.grad_norm_per_iter) == costs.size


def test_ae_train_validates_inputs(rng):
    with pytest.raises(ValueError, match="at least 2"):
        ae_train(DataMatrix(rng.standard_normal((3, 1))), 2)
    with pytest.raises(ValueError, match="at least 1"):
        ae_train(DataMatrix(rng.standard_normal((3, 30))), 0)


def test_ae_model_rejects_non_finite(rng):
    X = DataMatrix(rng.standard_normal((3, 40)))
    model, _ = ae_train(X, 2, max_iters=50, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        AeModel(
            scaler=model.scaler,
            w_enc=model.w_enc * np.nan,
            b_enc=model.b_enc,
            w_dec=model.w_dec,
            b_dec=model.b_dec,
            sigma_g_inv=model.sigma_g_inv,
            g_mean=model.g_mean,
            t2_train=model.t2_train,
            kde_bandwidth=model.kde_bandwidth,
            control_limit=model.control_limit,
        )


# ---------------------------------------------------------------------------
# descent oracle: the descent as it was before theta became one flat vector


def _old_deriv(encoder, pre_codes):
    # Activation.deriv used to take the pre-activation; it now takes the codes
    if encoder.name == "tanh":
        return 1.0 - np.tanh(pre_codes) ** 2
    return np.ones_like(pre_codes)


def _old_ae_cost_grad(params, X, encoder=TANH_ID):
    w_enc, b_enc, w_dec, b_dec = params
    pre_codes = w_enc.T @ X + b_enc[:, None]
    codes = encoder.fn(pre_codes)
    err = w_dec @ codes + b_dec[:, None] - X
    value = float(np.sum(err * err))
    D = 2.0 * err
    g_w_dec = D @ codes.T
    g_b_dec = D.sum(axis=1)
    dcodes = (w_dec.T @ D) * _old_deriv(encoder, pre_codes)
    g_w_enc = X @ dcodes.T
    g_b_enc = dcodes.sum(axis=1)
    return value, (g_w_enc, g_b_enc, g_w_dec, g_b_dec)


def _old_gradient_descent(X, p, rng, encoder, max_iters, cost_grad=_old_ae_cost_grad):
    n = X.shape[0]
    params = (
        rng.standard_normal((n, p)) / np.sqrt(n),
        np.zeros(p),
        rng.standard_normal((n, p)) / np.sqrt(n),
        np.zeros(n),
    )
    f, grads = cost_grad(params, X, encoder)
    if not np.isfinite(f):
        raise FloatingPointError("autoencoder cost diverged at initialization")
    gnorm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
    trace = FitTrace(cost_per_iter=[f], grad_norm_per_iter=[gnorm])
    lr = _LR_START
    for _ in range(max_iters):
        costs = trace.cost_per_iter
        if len(costs) > _FLAT_WINDOW:
            drop = costs[-1 - _FLAT_WINDOW] - costs[-1]
            if drop <= _COST_REL_TOL * max(1.0, abs(costs[-1 - _FLAT_WINDOW])):
                break
        stepped = False
        while lr >= _LR_FLOOR:
            candidate = tuple(p_ - lr * g_ for p_, g_ in zip(params, grads))
            try:
                f_new, grads_new = cost_grad(candidate, X, encoder)
            except FloatingPointError:
                f_new = np.inf
            if np.isfinite(f_new) and f_new <= f:
                params, f, grads = candidate, f_new, grads_new
                stepped = True
                break
            lr *= 0.5  # halve on cost increase, keep the reduced step
        if not stepped:
            break
        gnorm = float(np.sqrt(sum(np.sum(g * g) for g in grads)))
        trace.cost_per_iter.append(f)
        trace.grad_norm_per_iter.append(gnorm)
        trace.iterations += 1
    return params, trace


@pytest.fixture(scope="module")
def toy_fits(tmp_path_factory):
    """ae and sae fits of toy seeds 0-1 at the bench settings (seed = toy seed).

    Each entry is (toy seed, training matrix, model, trace, ae_cost_grad calls).
    """
    from scafd import baselines

    fits = []
    original = baselines.ae_cost_grad
    for toy_seed in (0, 1):
        train_path, _ = gen_toy(tmp_path_factory.mktemp("toy"), seed=toy_seed)
        X = load_csv(train_path, samples="rows", header=True)
        inputs = apply_scaler(fit_scaler(X), X.values)
        for expand in (False, True):
            calls = []

            def counted(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)

            baselines.ae_cost_grad = counted
            try:
                model, trace = ae_train(X, 2, seed=toy_seed, expand_inputs=expand)
            finally:
                baselines.ae_cost_grad = original
            mat = expand_second_order(DataMatrix(inputs)) if expand else inputs
            fits.append((toy_seed, mat, model, trace, len(calls)))
    return fits


def _assert_same_descent(params, trace, ref_params, ref):
    for name, got, want in zip(("w_enc", "b_enc", "w_dec", "b_dec"), params, ref_params):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert np.array_equal(trace.cost_per_iter, ref.cost_per_iter)
    assert np.array_equal(trace.grad_norm_per_iter, ref.grad_norm_per_iter)
    assert trace.iterations == ref.iterations
    assert len(trace.grad_norm_per_iter) == len(trace.cost_per_iter)


def test_descent_is_bit_identical_to_the_separate_array_descent(toy_fits):
    for toy_seed, mat, model, trace, _ in toy_fits:
        rng = np.random.default_rng(toy_seed)
        params, old = _old_gradient_descent(mat, 2, rng, TANH_ID, 2000)
        got = (model.w_enc, model.b_enc, model.w_dec, model.b_dec)
        _assert_same_descent(got, trace, params, old)
        got = _gradient_descent(mat, 2, np.random.default_rng(toy_seed), IDENTITY, 2000)
        ref = _old_gradient_descent(mat, 2, np.random.default_rng(toy_seed), IDENTITY, 2000)
        _assert_same_descent(*got, *ref)
    # one call at the start and one per trial: a fit with more trials than
    # accepted steps halved its step, so the halving path is covered too
    assert any(calls - 1 > trace.iterations for *_, trace, calls in toy_fits)


def test_trials_per_iter_counts_every_cost_evaluation(toy_fits):
    for *_, trace, calls in toy_fits:
        assert len(trace.trials_per_iter) == trace.iterations
        assert min(trace.trials_per_iter) >= 1
        # a max_iters stop leaves no failed search: 1 initial call + trials
        assert sum(trace.trials_per_iter) == calls - 1
    # some step was halved, so some entry counts more than one trial
    assert max(max(trace.trials_per_iter) for *_, trace, _ in toy_fits) > 1


def test_descent_fills_the_fit_trace(toy_fits):
    for *_, trace, _ in toy_fits:
        assert isinstance(trace, FitTrace)
        assert len(trace.step_per_iter) == trace.iterations
        # the step starts at 1 and only halves, down to the first power of
        # two at or above the 1e-16 floor
        steps = np.array(trace.step_per_iter)
        assert np.all((steps >= 2.0**-53) & (steps <= 1.0))
        assert np.all(np.frexp(steps)[0] == 0.5)
        assert np.all(np.diff(steps) <= 0)
        assert trace.wall_time > 0
    # some fit halved its step
    assert min(min(trace.step_per_iter) for *_, trace, _ in toy_fits) < 1.0


def _rigged(cost_grad, limit):
    """cost_grad whose evaluations after the first ``limit`` return inf."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        value, grads = cost_grad(*args, **kwargs)
        return (value if len(calls) <= limit else np.inf), grads

    return wrapped


def _descent_pair(X, p, max_iters, monkeypatch, limit=None):
    from scafd import baselines

    oracle_cost_grad = _old_ae_cost_grad
    if limit is not None:
        monkeypatch.setattr(baselines, "ae_cost_grad", _rigged(baselines.ae_cost_grad, limit))
        oracle_cost_grad = _rigged(_old_ae_cost_grad, limit)
    got = _gradient_descent(X, p, np.random.default_rng(5), TANH_ID, max_iters)
    ref = _old_gradient_descent(
        X, p, np.random.default_rng(5), TANH_ID, max_iters, oracle_cost_grad
    )
    return got, ref


@pytest.mark.parametrize("rows", [2, 3])
def test_batched_norms_cross_block_boundaries_bit_for_bit(rows, monkeypatch):
    from scafd import baselines

    n, p = 3, 2
    size = 2 * n * p + p + n
    monkeypatch.setattr(baselines, "_NORM_BLOCK_ELEMS", rows * size)
    X = np.random.default_rng(9).standard_normal((n, 40))
    # max_iters: 1 + max_iters norms end on every offset inside a block
    for max_iters in (rows - 1, rows, rows + 1, 4 * rows + 1):
        (params, trace), ref = _descent_pair(X, p, max_iters, monkeypatch)
        assert trace.stop_reason == "max_iters"
        _assert_same_descent(params, trace, *ref)
    # flat: zero data keeps the cost at 0, _FLAT_WINDOW steps then stop
    (params, trace), ref = _descent_pair(np.zeros((n, 20)), p, 100, monkeypatch)
    assert trace.stop_reason == "flat"
    _assert_same_descent(params, trace, *ref)
    # step_floor: every evaluation after the limit is rejected
    offsets = set()
    for limit in range(1, 30):
        with monkeypatch.context() as patch:
            (params, trace), ref = _descent_pair(X, p, 100, patch, limit=limit)
        assert trace.stop_reason == "step_floor"
        _assert_same_descent(params, trace, *ref)
        offsets.add(len(trace.grad_norm_per_iter) % rows)
    assert len(offsets) == rows  # the stop fell at every row of a block


def test_norm_block_is_bounded_and_allocated_once(monkeypatch):
    from scafd import baselines

    original = baselines.ae_cost_grad
    blocks = []

    def spy(*args, out=None, **kwargs):
        blocks.append(out.base)
        return original(*args, out=out, **kwargs)

    monkeypatch.setattr(baselines, "ae_cost_grad", spy)
    rng = np.random.default_rng(2)
    # n=3, p=2: 17 parameters, so many rows; n=861 (a 40-variable second-order
    # expansion), p=25: 43936 parameters, so the block is two gradients
    for X, p, max_iters in (
        (rng.standard_normal((3, 60)), 2, 3000),
        (rng.standard_normal((861, 30)), 25, 300),
    ):
        n = X.shape[0]
        size = 2 * n * p + p + n
        blocks.clear()
        _, trace = _gradient_descent(X, p, np.random.default_rng(0), TANH_ID, max_iters)
        block = blocks[0]
        assert all(b is block for b in blocks)  # one block for the whole fit
        assert block.shape[1] == size and block.shape[0] >= 2
        assert block.size <= max(_NORM_BLOCK_ELEMS, 2 * size)
        # the fit outlasted the block several times over
        assert trace.iterations == max_iters > 2 * block.shape[0]
        assert len(trace.grad_norm_per_iter) == trace.iterations + 1


def test_toy_fits_stop_at_max_iters(toy_fits):
    for *_, trace, _ in toy_fits:
        assert trace.stop_reason == "max_iters"
        assert trace.iterations == 2000


def test_descent_stops_flat_on_zero_data():
    # zero inputs and zero biases: the cost is 0 and every step keeps it there
    _, trace = _gradient_descent(
        np.zeros((3, 20)), 2, np.random.default_rng(0), TANH_ID, 100
    )
    assert trace.stop_reason == "flat"
    assert trace.iterations == _FLAT_WINDOW


def test_descent_stops_at_step_floor_when_no_step_lowers_the_cost(rng, monkeypatch):
    from scafd import baselines

    original = baselines.ae_cost_grad
    costs = []

    def rising(params, X, encoder, out=None):
        value, grads = original(params, X, encoder, out=out)
        costs.append(value)
        return (value if len(costs) == 1 else costs[0] + 1.0), grads

    monkeypatch.setattr(baselines, "ae_cost_grad", rising)
    _, trace = ae_train(DataMatrix(rng.standard_normal((3, 40))), 2, seed=0)
    assert trace.stop_reason == "step_floor"
    assert trace.iterations == 0
    assert trace.trials_per_iter == []  # the failed search is not a step
    assert len(trace.grad_norm_per_iter) == 1
    # trials at 1, 1/2, ..., down to the 1e-16 floor
    assert len(costs) - 1 == int(np.floor(np.log2(1.0 / _LR_FLOOR))) + 1


# ---------------------------------------------------------------------------
# second-order autoencoder (expand_inputs=True)


def test_sae_expands_input_dimension(toy_train):
    model, _ = ae_train(toy_train, p=2, max_iters=30, expand_inputs=True)
    assert model.w_enc.shape == (13, 2)  # 1 + 3 + 9 expanded rows
    assert model.expand_inputs
    assert expanded_dim(52) == 2757


def test_sae_zero_data_has_bias_only_exact_solution():
    # scaled zero data expands to [1, 0, ..., 0]: decoding bias e_0 with zero
    # weights reconstructs it exactly
    raw = DataMatrix(np.zeros((2, 8)))
    scaled = apply_scaler(fit_scaler(raw), raw.values)
    expanded = expand_second_order(DataMatrix(scaled))
    N = expanded.shape[0]
    b_dec = np.zeros(N)
    b_dec[0] = 1.0
    params = (np.zeros((N, 2)), np.zeros(2), np.zeros((N, 2)), b_dec)
    value, grads = ae_cost_grad(params, expanded, TANH_ID)
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_sae_zero_data_training_reports_degenerate_features():
    # constant features carry no monitoring information; the fit refuses them
    with pytest.raises(ValueError, match="singular"):
        ae_train(DataMatrix(np.zeros((2, 20))), p=2, max_iters=20, expand_inputs=True)


# ---------------------------------------------------------------------------
# monitor


def test_monitor_with_all_normal_far_is_small(toy_train):
    for fit in (lambda X: pca_fit(X, n_components=2), lambda X: kpca_fit(X, p=2)):
        model = fit(toy_train)
        report = monitor(model, toy_train)
        assert report.flags.mean() <= 0.025
        assert np.array_equal(report.flags, report.t2 > model.control_limit)
