"""Monitoring statistics: T2, KDE control limits, training, detection, scoring."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scafd
import scafd.baselines
from scafd.baselines import AeModel, ae_train, kpca_fit, pca_fit
from scafd.data import (
    DataMatrix,
    Scaler,
    apply_scaler,
    expand_second_order,
    expanded_dim,
    expanded_dot,
    fit_scaler,
    second_order_kernel,
    triangular_form,
)
from scafd.manifold import StiefelPoint, orthonormality_error
from scafd.optimizer import CgConfig, FitTrace, cg_optimize, init_product_point
from scafd.sca import (
    DetectionReport,
    ScaModel,
    control_limit,
    fit_monitoring_stats,
    monitor,
    score,
    silverman_bandwidth,
    t2_batch,
    train,
)



def _tiny_model(**overrides):
    """Valid single-variable model (N = 1 + 1 + 1 = 3, p = 1) for hand checks."""
    e0 = np.array([[1.0], [0.0], [0.0]])
    kwargs = dict(
        scaler=Scaler(mean=np.zeros(1), std=np.ones(1)),
        w=e0.copy(),
        w_tilde=StiefelPoint(e0.copy()),
        sigma_g_inv=np.eye(1),
        g_mean=np.zeros(1),
        t2_train=np.linspace(0.1, 1.0, 20),
        kde_bandwidth=0.5,
        control_limit=2.0,
    )
    kwargs.update(overrides)
    return ScaModel(**kwargs)


class _RawMonitor:
    """Monitor stub whose scaler and feature map are identities: T2 of raw values."""

    def __init__(self, p, limit):
        self.scaler = Scaler(mean=np.zeros(p), std=np.ones(p))
        self.g_mean = np.zeros(p)
        self.sigma_g_inv = np.eye(p)
        self.control_limit = limit

    def encode_batch(self, Z):
        return Z


# ---------------------------------------------------------------------------
# t2 / t2_batch


def _t2_single(sigma_inv, g):
    """T2 of one feature vector, scored as a one-column block."""
    return float(t2_batch(np.asarray(g, dtype=float)[:, None], sigma_inv)[0])


def test_t2_zero_vector():
    assert _t2_single(np.eye(3), np.zeros(3)) == 0.0


def test_t2_identity_is_squared_norm():
    g = np.array([1.0, -2.0, 2.0])
    assert _t2_single(np.eye(3), g) == pytest.approx(9.0, rel=1e-14)


def test_t2_matches_linear_solve(rng):
    A = rng.standard_normal((3, 3))
    sigma = A @ A.T + 3.0 * np.eye(3)
    g = rng.standard_normal(3)
    oracle = float(g @ np.linalg.solve(sigma, g))
    assert _t2_single(np.linalg.inv(sigma), g) == pytest.approx(oracle, rel=1e-10)


def test_t2_length_mismatch():
    with pytest.raises(ValueError):
        _t2_single(np.eye(2), np.zeros(3))


def test_t2_batch_matches_per_column(rng):
    for p, m in ((4, 9), (27, 1024)):
        A = rng.standard_normal((p, p))
        sigma_inv = A @ A.T + np.eye(p)
        G = rng.standard_normal((p, m))
        batch = t2_batch(G, sigma_inv)
        singles = np.array([G[:, j] @ sigma_inv @ G[:, j] for j in range(m)])
        assert np.all(np.abs(batch - singles) <= 1e-12 * np.maximum(1.0, singles))


# ---------------------------------------------------------------------------
# silverman_bandwidth


def test_silverman_hand_computed():
    samples = np.array([0.0, 1.0, 2.0, 3.0])
    expected = 1.06 * np.sqrt(5.0 / 3.0) * 4.0 ** (-0.2)
    assert silverman_bandwidth(samples) == pytest.approx(expected, rel=1e-12)


def test_silverman_constant_floor():
    # exactly-representable constant: std is exactly zero, the floor kicks in
    assert silverman_bandwidth(np.full(8, 7.0)) == pytest.approx(7e-6)
    assert silverman_bandwidth(np.zeros(8)) == pytest.approx(1e-6)


def test_silverman_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2"):
        silverman_bandwidth(np.array([4.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_silverman_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="must be finite"):
        silverman_bandwidth(np.append(np.linspace(0.0, 1.0, 20), bad))


# ---------------------------------------------------------------------------
# control_limit


def test_control_limit_matches_exponential_quantile():
    rng = np.random.default_rng(0)
    tau = control_limit(rng.exponential(size=10000), 0.01)
    target = -np.log(0.01)
    assert abs(tau - target) <= 0.10 * target


def test_control_limit_half_coverage_is_median():
    rng = np.random.default_rng(1)
    samples = 10.0 + 0.5 * rng.standard_normal(2000)
    h = silverman_bandwidth(samples)
    tau = control_limit(samples, 0.5)
    assert abs(tau - np.median(samples)) <= h


@pytest.mark.parametrize("c", [1.0, 5.0, 100.0])
def test_control_limit_constant_cluster(c):
    samples = np.full(50, c)
    tau = control_limit(samples, 0.01)
    assert abs(tau - c) <= 5.0 * silverman_bandwidth(samples)


def test_control_limit_monotone_in_zeta():
    rng = np.random.default_rng(2)
    samples = rng.exponential(size=3000)
    taus = [control_limit(samples, z) for z in (0.01, 0.02, 0.05, 0.1, 0.25, 0.5)]
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def _exact_limit(samples, zeta):
    """The 1 - zeta quantile of the KDE truncated to [0, max + 5h], by scipy."""
    from scipy.optimize import brentq
    from scipy.special import ndtr

    h = silverman_bandwidth(samples)
    upper = samples.max() + 5.0 * h

    def mass_above(t):
        return np.sum(ndtr((samples - t) / h) - ndtr((samples - upper) / h))

    total = mass_above(0.0)
    return brentq(
        lambda t: mass_above(t) - zeta * total, 0.0, upper,
        xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=1000,
    )


@pytest.mark.parametrize("seed", range(4))
def test_control_limit_is_the_exact_truncated_kde_quantile(seed):
    rng = np.random.default_rng(seed)
    exponential = rng.exponential(size=500)
    # one far outlier stretches [0, max + 5h] to about 78 h
    wide = np.append(rng.exponential(size=499), 1000.0)
    chi2 = rng.chisquare(27, size=500)
    for samples in (exponential, wide, chi2):
        for zeta in (0.01, 0.05, 0.5):
            exact = _exact_limit(samples, zeta)
            assert control_limit(samples, zeta) == pytest.approx(exact, rel=1e-12)


def test_control_limit_validation():
    ok = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError, match="zeta"):
        control_limit(ok, 0.0)
    with pytest.raises(ValueError, match="zeta"):
        control_limit(ok, 0.6)
    with pytest.raises(ValueError, match="at least 10"):
        control_limit(np.linspace(0.0, 1.0, 9), 0.01)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_control_limit_rejects_non_finite_samples(bad):
    samples = np.append(np.linspace(0.0, 1.0, 20), bad)
    with pytest.raises(ValueError, match="must be finite"):
        control_limit(samples, 0.01)


# ---------------------------------------------------------------------------
# fit_monitoring_stats

# the scaler only rides along with the statistics
_UNIT_SCALER = Scaler(mean=np.zeros(1), std=np.ones(1))


def test_fit_stats_inverts_ridged_covariance(rng):
    G = rng.standard_normal((3, 300))
    stats = fit_monitoring_stats(G, _UNIT_SCALER)
    sigma = np.cov(G, ddof=1)
    sigma += 1e-8 * np.trace(sigma) / 3 * np.eye(3)
    assert np.allclose(stats.sigma_g_inv @ sigma, np.eye(3), atol=1e-8)
    assert np.array_equal(stats.sigma_g_inv, stats.sigma_g_inv.T)
    assert np.array_equal(stats.g_mean, G.mean(axis=1))
    assert stats.zeta == 0.01


def test_fit_stats_t2_centers_on_feature_mean(rng):
    G = 5.0 + rng.standard_normal((2, 200))
    stats = fit_monitoring_stats(G, _UNIT_SCALER)
    j = 17
    dev = G[:, j] - stats.g_mean
    assert stats.t2_train[j] == pytest.approx(dev @ stats.sigma_g_inv @ dev, rel=1e-12)


def test_fit_stats_rejects_constant_features():
    G = np.ones((2, 50))
    with pytest.raises(ValueError, match="singular"):
        fit_monitoring_stats(G, _UNIT_SCALER)


def test_fit_stats_rejects_tiny_or_flat_input():
    with pytest.raises(ValueError, match="at least 2"):
        fit_monitoring_stats(np.ones((2, 1)), _UNIT_SCALER)
    with pytest.raises(ValueError, match="p x m"):
        fit_monitoring_stats(np.ones(5), _UNIT_SCALER)


def test_t2_invariant_under_feature_rotation(rng):
    # consistent orthogonal change of feature basis leaves T2 unchanged
    G = rng.standard_normal((3, 300)) * np.array([[2.0], [1.0], [0.5]])
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = fit_monitoring_stats(G, _UNIT_SCALER).t2_train
    b = fit_monitoring_stats(Q @ G, _UNIT_SCALER).t2_train
    assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(1.0, np.abs(a)))


# ---------------------------------------------------------------------------
# train


def test_train_toy_quantile_coverage(toy_sca_model):
    model, _ = toy_sca_model
    frac = np.mean(model.t2_train <= model.control_limit)
    assert frac >= 0.99


def test_train_toy_model_shapes(toy_sca_model, toy_train):
    model, trace = toy_sca_model
    assert model.w.shape == (13, 2)
    assert model.w_tilde.shape == (13, 2)
    assert model.n_variables == 3
    assert model.n_components == 2
    assert model.encoder_activation == "tanh"
    assert model.t2_train.shape == (toy_train.n_samples,)
    assert trace.iterations >= 1


def test_train_is_deterministic(toy_train):
    cfg = CgConfig(seed=3, max_iters=30)
    a, _ = train(toy_train, p=2, cfg=cfg)
    b, _ = train(toy_train, p=2, cfg=cfg)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.sigma_g_inv, b.sigma_g_inv)
    assert np.array_equal(a.t2_train, b.t2_train)
    assert a.control_limit == b.control_limit


def _degenerate_stats(monkeypatch, failures):
    """Make sca's fit_monitoring_stats raise on its first ``failures`` calls."""
    calls = []

    def stats(*args, **kwargs):
        calls.append(1)
        if len(calls) <= failures:
            raise ValueError(f"degenerate start {len(calls)}")
        return fit_monitoring_stats(*args, **kwargs)

    monkeypatch.setattr(scafd.sca, "fit_monitoring_stats", stats)
    return calls


def test_train_restarts_from_the_next_draw_of_the_seed_stream(toy_train, monkeypatch):
    cfg = CgConfig(seed=3, max_iters=30)
    first, _ = train(toy_train, p=2, cfg=cfg)
    restarted = []
    for _ in range(2):
        calls = _degenerate_stats(monkeypatch, failures=1)
        model, trace = train(toy_train, p=2, cfg=cfg)
        assert len(calls) == 2
        assert isinstance(trace, FitTrace)
        restarted.append(model)
    a, b = restarted
    assert np.array_equal(a.w, b.w) and a.control_limit == b.control_limit
    assert not np.array_equal(a.w, first.w)
    # the fit that was kept started from the second draw of default_rng(seed)
    scaled = apply_scaler(fit_scaler(toy_train), toy_train.values)
    rng = np.random.default_rng(cfg.seed)
    init_product_point(13, 2, rng)
    point, _ = cg_optimize(
        init_product_point(13, 2, rng), expand_second_order(DataMatrix(scaled)), cfg
    )
    assert np.array_equal(a.w, point.w)


def test_train_gives_up_after_every_start_degenerates(toy_train, monkeypatch):
    calls = _degenerate_stats(monkeypatch, failures=99)
    with pytest.raises(ValueError, match="all 3 starts produced degenerate features") as info:
        train(toy_train, p=2, cfg=CgConfig(seed=3, max_iters=30))
    assert len(calls) == 3
    assert str(info.value.__cause__) == "degenerate start 3"


@pytest.mark.parametrize("zeta", [0.0, 0.7])
def test_train_rejects_bad_zeta_before_any_start(toy_train, monkeypatch, zeta):
    monkeypatch.setattr(scafd.sca, "init_product_point", None)  # any start would fail
    with pytest.raises(ValueError, match=f"zeta must lie in \\(0, 0.5\\], got {zeta}"):
        train(toy_train, p=2, cfg=CgConfig(max_iters=5), zeta=zeta)


def test_train_rejects_small_sample(rng):
    X = DataMatrix(rng.standard_normal((2, 3)))
    with pytest.raises(ValueError, match=r"p\+2"):
        train(X, p=2)


@pytest.mark.parametrize("method", ["sca", "ae", "sae"])
def test_trainers_reject_too_few_samples_for_the_limit_before_any_fit(
    rng, monkeypatch, method
):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr(scafd.sca, "cg_optimize", no_fit)
    monkeypatch.setattr(scafd.baselines, "_gradient_descent", no_fit)
    X = DataMatrix(rng.standard_normal((3, 8)))
    # control_limit's own message, not a restart loop's wrapper around it
    with pytest.raises(ValueError, match="^need at least 10 samples, got 8$") as info:
        if method == "sca":
            train(X, p=2)
        else:
            ae_train(X, 2, expand_inputs=method == "sae")
    assert info.value.__cause__ is None


_ZETA = r"^zeta must lie in \(0, 0.5\], got 0.7$"
_FEW = "^need at least 10 samples, got 8$"
# Each trainer on a bad request, with the message it raises: a bad zeta, 8
# samples (below the KDE floor), p = 0 and p above the method's limit (ae
# has none).  X is a 6 x 20 block, X8 holds 8 samples and X1 one variable.
_BAD_REQUESTS = {
    "sca-zeta": (lambda X, X8, X1: train(X, p=2, zeta=0.7), _ZETA),
    "sca-8-samples": (lambda X, X8, X1: train(X8, p=2), _FEW),
    "sca-p0": (lambda X, X8, X1: train(X, p=0), "^p must be at least 1$"),
    "sca-p-above-N": (lambda X, X8, X1: train(X1, p=4),
                      "^p=4 exceeds expanded dimension 3$"),
    "ae-zeta": (lambda X, X8, X1: ae_train(X, 2, zeta=0.7), _ZETA),
    "ae-8-samples": (lambda X, X8, X1: ae_train(X8, 2), _FEW),
    "ae-p0": (lambda X, X8, X1: ae_train(X, 0), "^p must be at least 1$"),
    "pca-zeta": (lambda X, X8, X1: pca_fit(X, n_components=2, zeta=0.7), _ZETA),
    "pca-8-samples": (lambda X, X8, X1: pca_fit(X8, n_components=2), _FEW),
    "pca-p0": (lambda X, X8, X1: pca_fit(X, n_components=0),
               "^p=0 out of range for 6 variables$"),
    "pca-p-above-n": (lambda X, X8, X1: pca_fit(X, n_components=7),
                      "^p=7 out of range for 6 variables$"),
    "pca-energy": (lambda X, X8, X1: pca_fit(X, energy=1.5),
                   r"^energy must lie in \(0, 1\]$"),
    "kpca-zeta": (lambda X, X8, X1: kpca_fit(X, 2, zeta=0.7), _ZETA),
    "kpca-8-samples": (lambda X, X8, X1: kpca_fit(X8, 2), _FEW),
    "kpca-p0": (lambda X, X8, X1: kpca_fit(X, 0), "^p=0 out of range for 20 samples$"),
    "kpca-p-above-m": (lambda X, X8, X1: kpca_fit(X, 20),
                       r"^need at least p\+1 = 21 samples$"),
}


@pytest.mark.parametrize("case", list(_BAD_REQUESTS))
def test_trainers_reject_a_bad_request_before_any_fit(rng, monkeypatch, case):
    ran = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            ran.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(scafd.baselines, "ae_cost_grad",
                        spy("ae_cost_grad", scafd.baselines.ae_cost_grad))
    monkeypatch.setattr(scafd.sca, "cg_optimize", spy("cg_optimize", cg_optimize))
    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
    # m + p < N, so sca would fit in the data span, which starts with eigh
    blocks = [_latent_block(rng, n, m) for n, m in ((6, 20), (6, 8), (1, 20))]
    fit, message = _BAD_REQUESTS[case]
    with pytest.raises(ValueError, match=message) as info:
        fit(*blocks)
    assert ran == []
    # the check's own message, not a restart loop's wrapper around it
    assert info.value.__cause__ is None


def test_train_rejects_bad_p(rng):
    X = DataMatrix(rng.standard_normal((1, 8)))
    with pytest.raises(ValueError, match="at least 1"):
        train(X, p=0)
    with pytest.raises(ValueError, match="expanded dimension"):
        train(X, p=4)  # N = 1 + 1 + 1 = 3 for one variable


def _latent_block(rng, n, m):
    """n variables driven by two latent factors plus noise, m samples."""
    latent = rng.standard_normal((n, 2)) @ rng.standard_normal((2, m))
    return DataMatrix(latent + 0.3 * rng.standard_normal((n, m)))


def test_train_in_data_span_matches_explicit_expansion():
    # n=6, m=20, p=3: m + p < N = 43, so train runs CG on coordinates in the
    # span of the data; the reference runs it on the explicit expansion.
    X = _latent_block(np.random.default_rng(5), 6, 20)
    cfg = CgConfig(seed=4, max_iters=10)
    model, trace = train(X, p=3, cfg=cfg)
    expanded = expand_second_order(DataMatrix(apply_scaler(model.scaler, X.values)))
    init = init_product_point(expanded_dim(6), 3, np.random.default_rng(cfg.seed))
    ref, ref_trace = cg_optimize(init, expanded, cfg)
    assert trace.iterations == ref_trace.iterations == 10
    costs, ref_costs = np.array(trace.cost_per_iter), np.array(ref_trace.cost_per_iter)
    assert np.all(np.abs(costs - ref_costs) <= 1e-11 * np.abs(ref_costs))
    # the span fit's encoder starts, and so stays, in range(X): it is the
    # reference's in-span part, and the reference keeps its start's rest
    U, sv, _ = np.linalg.svd(expanded, full_matrices=False)
    Q = U[:, sv > sv[0] * 1e-12]
    off_span = model.w - Q @ (Q.T @ model.w)
    assert np.linalg.norm(off_span) <= 1e-12 * np.linalg.norm(model.w)
    assert np.max(np.abs(model.w - Q @ (Q.T @ ref.w))) <= 1e-8
    assert np.max(np.abs(model.w_tilde.matrix - ref.w_tilde.matrix)) <= 1e-8


def test_train_in_data_span_with_rank_deficient_kernel():
    # every sample twice and one constant variable: rank(K) <= 20 < m = 40
    rng = np.random.default_rng(6)
    base = _latent_block(rng, 6, 20).values
    base[2] = 4.0
    X = DataMatrix(np.hstack([base, base]))
    kernel = second_order_kernel(apply_scaler(fit_scaler(X), X.values))
    assert np.linalg.matrix_rank(kernel) <= 20
    model, _ = train(X, p=2, cfg=CgConfig(seed=0, max_iters=50))
    assert orthonormality_error(model.w_tilde.matrix) <= 1e-12
    t2_values = monitor(model, X).t2
    assert np.all(np.abs(t2_values - model.t2_train) <= 1e-6 * np.maximum(1.0, model.t2_train))


def test_train_in_data_span_and_encode_never_expand(rng, monkeypatch):
    import scafd.sca

    def forbidden(X):
        raise AssertionError("the N x m expansion was formed")

    monkeypatch.setattr(scafd.sca, "expand_second_order", forbidden)
    X = _latent_block(rng, 6, 20)
    model, _ = train(X, p=3, cfg=CgConfig(seed=0, max_iters=5))
    assert monitor(model, X).t2.shape == (20,)


def test_train_in_data_span_lifts_only_the_kept_start(monkeypatch):
    # Each span fit makes one N x p product to complete its basis (P); the
    # lift back to N rows makes two more, for w and W~, and runs only for
    # the start that is kept.  Here the first start is rejected.
    calls = []

    def counted(*args):
        calls.append(1)
        return expanded_dot(*args)

    monkeypatch.setattr(scafd.sca, "expanded_dot", counted)
    starts = _degenerate_stats(monkeypatch, failures=1)
    X = _latent_block(np.random.default_rng(5), 6, 20)  # m + p = 23 < N = 43
    train(X, p=3, cfg=CgConfig(seed=4, max_iters=5))
    assert len(starts) == 2
    assert len(calls) == 2 + 2


def test_train_in_data_span_runs_every_start_on_one_fixed_block(monkeypatch):
    # The completion rows P^T X of the block are 0 for every start, since X
    # lies in range(Q_X), so no start writes into the block.
    p = 3
    blocks = []

    def recorded(init, data, *args):
        blocks.append((data, data.copy()))
        return cg_optimize(init, data, *args)

    monkeypatch.setattr(scafd.sca, "cg_optimize", recorded)
    starts = _degenerate_stats(monkeypatch, failures=1)
    X = _latent_block(np.random.default_rng(5), 6, 20)  # m + p = 23 < N = 43
    train(X, p=p, cfg=CgConfig(seed=4, max_iters=5))
    assert len(starts) == len(blocks) == 2
    (first, seen), (second, _) = blocks
    assert second is first
    assert np.all(seen[-p:] == 0.0)
    assert np.array_equal(first, seen)


def test_train_in_data_span_holds_two_m_by_m_arrays_during_cg(monkeypatch):
    # n=20, m=200, p=5: N = 421 > m + p and the kernel has full rank r = m,
    # so the basis coefficients (m x r) and the (r + p) x m data block are
    # each about m x (m + p) doubles; a third copy would break the bound.
    m, p = 200, 5
    X = _latent_block(np.random.default_rng(8), 20, m)
    live = []

    def traced(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return cg_optimize(*args, **kwargs)

    monkeypatch.setattr(scafd.sca, "cg_optimize", traced)
    tracemalloc.start()
    try:
        train(X, p=p, cfg=CgConfig(seed=0, max_iters=2))
    finally:
        tracemalloc.stop()
    assert len(live) == 1
    assert live[0] < 2.5 * m * (m + p) * 8


def test_train_and_monitor_memory_stay_below_the_expansion_at_ac10_shape():
    # The AC10 problem: n=52 (N=2757), m=500, p=27.  The expansion alone is
    # 11 MB for training and 22.6 MB per 1024-sample scoring chunk.
    rng = np.random.default_rng(0)
    latent = rng.standard_normal((52, 12)) @ rng.standard_normal((12, 500))
    X = DataMatrix(latent + 0.3 * rng.standard_normal((52, 500)))
    block = DataMatrix(rng.standard_normal((52, 20000)))
    tracemalloc.start()
    try:
        model, _ = train(X, p=27, cfg=CgConfig(seed=0, max_iters=10))
        train_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        monitor(model, block)
        monitor_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train_peak < 20e6
    assert monitor_peak < 32e6


# ---------------------------------------------------------------------------
# encode


def _encode_sample(model, z):
    """Features of one z-scored sample, encoded as a one-column block."""
    return model.encode_batch(np.asarray(z, dtype=float)[:, None])[:, 0]


def test_encode_zero_weights_gives_zero_features():
    model = _tiny_model(w=np.zeros((3, 1)))
    assert np.array_equal(_encode_sample(model, np.array([0.7])), np.zeros(1))


def test_encode_constant_slot_one_hot():
    model = _tiny_model(encoder_activation="identity")
    # w picks expansion slot 0, which is the constant 1 for every sample
    assert _encode_sample(model, np.array([2.3])) == pytest.approx([1.0], abs=0.0)


def test_encode_batch_single_consistency(toy_sca_model, toy_train):
    model, _ = toy_sca_model
    G = model.encode_batch(toy_train.values)
    for j in (0, 7, 499):
        assert np.all(
            np.abs(_encode_sample(model, toy_train.values[:, j]) - G[:, j]) <= 1e-12
        )


def test_encode_dimension_mismatch():
    model = _tiny_model()
    with pytest.raises(ValueError, match="^model expects 1 variables, data has 2$"):
        monitor(model, DataMatrix(np.array([[1.0], [2.0]])))


# ---------------------------------------------------------------------------
# monitor


def test_detect_training_alarm_rate_near_zeta(toy_sca_model, toy_train):
    model, _ = toy_sca_model
    report = monitor(model, toy_train)
    assert 0.0 <= report.flags.mean() <= 2.5 * model.zeta


def test_detect_flags_follow_limit_strictly(toy_sca_model, toy_train):
    model, _ = toy_sca_model
    report = monitor(model, toy_train)
    assert np.array_equal(report.flags, report.t2 > model.control_limit)


def test_detect_is_deterministic(toy_sca_model, toy_test):
    model, _ = toy_sca_model
    a = monitor(model, toy_test)
    b = monitor(model, toy_test)
    assert np.array_equal(a.t2, b.t2)
    assert np.array_equal(a.flags, b.flags)


def _toy_monitor(method, toy_sca_model, toy_train):
    """A monitor of the given type fitted on the toy training block."""
    fits = {
        "sca": lambda: toy_sca_model[0],
        "pca": lambda: pca_fit(toy_train, n_components=2),
        "kpca": lambda: kpca_fit(toy_train, p=2),
        "ae": lambda: ae_train(toy_train, p=2, max_iters=30)[0],
    }
    return fits[method]()


@pytest.mark.parametrize("method", ["sca", "pca", "kpca", "ae"])
def test_detect_dimension_mismatch(method, toy_sca_model, toy_train, rng):
    model = _toy_monitor(method, toy_sca_model, toy_train)
    with pytest.raises(ValueError, match="model expects 3 variables, data has 4"):
        monitor(model, DataMatrix(rng.standard_normal((4, 5))))


@pytest.mark.parametrize("method", ["sca", "pca", "kpca", "ae"])
def test_monitor_scores_in_chunks(method, toy_sca_model, toy_train, toy_test, monkeypatch):
    model = _toy_monitor(method, toy_sca_model, toy_train)
    block = DataMatrix(toy_test.values[:, 75:125])  # normal head, faulty tail
    whole = monitor(model, block)
    monkeypatch.setattr("scafd.sca._SCORE_CHUNK", 7)
    chunked = monitor(model, block)
    assert np.array_equal(chunked.flags, whole.flags)
    assert np.allclose(chunked.t2, whole.t2, rtol=1e-12, atol=0.0)


def _ac10_shape_sae_model(rng):
    """A second-order autoencoder monitor, n=52, p=27, with small weights."""
    n, p = 52, 27
    N = expanded_dim(n)
    return AeModel(
        scaler=Scaler(mean=rng.standard_normal(n), std=rng.uniform(0.5, 2.0, n)),
        w_enc=0.01 * rng.standard_normal((N, p)),
        b_enc=rng.standard_normal(p),
        w_dec=rng.standard_normal((N, p)),
        b_dec=rng.standard_normal(N),
        expand_inputs=True,
        sigma_g_inv=np.eye(p),
        g_mean=rng.standard_normal(p),
        t2_train=rng.chisquare(p, 500),
        kde_bandwidth=1.5,
        control_limit=40.0,
    )


@pytest.mark.parametrize("method", ["sca", "sae"])
def test_monitor_prepares_the_triangular_form_once_per_model(method, ac10_shape_model,
                                                              rng, monkeypatch):
    # The form costs more than a one-sample score, so a model builds it at
    # its first encode and keeps it; replace() gives a model that has not.
    model = (dataclasses.replace(ac10_shape_model) if method == "sca"
             else _ac10_shape_sae_model(rng))
    builds = []

    def counted(*args):
        builds.append(args)
        return triangular_form(*args)

    for module in (scafd.sca, scafd.baselines):
        monkeypatch.setattr(module, "triangular_form", counted)
    block = DataMatrix(rng.standard_normal((52, 200)))
    single = np.concatenate(
        [monitor(model, DataMatrix(block.values[:, i : i + 1])).t2 for i in range(200)]
    )
    assert len(builds) == 1
    whole = monitor(model, block)
    assert len(builds) == 1
    assert np.allclose(single, whole.t2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("method", ["sca", "pca", "kpca", "ae"])
def test_monitor_rejects_a_z_score_that_overflows(method, toy_train):
    # A finite entry far outside a 1e-3 spread scales to inf, with no numpy
    # warning before the error; its T2 would be inf or NaN, and NaN never alarms.
    values = toy_train.values.copy()
    values[0] *= 1e-3 / values[0].std(ddof=1)
    X = DataMatrix(values)
    model = {
        "sca": lambda: train(X, p=2, cfg=CgConfig(seed=0, max_iters=30))[0],
        "pca": lambda: pca_fit(X, n_components=2),
        "kpca": lambda: kpca_fit(X, p=2),
        "ae": lambda: ae_train(X, p=2, max_iters=30)[0],
    }[method]()
    # sample 1500 sits in the block's second scoring chunk, and is named
    # by its place in the block
    for size, sample in ((5, 3), (2000, 1500)):
        block = np.zeros((3, size))
        block[0, sample] = 1e308
        message = f"^non-finite entry at variable 0, sample {sample}$"
        with pytest.raises(ValueError, match=message) as info:
            monitor(model, DataMatrix(block))
        assert info.value.__context__ is None  # raised where the chunk is scaled


def test_monitor_names_an_overflow_in_the_last_sample_in_bounded_memory(rng):
    # Past the T2 already computed (8 bytes a sample), naming the sample must
    # not take memory that grows with the block: no re-scaling of the block.
    n = 20
    X = DataMatrix(rng.standard_normal((n, 200)) * np.r_[1e-3, np.ones(n - 1)][:, None])
    model = pca_fit(X, n_components=2)
    peaks = {}
    for size in (2048, 20480):
        block = DataMatrix(np.zeros((n, size)))
        block.values[0, -1] = 1e308
        message = f"^non-finite entry at variable 0, sample {size - 1}$"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                monitor(model, block)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20480] - peaks[2048] <= 8 * (20480 - 2048) + 32_000


def test_monitor_zero_t2_never_alarms():
    stub = _RawMonitor(p=2, limit=0.0)
    X = DataMatrix(np.array([[0.0, 1.0], [0.0, 2.0]]))
    report = monitor(stub, X)
    assert report.t2[0] == 0.0 and not report.flags[0]
    assert report.t2[1] == 5.0 and report.flags[1]  # zero limit: any T2 > 0 alarms


def test_monitor_boundary_is_exclusive():
    stub = _RawMonitor(p=1, limit=4.0)
    X = DataMatrix(np.array([[2.0, 2.1]]))
    report = monitor(stub, X)
    assert report.t2[0] == 4.0 and not report.flags[0]
    assert report.flags[1]


# ---------------------------------------------------------------------------
# score


def test_score_perfect_split():
    flags = np.concatenate([np.zeros(160, bool), np.ones(800, bool)])
    assert score(flags, 160) == (0.0, 0.0)


def test_score_no_alarms():
    assert score(np.zeros(200, bool), 100) == (100.0, 0.0)


def test_score_all_alarms():
    assert score(np.ones(200, bool), 100) == (0.0, 100.0)


def test_score_mixed_hand_case():
    flags = np.array([True, False, False, False, True, False])
    mdr, far = score(flags, 4)
    assert far == pytest.approx(25.0)
    assert mdr == pytest.approx(50.0)


@given(
    n_normal=st.integers(1, 30),
    n_fault=st.integers(1, 30),
    data=st.data(),
)
@settings(max_examples=50)
def test_score_ranges_and_complement(n_normal, n_fault, data):
    flags = np.array(
        data.draw(st.lists(st.booleans(), min_size=n_normal + n_fault,
                           max_size=n_normal + n_fault))
    )
    mdr, far = score(flags, n_normal)
    assert 0.0 <= mdr <= 100.0 and 0.0 <= far <= 100.0
    inv_mdr, inv_far = score(~flags, n_normal)
    assert mdr + inv_mdr == pytest.approx(100.0)
    assert far + inv_far == pytest.approx(100.0)


def test_score_rejects_degenerate_segments():
    flags = np.zeros(10, bool)
    with pytest.raises(ValueError, match="positive"):
        score(flags, 0)
    with pytest.raises(ValueError, match="exceeds"):
        score(flags, 11)
    with pytest.raises(ValueError, match="no faulty segment"):
        score(flags, 10)


# ---------------------------------------------------------------------------
# model/report validation


def test_sca_model_validation():
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    wide = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        _tiny_model(w=wide, w_tilde=StiefelPoint(wide), sigma_g_inv=asym,
                    g_mean=np.zeros(2))
    with pytest.raises(ValueError, match="control limit"):
        _tiny_model(control_limit=0.0)
    with pytest.raises(ValueError, match="bandwidth"):
        _tiny_model(kde_bandwidth=0.0)
    with pytest.raises(ValueError, match="feature mean"):
        _tiny_model(g_mean=np.zeros(2))
    with pytest.raises(ValueError, match=r"w has shape \(4, 1\), expected \(3, 1\)"):
        _tiny_model(w=np.zeros((4, 1)))


def test_detection_report_validation():
    with pytest.raises(ValueError, match="equal length"):
        DetectionReport(t2=np.zeros(3), flags=np.zeros(2, bool))


def test_package_exports_resolve():
    import scafd

    missing = [name for name in scafd.__all__ if not hasattr(scafd, name)]
    assert missing == []


def test_importing_one_module_loads_only_what_it_imports():
    # the package root re-exports nothing, so scafd.data (numpy only) does
    # not pull in the trainers, the optimizer or persistence
    script = """
import sys
import scafd.data
print(sorted(m for m in sys.modules if m.split(".")[0] == "scafd"))
"""
    src = str(Path(scafd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['scafd', 'scafd.data']"


def test_runtime_needs_numpy_only(tmp_path):
    # tests/numpy_only_checks.py runs every subcommand with scipy and
    # hypothesis blocked; the CI job "numpy-only" runs the same file on an
    # install without the test extras, so the two cannot drift apart.
    tests = Path(__file__).parent
    workflow = (tests.parent / ".github" / "workflows" / "tests.yml").read_text()
    assert "tests/numpy_only_checks.py" in workflow
    src = str(Path(scafd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(tests / "numpy_only_checks.py"),
         str(tests / "data" / "v1" / "pca.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
