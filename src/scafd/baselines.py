"""PCA, kernel PCA, and plain/second-order autoencoder monitors.

All four are :class:`scafd.sca.MonitoringStats`, which holds the scaler,
the sizes and the T2/KDE machinery; each model type only supplies its own
feature map of z-scores.  The autoencoder (second-order with
``expand_inputs=True``) has no orthogonality constraint, but it also trains
by full-batch gradient descent for up to ``_AE_MAX_ITERS`` steps, where the
manifold-trained model runs conjugate gradient under ``CgConfig.max_iters``,
and it has a decoder bias that model lacks (and an encoder bias, which on
the expansion repeats ``w_enc[0]``, the weight of its constant row).  So a
comparison against that model varies the optimizer, the step budget and
the biases along with the constraint, and isolates none of them.  The
descent fills the same ``scafd.optimizer.FitTrace`` as the conjugate
gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, expand_second_order, expanded_dim, expanded_t_dot
from .manifold import orthonormality_error
from .optimizer import TANH, Activation, FitTrace, _is_flat, get_activation
from .sca import DEFAULT_ZETA, MonitoringStats, fit_monitoring_stats
from .sca import _scaled_training_block

_EIG_RANK_TOL = 1e-10
_LR_FLOOR = 1e-16
_FLAT_WINDOW = 10
_LR_START = 1.0  # first gradient-descent step
_COST_REL_TOL = 1e-9  # stop at a smaller relative drop over _FLAT_WINDOW steps
_NORM_BLOCK_ELEMS = 2**14  # gradient entries held for one batched norm pass
_AE_MAX_ITERS = 2000  # descent steps of ae and sae, which --max-iters does not set


@dataclass(kw_only=True)
class PcaModel(MonitoringStats):
    """Linear monitor: top-p eigenvectors of the scaled sample covariance."""

    loading: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        n, p = self.n_variables, self.n_components
        self._check_shapes({"loading": (n, p), "eigenvalues": (n,)})
        err = orthonormality_error(self.loading)
        if err > 1e-10:
            raise ValueError(f"loading columns not orthonormal: {err:.3e}")
        top = self.eigenvalues[:p]
        if np.any(np.diff(top) > 1e-12):
            raise ValueError("retained eigenvalues must be descending")

    def encode_batch(self, Z: np.ndarray) -> np.ndarray:
        return self.loading.T @ Z


@dataclass(kw_only=True)
class KpcaModel(MonitoringStats):
    """Gaussian-kernel PCA monitor with a double-centered Gram matrix."""

    train_scaled: np.ndarray       # n x m scaled training samples
    alphas: np.ndarray             # m x p projection coefficients (whitened)
    eigenvalues: np.ndarray        # top-p Gram eigenvalues, descending
    kernel_width: float
    gram_col_means: np.ndarray     # column means of the uncentered Gram
    gram_mean: float

    def __post_init__(self) -> None:
        super().__post_init__()
        n, p = self.n_variables, self.n_components
        m = self.train_scaled.shape[-1]
        self._check_shapes({
            "train_scaled": (n, m),
            "alphas": (m, p),
            "eigenvalues": (p,),
            "gram_col_means": (m,),
        })
        if np.any(self.eigenvalues <= 0):
            raise ValueError("retained Gram eigenvalues must be positive")
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise ValueError("retained Gram eigenvalues must be descending")

    def encode_batch(self, Z: np.ndarray) -> np.ndarray:
        # Kernel rows against the training block, then double centering.
        k = gaussian_kernel(Z, self.train_scaled, self.kernel_width)
        k_centered = (
            k
            - k.mean(axis=1, keepdims=True)
            - self.gram_col_means[None, :]
            + self.gram_mean
        )
        return (k_centered @ self.alphas).T


@dataclass(kw_only=True)
class AeModel(MonitoringStats):
    """Unconstrained autoencoder monitor (optionally on expanded inputs)."""

    w_enc: np.ndarray
    b_enc: np.ndarray
    w_dec: np.ndarray
    b_dec: np.ndarray
    encoder_activation: str = "tanh"
    expand_inputs: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        get_activation(self.encoder_activation)
        n, p = self.n_variables, self.n_components
        if self.expand_inputs:
            n = expanded_dim(n)
        self._check_shapes(
            {"w_enc": (n, p), "b_enc": (p,), "w_dec": (n, p), "b_dec": (n,)}
        )

    def encode_batch(self, Z: np.ndarray) -> np.ndarray:
        if self.expand_inputs:
            pre = expanded_t_dot(Z, self.w_enc).T
        else:
            pre = self.w_enc.T @ Z
        return get_activation(self.encoder_activation).fn(pre + self.b_enc[:, None])


def pca_fit(
    X: DataMatrix,
    n_components: int | None = None,
    energy: float | None = None,
    zeta: float = DEFAULT_ZETA,
) -> PcaModel:
    """Fit the PCA monitor; pick p explicitly or by cumulative eigenvalue energy."""
    if (n_components is None) == (energy is None):
        raise ValueError("specify exactly one of n_components or energy")
    n = X.values.shape[0]
    if energy is None:
        p = int(n_components)
        if p < 1 or p > n:
            raise ValueError(f"p={p} out of range for {n} variables")
    elif not 0.0 < energy <= 1.0:
        raise ValueError("energy must lie in (0, 1]")
    scaler, scaled = _scaled_training_block(X, zeta)
    cov = np.atleast_2d(np.cov(scaled, ddof=1))
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]

    if energy is not None:
        fractions = np.cumsum(vals) / vals.sum()
        p = min(int(np.searchsorted(fractions, energy) + 1), n)
    if vals[p - 1] <= _EIG_RANK_TOL * max(vals[0], 1e-300):
        raise ValueError(
            f"covariance is rank-deficient: eigenvalue {p} is "
            f"{vals[p - 1]:.3e} against leading {vals[0]:.3e}"
        )

    loading = vecs[:, :p]
    scores = loading.T @ scaled
    stats = fit_monitoring_stats(scores, scaler, zeta)
    return PcaModel(loading=loading, eigenvalues=vals, **vars(stats))


def gaussian_kernel(A: np.ndarray, B: np.ndarray, width: float) -> np.ndarray:
    """exp(-||a_i - b_j||^2 / width) between the columns of A and of B."""
    dist = (
        np.sum(A**2, axis=0)[:, None]
        + np.sum(B**2, axis=0)[None, :]
        - 2.0 * A.T @ B
    )
    return np.exp(-np.maximum(dist, 0.0) / width)


def center_gram(K: np.ndarray) -> np.ndarray:
    """Double centering K - 1K - K1 + 1K1 with 1 = ones/m."""
    col = K.mean(axis=0, keepdims=True)
    row = K.mean(axis=1, keepdims=True)
    return K - row - col + K.mean()


def kpca_fit(
    X: DataMatrix, p: int, zeta: float = DEFAULT_ZETA
) -> KpcaModel:
    """Fit the Gaussian-kernel PCA monitor with width 10 * n * mean-std.

    The mean per-variable standard deviation is computed on the scaled data
    actually fed to the kernel, so it is 1 up to the sample-std convention.
    Features are whitened so the training feature covariance is the identity.
    """
    if p < 1:
        raise ValueError(f"p={p} out of range for {X.n_samples} samples")
    if X.n_samples < p + 1:
        raise ValueError(f"need at least p+1 = {p + 1} samples")
    scaler, scaled = _scaled_training_block(X, zeta)
    n, m = scaled.shape
    delta_bar = float(scaled.std(axis=1, ddof=1).mean())
    width = 10.0 * n * delta_bar

    K = gaussian_kernel(scaled, scaled, width)
    Kc = center_gram(K)
    vals, vecs = np.linalg.eigh(0.5 * (Kc + Kc.T))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if vals[p - 1] <= _EIG_RANK_TOL * max(vals[0], 1e-300):
        raise ValueError(
            f"p={p} exceeds the numerically positive rank of the centered Gram"
        )
    top_vals, top_vecs = vals[:p], vecs[:, :p]
    # Whitened projection: training features are sqrt(m-1) * eigenvectors,
    # so their sample covariance is the identity.
    alphas = top_vecs * (np.sqrt(m - 1.0) / top_vals)[None, :]

    features = (Kc @ alphas).T
    stats = fit_monitoring_stats(features, scaler, zeta)
    return KpcaModel(
        train_scaled=scaled,
        alphas=alphas,
        eigenvalues=top_vals,
        kernel_width=width,
        gram_col_means=K.mean(axis=0),
        gram_mean=float(K.mean()),
        **vars(stats),
    )


def _ae_views(
    flat: np.ndarray, n: int, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w_enc, b_enc, w_dec, b_dec) as views of one flat parameter vector."""
    a, b, c = n * p, n * p + p, 2 * n * p + p
    return flat[:a].reshape(n, p), flat[a:b], flat[b:c].reshape(n, p), flat[c:]


def ae_cost_grad(
    params: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    X: np.ndarray,
    encoder: Activation = TANH,
    out: np.ndarray | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Reconstruction cost and analytic gradients for the biased autoencoder.

    The decoder is linear: the reconstruction is w_dec enc(w_enc^T X + b_enc)
    + b_dec.  Biases and residual are formed in place, in the order of that
    expression.  Without ``out`` the four gradients are fresh arrays.  With
    ``out``, a flat float64 vector of the parameter length laid out as
    (w_enc, b_enc, w_dec, b_dec), the same kernels write them into views of
    ``out`` and those views are returned.
    """
    w_enc, b_enc, w_dec, b_dec = params
    n, p = w_enc.shape
    size = 2 * n * p + p + n
    if out is not None and (out.dtype != np.float64 or out.shape != (size,)):
        raise ValueError(f"out must be a flat float64 vector of {size} entries")
    dests = (None,) * 4 if out is None else _ae_views(out, n, p)
    pre_codes = w_enc.T @ X
    pre_codes += b_enc[:, None]
    codes = encoder.fn(pre_codes)
    err = w_dec @ codes
    err += b_dec[:, None]
    err -= X
    value = float((err * err).sum())
    D = 2.0 * err
    g_w_dec = np.matmul(D, codes.T, out=dests[2])
    g_b_dec = np.add.reduce(D, axis=1, out=dests[3])
    dcodes = (w_dec.T @ D) * encoder.deriv(codes)
    g_w_enc = np.matmul(X, dcodes.T, out=dests[0])
    g_b_enc = np.add.reduce(dcodes, axis=1, out=dests[1])
    return value, (g_w_enc, g_b_enc, g_w_dec, g_b_dec)


def _gradient_descent(
    X: np.ndarray,
    p: int,
    rng: np.random.Generator,
    encoder: Activation,
    max_iters: int,
) -> tuple[tuple[np.ndarray, ...], FitTrace]:
    """Monotone gradient descent: halve the step until the cost does not rise.

    theta = (w_enc, b_enc, w_dec, b_dec) lives in one flat vector.  The
    current and the candidate theta are two preallocated buffers whose
    parameter views are built once: a trial writes ``theta - lr * g`` into
    the candidate (the same two roundings), and an accepted trial swaps the
    two.  ``ae_cost_grad`` writes each trial's gradient into the next row of
    one block of at most max(_NORM_BLOCK_ELEMS, 2 P) entries for P
    parameters, two rows at least; an accepted gradient keeps its row.  The
    norms of a full block, and of the rows left when the descent stops, are
    taken in one pass with the same per-parameter-block sums, added in block
    order, as a norm taken per step, so ``grad_norm_per_iter`` is unchanged
    bit for bit.  Each accepted step goes to ``step_per_iter``.
    """
    began = time.perf_counter()
    n = X.shape[0]
    theta = np.concatenate([
        rng.standard_normal((n, p)) / np.sqrt(n),
        np.zeros(p),
        rng.standard_normal((n, p)) / np.sqrt(n),
        np.zeros(n),
    ], axis=None)
    cand = np.empty_like(theta)
    params, cand_params = _ae_views(theta, n, p), _ae_views(cand, n, p)
    size = theta.size
    ends = [0, n * p, n * p + p, 2 * n * p + p, size]
    blocks = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    rows = np.empty((max(2, _NORM_BLOCK_ELEMS // size), size))
    filled = 1  # rows[:filled] hold gradients whose norm is still owed

    f, _ = ae_cost_grad(params, X, encoder, out=rows[0])
    if not np.isfinite(f):
        raise FloatingPointError("autoencoder cost diverged at initialization")
    g = rows[0]
    trace = FitTrace(cost_per_iter=[f])

    def flush() -> None:
        gg = rows[:filled] * rows[:filled]
        sq = sum([np.add.reduce(gg[:, b], axis=1) for b in blocks])
        trace.grad_norm_per_iter.extend(np.sqrt(sq).tolist())

    lr = _LR_START
    for _ in range(max_iters):
        if _is_flat(trace.cost_per_iter, _FLAT_WINDOW, _COST_REL_TOL):
            trace.stop_reason = "flat"
            break
        if filled == rows.shape[0]:
            flush()  # g sits in the last row; the next trial writes row 0
            filled = 0
        trials = 0
        while lr >= _LR_FLOOR:
            np.multiply(g, lr, out=cand)
            np.subtract(theta, cand, out=cand)
            trials += 1
            try:
                f_new, _ = ae_cost_grad(cand_params, X, encoder, out=rows[filled])
            except FloatingPointError:
                f_new = np.inf
            if math.isfinite(f_new) and f_new <= f:
                theta, cand = cand, theta
                params, cand_params = cand_params, params
                f, g = f_new, rows[filled]
                filled += 1
                break
            lr *= 0.5  # halve on cost increase, keep the reduced step
        else:
            trace.stop_reason = "step_floor"
            break
        trace.cost_per_iter.append(f)
        trace.step_per_iter.append(lr)
        trace.trials_per_iter.append(trials)
        trace.iterations += 1
    else:
        trace.stop_reason = "max_iters"
    flush()
    trace.wall_time = time.perf_counter() - began
    return params, trace


def ae_train(
    X: DataMatrix,
    p: int,
    max_iters: int = _AE_MAX_ITERS,
    seed: int = 0,
    zeta: float = DEFAULT_ZETA,
    expand_inputs: bool = False,
) -> tuple[AeModel, FitTrace]:
    """Train the unconstrained tanh autoencoder monitor by monotone gradient descent.

    ``expand_inputs`` trains on the second-order expansion (method ``sae``).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    scaler, inputs = _scaled_training_block(X, zeta)
    # a DataMatrix only for perfbench's hook, which reads .values (ROADMAP 5)
    mat = expand_second_order(DataMatrix(inputs)) if expand_inputs else inputs

    rng = np.random.default_rng(seed)
    params, trace = _gradient_descent(mat, p, rng, TANH, max_iters)
    w_enc, b_enc, w_dec, b_dec = params
    codes = TANH.fn(w_enc.T @ mat + b_enc[:, None])
    stats = fit_monitoring_stats(codes, scaler, zeta)
    model = AeModel(
        w_enc=w_enc,
        b_enc=b_enc,
        w_dec=w_dec,
        b_dec=b_dec,
        expand_inputs=expand_inputs,
        **vars(stats),
    )
    return model, trace

