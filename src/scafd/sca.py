"""Second-order component analysis model and T2/KDE fault monitoring.

Offline: z-score the training block, expand each sample to second order,
train the orthogonality-constrained autoencoder by manifold conjugate
gradient, then fit the monitoring statistics — inverse feature covariance,
per-sample T2 values, a Gaussian-KDE density of those values, and the
control limit covering probability 1 - zeta.  When the samples and the
components together number fewer than the expanded dimension (m + p < N),
training runs the same conjugate gradient in the span of the expanded data
and the starting decoder, reached through the m x m second-order kernel,
and never forms the N x m expansion.

Online: z-score and encode a new sample, W^T expand(z) computed without
expanding from W's triangular form (prepared at the model's first encode),
compute its T2, and alarm when it exceeds the control limit.

Every monitor, this one and the baselines, is a ``MonitoringStats`` (the
scaler, the sizes and the T2 machinery) plus its own ``encode_batch``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import (
    DataMatrix,
    Scaler,
    TriangularForm,
    apply_scaler,
    expand_second_order,
    expanded_dim,
    expanded_dot,
    expanded_t_dot,
    fit_scaler,
    second_order_kernel,
    triangular_form,
)
from .manifold import ProductPoint, StiefelPoint
from .optimizer import TANH, CgConfig, FitTrace, cg_optimize, get_activation
from .optimizer import init_product_point

DEFAULT_ZETA = 0.01
_RIDGE_SCALE = 1e-8
# samples scaled, encoded and scored at once; bounds the n x chunk scaled
# copy and the p x chunk features whatever the block size
_SCORE_CHUNK = 1024
_RESTARTS = 3  # starts tried when a fit collapses (see train)
_KDE_MIN_SAMPLES = 10  # fewest training scores control_limit accepts


def _check_zeta(zeta: float) -> None:
    if not 0.0 < zeta <= 0.5:
        raise ValueError(f"zeta must lie in (0, 0.5], got {zeta}")


def _check_kde_samples(count: int) -> None:
    if count < _KDE_MIN_SAMPLES:
        raise ValueError(f"need at least {_KDE_MIN_SAMPLES} samples, got {count}")


def _scaled_training_block(X: DataMatrix, zeta: float) -> tuple[Scaler, np.ndarray]:
    """Check zeta, fit the scaler, check the KDE floor: (scaler, z-scored X).

    Every trainer calls it after its own rules for p, before any fit.
    """
    _check_zeta(zeta)
    scaler = fit_scaler(X)
    _check_kde_samples(X.n_samples)  # control_limit's floor
    return scaler, apply_scaler(scaler, X.values)


@dataclass
class DetectionReport:
    """Per-sample T2 values and alarm flags: float and bool arrays from ``monitor``."""

    t2: np.ndarray
    flags: np.ndarray

    def __post_init__(self) -> None:
        if self.t2.shape != self.flags.shape:
            raise ValueError("t2 and flags must have equal length")


@dataclass(kw_only=True)
class MonitoringStats:
    """Training scaler, sizes and T2 machinery shared by every monitor.

    Every monitor subclasses it and adds its feature map: the fields and the
    ``encode_batch`` method that turns z-scores, an n x m float array, into
    a p x m feature block, with shapes checked against ``n_variables`` (the
    scaler's) and ``n_components`` (the feature mean's length).  The map
    does not scale: ``_scaled_training_block`` z-scores a training block
    and ``monitor`` a block it scores.  Field order is the key order of a
    saved model, so ``scaler`` comes last, before a subclass's own fields.
    Every field annotated ``np.ndarray``, here or in a subclass, is stored
    as float64, and it and every ``float`` field must be finite: a NaN
    weight would make every T2 NaN, and NaN never exceeds the limit.
    """

    sigma_g_inv: np.ndarray
    g_mean: np.ndarray
    t2_train: np.ndarray
    kde_bandwidth: float
    control_limit: float
    zeta: float = DEFAULT_ZETA
    scaler: Scaler

    def __post_init__(self) -> None:
        # field types are strings: this module postpones annotations
        for f in dataclasses.fields(self):
            if f.type not in ("np.ndarray", "float"):
                continue
            value = getattr(self, f.name)
            if f.type == "np.ndarray":
                value = np.asarray(value, dtype=float)
                setattr(self, f.name, value)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} contains non-finite entries")
        self.g_mean = self.g_mean.ravel()
        self.t2_train = self.t2_train.ravel()
        p = self.g_mean.shape[0]
        if self.sigma_g_inv.shape != (p, p):
            raise ValueError(
                f"sigma_g_inv is {self.sigma_g_inv.shape}, feature mean has length {p}"
            )
        asym = np.linalg.norm(self.sigma_g_inv - self.sigma_g_inv.T)
        if asym > 1e-10:
            raise ValueError(f"sigma_g_inv must be symmetric, asymmetry {asym:.3e}")
        if not self.control_limit > 0:
            raise ValueError("control limit must be positive")
        if not self.kde_bandwidth > 0:
            raise ValueError("KDE bandwidth must be positive")
        _check_zeta(self.zeta)

    @property
    def n_variables(self) -> int:
        return self.scaler.n_variables

    @property
    def n_components(self) -> int:
        return self.g_mean.shape[0]

    def _check_shapes(self, expected: dict[str, tuple[int, ...]]) -> None:
        """Reject feature-map arrays that would only broadcast against each other."""
        for name, shape in expected.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name} has shape {actual}, expected {shape}")


@dataclass(kw_only=True)
class ScaModel(MonitoringStats):
    """Second-order monitor: encoder W and orthonormal decoder W~, N x p each."""

    w: np.ndarray
    w_tilde: StiefelPoint
    encoder_activation: str = "tanh"

    def __post_init__(self) -> None:
        super().__post_init__()
        shape = (expanded_dim(self.n_variables), self.n_components)
        self._check_shapes({"w": shape, "w_tilde": shape})
        get_activation(self.encoder_activation)

    @functools.cached_property
    def _w_form(self) -> TriangularForm:
        """w prepared for ``expanded_t_dot`` at the first encode and kept.

        Building it costs more than scoring one sample.  It is not a field,
        so it is never saved, and w must not change in place once it exists.
        """
        return triangular_form(self.w, self.n_variables)

    def encode_batch(self, Z: np.ndarray) -> np.ndarray:
        """Features (p x m) of z-scored samples: enc(W^T expand(Z))."""
        pre = expanded_t_dot(Z, self._w_form)
        return get_activation(self.encoder_activation).fn(pre.T)


def t2_batch(G: np.ndarray, sigma_inv: np.ndarray) -> np.ndarray:
    """T2 of every column of a p x m feature matrix."""
    return np.einsum("pm,pm->m", G, sigma_inv @ G)


def _finite_samples(t2_samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(t2_samples, dtype=float).ravel()
    if not np.all(np.isfinite(samples)):
        raise ValueError("T2 samples must be finite, got inf or NaN")
    return samples


def silverman_bandwidth(t2_samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sigma * N^(-1/5) with a degenerate floor."""
    samples = _finite_samples(t2_samples)
    if samples.size < 2:
        raise ValueError("need at least 2 samples for a bandwidth")
    sigma = float(samples.std(ddof=1))
    if sigma > 0:
        return 1.06 * sigma * samples.size ** (-0.2)
    return 1e-6 * max(1.0, float(abs(samples.mean())))


def control_limit(t2_samples: np.ndarray, zeta: float) -> float:
    """T2 threshold whose KDE-estimated coverage on [0, U] is 1 - zeta.

    h is the Silverman bandwidth and U = max + 5h.  The KDE mass of [t, U]
    is A(t) = sum_i Q((t - s_i)/h) - Q((U - s_i)/h) with the normal upper
    tail Q(x) = erfc(x / sqrt 2) / 2, and the limit is the t where A(t) =
    zeta * A(0): Gaussian kernels leak some mass below zero, so coverage is
    relative to the mass on [0, U].  Bisection on [0, U] runs until the
    bracket holds adjacent doubles.
    """
    samples = _finite_samples(t2_samples)
    _check_zeta(zeta)
    _check_kde_samples(samples.size)
    h = silverman_bandwidth(samples)

    width = h * math.sqrt(2.0)
    upper = float(samples.max()) + 5.0 * h

    def erfc(x: np.ndarray) -> np.ndarray:
        # numpy has no erfc, and the runtime depends on numpy alone
        return np.fromiter(map(math.erfc, x.tolist()), float, x.size)

    # the common factor 1/2 of Q is left out of every mass
    beyond = erfc((upper - samples) / width)

    def mass_above(t: float) -> float:
        return float(np.sum(erfc((t - samples) / width) - beyond))

    lo, hi = 0.0, upper
    target = zeta * mass_above(lo)
    if not target > 0:
        raise ValueError("estimated density carries no mass on [0, max + 5h]")
    # stop once lo and hi are adjacent doubles (or equal): every later step
    # would return this same midpoint
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if mass_above(mid) > target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def fit_monitoring_stats(
    G: np.ndarray, scaler: Scaler, zeta: float = DEFAULT_ZETA
) -> MonitoringStats:
    """Fit the T2 machinery on a p x m block of training features.

    The result also holds ``scaler``, the scaling the features were computed
    under, so a trainer builds its model from it and its feature-map fields.
    The feature covariance (sample covariance, m-1 divisor) gets a ridge of
    1e-8 * trace / p before inversion.  T2 is the Mahalanobis-style quadratic
    form of the deviation from the training feature mean; without the
    centering, a saturated near-constant feature coordinate turns its
    (ridge-floored) inverse variance into a huge constant that drowns the
    informative coordinates.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError("features must be a p x m matrix")
    p, m = G.shape
    if m < 2:
        raise ValueError("need at least 2 feature samples")
    g_mean = G.mean(axis=1)
    sigma = np.atleast_2d(np.cov(G, ddof=1))
    ridge = _RIDGE_SCALE * float(np.trace(sigma)) / p
    sigma = sigma + ridge * np.eye(p)
    try:
        sigma_inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"feature covariance is singular beyond ridge repair: {exc}")
    if not np.all(np.isfinite(sigma_inv)):
        raise ValueError("feature covariance inverse is non-finite")
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    t2_train = t2_batch(G - g_mean[:, None], sigma_inv)
    return MonitoringStats(
        sigma_g_inv=sigma_inv,
        g_mean=g_mean,
        t2_train=t2_train,
        kde_bandwidth=silverman_bandwidth(t2_train),
        control_limit=control_limit(t2_train, zeta),
        zeta=zeta,
        scaler=scaler,
    )


def _kernel_basis(Z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis Q_X of the range of X = expand(Z), kept implicit.

    With the m x m kernel K = X^T X = V diag(lam) V^T, restricted to the r
    eigenvalues above m * eps * max(lam), Q_X = X V diag(lam)^(-1/2).
    Returns (coef, data): Q_X = X @ coef, and data is the (r + p) x m block
    that ``_fit_in_span`` trains on, its first r rows already holding the
    kernel coordinates Q_X^T X = diag(lam)^(1/2) V^T and its last p rows
    left for each start's completion.  The N x m expansion is never formed.
    """
    lam, V = np.linalg.eigh(second_order_kernel(Z))
    keep = lam > Z.shape[1] * np.finfo(float).eps * lam[-1]
    root = np.sqrt(lam[keep])
    V = V[:, keep]
    r = root.size
    data = np.empty((r + p, Z.shape[1]))
    np.multiply(root[:, None], V.T, out=data[:r])
    V /= root  # in place: V is the mask's copy, so coef needs no array of its own
    return V, data


def _fit_in_span(
    Z: np.ndarray,
    coef: np.ndarray,
    data: np.ndarray,
    init: ProductPoint,
    cfg: CgConfig,
) -> tuple[ProductPoint, FitTrace, np.ndarray, Callable[[ProductPoint], ProductPoint]]:
    """``cg_optimize`` from ``init`` on X = expand(Z), run in a d-dim subspace.

    Every iterate stays in range(X) + span(W~_0): the gradients are X- and
    W~-combinations of p columns, and tangent projection, retraction and
    transport only right-multiply by p x p matrices.  So with an orthonormal
    basis B = [Q_X, P] of that space (P completes Q_X to W~_0), CG on the
    coordinates B^T w, B^T W~ against B^T X has the same costs, metric and
    iterates in exact arithmetic, on d = r + p rows instead of N.

    ``data`` comes from ``_kernel_basis``; its last p rows are overwritten
    with this start's P^T X.  Those rows are rounding noise (X lies in
    range(Q_X), so P^T X is 0 in exact arithmetic), but CG's iterates
    depend on them in floating point, so they are computed, not zeroed.
    Returns the point in span coordinates, the trace, the training codes
    and the lift of a span point back to N rows; the lift holds Z, coef
    and P, not ``data``.
    """
    w0 = init.w_tilde.matrix
    c = coef.T @ expanded_t_dot(Z, w0)  # Q_X^T W~_0
    P = np.linalg.qr(w0 - expanded_dot(Z, coef @ c))[0]
    r = coef.shape[1]
    data[r:] = expanded_t_dot(Z, P).T
    start = np.vstack([c, P.T @ w0])
    point, trace = cg_optimize(
        ProductPoint(w=start.copy(), w_tilde=StiefelPoint(start)), data, cfg, TANH
    )

    def lift(span: ProductPoint) -> ProductPoint:
        w, w_tilde = (expanded_dot(Z, coef @ M[:r]) + P @ M[r:]
                      for M in (span.w, span.w_tilde.matrix))
        return ProductPoint(w=w, w_tilde=StiefelPoint(w_tilde))

    return point, trace, TANH.fn(point.w.T @ data), lift


def train(
    X_train: DataMatrix,
    p: int,
    cfg: CgConfig | None = None,
    zeta: float = DEFAULT_ZETA,
) -> tuple[ScaModel, FitTrace]:
    """Fit a second-order component analysis monitor (tanh encoder) on normal data."""
    if cfg is None:
        cfg = CgConfig()
    if p < 1:
        raise ValueError("p must be at least 1")
    if X_train.n_samples < p + 2:
        raise ValueError(
            f"need at least p+2 = {p + 2} samples, got {X_train.n_samples}"
        )
    N = expanded_dim(X_train.values.shape[0])
    if p > N:
        raise ValueError(f"p={p} exceeds expanded dimension {N}")
    scaler, scaled = _scaled_training_block(X_train, zeta)
    # The span has at most m + p dimensions, so it only pays when that is
    # below N; toy data (n = 3, N = 13) keeps the explicit expansion.  Each
    # fit returns (point, trace, codes, lift); only the kept point is lifted.
    if X_train.n_samples + p < N:
        # the data block is held only by this partial
        fit = functools.partial(_fit_in_span, scaled, *_kernel_basis(scaled, p), cfg=cfg)
    else:
        # a DataMatrix only for perfbench's hook, which reads .values (ROADMAP 5)
        expanded = expand_second_order(DataMatrix(scaled))

        def fit(init: ProductPoint):
            point, trace = cg_optimize(init, expanded, cfg, TANH)
            return point, trace, TANH.fn(point.w.T @ expanded), lambda q: q

    rng = np.random.default_rng(cfg.seed)
    # A start can still collapse every feature onto a tanh plateau, leaving a
    # singular feature covariance.  Retry from the next draw of the same
    # stream instead of failing outright; give up after _RESTARTS tries.
    last_err: ValueError | None = None
    for _ in range(_RESTARTS):
        point, trace, codes, lift = fit(init_product_point(N, p, rng))
        try:
            stats = fit_monitoring_stats(codes, scaler, zeta)
            break
        except ValueError as err:
            last_err = err
    else:
        raise ValueError(
            f"all {_RESTARTS} starts produced degenerate features"
        ) from last_err
    del fit  # frees the span path's data block before the lift
    point = lift(point)
    model = ScaModel(
        w=point.w,
        w_tilde=point.w_tilde,
        **vars(stats),
    )
    return model, trace


def monitor(model: MonitoringStats, X_new: DataMatrix) -> DetectionReport:
    """Per-sample T2 and alarm flags of a data block under any fitted monitor.

    The block is z-scored, encoded and scored ``_SCORE_CHUNK`` samples at a
    time, so memory stays bounded whatever its length, and a z-score that
    overflows is named by its sample in the block.
    """
    t2 = []
    for lo in range(0, X_new.n_samples, _SCORE_CHUNK):
        chunk = X_new.values[:, lo : lo + _SCORE_CHUNK]
        # a view; left unnamed, its z-scores and features are freed once used
        t2.append(t2_batch(model.encode_batch(apply_scaler(model.scaler, chunk, lo))
                           - model.g_mean[:, None], model.sigma_g_inv))
    values = np.concatenate(t2)
    return DetectionReport(t2=values, flags=values > model.control_limit)


def _check_normal_count(normal_count: int, n_samples: int) -> None:
    """Reject a normal head that leaves no faulty tail in ``n_samples``."""
    if normal_count > n_samples:
        raise ValueError(
            f"normal_count {normal_count} exceeds sample count {n_samples}"
        )
    if normal_count <= 0:
        raise ValueError("normal_count must be positive")
    if normal_count == n_samples:
        raise ValueError("no faulty segment: normal_count equals sample count")


def score(flags: np.ndarray, normal_count: int) -> tuple[float, float]:
    """(missed detection rate, false alarm rate) in percent.

    The first ``normal_count`` samples are ground-truth normal, the rest are
    faulty: FAR is the alarm share among the normal head, MDR the silent
    share among the faulty tail.
    """
    flags = np.asarray(flags, dtype=bool).ravel()
    _check_normal_count(normal_count, flags.size)
    normal, faulty = flags[:normal_count], flags[normal_count:]
    far = 100.0 * float(normal.sum()) / normal.size
    mdr = 100.0 * float((~faulty).sum()) / faulty.size
    return mdr, far
