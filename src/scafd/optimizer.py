"""Reconstruction cost and geometric conjugate gradient on St(N,p) x E(N,p).

The objective is the squared Frobenius reconstruction error of a one-layer
autoencoder with a linear decoder whose weight is constrained to
orthonormal columns:

    f(w, w_tilde) = || X - w_tilde @ enc(w^T X) ||_F^2

Minimization runs a nonlinear conjugate gradient on the product manifold:
Riemannian gradients via tangent projection, an Armijo search over the
dyadic steps 2^-k (0 <= k <= 60) along the retracted curve that starts at
the previous iteration's step, projection-based vector transport of the
previous gradient and direction, and a Liu-Storey style direction parameter
with a descent safeguard.

Because the decoder is linear, with G = enc(w^T X),

    f = ||X||^2 - 2 <W~^T X, G> + <G, W~^T W~ G>,

so the cost and the gradient depend on the data only through the p x m
products w^T X and W~^T X.  Along a direction (dw, H) both are closed-form
in the step t: w^T X moves linearly, and the polar retraction with its
Newton-Schulz sweep maps W~ to (W~ + tH) R with a p x p factor R.  A line
search forms only [dw, H]^T X per direction, each Armijo trial costs p x p
and p x m work instead of two N x m x p products, and the accepted trial's
products and R give the new point's forward pass, gradient and decoder.

``FitTrace`` also records the autoencoder descent of ``scafd.baselines``.

The encoder activations, which the baselines share, are ``tanh`` (the
default; zero-centered, matches z-scored inputs) and ``identity``; every
decoder is linear.  ``Activation.deriv`` takes the output y = fn(z) (tanh:
1 - y^2), so a caller that holds the codes need not evaluate ``fn`` again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .manifold import (
    ProductPoint,
    StiefelPoint,
    TangentPair,
    _polar_factor,
    inner,
    norm,
    random_stiefel,
    retract,
    riemannian_grad,
    transport,
)

_MAX_BACKTRACKS = 60
_GAMMA_DEN_FLOOR = 1e-18
_FLAT_WINDOW = 5
_ARMIJO_C1 = 1e-4  # sufficient-decrease constant
_BACKTRACK = 0.5  # step factor per backtrack
_INITIAL_STEP = 1.0  # largest step; the first search of a run starts here
# the steps a line search may try, largest first; all are exact powers of two
_STEPS = [_INITIAL_STEP * _BACKTRACK**k for k in range(_MAX_BACKTRACKS + 1)]


@dataclass(frozen=True)
class Activation:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]  # fn'(z) as a function of y = fn(z)


_ACTIVATIONS = {
    "identity": Activation("identity", lambda z: z, lambda y: np.ones_like(y)),
    "tanh": Activation("tanh", np.tanh, lambda y: 1.0 - y * y),
}

TANH = _ACTIVATIONS["tanh"]


def get_activation(name: str) -> Activation:
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None


class LineSearchError(RuntimeError):
    """No admissible Armijo step was found along the given direction.

    ``trials`` is the number of steps the failed search evaluated.  When
    ``cg_optimize`` gives up (its steepest-descent search failed too),
    ``trace`` is the run's ``FitTrace`` up to the last completed iteration,
    with stop_reason "line_search"; otherwise it is None.
    """

    def __init__(self, message: str, trials: int) -> None:
        super().__init__(message)
        self.trials = trials
        self.trace: FitTrace | None = None


@dataclass
class CgConfig:
    """Stopping rule and seed of the manifold conjugate gradient.

    ``cost_rel_tol`` is the ``_is_flat`` tolerance over ``_FLAT_WINDOW`` steps;
    the line search (``_STEPS``, ``_ARMIJO_C1``) and ``sca._RESTARTS`` are fixed.
    """

    max_iters: int = 500
    grad_tol: float = 1e-5
    cost_rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class FitTrace:
    """Per-iteration record of ``cg_optimize`` and of the autoencoder descent."""

    cost_per_iter: list[float] = field(default_factory=list)
    grad_norm_per_iter: list[float] = field(default_factory=list)
    # accepted step of each iteration, a power of two (CG: one of _STEPS)
    step_per_iter: list[float] = field(default_factory=list)
    # cost evaluations behind each step, with CG's failed search before a
    # steepest-descent retry; a descent's final failed search is not listed
    trials_per_iter: list[int] = field(default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0
    # why the run ended: "grad_tol" (CG), "flat" (``_is_flat``), "max_iters",
    # "line_search" (CG, on the trace a LineSearchError carries) or
    # "step_floor" (descent: no step lowered the cost); "" until it returns
    stop_reason: str = ""


def _check_shapes(point: ProductPoint, X: np.ndarray) -> None:
    if X.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    if point.shape[0] != X.shape[0]:
        raise ValueError(
            f"parameter rows {point.shape[0]} do not match data rows {X.shape[0]}"
        )


def _sq_norm(X: np.ndarray) -> float:
    # einsum reads X in place; np.vdot would copy a Fortran-ordered X
    return float(np.einsum("ij,ij->", X, X))


@dataclass
class _Forward:
    """The products of one point with the data that cost and gradient need."""

    pre: np.ndarray  # w^T X, p x m
    codes: np.ndarray  # G = enc(w^T X), p x m
    wt_x: np.ndarray  # W~^T X, p x m
    gram: np.ndarray  # W~^T W~, p x p
    # the polar factor R of the ``_Ray`` trial that gave it; None at a point
    polar: np.ndarray | None = None

    def cost(self, x_sq: float) -> float:
        """||X||^2 - 2 <W~^T X, G> + <G, W~^T W~ G>; may be non-finite."""
        G = self.codes
        cross = float(np.vdot(self.wt_x, G))
        return x_sq - 2.0 * cross + float(np.vdot(G, self.gram @ G))


def _forward(point: ProductPoint, X: np.ndarray, enc: Activation) -> _Forward:
    p = point.shape[1]
    W = point.w_tilde.matrix
    prod = np.hstack([point.w, W]).T @ X
    return _Forward(prod[:p], enc.fn(prod[:p]), prod[p:], W.T @ W)


class _Ray:
    """Forward pass at t along t -> (w + t dw, retract(W~, H, t)).

    ``fwd`` is the forward pass at ``point``; the constructor adds [dw, H]^T X,
    the Grams of W~ and H and the eigendecomposition of H^T H, so each call
    costs p x p and p x m work.  With R = ``_polar_factor`` of
    gram(t) = (W~ + tH)^T (W~ + tH) = W~^T W~ + t (W~^T H + H^T W~) + t^2 H^T H,
    the new decoder (W~ + tH) R gives W~(t)^T X = R^T (W~^T X + t H^T X) and
    W~(t)^T W~(t) = R^T gram(t) R.
    """

    def __init__(
        self,
        point: ProductPoint,
        fwd: _Forward,
        direction: TangentPair,
        X: np.ndarray,
        enc: Activation,
    ) -> None:
        W, H = point.w_tilde.matrix, direction.dh
        p = W.shape[1]
        prod = np.hstack([direction.dw, H]).T @ X
        self.a, self.da, self.b, self.db = fwd.pre, prod[:p], fwd.wt_x, prod[p:]
        WH = np.hstack([W, H])
        grams = WH.T @ WH
        self.m, self.hh = grams[:p, :p], grams[p:, p:]
        self.k_sym = grams[:p, p:] + grams[p:, :p]
        self.hh_eig = np.linalg.eigh(self.hh)
        self.enc = enc

    def at(self, t: float) -> _Forward:
        """The forward pass at (w + t dw, (W~ + tH) R), R kept as its ``polar``."""
        gram = self.m + t * self.k_sym + (t * t) * self.hh
        R = _polar_factor(self.hh_eig, gram, t)
        pre = self.a + t * self.da
        wt_x = R.T @ (self.b + t * self.db)
        return _Forward(pre, self.enc.fn(pre), wt_x, R.T @ gram @ R, R)


def _grad(
    fwd: _Forward, X: np.ndarray, w_tilde: np.ndarray, enc: Activation
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradient pair from a forward pass.

    W~^T D = 2 (W~^T W~ G - W~^T X) and Delta = enc'(w^T X) * W~^T D give
    d/dw = X Delta^T and d/dW~ = 2 (W~ G G^T - X G^T); both X products come
    from one N x m x 2p matmul.  enc' is read off the codes G.
    """
    G = fwd.codes
    p = G.shape[0]
    delta = enc.deriv(G) * (2.0 * (fwd.gram @ G - fwd.wt_x))
    x_prod = X @ np.concatenate([G, delta]).T
    grad_wt = 2.0 * (w_tilde @ (G @ G.T) - x_prod[:, :p])
    grad_w = np.ascontiguousarray(x_prod[:, p:])
    if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_wt))):
        raise FloatingPointError("non-finite gradient")
    return grad_w, grad_wt


def cost(point: ProductPoint, X: np.ndarray, encoder: Activation = TANH) -> float:
    """Squared Frobenius reconstruction error of X under the autoencoder.

    This is the direct formula, exact at zero residual; the optimizer uses
    the expanded form of ``_Forward.cost`` instead.
    """
    X = np.asarray(X, dtype=float)
    _check_shapes(point, X)
    codes = encoder.fn(point.w.T @ X)
    err = point.w_tilde.matrix @ codes - X
    value = float(np.sum(err * err))
    if not np.isfinite(value):
        raise FloatingPointError("non-finite reconstruction cost")
    return value


def euclidean_grad(
    point: ProductPoint, X: np.ndarray, encoder: Activation = TANH
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the cost with respect to (w, w_tilde).

    With G = enc(w^T X), E = w_tilde G - X and D = 2 E:
    d/d w_tilde = D G^T and d/d w = X (enc'(w^T X) * (w_tilde^T D))^T,
    evaluated without forming the N x m residual (see ``_grad``).
    """
    X = np.asarray(X, dtype=float)
    _check_shapes(point, X)
    return _grad(_forward(point, X, encoder), X, point.w_tilde.matrix, encoder)


def move(point: ProductPoint, direction: TangentPair, t: float) -> ProductPoint:
    """Step along the retracted curve: free factor linearly, Stiefel by retraction."""
    return ProductPoint(
        w=point.w + t * direction.dw,
        w_tilde=retract(point.w_tilde, direction.dh, t),
    )


def line_search(
    point: ProductPoint,
    fwd: _Forward,
    direction: TangentPair,
    X: np.ndarray,
    grad: TangentPair,
    f0: float,
    x_sq: float,
    encoder: Activation = TANH,
    start: float = _INITIAL_STEP,
) -> tuple[float, float, ProductPoint, _Forward, TangentPair, int]:
    """Armijo search over the steps _INITIAL_STEP * _BACKTRACK^k, 0 <= k <= 60.

    ``fwd`` is the forward pass, ``grad`` the Riemannian gradient and ``f0``
    the cost at ``point``, ``x_sq`` is ||X||_F^2.  A step t is accepted when
    f(t) <= f0 + c1 * t * <grad, direction>.  The search tries ``start``
    (one of the steps) first.  If it is accepted, the step doubles while the
    doubled step is a step of the set and is accepted; otherwise it halves
    until a step is accepted, and after the smallest step it tries the steps
    above ``start`` from the largest down.  So it returns the largest
    accepted step of the run of accepted steps that contains the first
    accepted one; when the accepted steps form one run, that is the largest
    accepted step, the result of backtracking from _INITIAL_STEP.

    Returns (t, cost at t, point at t, forward pass and Riemannian gradient
    at that point, number of trials).  Trials are evaluated in closed form
    along the retracted curve (``_Ray``), each in p x p and p x m work; only
    the accepted step builds the N x p point (``move`` up to rounding), from
    the accepted trial's polar factor, and its forward pass is that trial's.
    X is not checked here:
    ``cg_optimize`` checks it once.
    Raises ValueError when the direction is not descent or ``start`` is not
    a step, and LineSearchError when all 61 steps are rejected.
    """
    slope = inner(grad, direction)
    if not slope < 0:
        raise ValueError(f"not a descent direction: <grad, dir> = {slope:.3e}")
    if start not in _STEPS:
        raise ValueError(
            f"start must be {_INITIAL_STEP} * {_BACKTRACK}**k, 0 <= k <= {_MAX_BACKTRACKS}"
        )
    ray = _Ray(point, fwd, direction, X, encoder)
    trials = 0

    def accepted(k: int) -> tuple[_Forward, float] | None:
        nonlocal trials
        trials += 1
        t = _STEPS[k]
        trial = ray.at(t)
        f_t = trial.cost(x_sq)
        # a non-finite trial compares False and is rejected
        return (trial, f_t) if f_t <= f0 + _ARMIJO_C1 * t * slope else None

    k = _STEPS.index(start)
    found = accepted(k)
    if found:
        while k > 0 and (up := accepted(k - 1)):
            k, found = k - 1, up
    else:
        for k in [*range(k + 1, len(_STEPS)), *range(k)]:
            if found := accepted(k):
                break
        else:
            raise LineSearchError(
                f"no Armijo step in {trials} trials (f0={f0:.6e}, "
                f"slope={slope:.3e})",
                trials,
            )
    new_fwd, f_t = found
    t = _STEPS[k]
    w_tilde = StiefelPoint((point.w_tilde.matrix + t * direction.dh) @ new_fwd.polar)
    new_point = ProductPoint(point.w + t * direction.dw, w_tilde)
    eucl = _grad(new_fwd, X, new_point.w_tilde.matrix, encoder)
    return t, f_t, new_point, new_fwd, riemannian_grad(new_point, eucl), trials


def init_product_point(
    N: int, p: int, rng: np.random.Generator
) -> ProductPoint:
    """Tied random start: one orthonormal draw shared by encoder and decoder.

    Starting from W = W_tilde makes the initial map a symmetric
    projection-like autoencoder.  Untied Gaussian encoder starts were prone
    to collapsing single features onto tanh saturation plateaus, which the
    optimizer then never leaves.
    """
    w_tilde = random_stiefel(N, p, rng)
    return ProductPoint(w=w_tilde.matrix.copy(), w_tilde=w_tilde)


def _is_flat(costs: list[float], window: int, rel_tol: float) -> bool:
    """The flat-cost stop of both trainers: a relative drop <= rel_tol over window."""
    if len(costs) <= window:
        return False
    drop = costs[-1 - window] - costs[-1]
    return drop <= rel_tol * max(1.0, abs(costs[-1 - window]))


def _stop_reason(trace: FitTrace, gnorm: float, cfg: CgConfig) -> str:
    """Why the run stops before the next iteration; "" to go on."""
    if gnorm <= cfg.grad_tol:
        return "grad_tol"
    if _is_flat(trace.cost_per_iter, _FLAT_WINDOW, cfg.cost_rel_tol):
        return "flat"
    if trace.iterations >= cfg.max_iters:
        return "max_iters"
    return ""


def cg_optimize(
    init: ProductPoint,
    X: np.ndarray,
    cfg: CgConfig,
    encoder: Activation = TANH,
) -> tuple[ProductPoint, FitTrace]:
    """Minimize the reconstruction cost by conjugate gradient on the manifold.

    Stops when the Riemannian gradient norm falls below grad_tol, when the
    relative cost improvement over the last 5 iterations drops below
    cost_rel_tol, or at max_iters; trace.stop_reason says which.  The
    direction parameter follows the Liu-Storey quotient
    <G_k, G_k - G_{k-1}> / <H_{k-1}, G_{k-1}> with both previous vectors
    transported to the current point; the denominator is negative along
    descent directions, so the conjugate weight is the clamped magnitude
    max(0, -quotient), and any non-descent combination falls back to
    steepest descent.  Every cost in the trace, the first included, is the
    expanded form of ``_Forward.cost``.  Each line search starts at the step
    the previous iteration accepted; the first one, and the steepest-descent
    retry after a failed search, start at _INITIAL_STEP.
    """
    X = np.asarray(X, dtype=float)
    _check_shapes(init, X)
    began = time.perf_counter()
    x_sq = _sq_norm(X)

    point = init
    fwd = _forward(point, X, encoder)
    f = fwd.cost(x_sq)
    if not np.isfinite(f):
        raise FloatingPointError("non-finite reconstruction cost")
    grad = riemannian_grad(point, _grad(fwd, X, point.w_tilde.matrix, encoder))
    gnorm = norm(grad)
    trace = FitTrace(cost_per_iter=[f], grad_norm_per_iter=[gnorm])
    direction = -grad

    try:
        while True:
            trace.stop_reason = _stop_reason(trace, gnorm, cfg)
            if trace.stop_reason:
                break
            start = trace.step_per_iter[-1] if trace.step_per_iter else _INITIAL_STEP
            try:
                t, f_new, new_point, new_fwd, new_grad, trials = line_search(
                    point, fwd, direction, X, grad, f, x_sq, encoder, start
                )
            except LineSearchError as failed:
                if inner(direction + grad, direction + grad) == 0.0:
                    raise  # already steepest descent
                direction = -grad
                t, f_new, new_point, new_fwd, new_grad, trials = line_search(
                    point, fwd, direction, X, grad, f, x_sq, encoder
                )
                trials += failed.trials

            prev_grad, prev_dir = grad, direction
            point, fwd, f, grad = new_point, new_fwd, f_new, new_grad
            gnorm = norm(grad)
            trace.cost_per_iter.append(f)
            trace.grad_norm_per_iter.append(gnorm)
            trace.step_per_iter.append(t)
            trace.trials_per_iter.append(trials)
            trace.iterations += 1

            prev_grad_t = transport(point.w_tilde, prev_grad)
            prev_dir_t = transport(point.w_tilde, prev_dir)
            den = inner(prev_dir_t, prev_grad_t)
            beta = 0.0
            if abs(den) > _GAMMA_DEN_FLOOR:
                quotient = inner(grad, grad - prev_grad_t) / den
                beta = max(0.0, -quotient)
            direction = -grad + beta * prev_dir_t
            # the combination can drift off the tangent space at large norms
            direction = transport(point.w_tilde, direction)
            if inner(direction, grad) >= 0:
                direction = -grad
    except LineSearchError as failed:
        # steepest descent failed too: hand the run so far to the caller
        trace.stop_reason = "line_search"
        failed.trace = trace
        raise
    finally:
        trace.wall_time = time.perf_counter() - began
    return point, trace
