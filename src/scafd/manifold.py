"""Geometry of the product manifold St(N, p) x E(N, p).

The decoder weight lives on the Stiefel manifold (N x p matrices with
orthonormal columns); the encoder weight is a free N x p matrix.  Points and
tangent vectors are pairs.  The metric is the ambient Frobenius pairing on
both factors; the Stiefel retraction is the polar form
(W + t*H) @ (I + t^2 H^T H)^(-1/2), and vector transport is projection onto
the tangent space at the new base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-8
TANGENT_TOL = 1e-6


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


@dataclass
class StiefelPoint:
    """An N x p matrix with orthonormal columns."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("Stiefel point must be a 2-D matrix")
        err = orthonormality_error(self.matrix)
        if err > ORTHO_TOL:
            raise ValueError(
                f"columns are not orthonormal: ||W^T W - I||_F = {err:.3e}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass
class ProductPoint:
    """Optimization variable: free encoder weight + Stiefel decoder weight."""

    w: np.ndarray
    w_tilde: StiefelPoint

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != self.w_tilde.shape:
            raise ValueError(
                f"factor shapes differ: {self.w.shape} vs {self.w_tilde.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape


@dataclass
class TangentPair:
    """A tangent vector on the product manifold: (free part, Stiefel part)."""

    dw: np.ndarray
    dh: np.ndarray

    def __post_init__(self) -> None:
        self.dw = np.asarray(self.dw, dtype=float)
        self.dh = np.asarray(self.dh, dtype=float)
        if self.dw.shape != self.dh.shape:
            raise ValueError(
                f"factor shapes differ: {self.dw.shape} vs {self.dh.shape}"
            )

    def __neg__(self) -> "TangentPair":
        return TangentPair(-self.dw, -self.dh)

    def __add__(self, other: "TangentPair") -> "TangentPair":
        return TangentPair(self.dw + other.dw, self.dh + other.dh)

    def __sub__(self, other: "TangentPair") -> "TangentPair":
        return TangentPair(self.dw - other.dw, self.dh - other.dh)

    def __rmul__(self, scalar: float) -> "TangentPair":
        return TangentPair(scalar * self.dw, scalar * self.dh)


def orthonormality_error(matrix: np.ndarray) -> float:
    """Frobenius distance of W^T W from the identity."""
    p = matrix.shape[1]
    return float(np.linalg.norm(matrix.T @ matrix - np.eye(p)))


def tangency_error(base: StiefelPoint, H: np.ndarray) -> float:
    """Frobenius norm of W^T H + H^T W; zero iff H is tangent at base."""
    M = base.matrix.T @ H
    return float(np.linalg.norm(M + M.T))


def project_tangent(base: StiefelPoint, Z: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient matrix onto the tangent space.

    Returns Z - W @ sym(W^T Z); the result satisfies W^T H + H^T W = 0.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != base.shape:
        raise ValueError(f"shape mismatch: base {base.shape}, Z {Z.shape}")
    W = base.matrix
    return Z - W @ _sym(W.T @ Z)


def _polar_inv_sqrt(hth_eig: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """(I + t^2 H^T H)^(-1/2) from ``hth_eig = np.linalg.eigh(H^T H)``.

    With a = t^2 lambda, (1 + a)^(-1/2) = 1 - a / (sqrt(1 + a) (1 + sqrt(1 + a))),
    so the result is I - V diag(that fraction) V^T: one eigendecomposition
    serves every step t, and the result is exactly I at t = 0 (V V^T is the
    identity only to rounding, so V diag((1 + a)^(-1/2)) V^T is not).
    """
    vals, vecs = hth_eig
    a = (t * t) * np.maximum(vals, 0.0)
    root = np.sqrt(1.0 + a)
    return np.eye(vecs.shape[0]) - (vecs * (a / (root * (1.0 + root)))) @ vecs.T


def _polar_factor(
    hth_eig: tuple[np.ndarray, np.ndarray], gram: np.ndarray, t: float
) -> np.ndarray:
    """R with (W + tH) @ R the polar retraction, given gram = (W + tH)^T (W + tH).

    R = S (1.5 I - 0.5 S^T gram S), S = ``_polar_inv_sqrt(hth_eig, t)``: one
    Newton-Schulz sweep squares away the roundoff of an ill-conditioned eigh.
    """
    S = _polar_inv_sqrt(hth_eig, t)
    return S @ (1.5 * np.eye(S.shape[0]) - 0.5 * (S.T @ gram @ S))


def retract(base: StiefelPoint, H: np.ndarray, t: float) -> StiefelPoint:
    """Polar retraction (W + t*H) @ (I + t^2 H^T H)^(-1/2).

    H must be tangent at base; the map is (W + tH) @ ``_polar_factor``, the
    factor the optimizer's line search also builds from p x p Grams.
    """
    H = np.asarray(H, dtype=float)
    if H.shape != base.shape:
        raise ValueError(f"shape mismatch: base {base.shape}, H {H.shape}")
    if not np.isfinite(t):
        raise ValueError(f"step must be finite, got {t}")
    res = tangency_error(base, H)
    scale = max(1.0, float(np.linalg.norm(H)))
    if res > TANGENT_TOL * scale:
        raise ValueError(
            f"direction is not tangent at base: residual {res:.3e} > "
            f"{TANGENT_TOL} * max(1, ||H||)"
        )
    Y = base.matrix + t * H
    return StiefelPoint(Y @ _polar_factor(np.linalg.eigh(H.T @ H), Y.T @ Y, t))


def inner(a: TangentPair, b: TangentPair) -> float:
    """Product metric: tr(dw_a^T dw_b) + tr(dh_a^T dh_b)."""
    if a.dw.shape != b.dw.shape:
        raise ValueError(f"shape mismatch: {a.dw.shape} vs {b.dw.shape}")
    return float(np.sum(a.dw * b.dw) + np.sum(a.dh * b.dh))


def norm(a: TangentPair) -> float:
    return float(np.sqrt(inner(a, a)))


def transport(new_base: StiefelPoint, H: TangentPair) -> TangentPair:
    """Carry a tangent pair to the tangent space at a new base point.

    The free factor moves unchanged; the Stiefel factor is re-projected onto
    the new tangent space.
    """
    if H.dh.shape != new_base.shape:
        raise ValueError(
            f"shape mismatch: base {new_base.shape}, tangent {H.dh.shape}"
        )
    return TangentPair(H.dw, project_tangent(new_base, H.dh))


def riemannian_grad(
    point: ProductPoint, eucl_grad: tuple[np.ndarray, np.ndarray]
) -> TangentPair:
    """Convert a Euclidean gradient pair (d/dw, d/dw_tilde) to a tangent pair."""
    gw, gwt = (np.asarray(g, dtype=float) for g in eucl_grad)
    if gw.shape != point.shape or gwt.shape != point.shape:
        raise ValueError(
            f"gradient shapes {gw.shape}, {gwt.shape} do not match point "
            f"{point.shape}"
        )
    return TangentPair(gw, project_tangent(point.w_tilde, gwt))


def random_stiefel(N: int, p: int, rng: np.random.Generator) -> StiefelPoint:
    """Orthonormal factor of a random Gaussian N x p matrix."""
    if p > N:
        raise ValueError(f"need p <= N, got N={N}, p={p}")
    q, r = np.linalg.qr(rng.standard_normal((N, p)))
    # Fix the sign convention so the draw is deterministic in the rng stream.
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return StiefelPoint(q)


def random_tangent(base: StiefelPoint, rng: np.random.Generator) -> np.ndarray:
    """Random Stiefel tangent at base, for tests and probes."""
    return project_tangent(base, rng.standard_normal(base.shape))
