"""Process-data ingestion, z-score scaling, and second-order expansion.

Data is held variables-by-samples: a measurement matrix with n process
variables and m samples is an n x m array.  The second-order expansion maps
each sample x to [1, x_1..x_n, x_1*x_1, x_1*x_2, ..., x_n*x_n], so the
expanded dimension is N = 1 + n + n**2 (the full product block is kept,
including both x_j*x_k and x_k*x_j).

A weight column w_i meets the expansion of a sample z as w_i[0] + L_i^T z
+ z^T Q_i z, with L_i its next n entries and Q_i its product rows as an
n x n matrix.  ``expanded_t_dot`` computes that from the upper-triangular
U_i with the same value (the two entries of each pair j != k summed above
the diagonal), split into column blocks; block [a, b) needs only
z_1..z_b, so the quadratic part costs (1 + 1/blocks)/2 of the full form's
flops.  ``triangular_form`` prepares U; a model prepares it once, reuses
it on every call and never saves it.

``load_csv`` parses CSV files with numpy, gives the file's line and column
of a bad value or row, and names the file in every error it raises.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Std below this is treated as a constant column and replaced by 1.
_STD_FLOOR = 1e-12


@dataclass
class DataMatrix:
    """An n x m block of process measurements (variables by samples).

    Checked once, where it enters; code inside works on its ``values``.
    """

    values: np.ndarray
    variable_names: list[str] | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={self.values.ndim}")
        n, m = self.values.shape
        if n < 1 or m < 1:
            raise ValueError(f"matrix must be at least 1x1, got {n}x{m}")
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(f"non-finite entry at variable {bad[0]}, sample {bad[1]}")
        if self.variable_names is not None and len(self.variable_names) != n:
            raise ValueError(
                f"got {len(self.variable_names)} variable names for {n} variables"
            )

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass
class Scaler:
    """Per-variable location/scale learned from training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.std = np.asarray(self.std, dtype=float).ravel()
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have the same length")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("scaler mean entries must be finite")
        # an infinite std would scale every sample to 0
        if not np.all((self.std > 0) & np.isfinite(self.std)):
            raise ValueError("scaler std entries must be finite and strictly positive")

    @property
    def n_variables(self) -> int:
        return self.mean.shape[0]


def fit_scaler(X: DataMatrix) -> Scaler:
    """Learn per-variable mean and sample std (m-1 divisor) from training data.

    Constant columns (std below 1e-12) get std 1 so scaling never divides by
    a vanishing spread.
    """
    if X.n_samples < 2:
        raise ValueError(f"need at least 2 samples to fit a scaler, got {X.n_samples}")
    mean = X.values.mean(axis=1)
    std = X.values.std(axis=1, ddof=1)
    std = np.where(std < _STD_FLOOR, 1.0, std)
    return Scaler(mean=mean, std=std)


def apply_scaler(scaler: Scaler, values: np.ndarray, offset: int = 0) -> np.ndarray:
    """Z-score an n x m array; an overflow is an error, as NaN T2 never alarms.

    The error counts samples from ``offset``, the array's first in its block.
    """
    if values.shape[0] != scaler.n_variables:
        raise ValueError(
            f"model expects {scaler.n_variables} variables, data has {values.shape[0]}"
        )
    # the check below names an overflow, so numpy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (values - scaler.mean[:, None]) / scaler.std[:, None]
    if not np.all(np.isfinite(scaled)):
        bad = np.argwhere(~np.isfinite(scaled))[0] + (0, offset)
        raise ValueError(f"non-finite entry at variable {bad[0]}, sample {bad[1]}")
    return scaled


def expand_second_order(X: DataMatrix) -> np.ndarray:
    """Expand each sample to [1, x, all ordered products x_j*x_k]: (1+n+n^2) x m.

    Products are laid out row-major (j outer, k inner), so the entry at row
    1 + n + j*n + k is exactly the IEEE product of rows 1+j and 1+k.
    """
    vals = X.values
    n, m = vals.shape
    products = (vals[:, None, :] * vals[None, :, :]).reshape(n * n, m)
    return np.concatenate([np.ones((1, m)), vals, products], axis=0)


def expanded_dim(n: int) -> int:
    """Dimension of the second-order expansion of an n-variable sample."""
    return 1 + n + n * n


# The three products below take an n x m array Z and use its second-order
# expansion E only through E's structure, so none of them forms the
# (1+n+n^2) x m array of ``expand_second_order``.
# Cap on the elements of the largest temporary of expanded_t_dot and
# expanded_dot (1 MB): they work in slices of samples or of columns of c
# under it, instead of holding m x n*p arrays.
_PRODUCT_CHUNK = 1 << 17
# Column blocks of each upper-triangular form (fewer when n is smaller):
# the quadratic part costs (1 + 1/blocks)/2 of the full form's flops, and
# each block is one more matmul per slice.  8 scored the 52-variable
# detect52 cycle fastest among 4, 6, 8, 10 and 13.
_FORM_BLOCKS = 8


def second_order_kernel(Z: np.ndarray) -> np.ndarray:
    """Gram matrix of the expansion, 1 + S + S*S with S = Z^T Z: m x m.

    Equals ``E.T @ E``, because expanded samples satisfy x~^T y~ = 1 +
    x^T y + (x^T y)^2.  Only S and the result are held: S * S overwrites S.
    """
    S = Z.T @ Z
    K = 1.0 + S
    S *= S
    K += S
    return K


@dataclass(frozen=True)
class TriangularForm:
    """A (1+n+n^2) x p matrix w, prepared for ``expanded_t_dot``.

    ``bias`` is w's first row and ``linear`` its next n rows.  Column i of
    the product rows, reshaped to n x n, is the form Q_i of z^T Q_i z; the
    upper-triangular U_i, with U_i[j, k] = Q_i[j, k] + Q_i[k, j] for j < k
    and U_i[j, j] = Q_i[j, j], gives the same z^T U_i z.  ``blocks`` splits
    the columns k of U into ranges [a, b); as U is 0 below the diagonal, a
    block keeps only the rows j < b, stored as one b x (b-a)*p array.
    """

    bias: np.ndarray
    linear: np.ndarray
    blocks: tuple[tuple[int, int, np.ndarray], ...]


def triangular_form(w: np.ndarray, n: int) -> TriangularForm:
    """Fold the product rows of a (1+n+n^2) x p matrix w into upper-triangular forms."""
    p = w.shape[1]
    q = w[1 + n :].reshape(n, n, p)
    count = min(_FORM_BLOCKS, n)
    edges = [n * i // count for i in range(count + 1)]
    blocks = []
    for a, b in zip(edges, edges[1:]):
        u = q[:b, a:b] + q[a:b, :b].swapaxes(0, 1)  # Q + Q^T, b x (b-a) x p
        d = np.arange(b - a)
        u[a + d, d] = q[a + d, a + d]
        u[a:][np.tril_indices(b - a, -1)] = 0.0
        blocks.append((a, b, u.reshape(b, (b - a) * p)))
    return TriangularForm(w[0], w[1 : 1 + n], tuple(blocks))


def expanded_t_dot(Z: np.ndarray, w: np.ndarray | TriangularForm) -> np.ndarray:
    """``E.T @ w`` for a (1+n+n^2) x p matrix w or its ``triangular_form``: m x p.

    A plain w is prepared on each call; a model passes the form it keeps.
    Each column block [a, b) of the forms meets the samples' first b
    variables in a matmul, and one batched row product with each sample
    finishes the quadratic part.  Samples go through in slices, so the
    largest temporary, the slice's n*p matmul results, has at most
    ``_PRODUCT_CHUNK`` elements (or one sample's n*p).
    """
    n, m = Z.shape
    form = w if isinstance(w, TriangularForm) else triangular_form(w, n)
    p = form.bias.shape[0]
    out = np.empty((m, p))
    step = max(1, _PRODUCT_CHUNK // (n * p))
    quad = np.empty((min(step, m), n * p))
    for lo in range(0, m, step):
        zt = Z[:, lo : lo + step].T
        s = zt.shape[0]
        for a, b, u in form.blocks:
            np.matmul(zt[:, :b], u, out=quad[:s, a * p : b * p])
        out[lo : lo + step] = (
            form.bias
            + zt @ form.linear
            + np.matmul(zt[:, None, :], quad[:s].reshape(s, n, p))[:, 0, :]
        )
    return out


def expanded_dot(Z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``E @ c`` for an m x p matrix c: (1+n+n^2) x p.

    The product block is Z diag(c_q) Z^T for each column q, formed by one
    batched matmul per slice of k columns of c; the largest temporary, the
    k x m x n stack of weighted samples, has at most ``_PRODUCT_CHUNK``
    elements (or one column's m*n).
    """
    n, m = Z.shape
    p = c.shape[1]
    zt = np.ascontiguousarray(Z.T)  # so each weighted stack is C-ordered
    quad = np.empty((p, n, n))
    step = max(1, _PRODUCT_CHUNK // max(1, m * n))
    for lo in range(0, p, step):
        quad[lo : lo + step] = Z @ (c.T[lo : lo + step, :, None] * zt)
    products = quad.reshape(p, n * n).T
    return np.concatenate([c.sum(axis=0, keepdims=True), Z @ c, products])


def load_csv(path: str | Path, *, samples: str, header: bool) -> DataMatrix:
    """Read a comma-separated matrix of process data.

    ``samples`` declares the layout: "cols" means each CSV column holds one
    sample (variables are rows), "rows" means each CSV row is one sample.
    With ``header`` the first kept line is a header, whose cells (quoted or
    not) name the variables when samples are rows.  Lines of only commas and
    blanks are skipped; numpy parses the rest (``#`` is a bad cell, not a
    comment).  A cell numpy cannot read, a row of another width and a
    non-finite value are reported at the file's line and column, counted
    from 1 in either layout, and every error names the file.
    """
    if samples not in ("rows", "cols"):
        raise ValueError(f"samples must be 'rows' or 'cols', got {samples!r}")
    path = Path(path)
    numbers: list[int] = []  # file line of each data line read so far

    def kept(fh):
        for number, line in enumerate(fh, 1):
            if line.strip(", \t\r\n\f\v"):
                numbers.append(number)
                yield line

    try:
        with path.open(newline="") as fh:
            lines = kept(fh)
            names = None
            if header:
                names = [cell.strip() for cell in next(csv.reader(lines), [])]
                numbers.clear()
            first = next(lines, None)
            if first is None:
                raise ValueError("no data rows")
            try:
                arr = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                                 comments=None, quotechar='"', ndmin=2)
            except ValueError as exc:
                # numpy counts the data lines it got from 0 for a bad cell
                # (columns from 1) and from 1 for a row of another width
                at = re.match(r"(.*) at row (\d+)(, column \d+)?", str(exc), re.S)
                if at is None:
                    raise
                line = numbers[int(at[2]) - (at[3] is None)]
                raise ValueError(f"{at[1]} at line {line}{at[3] or ''}") from None
        if not np.isfinite(arr).all():
            row, column = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite value {arr[row, column]} at line "
                             f"{numbers[row]}, column {column + 1}")
        if samples == "rows":
            return DataMatrix(values=arr.T, variable_names=names)
        return DataMatrix(values=arr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_samples_csv(path: str | Path, values: np.ndarray) -> None:
    """Write an n x m block as CSV: header x1..xn, then one row per sample.

    This is the layout ``load_csv(path, samples="rows", header=True)`` reads.
    Values are written with ``repr``, so they read back exactly.
    """
    with Path(path).open("w") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(values.shape[0])) + "\n")
        for col in values.T:
            fh.write(",".join(repr(float(v)) for v in col) + "\n")
