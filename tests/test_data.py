"""Scaling and second-order expansion: exact layouts, guards, round trips."""

import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from scafd.data import (
    _PRODUCT_CHUNK,
    DataMatrix,
    Scaler,
    apply_scaler,
    expand_second_order,
    expanded_dim,
    expanded_dot,
    expanded_t_dot,
    fit_scaler,
    load_csv,
    second_order_kernel,
    triangular_form,
    write_samples_csv,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# fit_scaler


def test_fit_scaler_two_point_sample():
    s = fit_scaler(DataMatrix(np.array([[1.0, 3.0]])))
    assert s.mean[0] == pytest.approx(2.0)
    assert s.std[0] == pytest.approx(np.sqrt(2.0))


def test_fit_scaler_constant_column_guard():
    s = fit_scaler(DataMatrix(np.array([[5.0, 5.0, 5.0]])))
    assert s.mean[0] == pytest.approx(5.0)
    assert s.std[0] == 1.0


def test_fit_scaler_standard_normal_sanity(rng):
    X = DataMatrix(rng.standard_normal((3, 100)))
    s = fit_scaler(X)
    assert np.all(np.abs(s.mean) < 0.3)
    assert np.all(np.abs(s.std - 1.0) < 0.3)


def test_fit_scaler_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        fit_scaler(DataMatrix(np.array([[1.0]])))


def test_data_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite entry at variable 1, sample 0"):
        DataMatrix(np.array([[0.0, 1.0], [np.nan, 2.0]]))


def test_scaler_rejects_non_positive_std():
    with pytest.raises(ValueError, match="strictly positive"):
        Scaler(mean=np.zeros(2), std=np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["mean", "std"])
def test_scaler_rejects_non_finite_entries(name, bad):
    # an infinite std would scale every sample to 0 and never alarm
    values = {"mean": np.zeros(2), "std": np.ones(2)}
    values[name][1] = bad
    with pytest.raises(ValueError, match=f"scaler {name} entries must be finite"):
        Scaler(**values)


# ---------------------------------------------------------------------------
# apply_scaler


def test_apply_scaler_centers_the_mean():
    s = Scaler(mean=np.array([2.0]), std=np.array([np.sqrt(2.0)]))
    out = apply_scaler(s, np.array([[2.0]]))
    assert out[0, 0] == 0.0


def test_apply_scaler_identity():
    s = Scaler(mean=np.array([0.0, 0.0]), std=np.array([1.0, 1.0]))
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(apply_scaler(s, X), X)


def test_apply_scaler_dimension_mismatch():
    s = Scaler(mean=np.zeros(2), std=np.ones(2))
    with pytest.raises(ValueError, match="model expects 2 variables, data has 3"):
        apply_scaler(s, np.ones((3, 4)))


@given(
    st.lists(st.lists(finite, min_size=3, max_size=3), min_size=2, max_size=12)
)
def test_scale_round_trip(rows):
    X = DataMatrix(np.array(rows, dtype=float).T)
    s = fit_scaler(X)
    back = apply_scaler(s, X.values) * s.std[:, None] + s.mean[:, None]
    # re-adding the mean loses ~eps * |mean| to cancellation
    tol = 1e-12 * (np.abs(X.values) + np.maximum(1.0, np.abs(s.mean))[:, None])
    assert np.all(np.abs(back - X.values) <= tol)


@given(
    st.lists(st.lists(finite, min_size=2, max_size=2), min_size=3, max_size=20)
)
def test_scaled_training_data_has_unit_stats(rows):
    X = DataMatrix(np.array(rows, dtype=float).T)
    raw_std = X.values.std(axis=1, ddof=1)
    # columns constant up to roundoff (but above the 1e-12 guard) divide by
    # noise and cannot satisfy the identity; the guard question is separate
    assume(np.all(raw_std >= 1e-6 * np.maximum(1.0, np.abs(X.values).max(axis=1))))
    s = fit_scaler(X)
    scaled = apply_scaler(s, X.values)
    assert np.all(np.abs(scaled.mean(axis=1)) <= 1e-10 * np.maximum(1.0, np.abs(s.mean)))
    assert np.all(np.abs(scaled.std(axis=1, ddof=1) - 1.0) <= 1e-10)


# ---------------------------------------------------------------------------
# expand_second_order


def test_expand_two_variables_layout():
    a, b = 2.0, -3.0
    out = expand_second_order(DataMatrix(np.array([[a], [b]])))
    expect = np.array([1.0, a, b, a * a, a * b, b * a, b * b])
    assert out.shape == (7, 1)
    assert np.array_equal(out[:, 0], expect)


def test_expand_zero_sample():
    out = expand_second_order(DataMatrix(np.zeros((3, 1))))
    expect = np.zeros(13)
    expect[0] = 1.0
    assert np.array_equal(out[:, 0], expect)


def test_expand_single_variable():
    out = expand_second_order(DataMatrix(np.array([[3.0]])))
    assert np.array_equal(out[:, 0], np.array([1.0, 3.0, 9.0]))


def test_expanded_dim_arithmetic():
    assert expanded_dim(3) == 13
    assert expanded_dim(52) == 2757


@given(
    st.lists(st.lists(finite, min_size=3, max_size=3), min_size=1, max_size=8)
)
def test_expand_products_are_exact_ieee_products(rows):
    X = DataMatrix(np.array(rows, dtype=float).T)
    n = X.values.shape[0]
    out = expand_second_order(X)
    assert np.all(out[0] == 1.0)
    assert np.array_equal(out[1 : 1 + n], X.values)
    for j in range(n):
        for k in range(n):
            got = out[1 + n + j * n + k]
            assert np.array_equal(got, out[1 + j] * out[1 + k])


# ---------------------------------------------------------------------------
# structured products of the expansion


@given(
    st.integers(1, 6),
    st.integers(1, 9),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
    st.sampled_from([1, 20, _PRODUCT_CHUNK]),
)
@example(n=1, m=1, p=1, seed=0, chunk=_PRODUCT_CHUNK)
@example(n=1, m=5, p=2, seed=1, chunk=_PRODUCT_CHUNK)
@example(n=4, m=1, p=3, seed=2, chunk=_PRODUCT_CHUNK)
@example(n=4, m=9, p=3, seed=3, chunk=1)
@example(n=4, m=9, p=4, seed=4, chunk=20)
# fewer variables than _FORM_BLOCKS (one block per variable), and 9 and 13,
# which its 8 blocks do not divide; each with a ragged last slice of samples
@example(n=1, m=7, p=3, seed=5, chunk=6)
@example(n=2, m=8, p=3, seed=6, chunk=20)
@example(n=3, m=7, p=2, seed=7, chunk=20)
@example(n=9, m=11, p=1, seed=8, chunk=36)
@example(n=13, m=9, p=2, seed=9, chunk=60)
def test_structured_products_match_explicit_expansion(n, m, p, seed, chunk):
    # Each entry is held to 1e-12 of the matching product of absolute values,
    # the scale of its rounding error whatever the cancellation.  A smaller
    # slice cap than the default makes the products work one sample (one
    # column of c) or a few at a time, with a ragged last slice.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m)) * rng.uniform(0.1, 10.0, (n, 1))
    E = expand_second_order(DataMatrix(X))
    w = rng.standard_normal((expanded_dim(n), p))
    c = rng.standard_normal((m, p))
    with mock.patch("scafd.data._PRODUCT_CHUNK", chunk):
        pairs = [
            (second_order_kernel(X), E.T @ E, np.abs(E).T @ np.abs(E)),
            (expanded_t_dot(X, triangular_form(w, n)), E.T @ w, np.abs(E).T @ np.abs(w)),
            (expanded_dot(X, c), E @ c, np.abs(E) @ np.abs(c)),
        ]
    for got, want, scale in pairs:
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def _peak_above_entry(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_structured_products_memory_stays_near_the_slice_cap():
    # AC10 shape, n=52 (N=2757), p=27.  In one piece the m x n*p temporary
    # is 45 MB for a 4000-sample block scored by expanded_t_dot and 5.6 MB
    # for the 500 training samples expanded_dot lifts; sliced, about 1 MB.
    rng = np.random.default_rng(0)
    block = rng.standard_normal((52, 4000))
    t_dot, t_dot_peak = _peak_above_entry(
        lambda Z, w: expanded_t_dot(Z, triangular_form(w, 52)),
        block, rng.standard_normal((expanded_dim(52), 27)),
    )
    assert t_dot_peak < t_dot.nbytes + 3e6
    train = block[:, :500]
    dot, dot_peak = _peak_above_entry(expanded_dot, train, rng.standard_normal((500, 27)))
    assert dot_peak < dot.nbytes + 3e6
    # the kernel holds S and the result only: two m x m arrays
    kernel, kernel_peak = _peak_above_entry(second_order_kernel, train)
    assert kernel_peak < 2 * kernel.nbytes + 1e5


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_samples_as_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")
    dm = load_csv(path, samples="cols", header=False)
    assert dm.values.shape == (2, 3)
    assert np.array_equal(dm.values, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


def test_load_csv_samples_as_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n")
    dm = load_csv(path, samples="rows", header=False)
    assert dm.values.shape == (3, 2)
    assert np.array_equal(dm.values, np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]))


def test_load_csv_nan_cell_names_location(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,NaN\n")
    with pytest.raises(
        ValueError, match=r"m\.csv: non-finite value nan at line 2, column 2$"
    ):
        load_csv(path, samples="cols", header=False)


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,banana\n")
    with pytest.raises(
        ValueError, match=r"m\.csv: could not convert string 'banana' .* line 1, column 2$"
    ):
        load_csv(path, samples="cols", header=False)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(
        ValueError, match=r"m\.csv: the number of columns changed from 3 to 2 at line 2$"
    ):
        load_csv(path, samples="cols", header=False)


@pytest.mark.parametrize("samples", ["rows", "cols"])
@pytest.mark.parametrize(
    "bad_line, message",
    [("3,banana", r"could not convert string 'banana' to float64 at line 5, column 2"),
     ("3", r"the number of columns changed from 2 to 1 at line 5"),
     ("3,inf", r"non-finite value inf at line 5, column 2"),
     ("nan,4", r"non-finite value nan at line 5, column 1")],
    ids=["bad-cell", "short-row", "inf", "nan"],
)
def test_load_csv_errors_give_the_file_line_and_column(tmp_path, samples, bad_line,
                                                       message):
    # line 1 is the header, lines 2 and 4 are skipped as blank
    path = tmp_path / "m.csv"
    path.write_text(f"x1,x2\n\n1,2\n , \n{bad_line}\n5,6\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_csv(path, samples=samples, header=True)


def test_load_csv_header_becomes_variable_names(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x1,x2\n1,2\n3,4\n")
    dm = load_csv(path, samples="rows", header=True)
    assert dm.variable_names == ["x1", "x2"]
    assert dm.n_samples == 2


def test_load_csv_rejects_unknown_layout(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1\n")
    with pytest.raises(ValueError, match="samples must be"):
        load_csv(path, samples="diagonal", header=False)


def test_load_csv_requires_the_layout(tmp_path):
    # gen_toy writes samples as rows with a header; no default may guess
    path = tmp_path / "m.csv"
    path.write_text("x1,x2\n1,2\n")
    with pytest.raises(TypeError):
        load_csv(path)
    with pytest.raises(TypeError):
        load_csv(path, samples="rows")
    with pytest.raises(TypeError):
        load_csv(path, "rows", True)


@pytest.mark.parametrize(
    "text, samples, header, values, names",
    [
        (b"1,2\n\n3,4\n\n", "cols", False, [[1, 2], [3, 4]], None),
        (b"1,2\n,,\n , \n\t\n3,4\n", "cols", False, [[1, 2], [3, 4]], None),
        (b"\n,\nx1,x2\n\n1,2\n", "rows", True, [[1], [2]], ["x1", "x2"]),
        (b"x1,x2\r\n1,2\r\n3,4\r\n", "rows", True, [[1, 3], [2, 4]], ["x1", "x2"]),
        (b'"1.5","-2e3"\n 3 ,4\n', "cols", False, [[1.5, -2000], [3, 4]], None),
        (b'"a,b", c \n1,2\n', "rows", True, [[1], [2]], ["a,b", "c"]),
        (b"1\n2\n3", "cols", False, [[1], [2], [3]], None),
        (b"1\n2\n3\n", "rows", False, [[1, 2, 3]], None),
        (b"1,2,3\n", "cols", False, [[1, 2, 3]], None),
        (b"x1,x2,x3\n1,2,3\n", "rows", True, [[1], [2], [3]], ["x1", "x2", "x3"]),
        (b"a,b\n1,2\n", "cols", True, [[1, 2]], None),
    ],
    ids=["blank-lines", "empty-cells", "blank-before-header", "crlf", "quoted",
         "quoted-header", "one-column", "one-column-rows", "one-row-cols",
         "one-row-rows", "header-cols"],
)
def test_load_csv_accepts(tmp_path, text, samples, header, values, names):
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    dm = load_csv(path, samples=samples, header=header)
    assert dm.values.shape == np.shape(values)
    assert np.array_equal(dm.values, np.array(values, dtype=float))
    assert dm.variable_names == names


@pytest.mark.parametrize(
    "text, header",
    [(b"", False), (b"", True), (b"\n \n,,\n", False), (b"x1,x2\n", True),
     (b"x1,x2\n\n , \n", True)],
    ids=["empty", "empty-header", "blank-only", "header-only", "header-then-blank"],
)
def test_load_csv_without_data_rows_raises_without_warning(tmp_path, text, header):
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    # numpy would warn on empty input; the check runs before it is called
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        match = rf"^{re.escape(str(path))}: no data rows$"
        with pytest.raises(ValueError, match=match):
            load_csv(path, samples="rows", header=header)


@pytest.mark.parametrize("text", ["1,#\n", "# comment\n1,2\n", "1,2 # c\n"],
                         ids=["cell", "line", "trailing"])
def test_load_csv_hash_is_a_cell_not_a_comment(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_csv(path, samples="cols", header=False)


@given(
    st.lists(
        # below the largest double, so that "{:.3e}" cannot round up to inf
        st.lists(st.floats(-1e308, 1e308), min_size=3, max_size=3),
        min_size=1, max_size=6,
    ),
    st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", " {!r}\t", '"{!r}"']),
)
@example(rows=[[5e-324, -5e-324, 2.2250738585072014e-308]], fmt="{!r}")
@example(rows=[[1.7976931348623157e308, -0.0, 1e-310]], fmt="{!r}")
def test_load_csv_parses_each_cell_like_python_float(rows, fmt):
    # the reference is the per-cell float() of the parser numpy replaced
    text = "".join(",".join(fmt.format(v) for v in row) + "\n" for row in rows)
    want = [[float(cell.strip('"')) for cell in line.split(",")]
            for line in text.splitlines()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(text)
        got = load_csv(path, samples="cols", header=False).values
    assert got.tobytes() == np.array(want).tobytes()


def test_load_csv_header_width_mismatch_names_the_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x1,x2,x3\n1,2\n3,4\n")
    with pytest.raises(
        ValueError, match=rf"^{re.escape(str(path))}: got 3 variable names for 2"
    ):
        load_csv(path, samples="rows", header=True)


def test_write_samples_csv_reads_back_exactly(tmp_path, rng):
    # the last row is subnormal: below 2.2e-308, down to the smallest, 5e-324
    values = rng.standard_normal((4, 7)) * np.array(
        [[1e-300], [1.0], [1e300], [1e-310]]
    )
    values[3, :2] = [5e-324, -5e-324]
    assert np.all((values[3] != 0) & (np.abs(values[3]) < 2.2e-308))
    path = tmp_path / "m.csv"
    write_samples_csv(path, values)
    assert path.read_text().splitlines()[0] == "x1,x2,x3,x4"
    dm = load_csv(path, samples="rows", header=True)
    assert np.array_equal(dm.values, values)
    assert dm.variable_names == ["x1", "x2", "x3", "x4"]
