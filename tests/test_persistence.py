"""Round-trip exactness of the JSON model files for every monitor kind."""

import base64
import dataclasses
import json
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scafd.baselines import ae_train, kpca_fit, pca_fit
from scafd.data import DataMatrix
from scafd.persistence import FORMAT_VERSION, load_model, method_tag, save_model
from scafd.sca import monitor

_GOLDEN = Path(__file__).parent / "data" / "v1"
_GOLDEN_V2 = Path(__file__).parent / "data" / "v2"
_TAGS = ("sca", "pca", "kpca", "ae", "sae")

_ARRAY_FIELDS = {
    "sca": ("sigma_g_inv", "g_mean", "t2_train", "w"),
    "pca": ("sigma_g_inv", "g_mean", "t2_train", "loading", "eigenvalues"),
    "kpca": (
        "sigma_g_inv",
        "g_mean",
        "t2_train",
        "train_scaled",
        "alphas",
        "eigenvalues",
        "gram_col_means",
    ),
    "ae": ("sigma_g_inv", "g_mean", "t2_train", "w_enc", "b_enc", "w_dec", "b_dec"),
    "sae": ("sigma_g_inv", "g_mean", "t2_train", "w_enc", "b_enc", "w_dec", "b_dec"),
}


def _assert_same_model(model, loaded, tag):
    assert method_tag(loaded) == tag
    for name in _ARRAY_FIELDS[tag]:
        a, b = getattr(model, name), getattr(loaded, name)
        assert np.array_equal(np.asarray(a), np.asarray(b)), name
        assert b.flags.writeable, name
    assert np.array_equal(model.scaler.mean, loaded.scaler.mean)
    assert np.array_equal(model.scaler.std, loaded.scaler.std)
    if tag == "sca":
        assert np.array_equal(model.w_tilde.matrix, loaded.w_tilde.matrix)
    assert loaded.control_limit == model.control_limit
    assert loaded.kde_bandwidth == model.kde_bandwidth
    assert loaded.zeta == model.zeta


def _assert_exact_round_trip(model, tag, tmp_path):
    path = save_model(model, tmp_path / f"{tag}.json")
    assert json.loads(path.read_text())["format_version"] == 2
    loaded = load_model(path)
    # arrays are stored as their float64 bytes and scalars as repr floats,
    # so everything must return bit-for-bit identical
    _assert_same_model(model, loaded, tag)
    return loaded


@pytest.fixture(scope="module")
def small_block():
    gen = np.random.default_rng(41)
    return DataMatrix(gen.standard_normal((3, 80)))


def test_sca_round_trip_exact(toy_sca_model, toy_test, tmp_path):
    model, _ = toy_sca_model
    loaded = _assert_exact_round_trip(model, "sca", tmp_path)
    assert loaded.encoder_activation == "tanh"
    before = monitor(model, toy_test)
    after = monitor(loaded, toy_test)
    assert np.array_equal(before.t2, after.t2)
    assert np.array_equal(before.flags, after.flags)


def test_pca_round_trip_exact(small_block, tmp_path):
    model = pca_fit(small_block, n_components=2)
    loaded = _assert_exact_round_trip(model, "pca", tmp_path)
    a, b = monitor(model, small_block), monitor(loaded, small_block)
    assert np.array_equal(a.t2, b.t2)


def test_kpca_round_trip_exact(small_block, tmp_path):
    model = kpca_fit(small_block, p=2)
    loaded = _assert_exact_round_trip(model, "kpca", tmp_path)
    assert loaded.kernel_width == model.kernel_width
    assert loaded.gram_mean == model.gram_mean
    a, b = monitor(model, small_block), monitor(loaded, small_block)
    assert np.array_equal(a.t2, b.t2)


def test_ae_round_trip_exact(small_block, tmp_path):
    model, _ = ae_train(small_block, p=2, max_iters=60, seed=3)
    loaded = _assert_exact_round_trip(model, "ae", tmp_path)
    assert not loaded.expand_inputs


def test_sae_round_trip_exact(small_block, tmp_path):
    model, _ = ae_train(small_block, p=2, max_iters=60, seed=3, expand_inputs=True)
    loaded = _assert_exact_round_trip(model, "sae", tmp_path)
    assert loaded.expand_inputs


@pytest.mark.parametrize("tag", ["sca", "ae"])
def test_identity_encoder_round_trip_exact(tag, toy_sca_model, small_block, tmp_path):
    # no trainer fits an identity encoder, so one is put into a fitted model:
    # its file must still load and score bit for bit as before
    fitted = (toy_sca_model[0] if tag == "sca"
              else ae_train(small_block, p=2, max_iters=60, seed=3)[0])
    model = dataclasses.replace(fitted, encoder_activation="identity")
    loaded = _assert_exact_round_trip(model, tag, tmp_path)
    assert loaded.encoder_activation == "identity"
    before, after = monitor(model, small_block), monitor(loaded, small_block)
    assert np.array_equal(before.t2, after.t2)
    assert np.array_equal(before.flags, after.flags)
    # the scores are the identity encoder's, not tanh's
    assert not np.array_equal(before.t2, monitor(fitted, small_block).t2)


def test_method_tag_rejects_foreign_objects():
    with pytest.raises(TypeError, match="unknown model type"):
        method_tag(object())


def test_save_of_a_foreign_object_writes_no_file(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(TypeError, match="unknown model type"):
        save_model(object(), path)
    assert not path.exists()


def test_load_rejects_other_format_versions(small_block, tmp_path):
    path = save_model(pca_fit(small_block, n_components=1), tmp_path / "m.json")
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unsupported model format version"):
        load_model(path)


def test_load_rejects_unknown_method(small_block, tmp_path):
    path = save_model(pca_fit(small_block, n_components=1), tmp_path / "m.json")
    doc = json.loads(path.read_text())
    doc["method"] = "mystery"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown method tag"):
        load_model(path)


# Format-1 files written before the models shared one monitoring base class:
# the five small_block models (p=2; SCA with max_iters=20) and their T2 on
# that block, in t2.json.  The format-2 files in data/v2 hold the same five
# models, re-saved by save_model, and their T2 on that block.


@pytest.mark.parametrize("tag", _TAGS)
def test_format_1_file_loads_and_scores(tag, small_block):
    model = load_model(_GOLDEN / f"{tag}.json")
    assert method_tag(model) == tag
    stored = json.loads((_GOLDEN / "t2.json").read_text())[tag]
    t2 = monitor(model, small_block).t2
    assert np.allclose(t2, stored, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("tag", _TAGS)
def test_format_1_file_resaves_as_format_2(tag, tmp_path):
    model = load_model(_GOLDEN / f"{tag}.json")
    path = save_model(model, tmp_path / f"{tag}.json")
    text = path.read_text()
    assert json.loads(text)["format_version"] == 2
    # written entry by entry, the file keeps the bytes of one json.dumps
    assert text == json.dumps(json.loads(text))
    _assert_same_model(model, load_model(path), tag)


@pytest.mark.parametrize("tag", _TAGS)
def test_format_2_file_loads_scores_and_resaves_unchanged(tag, small_block, tmp_path):
    golden = _GOLDEN_V2 / f"{tag}.json"
    model = load_model(golden)
    assert method_tag(model) == tag
    stored = json.loads((_GOLDEN_V2 / "t2.json").read_text())[tag]
    t2 = monitor(model, small_block).t2
    assert np.allclose(t2, stored, rtol=1e-12, atol=0.0)
    path = save_model(model, tmp_path / f"{tag}.json")
    assert path.read_bytes() == golden.read_bytes()


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_ac10_shape_file_size_and_memory(ac10_shape_model, tmp_path):
    # 2 x 74,439 decoder and encoder entries and the smaller arrays, at
    # 8 bytes each and 4/3 for base64: about 1.6 MB (3.2 MB as decimals)
    path, save_peak = _traced_peak_mb(save_model, ac10_shape_model, tmp_path / "m.json")
    assert path.stat().st_size <= 1.7e6
    loaded, load_peak = _traced_peak_mb(load_model, path)
    assert save_peak < 5.0
    assert load_peak < 5.0
    _assert_same_model(ac10_shape_model, loaded, "sca")


@pytest.mark.parametrize(
    "tag, key, value, match",
    [
        ("pca", "loading", None, "lacks the 'loading' entry"),
        ("kpca", "gram_mean", None, "lacks the 'gram_mean' entry"),
        ("sca", "activations", None, "lacks the 'activations' entry"),
        ("ae", "scaler", None, "lacks the 'scaler' entry"),
        ("pca", "control_limit", -1.0, "control limit must be positive"),
        ("kpca", "kde_bandwidth", 0.0, "bandwidth must be positive"),
        ("pca", "g_mean", [0.0], "feature mean has length 1"),
        ("ae", "sigma_g_inv", [[1.0]], r"sigma_g_inv is \(1, 1\)"),
        ("ae", "activations", ["tanh", "sigmoid"], "decoder activation must be 'identity'"),
        ("sca", "activations", ["tanh", "sigmoid"], "decoder activation must be 'identity'"),
        ("sca", "activations", ["sigmoid", "identity"], "unknown activation 'sigmoid'"),
        ("ae", "expand_inputs", True, "ae model file holds a sae model"),
        ("pca", "n_components", 9, "header has n_components 9, the model has 2"),
        ("pca", "n_variables", 40, "header has n_variables 40, the model has 3"),
        ("pca", "zeta", 7, r"zeta must lie in \(0, 0.5\], got 7"),
        # a dotted key edits one part of an entry of the format-2 file
        ("pca", "loading.dtype", "<f4", "entry 'loading' has dtype '<f4', expected '<f8'"),
        ("pca", "loading.shape", [3, 3], "entry 'loading' holds 48 bytes, shape"),
        ("pca", "loading.shape", [-3, -2], r"entry 'loading' has a bad shape \[-3, -2\]"),
        ("pca", "loading.shape", [3, 2.0], "entry 'loading' has a bad shape"),
        ("pca", "loading.data", "not base64!", "entry 'loading' holds invalid base64"),
        ("sca", "w.data", None, "entry 'w' must be an object with keys"),
        ("sca", "w_tilde.data", "AAAA", "entry 'w_tilde' holds 3 bytes"),
        ("ae", "scaler.mean", [0.0, 0.0, 0.0], "entry 'scaler.mean' must be an object"),
        ("sca", "activations", 5, "entry 'activations' must be a list of two names"),
        ("sca", "activations", "xy", "entry 'activations' must be a list of two names"),
        ("ae", "activations", ["tanh"], "entry 'activations' must be a list of two names"),
        ("ae", "activations", ["tanh", 0], "entry 'activations' must be a list of two names"),
        ("pca", "scaler", [0.0, 1.0], "entry 'scaler' must be an object with keys mean, std"),
        ("kpca", "scaler", {"mean": [0.0]}, "entry 'scaler' must be an object with keys"),
        ("sca", "kde_bandwidth", "2.0", "entry 'kde_bandwidth' must be a float"),
        ("pca", "zeta", [0.01], "entry 'zeta' must be a float"),
        ("ae", "expand_inputs", "yes", "entry 'expand_inputs' must be a bool"),
        ("sca", "w", {"a": 1.0}, "entry 'w' must be a nested list of numbers"),
        ("kpca", "alphas", [[1.0], [1.0, 2.0]], "entry 'alphas' must be a nested list"),
        # a JSON boolean is a Python int, but not a float
        ("pca", "control_limit", True, "^entry 'control_limit' must be a float, got True$"),
        # header entries are JSON integers, not floats or booleans (1.0 == True == 1)
        ("pca", "format_version", 1.0, r"^unsupported model format version 1\.0 "),
        ("sca", "format_version", True, "^unsupported model format version True "),
        ("pca", "n_variables", 3.0, r"^header has n_variables 3\.0, the model has 3$"),
        ("kpca", "n_components", 2.0, r"^header has n_components 2\.0, the model has 2$"),
        ("pca", "method", ["pca"], r"^unknown method tag \['pca'\]$"),
        # format-1 array leaves are JSON numbers, not strings or booleans
        ("pca", "g_mean", ["0.0", "0.0"], "^entry 'g_mean' must be a nested list of numbers$"),
        ("sca", "g_mean", [True, True], "^entry 'g_mean' must be a nested list of numbers$"),
        ("ae", "sigma_g_inv", [[1.0, 0.0], [0.0, "1"]],
         "^entry 'sigma_g_inv' must be a nested list of numbers$"),
        # a JSON integer beyond float range, as an array leaf and as a scalar
        ("pca", "g_mean", [10**400, 0.0], "^entry 'g_mean' holds a number beyond float range$"),
        pytest.param("sca", "control_limit", -(10**400),
                     "^entry 'control_limit' holds a number beyond float range$",
                     id="sca-control_limit-huge-int"),
    ],
)
def test_load_rejects_malformed_files(tag, key, value, match, tmp_path):
    entry, _, part = key.partition(".")
    golden = (_GOLDEN_V2 if part else _GOLDEN) / f"{tag}.json"
    path = shutil.copy(golden, tmp_path / f"{tag}.json")
    doc = json.loads(path.read_text())
    target, key = (doc[entry], part) if part else (doc, key)
    if value is None:
        del target[key]
    else:
        target[key] = value
    path.write_text(json.dumps(doc))
    # every message starts with the file's path; a ^ pattern must follow it
    prefix = f"^{re.escape(str(path))}: "
    with pytest.raises(ValueError, match=prefix + (match[1:] if match[0] == "^"
                                                   else ".*" + match)):
        load_model(path)


@pytest.mark.parametrize("doc", [[], [1, 2], "model", 3.5, None])
def test_load_rejects_a_document_that_is_not_an_object(doc, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must hold a JSON object"):
        load_model(path)


def _v2_array(entry):
    data = base64.b64decode(entry["data"])
    return np.frombuffer(data, dtype=entry["dtype"]).reshape(entry["shape"])


def _v2_entry(array):
    array = np.ascontiguousarray(array, dtype="<f8")
    data = base64.b64encode(array.tobytes()).decode("ascii")
    return {"dtype": "<f8", "shape": list(array.shape), "data": data}


def _pad_row(array):
    return np.vstack([array, np.zeros((1, array.shape[1]))])


# Each cut array still broadcasts against the rest of its model, so without
# the shape checks the file would load and score wrong T2.  The SCA case pads
# both weights with a zero row: 14 x 2 matrices whose columns stay orthonormal,
# while n = 3 needs 13 rows; it loaded, and then scoring failed in a reshape.
@pytest.mark.parametrize(
    "tag, key, cut",
    [
        ("pca", "loading", np.s_[:, :1]),
        ("kpca", "alphas", np.s_[:, :1]),
        ("kpca", "gram_col_means", np.s_[:1]),
        ("ae", "b_enc", np.s_[:1]),
        ("sae", "b_enc", np.s_[:1]),
        ("sca", "w,w_tilde", _pad_row),
    ],
)
def test_load_rejects_inconsistent_feature_map_shapes(tag, key, cut, tmp_path):
    path = shutil.copy(_GOLDEN_V2 / f"{tag}.json", tmp_path / f"{tag}.json")
    doc = json.loads(path.read_text())
    keys = key.split(",")
    for k in keys:
        array = _v2_array(doc[k])
        doc[k] = _v2_entry(cut(array) if callable(cut) else array[cut])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{keys[0]} has shape"):
        load_model(path)


# One non-finite entry used to load, and then every T2 was NaN and no sample
# ever alarmed.  The scaler and the Stiefel decoder check their own values.
_OWN_CHECKS = {
    "w_tilde": "columns are not orthonormal",
    "scaler.std": "scaler std entries must be finite",
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "tag, key",
    [
        ("sca", "g_mean"),
        ("sca", "sigma_g_inv"),
        ("sca", "w"),
        ("sca", "w_tilde"),
        ("sca", "control_limit"),
        ("pca", "loading"),
        ("pca", "scaler.std"),
        ("kpca", "alphas"),
        ("kpca", "kernel_width"),
        ("kpca", "gram_mean"),
        ("ae", "w_dec"),
        ("sae", "b_enc"),
    ],
)
def test_load_rejects_non_finite_entries(tag, key, bad, tmp_path):
    match = _OWN_CHECKS.get(key, f"{key} contains non-finite entries")
    path = shutil.copy(_GOLDEN_V2 / f"{tag}.json", tmp_path / f"{tag}.json")
    doc = json.loads(path.read_text())
    entry, _, part = key.partition(".")
    target, key = (doc[entry], part) if part else (doc, key)
    if isinstance(target[key], dict):
        array = _v2_array(target[key]).copy()
        array.flat[array.size // 2] = bad
        target[key] = _v2_entry(array)
    else:
        target[key] = bad  # json writes NaN and Infinity, and reads them back
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_model(path)
