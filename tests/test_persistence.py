"""Round-trip exactness of the JSON model files for every monitor kind."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from scafd.baselines import ae_train, kpca_fit, pca_fit, sae_train
from scafd.data import DataMatrix
from scafd.persistence import FORMAT_VERSION, load_model, method_tag, save_model
from scafd.sca import monitor

_GOLDEN = Path(__file__).parent / "data" / "v1"
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


def _assert_exact_round_trip(model, tag, tmp_path):
    path = save_model(model, tmp_path / f"{tag}.json")
    loaded = load_model(path)
    assert method_tag(loaded) == tag
    # JSON floats are serialized via repr, so every array must return
    # bit-for-bit identical
    for name in _ARRAY_FIELDS[tag]:
        a, b = getattr(model, name), getattr(loaded, name)
        assert np.array_equal(np.asarray(a), np.asarray(b)), name
    assert np.array_equal(model.scaler.mean, loaded.scaler.mean)
    assert np.array_equal(model.scaler.std, loaded.scaler.std)
    assert loaded.control_limit == model.control_limit
    assert loaded.kde_bandwidth == model.kde_bandwidth
    assert loaded.zeta == model.zeta
    return loaded


@pytest.fixture(scope="module")
def small_block():
    gen = np.random.default_rng(41)
    return DataMatrix(gen.standard_normal((3, 80)))


def test_sca_round_trip_exact(toy_sca_model, toy_test, tmp_path):
    model, _ = toy_sca_model
    loaded = _assert_exact_round_trip(model, "sca", tmp_path)
    assert np.array_equal(model.w_tilde.matrix, loaded.w_tilde.matrix)
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
    model, _ = sae_train(small_block, p=2, max_iters=60, seed=3)
    loaded = _assert_exact_round_trip(model, "sae", tmp_path)
    assert loaded.expand_inputs


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
# that block, in t2.json.


@pytest.mark.parametrize("tag", _TAGS)
def test_format_1_file_loads_and_scores(tag, small_block):
    model = load_model(_GOLDEN / f"{tag}.json")
    assert method_tag(model) == tag
    stored = json.loads((_GOLDEN / "t2.json").read_text())[tag]
    t2 = monitor(model, small_block).t2
    assert np.allclose(t2, stored, rtol=1e-12, atol=0.0)


def _whole_document(model) -> str:
    """The file as one json.dumps of the whole document: the header, then
    one entry per model field (the encoder as the activations pair)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "method": method_tag(model),
        "n_variables": model.scaler.n_variables,
        "n_components": model.n_components,
    }
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        if f.name == "encoder_activation":
            doc["activations"] = [value, "identity"]
        elif f.name == "scaler":
            doc[f.name] = {"mean": value.mean.tolist(), "std": value.std.tolist()}
        elif f.name == "w_tilde":
            doc[f.name] = value.matrix.tolist()
        elif isinstance(value, np.ndarray):
            doc[f.name] = value.tolist()
        else:
            doc[f.name] = value
    return json.dumps(doc)


@pytest.mark.parametrize("tag", _TAGS)
def test_format_1_file_resaves_unchanged(tag, tmp_path):
    golden = _GOLDEN / f"{tag}.json"
    model = load_model(golden)
    path = save_model(model, tmp_path / f"{tag}.json")
    assert json.loads(path.read_text()) == json.loads(golden.read_text())
    # written entry by entry, the file keeps the bytes of one json.dumps
    assert path.read_text() == _whole_document(model)


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
    ],
)
def test_load_rejects_malformed_files(tag, key, value, match, tmp_path):
    path = shutil.copy(_GOLDEN / f"{tag}.json", tmp_path / f"{tag}.json")
    doc = json.loads(path.read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_model(path)
