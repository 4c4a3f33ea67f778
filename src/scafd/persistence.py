"""Model persistence: one self-describing JSON file per fitted monitor.

Layout: a header with the format version, the method tag and the model's
sizes, then one entry per dataclass field of the model.  Format 2, which
``save_model`` writes, stores every array as the object
``{"dtype": "<f8", "shape": [...], "data": "<base64>"}``, where data is the
base64 of the array's little-endian float64 bytes in C order; scalars are
JSON numbers, which Python formats with repr.  Both encodings are exact, so
a model round-trips bit for bit.  Three fields have their own encoding: the
scaler is ``{mean, std}``, the Stiefel decoder is its matrix, and the
encoder activation is stored as the pair ``"activations": [encoder,
"identity"]`` (the decoder is always linear).  Format 1 has the same keys
and field order but writes arrays as nested lists of decimal floats;
``load_model`` still reads it.  The list of fields lives only in the model
classes; loading checks every key, every array entry, every value the model
checks, and the header sizes against the model.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .baselines import AeModel, KpcaModel, PcaModel
from .data import Scaler
from .manifold import StiefelPoint
from .sca import ScaModel

FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, FORMAT_VERSION)

_METHODS = {ScaModel: "sca", PcaModel: "pca", KpcaModel: "kpca", AeModel: "ae"}
_CLASSES = {**{tag: cls for cls, tag in _METHODS.items()}, "sae": AeModel}
_DECODER = "identity"
_DTYPE = "<f8"
_ARRAY_KEYS = {"dtype", "shape", "data"}
_SCALARS = {"float": (int, float), "bool": (bool,)}  # exact types: a bool is an int


def method_tag(model) -> str:
    try:
        tag = _METHODS[type(model)]
    except KeyError:
        raise TypeError(f"unknown model type {type(model).__name__}") from None
    return "sae" if tag == "ae" and model.expand_inputs else tag


def _sizes(model) -> dict:
    return {"n_variables": model.n_variables, "n_components": model.n_components}


def _array_entry(array: np.ndarray) -> dict:
    array = np.asarray(array, dtype=_DTYPE)
    data = base64.b64encode(array.tobytes()).decode("ascii")
    return {"dtype": _DTYPE, "shape": list(array.shape), "data": data}


def _encode(value):
    if isinstance(value, Scaler):
        return {"mean": _array_entry(value.mean), "std": _array_entry(value.std)}
    if isinstance(value, StiefelPoint):
        return _array_entry(value.matrix)
    if isinstance(value, np.ndarray):
        return _array_entry(value)
    return value


def _array_v1(value, name: str) -> np.ndarray:
    # as objects, a ragged list keeps a list as a leaf; float() would also
    # read a string or a JSON boolean as a number
    leaves = np.array(value, dtype=object)
    if not all(type(leaf) in _SCALARS["float"] for leaf in leaves.flat):
        raise ValueError(f"entry {name!r} must be a nested list of numbers")
    try:
        return leaves.astype(float)
    except OverflowError:  # a JSON integer beyond float range
        raise ValueError(f"entry {name!r} holds a number beyond float range") from None


def _array_v2(value, name: str) -> np.ndarray:
    """A format-2 array entry as a writable float64 array."""
    if not (isinstance(value, dict) and value.keys() == _ARRAY_KEYS):
        raise ValueError(f"entry {name!r} must be an object with keys dtype, shape, data")
    if value["dtype"] != _DTYPE:
        raise ValueError(f"entry {name!r} has dtype {value['dtype']!r}, expected {_DTYPE!r}")
    shape = value["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"entry {name!r} has a bad shape {shape!r}")
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError(f"entry {name!r} holds invalid base64 data") from None
    nbytes = 8 * math.prod(shape)
    if len(raw) != nbytes:
        raise ValueError(f"entry {name!r} holds {len(raw)} bytes, shape {shape} needs {nbytes}")
    # frombuffer is a read-only view of raw; astype makes a writable copy
    return np.frombuffer(raw, dtype=_DTYPE).astype(float).reshape(shape)


def _decode(field_type: str, name: str, value, array):
    # field types are strings: the model modules postpone annotations
    if field_type == "Scaler":
        if not (isinstance(value, dict) and value.keys() == {"mean", "std"}):
            raise ValueError(f"entry {name!r} must be an object with keys mean, std")
        return Scaler(
            mean=array(value["mean"], f"{name}.mean"),
            std=array(value["std"], f"{name}.std"),
        )
    if field_type == "StiefelPoint":
        return StiefelPoint(array(value, name))
    if field_type == "np.ndarray":
        return array(value, name)
    if type(value) not in _SCALARS[field_type]:
        raise ValueError(f"entry {name!r} must be a {field_type}, got {value!r}")
    try:
        float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ValueError(f"entry {name!r} holds a number beyond float range") from None
    return value


def _field_entries(model):
    """(key, JSON value) of each model field, encoded when it is reached."""
    for f in dataclasses.fields(model):
        if f.name == "encoder_activation":
            yield "activations", [model.encoder_activation, _DECODER]
        else:
            yield f.name, _encode(getattr(model, f.name))


def save_model(model, path: str | Path) -> Path:
    """Serialize a fitted monitor to a format-2 JSON file; returns the path.

    Fields are encoded and written one at a time, so only one field's bytes
    and text are alive at once; the bytes equal ``json.dumps`` of the whole
    document (same key order and separators).
    """
    header = {"format_version": FORMAT_VERSION, "method": method_tag(model), **_sizes(model)}
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps(header)[:-1])  # the header without its closing brace
        for key, value in _field_entries(model):
            fh.write(f", {json.dumps(key)}: ")
            fh.write(json.dumps(value))
        fh.write("}")
    return path


def load_model(path: str | Path):
    """Load any monitor saved by :func:`save_model`, in format 1 or 2.

    Raises ValueError for a file of another format version, an unknown
    method, a document that is not a JSON object, a missing entry, an entry
    of the wrong JSON type (a scaler that is not ``{mean, std}``,
    activations that are not a list of two names, a number or flag of
    another type, a format-1 array that is not a nested list of numbers, a
    JSON integer beyond float range), a malformed format-2 array entry
    (wrong dtype, bad shape, invalid base64 or a byte count that disagrees
    with the shape), a decoder other than
    identity, values the model rejects, or header sizes that are not the
    model's as JSON integers; the format version, too, must be an integer.
    Every such error, and one for text that is not JSON, names the file.
    """
    path = Path(path)
    try:
        return _model_from_doc(json.loads(path.read_text()))
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{path}: {exc}") from None


def _model_from_doc(doc):
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    # exact type: 2.0 == 2 and True == 1
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(this build reads versions 1 and {FORMAT_VERSION})"
        )
    array = _array_v1 if version == 1 else _array_v2
    method = doc.get("method")
    if type(method) is not str or method not in _CLASSES:  # a list is unhashable
        raise ValueError(f"unknown method tag {method!r}")
    cls = _CLASSES[method]
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = "activations" if f.name == "encoder_activation" else f.name
        if key not in doc:
            raise ValueError(f"{method} model file lacks the {key!r} entry")
        if key == "activations":
            pair = doc[key]
            if not (isinstance(pair, list) and [type(a) for a in pair] == [str, str]):
                raise ValueError(
                    f"entry 'activations' must be a list of two names, got {pair!r}"
                )
            encoder, decoder = pair
            if decoder != _DECODER:
                raise ValueError(
                    f"decoder activation must be {_DECODER!r}, got {decoder!r}"
                )
            kwargs[f.name] = encoder
        else:
            kwargs[f.name] = _decode(f.type, key, doc[key], array)
    # ae and sae share a class; check the flag before the model checks its
    # shapes against it
    if cls is AeModel and kwargs["expand_inputs"] != (method == "sae"):
        held = "sae" if kwargs["expand_inputs"] else "ae"
        raise ValueError(f"{method} model file holds a {held} model")
    model = cls(**kwargs)
    for key, size in _sizes(model).items():
        if type(doc.get(key)) is not int or doc.get(key) != size:
            raise ValueError(f"header has {key} {doc.get(key)!r}, the model has {size}")
    return model
