"""Model persistence: one self-describing JSON file per fitted monitor.

Layout (format 1): a header with the format version, the method tag and the
model's sizes, then one entry per dataclass field of the model.  Arrays are
nested lists of decimal floats; Python's JSON float formatting uses repr, so
values round-trip exactly.  Three fields have their own encoding: the scaler
is ``{mean, std}``, the Stiefel decoder is its matrix, and the encoder
activation is stored as the pair ``"activations": [encoder, "identity"]``
(the decoder is always linear).  The list of fields lives only in the model
classes; loading checks every key, every value the model checks, and the
header sizes against the model.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .baselines import AeModel, KpcaModel, PcaModel
from .data import Scaler
from .manifold import StiefelPoint
from .sca import ScaModel

FORMAT_VERSION = 1

_METHODS = {ScaModel: "sca", PcaModel: "pca", KpcaModel: "kpca", AeModel: "ae"}
_CLASSES = {**{tag: cls for cls, tag in _METHODS.items()}, "sae": AeModel}
_DECODER = "identity"


def method_tag(model) -> str:
    try:
        tag = _METHODS[type(model)]
    except KeyError:
        raise TypeError(f"unknown model type {type(model).__name__}") from None
    return "sae" if tag == "ae" and model.expand_inputs else tag


def _sizes(model) -> dict:
    return {"n_variables": model.scaler.n_variables, "n_components": model.n_components}


def _encode(value):
    if isinstance(value, Scaler):
        return {"mean": value.mean.tolist(), "std": value.std.tolist()}
    if isinstance(value, StiefelPoint):
        return value.matrix.tolist()
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).tolist()
    return value


def _decode(field_type: str, value):
    # field types are strings: the model modules postpone annotations
    if field_type == "Scaler":
        return Scaler(mean=np.array(value["mean"]), std=np.array(value["std"]))
    if field_type == "StiefelPoint":
        return StiefelPoint(np.array(value))
    if isinstance(value, list):
        return np.array(value)
    return value


def _field_entries(model):
    """(key, JSON value) of each model field, encoded when it is reached."""
    for f in dataclasses.fields(model):
        if f.name == "encoder_activation":
            yield "activations", [model.encoder_activation, _DECODER]
        else:
            yield f.name, _encode(getattr(model, f.name))


def save_model(model, path: str | Path) -> Path:
    """Serialize a fitted monitor to a versioned JSON file.

    Fields are encoded and written one at a time, so only one field's lists
    and text are alive at once; the bytes equal ``json.dumps`` of the whole
    document (same key order and separators).
    """
    header = {"format_version": FORMAT_VERSION, "method": method_tag(model), **_sizes(model)}
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps(header)[:-1])  # the header without its closing brace
        for key, value in _field_entries(model):
            fh.write(f", {json.dumps(key)}: {json.dumps(value)}")
        fh.write("}")
    return path


def load_model(path: str | Path):
    """Load any monitor saved by :func:`save_model`.

    Raises ValueError for a file of another format version, an unknown
    method, a missing entry, a decoder other than identity, values the
    model rejects, or header sizes that disagree with the model.
    """
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    method = doc.get("method")
    if method not in _CLASSES:
        raise ValueError(f"unknown method tag {method!r}")
    cls = _CLASSES[method]
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = "activations" if f.name == "encoder_activation" else f.name
        if key not in doc:
            raise ValueError(f"{method} model file lacks the {key!r} entry")
        if key == "activations":
            encoder, decoder = doc[key]
            if decoder != _DECODER:
                raise ValueError(
                    f"decoder activation must be {_DECODER!r}, got {decoder!r}"
                )
            kwargs[f.name] = encoder
        else:
            kwargs[f.name] = _decode(f.type, doc[key])
    model = cls(**kwargs)
    if method_tag(model) != method:
        raise ValueError(f"{method} model file holds a {method_tag(model)} model")
    for key, size in _sizes(model).items():
        if doc.get(key) != size:
            raise ValueError(f"header has {key} {doc.get(key)!r}, the model has {size}")
    return model
