"""Encoder activations shared by the manifold autoencoder and baselines.

Every decoder is linear (identity), so only the encoder has a choice:
``tanh`` (the default; zero-centered, matches z-scored inputs) or
``identity``.  ``deriv`` is the derivative written in terms of the
activation's *output* y = fn(z) (tanh: 1 - y^2; identity: ones), so a caller
that already holds the codes need not evaluate ``fn`` again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Activation:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]  # fn'(z) as a function of y = fn(z)


_REGISTRY = {
    "identity": Activation("identity", lambda z: z, lambda y: np.ones_like(y)),
    "tanh": Activation("tanh", np.tanh, lambda y: 1.0 - y * y),
}

TANH = _REGISTRY["tanh"]


def get_activation(name: str) -> Activation:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
