"""Encoder activations shared by the manifold autoencoder and baselines.

Every decoder is linear (identity), so only the encoder has a choice:
``tanh`` (the default; zero-centered, matches z-scored inputs) or
``identity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Activation:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]


_REGISTRY = {
    "identity": Activation("identity", lambda z: z, lambda z: np.ones_like(z)),
    "tanh": Activation("tanh", np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
}

TANH = _REGISTRY["tanh"]


def get_activation(name: str) -> Activation:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
