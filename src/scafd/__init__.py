"""Fault detection with a second-order autoencoder on the Stiefel manifold.

The pipeline: standardize training data, lift each sample to a second-order
feature vector (constant, linear, and all pairwise product terms), fit a
single-layer autoencoder whose decoder matrix is kept orthonormal by
optimizing over the Stiefel manifold, then monitor new data with a T^2
statistic whose control limit comes from a kernel density estimate of the
training scores.  Classical baselines (PCA, kernel PCA, unconstrained
autoencoders on raw or lifted inputs) share the same monitoring machinery.
"""

from .activations import Activation, get_activation
from .baselines import (
    AeModel,
    KpcaModel,
    PcaModel,
    ae_train,
    kpca_fit,
    pca_fit,
)
from .data import (
    DataMatrix,
    Scaler,
    apply_scaler,
    expand_second_order,
    expanded_dim,
    fit_scaler,
    load_csv,
)
from .manifold import (
    ProductPoint,
    StiefelPoint,
    TangentPair,
    inner,
    norm,
    project_tangent,
    random_stiefel,
    random_tangent,
    retract,
    riemannian_grad,
    transport,
)
from .optimizer import CgConfig, FitTrace, LineSearchError, cg_optimize
from .persistence import load_model, save_model
from .sca import (
    DetectionReport,
    MonitoringStats,
    ScaModel,
    control_limit,
    monitor,
    score,
    silverman_bandwidth,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AeModel",
    "CgConfig",
    "DataMatrix",
    "DetectionReport",
    "FitTrace",
    "KpcaModel",
    "LineSearchError",
    "MonitoringStats",
    "PcaModel",
    "ProductPoint",
    "ScaModel",
    "Scaler",
    "StiefelPoint",
    "TangentPair",
    "ae_train",
    "apply_scaler",
    "cg_optimize",
    "control_limit",
    "expand_second_order",
    "expanded_dim",
    "fit_scaler",
    "get_activation",
    "inner",
    "kpca_fit",
    "load_csv",
    "load_model",
    "monitor",
    "norm",
    "pca_fit",
    "project_tangent",
    "random_stiefel",
    "random_tangent",
    "retract",
    "riemannian_grad",
    "save_model",
    "score",
    "silverman_bandwidth",
    "train",
    "transport",
]
