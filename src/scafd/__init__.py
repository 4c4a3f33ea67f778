"""Fault detection with a second-order autoencoder on the Stiefel manifold.

The pipeline: standardize training data, lift each sample to a second-order
feature vector (constant, linear, and all pairwise product terms), fit a
single-layer autoencoder whose decoder matrix is kept orthonormal by
optimizing over the Stiefel manifold, then monitor new data with a T^2
statistic whose control limit comes from a kernel density estimate of the
training scores.  Classical baselines (PCA, kernel PCA, unconstrained
autoencoders on raw or lifted inputs) share the same monitoring machinery.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
