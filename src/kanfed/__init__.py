"""Federated-learning simulator comparing Spline-KAN, RBF-KAN and MLP
classifiers on pathologically partitioned MNIST."""

from . import numerics  # noqa: F401  (sets BLAS to one thread before any trial runs)

__version__ = "0.1.0"
