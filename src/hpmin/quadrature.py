"""Gauss-Legendre quadrature on the square: tensor products of numpy's
``leggauss`` rule on [-1, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadRule", "rule_for_degree"]


@dataclass(frozen=True)
class QuadRule:
    """Tensor-product quadrature rule on [-1, 1]^2.

    Weights sum to 4 (the reference-square area); all points lie strictly
    inside the square.
    """

    points: np.ndarray  # (n_ip, 2)
    weights: np.ndarray  # (n_ip,)

    @property
    def n_ip(self) -> int:
        return self.weights.shape[0]


def rule_for_degree(p: int) -> QuadRule:
    """Tensor product of the (p+1)-point rule with itself; n_ip = (p+1)^2.

    For element degree p this integrates 1D polynomials up to degree
    2p + 1 exactly in each direction, which is enough for stiffness-type
    integrands on affine elements; nonlinear densities are integrated
    approximately, which suffices at the benchmark precision.
    """
    if p < 1:
        raise ValueError(f"element degree must be >= 1, got {p}")
    x, w = np.polynomial.legendre.leggauss(p + 1)
    xi, eta = np.meshgrid(x, x, indexing="ij")
    points = np.column_stack([xi.ravel(), eta.ravel()])
    weights = np.outer(w, w).ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule(points=points, weights=weights)
