"""Gauss-Legendre quadrature on [-1, 1] and its tensor product on the square."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table

__all__ = ["QuadRule", "gauss_1d", "rule_for_degree"]


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


def gauss_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n - 1.

    Nodes are the roots of L_n, found by Newton iteration from the
    Chebyshev-like initial guesses cos(pi (i - 1/4) / (n + 1/2)) and
    converged to 1e-15.  Weights follow from w = 2 / ((1 - x^2) L_n'(x)^2).
    Each Newton step and the weights read L_n and L_{n-1} from one
    Legendre table.
    """
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        legendre = legendre_table(n, x)
        # (1 - x^2) L_n' = n (L_{n-1} - x L_n)
        dval = n * (legendre[n - 1] - x * legendre[n]) / (1.0 - x * x)
        dx = legendre[n] / dval
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    legendre = legendre_table(n, x)
    dval = n * (legendre[n - 1] - x * legendre[n]) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dval * dval)
    order = np.argsort(x)
    return x[order], w[order]


def rule_for_degree(p: int) -> QuadRule:
    """Tensor product of the (p+1)-point rule with itself; n_ip = (p+1)^2.

    For element degree p this integrates 1D polynomials up to degree
    2p + 1 exactly in each direction, which is enough for stiffness-type
    integrands on affine elements; nonlinear densities are integrated
    approximately, which suffices at the benchmark precision.
    """
    if p < 1:
        raise ValueError(f"element degree must be >= 1, got {p}")
    x, w = gauss_1d(p + 1)
    xi, eta = np.meshgrid(x, x, indexing="ij")
    points = np.column_stack([xi.ravel(), eta.ravel()])
    weights = np.outer(w, w).ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule(points=points, weights=weights)
