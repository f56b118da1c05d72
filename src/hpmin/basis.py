"""Hierarchical shape functions on the reference square [-1, 1]^2.

The local polynomial space of degree p on a quadrilateral (trunk space)
combines three kinds of functions:

* 4 bilinear nodal hats, one per corner;
* edge modes of degree k = 2..p, built from integrated-Legendre kernel
  functions that vanish at both endpoints of their edge;
* interior bubbles phi_i(xi) * phi_j(eta) with i, j >= 2 and i + j <= p,
  vanishing on the whole element boundary.

Every one of them is a signed product f_a(xi) * f_b(eta) of the 1D family
f_0 = (1 - x)/2, f_1 = (1 + x)/2, f_k = phi_k (k = 2..p): corner s takes
(a, b) = ((0,0), (1,0), (1,1), (0,1))[s], edge s of degree k takes
((k,0), (1,k), (k,1), (0,k))[s], and bubble (i, j) takes (i, j).  The
integrated-Legendre kernels phi_k = (L_k - L_{k-2}) / sqrt(4k - 2) all
come from one :func:`legendre_table` of L_0 ... L_p, so ``tabulate``
evaluates the family once per coordinate and multiplies.

Edge-local coordinates run in the counterclockwise direction of the
element, so edges 2 and 3 run towards -xi and -eta and carry the sign
(-1)^k of phi_k(-t) = (-1)^k phi_k(t); kernel functions of odd degree are
odd, which is what makes a global sign convention necessary (see
:mod:`hpmin.dofmap`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Nodal",
    "EdgeMode",
    "Bubble",
    "ShapeTable",
    "legendre_table",
    "shape_kinds",
    "n_bubbles",
    "tabulate",
]

@dataclass(frozen=True)
class Nodal:
    """Bilinear hat attached to local corner ``node``."""

    node: int


@dataclass(frozen=True)
class EdgeMode:
    """Kernel function of degree ``degree`` on local edge ``edge``."""

    edge: int
    degree: int


@dataclass(frozen=True)
class Bubble:
    """Interior mode phi_i(xi) * phi_j(eta)."""

    i: int
    j: int


ShapeKind = Nodal | EdgeMode | Bubble


def legendre_table(n: int, x) -> np.ndarray:
    """Legendre polynomials L_0 ... L_n at x, shape (n + 1, *x.shape).

    One pass of the three-term recurrence
    L_{k+1} = ((2k + 1) x L_k - k L_{k-1}) / (k + 1).
    """
    if n < 0:
        raise ValueError(f"Legendre degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    table = np.empty((n + 1, *x.shape))
    table[0] = 1.0
    table[1:2] = x  # empty for n = 0
    for k in range(1, n):
        table[k + 1] = ((2 * k + 1) * x * table[k] - k * table[k - 1]) / (k + 1)
    return table


def shape_kinds(p: int) -> list[ShapeKind]:
    """Ordered local basis layout for degree p.

    Nodal hats first, then edge modes grouped by increasing degree and
    local edge index, then bubbles sorted by (i + j, i).
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    kinds: list[ShapeKind] = [Nodal(s) for s in range(4)]
    for k in range(2, p + 1):
        kinds.extend(EdgeMode(s, k) for s in range(4))
    for total in range(4, p + 1):
        kinds.extend(Bubble(i, total - i) for i in range(2, total - 1))
    return kinds


def n_bubbles(p: int) -> int:
    """Interior-mode count: pairs i, j >= 2 with i + j <= p, so 0 below p = 4."""
    return (p - 2) * (p - 3) // 2 if p >= 4 else 0


@dataclass(frozen=True)
class ShapeTable:
    """Values and reference derivatives of all local shape functions.

    Arrays are laid out [n_basis x n_points] in the order of
    ``shape_kinds(p)``.  Immutable after construction; share freely.
    """

    p: int
    points: np.ndarray  # (n_points, 2)
    values: np.ndarray  # (n_basis, n_points)
    dxi: np.ndarray
    deta: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _family(p: int, x: np.ndarray):
    """The 1D family f_0 = (1 - x)/2, f_1 = (1 + x)/2, f_k = phi_k (k = 2..p)
    at x and its derivatives, each (p + 1, n), from one Legendre table:
    phi_k = (L_k - L_{k-2}) s_k and phi_k' = (2k - 1) s_k L_{k-1} with
    s_k = 1 / sqrt(4k - 2)."""
    legendre = legendre_table(p, x)
    k = np.arange(2, p + 1)[:, None]
    scale = 1.0 / np.sqrt(4.0 * k - 2.0)
    half = np.full_like(x, 0.5)
    values = np.concatenate([[0.5 * (1.0 - x), 0.5 * (1.0 + x)],
                             (legendre[2:] - legendre[:-2]) * scale])
    derivs = np.concatenate([[-half, half],
                             (2.0 * k - 1.0) * scale * legendre[1:-1]])
    return values, derivs


def _factors(kind: ShapeKind) -> tuple[int, int, float]:
    """Indices a, b into the 1D family and the sign of f_a(xi) * f_b(eta)."""
    if isinstance(kind, Nodal):
        return (*((0, 0), (1, 0), (1, 1), (0, 1))[kind.node], 1.0)
    if isinstance(kind, EdgeMode):
        s, k = kind.edge, kind.degree
        sign = (-1.0) ** k if s >= 2 else 1.0
        return (*((k, 0), (1, k), (k, 1), (0, k))[s], sign)
    return kind.i, kind.j, 1.0


def tabulate(p: int, points) -> ShapeTable:
    """Tabulate all degree-p shape functions at the given (xi, eta) points.

    Derivatives are analytic, not finite differences.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of (xi, eta)")
    a, b, sign = map(np.array, zip(*map(_factors, shape_kinds(p))))
    fx, dfx = _family(p, points[:, 0])
    fy, dfy = _family(p, points[:, 1])
    sign = sign[:, None]
    values = sign * fx[a] * fy[b]
    dxi = sign * dfx[a] * fy[b]
    deta = sign * fx[a] * dfy[b]
    values.setflags(write=False)
    dxi.setflags(write=False)
    deta.setflags(write=False)
    return ShapeTable(p=p, points=points, values=values, dxi=dxi, deta=deta)
