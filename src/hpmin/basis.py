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
((k,0), (1,k), (k,1), (0,k))[s], and bubble (i, j) takes (i, j).  So
``tabulate`` evaluates the family once per coordinate and multiplies.

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
    "legendre_eval",
    "kernel_eval",
    "shape_kinds",
    "n_bubbles",
    "n_basis_functions",
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


def legendre_eval(k: int, xi):
    """Evaluate the Legendre polynomial L_k at xi (scalar or array).

    Uses the three-term recurrence (n+1) L_{n+1} = (2n+1) xi L_n - n L_{n-1}.
    """
    if k < 0:
        raise ValueError(f"Legendre degree must be >= 0, got {k}")
    xi = np.asarray(xi, dtype=float)
    p_prev = np.ones_like(xi)
    if k == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = xi.copy()
    for n in range(1, k):
        p_prev, p_cur = p_cur, ((2 * n + 1) * xi * p_cur - n * p_prev) / (n + 1)
    return p_cur if p_cur.ndim else float(p_cur)


def kernel_eval(k: int, xi):
    """Integrated-Legendre kernel phi_k and its derivative at xi.

    phi_k(xi) = (L_k(xi) - L_{k-2}(xi)) / sqrt(4k - 2), k >= 2.

    The kernel vanishes at xi = +-1 and has the parity of k, so odd-degree
    kernels flip sign when the coordinate direction is reversed.  The
    derivative uses the closed form phi_k' = sqrt((2k-1)/2) * L_{k-1}.
    """
    if k < 2:
        raise ValueError(f"kernel degree must be >= 2, got {k}")
    scale = 1.0 / np.sqrt(4.0 * k - 2.0)
    value = (legendre_eval(k, xi) - legendre_eval(k - 2, xi)) * scale
    deriv = (2.0 * k - 1.0) * scale * legendre_eval(k - 1, xi)
    return value, deriv


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


def n_basis_functions(p: int) -> int:
    """Count of local shape functions: 4 nodal + 4(p-1) edge + bubbles."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return 4 + 4 * (p - 1) + n_bubbles(p)


@dataclass(frozen=True)
class ShapeTable:
    """Values and reference derivatives of all local shape functions.

    Arrays are laid out [n_basis x n_points] in the order of ``kinds``.
    Immutable after construction; share freely.
    """

    p: int
    kinds: tuple[ShapeKind, ...]
    points: np.ndarray  # (n_points, 2)
    values: np.ndarray  # (n_basis, n_points)
    dxi: np.ndarray
    deta: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _family(p: int, x: np.ndarray):
    """The 1D family f_0 = (1 - x)/2, f_1 = (1 + x)/2, f_k = phi_k (k = 2..p)
    at x and its derivatives, each (p + 1, n)."""
    kernels = [kernel_eval(k, x) for k in range(2, p + 1)]
    half = np.full_like(x, 0.5)
    values = np.stack([0.5 * (1.0 - x), 0.5 * (1.0 + x), *(v for v, _ in kernels)])
    derivs = np.stack([-half, half, *(d for _, d in kernels)])
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
    kinds = shape_kinds(p)
    a, b, sign = map(np.array, zip(*map(_factors, kinds)))
    fx, dfx = _family(p, points[:, 0])
    fy, dfy = _family(p, points[:, 1])
    sign = sign[:, None]
    values = sign * fx[a] * fy[b]
    dxi = sign * dfx[a] * fy[b]
    deta = sign * fx[a] * dfy[b]
    values.setflags(write=False)
    dxi.setflags(write=False)
    deta.setflags(write=False)
    return ShapeTable(p=p, kinds=tuple(kinds), points=points,
                      values=values, dxi=dxi, deta=deta)
