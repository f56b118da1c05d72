"""Hierarchical shape functions on the reference square [-1, 1]^2.

The local polynomial space of degree p on a quadrilateral (trunk space)
combines three kinds of functions:

* 4 bilinear nodal hats, one per corner;
* edge modes of degree k = 2..p, built from integrated-Legendre kernel
  functions that vanish at both endpoints of their edge;
* interior bubbles phi_i(xi) * phi_j(eta) with i, j >= 2 and i + j <= p,
  vanishing on the whole element boundary.

Edge-local coordinates run in the counterclockwise direction of the
element; kernel functions of odd degree are odd, which is what makes a
global sign convention necessary (see :mod:`hpmin.dofmap`).
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

# Corner s of the reference square, counterclockwise from (-1, -1).
_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))

# Local edge s joins corners s and (s+1) % 4.  For each edge:
# tangential coordinate t = TX*xi + TY*eta (counterclockwise direction)
# and linear blend lam = (1 + BS*coord)/2 where coord is xi (axis 0)
# or eta (axis 1).
_EDGE_TANGENT = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
_EDGE_BLEND = ((1, -1.0), (0, 1.0), (1, 1.0), (0, -1.0))  # (axis, sign)


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


def _eval_shape(kind: ShapeKind, xi: np.ndarray, eta: np.ndarray):
    """Value, d/dxi and d/deta of one shape function at given points."""
    if isinstance(kind, Nodal):
        cx, cy = _CORNERS[kind.node]
        val = 0.25 * (1.0 + cx * xi) * (1.0 + cy * eta)
        dxi = 0.25 * cx * (1.0 + cy * eta)
        deta = 0.25 * cy * (1.0 + cx * xi)
        return val, dxi, deta
    if isinstance(kind, EdgeMode):
        tx, ty = _EDGE_TANGENT[kind.edge]
        axis, bsign = _EDGE_BLEND[kind.edge]
        t = tx * xi + ty * eta
        lam = 0.5 * (1.0 + bsign * (xi if axis == 0 else eta))
        dlam_dxi = 0.5 * bsign if axis == 0 else 0.0
        dlam_deta = 0.5 * bsign if axis == 1 else 0.0
        phi, dphi = kernel_eval(kind.degree, t)
        val = phi * lam
        dxi = dphi * tx * lam + phi * dlam_dxi
        deta = dphi * ty * lam + phi * dlam_deta
        return val, dxi, deta
    phi_i, dphi_i = kernel_eval(kind.i, xi)
    phi_j, dphi_j = kernel_eval(kind.j, eta)
    return phi_i * phi_j, dphi_i * phi_j, phi_i * dphi_j


def tabulate(p: int, points) -> ShapeTable:
    """Tabulate all degree-p shape functions at the given (xi, eta) points.

    Derivatives are analytic, not finite differences.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of (xi, eta)")
    kinds = shape_kinds(p)
    xi, eta = points[:, 0], points[:, 1]
    n, n_ip = len(kinds), points.shape[0]
    values = np.empty((n, n_ip))
    dxi = np.empty((n, n_ip))
    deta = np.empty((n, n_ip))
    for m, kind in enumerate(kinds):
        values[m], dxi[m], deta[m] = _eval_shape(kind, xi, eta)
    values.setflags(write=False)
    dxi.setflags(write=False)
    deta.setflags(write=False)
    return ShapeTable(p=p, kinds=tuple(kinds), points=points,
                      values=values, dxi=dxi, deta=deta)
