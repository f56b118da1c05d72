"""Quadrilateral meshes: benchmark-domain generators, refinement, geometry.

Meshes are straight-sided (bilinear geometry); curved boundaries are
approximated by placing nodes on them.  All elements are stored
counterclockwise, edges are stored with ascending node indices, and the
ascending direction is the reference direction for edge-DOF signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ShapeTable
from .quadrature import QuadRule

__all__ = [
    "QuadMesh",
    "GeometryFactors",
    "build_mesh",
    "make_lshape",
    "make_perforated_square",
    "refine_uniform",
    "geometry_factors",
]


@dataclass
class QuadMesh:
    """Quadrilateral mesh topology and geometry.

    ``elems2nodes`` lists corners counterclockwise; local edge s connects
    local nodes s and (s+1) % 4 and ``elems2edges`` follows that layout.
    ``boundary_nodes`` and ``boundary_edges`` are ascending ids.  A mesh
    holds geometry and topology only: which part of the boundary a
    problem fixes is decided from coordinates where the problem is built.
    """

    nodes: np.ndarray        # (N, 2)
    elems2nodes: np.ndarray  # (T, 4)
    edges2nodes: np.ndarray  # (E, 2), each row ascending
    elems2edges: np.ndarray  # (T, 4)
    boundary_nodes: np.ndarray
    boundary_edges: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges2nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems2nodes.shape[0]


def _corner_cross(nodes: np.ndarray, elems2nodes: np.ndarray) -> np.ndarray:
    """Cross products of adjacent edge vectors at every corner, (T, 4).

    Proportional to the bilinear Jacobian determinant at the corners;
    all positive iff the element is counterclockwise and non-degenerate.
    """
    x = nodes[elems2nodes]  # (T, 4, 2)
    e = np.roll(x, -1, axis=1) - x  # e[:, s] = X_{s+1} - X_s
    prev = np.roll(e, 1, axis=1)
    return prev[:, :, 0] * e[:, :, 1] - prev[:, :, 1] * e[:, :, 0]


def build_mesh(nodes, elems2nodes) -> QuadMesh:
    """Assemble a QuadMesh from coordinates and counterclockwise elements.

    Derives the edge tables and the boundary sets: the edges of one
    element and the nodes on them.  Each edge is numbered through one
    integer key, low * N + high for its ascending node ids and the node
    count N, so the numbering is lexicographic in (low, high), the order
    of a row-wise unique of the sorted node pairs, and the edge set and
    numbering do not depend on element order.  The key needs N^2 < 2^63.
    Raises ``ValueError`` unless ``nodes`` is a finite (N, 2) array,
    ``elems2nodes`` is a non-empty (T, 4) table of integral node ids in
    [0, N) and every element is counterclockwise.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise ValueError(f"nodes must be an (N, 2) array, got shape {nodes.shape}")
    n = nodes.shape[0]
    if n * n >= 2**63:
        raise ValueError(f"{n} nodes: the edge key needs N^2 < 2^63")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("nodes holds a non-finite coordinate")
    ids = np.asarray(elems2nodes)
    if ids.ndim != 2 or ids.shape[1] != 4 or ids.shape[0] == 0:
        raise ValueError(f"elems2nodes must be a non-empty (T, 4) array, "
                         f"got shape {ids.shape}")
    if ids.dtype.kind not in "iu" and not (
            np.all(np.isfinite(ids)) and np.all(np.trunc(ids) == ids)):
        raise ValueError("elems2nodes holds a non-integral node id")
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"elems2nodes holds a node id outside [0, {n})")
    elems2nodes = ids.astype(np.int64, copy=False)
    cross = _corner_cross(nodes, elems2nodes)
    bad = np.flatnonzero(~(cross.min(axis=1) > 0.0))  # NaN fails as well
    if bad.size:
        raise ValueError(f"element {bad[0]} is not counterclockwise")

    # local edges in traversal order, as low * n + high
    ends = np.roll(elems2nodes, -1, axis=1)
    keys = (np.minimum(elems2nodes, ends) * n
            + np.maximum(elems2nodes, ends)).ravel()
    keys, inverse, counts = np.unique(keys, return_inverse=True,
                                      return_counts=True)
    if counts.max() > 2:
        raise ValueError("non-manifold edge (shared by more than 2 elements)")
    edges2nodes = np.column_stack(np.divmod(keys, n))
    elems2edges = inverse.reshape(-1, 4)
    boundary_edges = np.where(counts == 1)[0]
    boundary_nodes = np.unique(edges2nodes[boundary_edges])
    return QuadMesh(
        nodes=nodes,
        elems2nodes=elems2nodes,
        edges2nodes=edges2nodes,
        elems2edges=elems2edges,
        boundary_nodes=boundary_nodes,
        boundary_edges=boundary_edges,
    )


def _grid(xs: np.ndarray, ys: np.ndarray, keep: np.ndarray):
    """Nodes of the grid xs x ys and the cells where the (ny, nx) mask
    ``keep`` is set, as counterclockwise corner ids in row-major order."""
    j, i = np.nonzero(keep)
    first = j * len(xs) + i
    elems = np.stack([first, first + 1, first + len(xs) + 1, first + len(xs)],
                     axis=1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    return np.column_stack([gx.ravel(), gy.ravel()]), elems


def _compact(nodes: np.ndarray, elems: np.ndarray):
    """Drop the nodes no element uses, keeping the others in order."""
    used, renum = np.unique(elems, return_inverse=True)
    return nodes[used], renum.reshape(elems.shape)


def make_lshape(level: int = 0) -> QuadMesh:
    """L-shaped domain (0,2)^2 minus the quadrant [1,2]x[0,1].

    Level 0 is the 12-element mesh of half-unit squares (21 nodes,
    32 edges); level k is refined uniformly k times.
    """
    if level < 0:
        raise ValueError("refinement level must be >= 0")
    xs = np.linspace(0.0, 2.0, 5)
    keep = np.ones((4, 4), dtype=bool)
    keep[:2, 2:] = False
    mesh = build_mesh(*_compact(*_grid(xs, xs, keep)))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


HOLE_RADIUS = 1.0 / 3.0


def make_perforated_square(level: int = 0) -> QuadMesh:
    """Square [0,2]^2 perforated by the disk of radius 1/3 around (1,1).

    Starts from a uniform grid with 8 * 2^level cells per side, deletes
    every cell whose closure meets the open disk, then pulls each
    surviving node closer than 1/3 + h to the center radially onto the
    circle.  Where the deletion staircase turns a corner, the snap leaves
    a sliver quad with three corners on one short arc, which is concave
    no matter where its fourth corner sits; those slivers are dropped.
    All surviving elements are asserted counterclockwise.
    """
    if level < 0:
        raise ValueError("refinement level must be >= 0")
    n = 8 * 2**level
    h = 2.0 / n
    xs = np.linspace(0.0, 2.0, n + 1)
    r = HOLE_RADIUS

    # per-axis gap between the center and each column (and row) of cells
    gap = np.maximum(np.maximum(xs[:-1] - 1.0, 1.0 - xs[1:]), 0.0)
    nodes, elems = _grid(xs, xs, np.hypot(gap, gap[:, None]) >= r)
    offset = nodes - 1.0
    dist = np.hypot(offset[:, 0], offset[:, 1])
    pull = dist < r + h
    scale = np.where(pull, r / np.where(dist > 0.0, dist, 1.0), 1.0)
    nodes = 1.0 + offset * scale[:, None]

    elems = elems[_corner_cross(nodes, elems).min(axis=1) > 0.0]
    nodes, elems = _compact(nodes, elems)
    assert _corner_cross(nodes, elems).min() > 0.0, \
        "hole projection inverted an element"
    return build_mesh(nodes, elems)


# counterclockwise children as rows of the local node table of a quad:
# corners 0-3, midpoints 4-7 of local edges 0-3, then the center 8
_CHILDREN = np.array([[0, 4, 8, 7], [4, 1, 5, 8], [8, 5, 2, 6], [7, 8, 6, 3]])


def refine_uniform(mesh: QuadMesh) -> QuadMesh:
    """Split every quad into 4 via edge midpoints and the bilinear centroid.

    New node numbering: original nodes, then one midpoint per edge (in
    edge order), then one center per element.  Midpoints are placed on the
    straight edges, so the refined mesh covers the same polygon.
    """
    n_nodes, n_edges = mesh.n_nodes, mesh.n_edges
    midpoints = 0.5 * (mesh.nodes[mesh.edges2nodes[:, 0]]
                       + mesh.nodes[mesh.edges2nodes[:, 1]])
    centers = mesh.nodes[mesh.elems2nodes].mean(axis=1)
    nodes = np.vstack([mesh.nodes, midpoints, centers])

    local = np.column_stack([mesh.elems2nodes, n_nodes + mesh.elems2edges,
                             n_nodes + n_edges + np.arange(mesh.n_elems)])
    return build_mesh(nodes, local[:, _CHILDREN].reshape(-1, 4))


@dataclass
class GeometryFactors:
    """Per-point inverse-transposed Jacobians and integration weights.

    The physical gradient of a shape function at a quadrature point is
    J^{-T} times its reference gradient, and the reference gradients are
    the same on every element.  So only the geometry is stored per point:
    ``jinv_t`` (2, 2, n_elems, n_ip) holds J^{-T}, with ``jinv_t[a, b]``
    the factor of the reference direction b (xi, eta) in the physical
    direction a (x, y); ``wdetj`` (n_elems, n_ip) holds quadrature weight
    times Jacobian determinant.  ``table`` carries the shared reference
    values and derivatives ``values`` / ``dxi`` / ``deta`` (n_basis, n_ip).
    """

    jinv_t: np.ndarray
    wdetj: np.ndarray
    table: ShapeTable

    @property
    def n_elems(self) -> int:
        return self.wdetj.shape[0]


def geometry_factors(mesh: QuadMesh, rule: QuadRule, table: ShapeTable) -> GeometryFactors:
    """Invert the bilinear Jacobian of each element at the quadrature points.

    Requires ``table`` tabulated at ``rule.points``.  Raises on Jacobian
    determinants that are not positive, NaN included.  Each of the four
    entries of J^{-T} is one cofactor divided by det J, written straight
    into the (2, 2, T, n_ip) result.
    """
    if table.n_points != rule.n_ip or not np.array_equal(table.points, rule.points):
        raise ValueError("shape table is not tabulated at the quadrature points")
    # the four nodal hats lead every degree's table: they are the bilinear map
    dxi, deta = table.dxi[:4], table.deta[:4]
    x = mesh.nodes[mesh.elems2nodes]  # (T, 4, 2)
    j11 = np.einsum("mq,tm->tq", dxi, x[:, :, 0])   # dx/dxi
    j12 = np.einsum("mq,tm->tq", deta, x[:, :, 0])  # dx/deta
    j21 = np.einsum("mq,tm->tq", dxi, x[:, :, 1])   # dy/dxi
    j22 = np.einsum("mq,tm->tq", deta, x[:, :, 1])  # dy/deta
    det = j11 * j22 - j12 * j21
    if not det.min() > 0.0:  # NaN fails as well
        t = int(np.flatnonzero(~(det.min(axis=1) > 0.0))[0])
        raise ValueError(f"degenerate element {t}: nonpositive Jacobian")

    # J^{-T} = [[j22, -j21], [-j12, j11]] / det
    jinv_t = np.empty((2, 2, *det.shape))
    np.divide(j22, det, out=jinv_t[0, 0])
    np.divide(-j21, det, out=jinv_t[0, 1])
    np.divide(-j12, det, out=jinv_t[1, 0])
    np.divide(j11, det, out=jinv_t[1, 1])
    wdetj = rule.weights[None, :] * det
    return GeometryFactors(jinv_t=jinv_t, wdetj=wdetj, table=table)
