"""Quadrilateral meshes: benchmark-domain generators, refinement, geometry.

Meshes are straight-sided (bilinear geometry); curved boundaries are
approximated by placing nodes on them.  All elements are stored
counterclockwise, edges are stored with ascending node indices, and the
ascending direction is the reference direction for edge-DOF signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ShapeTable, tabulate
from .quadrature import QuadRule

__all__ = [
    "QuadMesh",
    "GeometryFactors",
    "build_mesh",
    "make_lshape",
    "make_perforated_square",
    "make_rect",
    "refine_uniform",
    "geometry_factors",
    "element_areas",
]


@dataclass
class QuadMesh:
    """Quadrilateral mesh topology and geometry.

    ``elems2nodes`` lists corners counterclockwise; local edge s connects
    local nodes s and (s+1) % 4 and ``elems2edges`` follows that layout.
    ``node_tags`` carries generator labels ("left", "hole", ...) used to
    select Dirichlet boundary parts; the full boundary is always available
    via ``boundary_nodes`` / ``boundary_edges``.
    """

    nodes: np.ndarray        # (N, 2)
    elems2nodes: np.ndarray  # (T, 4)
    edges2nodes: np.ndarray  # (E, 2), each row ascending
    elems2edges: np.ndarray  # (T, 4)
    boundary_nodes: np.ndarray
    boundary_edges: np.ndarray
    node_tags: dict[str, np.ndarray] = field(default_factory=dict)

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


def build_mesh(nodes, elems2nodes, node_tags=None) -> QuadMesh:
    """Assemble a QuadMesh from coordinates and counterclockwise elements.

    Derives the edge tables (numbered lexicographically, so the edge set
    and numbering do not depend on element order) and the boundary sets.
    """
    nodes = np.asarray(nodes, dtype=float)
    elems2nodes = np.asarray(elems2nodes, dtype=np.int64)
    cross = _corner_cross(nodes, elems2nodes)
    bad = np.where(cross.min(axis=1) <= 0.0)[0]
    if bad.size:
        raise ValueError(f"element {bad[0]} is not counterclockwise")

    pairs = np.stack(
        [elems2nodes, np.roll(elems2nodes, -1, axis=1)], axis=2
    ).reshape(-1, 2)  # (4T, 2) local edges in traversal order
    pairs_sorted = np.sort(pairs, axis=1)
    edges2nodes, inverse, counts = np.unique(
        pairs_sorted, axis=0, return_inverse=True, return_counts=True
    )
    if counts.max() > 2:
        raise ValueError("non-manifold edge (shared by more than 2 elements)")
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
        node_tags=dict(node_tags or {}),
    )


def _grid_mesh(xs: np.ndarray, ys: np.ndarray, keep_cell) -> QuadMesh:
    """Structured grid over xs x ys keeping cells where keep_cell(i, j)."""
    nx, ny = len(xs) - 1, len(ys) - 1
    node_id = lambda i, j: j * (nx + 1) + i
    elems = []
    for j in range(ny):
        for i in range(nx):
            if keep_cell(i, j):
                elems.append(
                    [node_id(i, j), node_id(i + 1, j),
                     node_id(i + 1, j + 1), node_id(i, j + 1)]
                )
    elems = np.asarray(elems, dtype=np.int64)
    used = np.unique(elems)
    renum = -np.ones((nx + 1) * (ny + 1), dtype=np.int64)
    renum[used] = np.arange(used.size)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])[used]
    return build_mesh(nodes, renum[elems])


def _coord_tag(nodes, idx, axis, value, tol=1e-9):
    return idx[np.abs(nodes[idx, axis] - value) < tol]


def make_lshape(level: int = 0) -> QuadMesh:
    """L-shaped domain (0,2)^2 minus the quadrant [1,2]x[0,1].

    Level 0 is the 12-element mesh of half-unit squares (21 nodes,
    32 edges); level k is refined uniformly k times.
    """
    if level < 0:
        raise ValueError("refinement level must be >= 0")
    xs = np.linspace(0.0, 2.0, 5)
    mesh = _grid_mesh(xs, xs, lambda i, j: not (i >= 2 and j <= 1))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def make_rect(nx: int, ny: int, width: float = 1.0, height: float = 1.0) -> QuadMesh:
    """Uniform nx x ny mesh of [0, width] x [0, height], tagged sides."""
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    mesh = _grid_mesh(xs, ys, lambda i, j: True)
    b = mesh.boundary_nodes
    mesh.node_tags = {
        "left": _coord_tag(mesh.nodes, b, 0, 0.0),
        "right": _coord_tag(mesh.nodes, b, 0, width),
        "bottom": _coord_tag(mesh.nodes, b, 1, 0.0),
        "top": _coord_tag(mesh.nodes, b, 1, height),
    }
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

    def keep(i, j):
        dx = max(xs[i] - 1.0, 1.0 - xs[i + 1], 0.0)
        dy = max(xs[j] - 1.0, 1.0 - xs[j + 1], 0.0)
        return np.hypot(dx, dy) >= r

    mesh = _grid_mesh(xs, xs, keep)
    offset = mesh.nodes - 1.0
    dist = np.hypot(offset[:, 0], offset[:, 1])
    pull = dist < r + h
    scale = np.where(pull, r / np.where(dist > 0.0, dist, 1.0), 1.0)
    nodes = 1.0 + offset * scale[:, None]

    elems = mesh.elems2nodes
    ok = _corner_cross(nodes, elems).min(axis=1) > 0.0
    elems = elems[ok]
    used = np.unique(elems)
    renum = np.zeros(nodes.shape[0], dtype=np.int64)
    renum[used] = np.arange(used.size)
    nodes, elems = nodes[used], renum[elems]

    assert _corner_cross(nodes, elems).min() > 0.0, \
        "hole projection inverted an element"
    mesh = build_mesh(nodes, elems)

    b = mesh.boundary_nodes
    on_hole = b[np.abs(np.hypot(*(mesh.nodes[b] - 1.0).T) - r) < 1e-12]
    mesh.node_tags = {
        "left": _coord_tag(mesh.nodes, b, 0, 0.0),
        "right": _coord_tag(mesh.nodes, b, 0, 2.0),
        "bottom": _coord_tag(mesh.nodes, b, 1, 0.0),
        "top": _coord_tag(mesh.nodes, b, 1, 2.0),
        "hole": on_hole,
    }
    return mesh


def refine_uniform(mesh: QuadMesh) -> QuadMesh:
    """Split every quad into 4 via edge midpoints and the bilinear centroid.

    New node numbering: original nodes, then one midpoint per edge (in
    edge order), then one center per element.  User tags are inherited by
    a midpoint when both edge endpoints carry the tag.
    """
    n_nodes, n_edges = mesh.n_nodes, mesh.n_edges
    midpoints = 0.5 * (mesh.nodes[mesh.edges2nodes[:, 0]]
                       + mesh.nodes[mesh.edges2nodes[:, 1]])
    centers = mesh.nodes[mesh.elems2nodes].mean(axis=1)
    nodes = np.vstack([mesh.nodes, midpoints, centers])

    mid = n_nodes + mesh.elems2edges  # (T, 4) midpoint node per local edge
    ctr = n_nodes + n_edges + np.arange(mesh.n_elems)
    c = mesh.elems2nodes
    children = np.empty((mesh.n_elems, 4, 4), dtype=np.int64)
    children[:, 0] = np.stack([c[:, 0], mid[:, 0], ctr, mid[:, 3]], axis=1)
    children[:, 1] = np.stack([mid[:, 0], c[:, 1], mid[:, 1], ctr], axis=1)
    children[:, 2] = np.stack([ctr, mid[:, 1], c[:, 2], mid[:, 2]], axis=1)
    children[:, 3] = np.stack([mid[:, 3], ctr, mid[:, 2], c[:, 3]], axis=1)

    tags = {}
    for name, tagged in mesh.node_tags.items():
        mask = np.zeros(n_nodes, dtype=bool)
        mask[tagged] = True
        both = mask[mesh.edges2nodes[:, 0]] & mask[mesh.edges2nodes[:, 1]]
        tags[name] = np.concatenate([tagged, n_nodes + np.where(both)[0]])
    return build_mesh(nodes, children.reshape(-1, 4), tags)


def element_areas(mesh: QuadMesh) -> np.ndarray:
    """Signed shoelace areas (positive for counterclockwise quads)."""
    x = mesh.nodes[mesh.elems2nodes]
    nxt = np.roll(x, -1, axis=1)
    return 0.5 * np.sum(x[:, :, 0] * nxt[:, :, 1] - nxt[:, :, 0] * x[:, :, 1], axis=1)


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

    Requires ``table`` tabulated at ``rule.points``.  Raises on
    non-positive Jacobian determinants.
    """
    if table.n_points != rule.n_ip or not np.array_equal(table.points, rule.points):
        raise ValueError("shape table is not tabulated at the quadrature points")
    q1 = table if table.p == 1 else tabulate(1, rule.points)
    x = mesh.nodes[mesh.elems2nodes]  # (T, 4, 2)
    j11 = np.einsum("mq,tm->tq", q1.dxi, x[:, :, 0])   # dx/dxi
    j12 = np.einsum("mq,tm->tq", q1.deta, x[:, :, 0])  # dx/deta
    j21 = np.einsum("mq,tm->tq", q1.dxi, x[:, :, 1])   # dy/dxi
    j22 = np.einsum("mq,tm->tq", q1.deta, x[:, :, 1])  # dy/deta
    det = j11 * j22 - j12 * j21
    if det.min() <= 0.0:
        t = int(np.where(det.min(axis=1) <= 0.0)[0][0])
        raise ValueError(f"degenerate element {t}: nonpositive Jacobian")

    # J^{-T} = [[j22, -j21], [-j12, j11]] / det
    jinv_t = np.stack([np.stack([j22, -j21]), np.stack([-j12, j11])]) / det
    wdetj = rule.weights[None, :] * det
    return GeometryFactors(jinv_t=jinv_t, wdetj=wdetj, table=table)
