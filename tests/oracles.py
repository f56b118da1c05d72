"""Reference implementations that only the tests read.

Each one is the plain form of a fast path in ``hpmin``: whole-energy
central differences, element Hessian blocks from stress differences,
per-element physical shape derivatives, the
full-to-free DOF index, the element DOF tables one local slot at a time,
Legendre polynomials and kernels one degree at a time, shape functions
evaluated one at a time from the geometry of the reference square,
shoelace element areas, structured grids built cell by cell, and uniform
refinement with each child stacked by hand.  It also
holds what only the tests use: a model's central-difference gradient at
a full vector, the unit-square mesh generator, the local
basis count, and readers of the convergence-table CSV that ``hpmin.cli``
writes and of the legacy VTK files that ``hpmin.vtk`` writes.
"""

import csv
from pathlib import Path

import numpy as np

from hpmin.basis import EdgeMode, Nodal, n_bubbles, shape_kinds
from hpmin.cli import ConvergenceRow
from hpmin.energy import BarrierError
from hpmin.fd import FD_STEP
from hpmin.mesh import HOLE_RADIUS, QuadMesh, _corner_cross, _grid, build_mesh


def central_gradient(model, v_full: np.ndarray) -> np.ndarray:
    """The central-difference gradient of a model at a full vector: its
    ``residuals_fd``, from central differences of the density at the
    quadrature points, assembled by ``assemble_gradient``, as a problem's
    ``gradient_fd`` assembles them before it keeps the free entries."""
    return model.assemble_gradient(model.residuals_fd(v_full))


def central_residuals(model, v_full: np.ndarray) -> np.ndarray:
    """Central differences of the element energies, (T, slots), one slot
    at a time: slot s of every element moved by its signed step delta up,
    then down, and (e_up - e_dn) / (2 delta) of each column."""
    v_loc = model.dofmap.gather(v_full)
    deltas = model.dofmap.gather(FD_STEP * np.maximum(1.0, np.abs(v_full)))
    columns = []
    for slot in range(v_loc.shape[1]):
        center = v_loc[:, slot].copy()
        v_loc[:, slot] = center + deltas[:, slot]
        up = model._element_energies(v_loc)
        v_loc[:, slot] = center - deltas[:, slot]
        columns.append(up - model._element_energies(v_loc))
        v_loc[:, slot] = center
    return np.column_stack(columns) / (2.0 * deltas)


def element_hessians_from_stress(model, v_full: np.ndarray) -> np.ndarray:
    """A model's element blocks from central differences of its ``stress``
    at the quadrature points: the differences of ``model.element_hessians``,
    contracted in full, and an estimate of ``model.element_hessians_fd``.

    Column (d, e) of the second derivative of the density at every point
    is (P(G + h E_de) - P(G - h E_de)) / (2 h), with h = FD_STEP
    max(1, |G_de|).  Element e's block couples slot (c, k), row, and slot
    (d, l), column: the sum over the points of w |J| dphi_k . D dphi_l with
    the physical shape-function derivatives, times the signs of both slots,
    stored at [(d, l), e, (c, k)] as in the model's blocks.

    Reference implementation: one stress difference per entry of G, and
    the physical derivatives of every element formed in full.
    """
    dm, geo = model.dofmap, model.geometry
    G = model._gather(dm.gather(v_full))
    components = G.shape[0]
    second = np.empty((components, 2, *G.shape))
    for d in range(components):
        for e in range(2):
            h = FD_STEP * np.maximum(1.0, np.abs(G[d, e]))
            up, down = G.copy(), G.copy()
            up[d, e] += h
            down[d, e] -= h
            second[:, :, d, e] = (model.stress(up) - model.stress(down)) / (2.0 * h)
    dphi = np.stack(physical_derivatives(geo))  # (2, T, n_ip, m)
    local = np.einsum("tq,atqk,cadetq,etql->tckdl", geo.wdetj, dphi, second,
                      dphi, optimize=True)
    n_elems = G.shape[2]
    local = local.reshape(n_elems, dm.signs.shape[1], -1)
    local *= dm.signs[:, :, None] * dm.signs[:, None, :]
    return local.transpose(2, 0, 1)


def gradient_central(energy, v: np.ndarray, h: float = FD_STEP,
                     dofs=None) -> np.ndarray:
    """Naive central differences of a scalar energy over the given dofs.

    Reference implementation: every probe re-evaluates the full energy.
    """
    v = np.asarray(v, dtype=float)
    dofs = np.arange(v.size) if dofs is None else np.asarray(dofs)
    g = np.empty(dofs.size)
    for out, i in enumerate(dofs):
        hi = h * max(1.0, abs(v[i]))
        probe = v.copy()
        probe[i] = v[i] + hi
        e_up = energy(probe)
        probe[i] = v[i] - hi
        e_dn = energy(probe)
        if not (np.isfinite(e_up) and np.isfinite(e_dn)):
            raise BarrierError(f"energy not finite at probe of dof {i}")
        g[out] = (e_up - e_dn) / (2.0 * hi)
    return g


def physical_derivatives(geo) -> tuple[np.ndarray, np.ndarray]:
    """Physical x- and y-derivatives of every shape function at every
    quadrature point, each (n_elems, n_ip, n_basis): J^{-T} applied to the
    shared reference table."""
    table = geo.table
    return tuple(np.einsum("tq,mq->tqm", jt[0], table.dxi)
                 + np.einsum("tq,mq->tqm", jt[1], table.deta)
                 for jt in geo.jinv_t)


def free_index(dm) -> np.ndarray:
    """Free-DOF position of every global DOF, -1 for fixed ones."""
    index = -np.ones(dm.n_dofs, dtype=np.int64)
    index[dm.free_dofs] = np.arange(dm.n_free)
    return index


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

    phi_k(xi) = (L_k(xi) - L_{k-2}(xi)) / sqrt(4k - 2), k >= 2, with the
    closed-form derivative phi_k' = sqrt((2k-1)/2) * L_{k-1}.
    """
    if k < 2:
        raise ValueError(f"kernel degree must be >= 2, got {k}")
    scale = 1.0 / np.sqrt(4.0 * k - 2.0)
    value = (legendre_eval(k, xi) - legendre_eval(k - 2, xi)) * scale
    deriv = (2.0 * k - 1.0) * scale * legendre_eval(k - 1, xi)
    return value, deriv


def n_basis_functions(p: int) -> int:
    """Count of local shape functions: 4 nodal + 4(p-1) edge + bubbles."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return 4 + 4 * (p - 1) + n_bubbles(p)


def dofmap_tables(mesh, p: int, components: int):
    """``elems2dofs``, ``signs`` and ``n_p`` of ``build_dofmap``, built one
    local slot at a time from the kind of its shape function."""
    kinds = shape_kinds(p)
    nb = n_bubbles(p)
    n_nodes, n_edges, n_elems = mesh.n_nodes, mesh.n_edges, mesh.n_elems
    edge_base = n_nodes
    bubble_base = n_nodes + (p - 1) * n_edges
    n_p = bubble_base + n_elems * nb

    elems2dofs = np.empty((n_elems, len(kinds)), dtype=np.int64)
    signs = np.ones((n_elems, len(kinds)))
    nxt = np.roll(mesh.elems2nodes, -1, axis=1)
    bubble_count = 0
    for m, kind in enumerate(kinds):
        if isinstance(kind, Nodal):
            elems2dofs[:, m] = mesh.elems2nodes[:, kind.node]
        elif isinstance(kind, EdgeMode):
            s, k = kind.edge, kind.degree
            elems2dofs[:, m] = (edge_base
                                + mesh.elems2edges[:, s] * (p - 1) + (k - 2))
            if k % 2 == 1:
                against = mesh.elems2nodes[:, s] > nxt[:, s]
                signs[against, m] = -1.0
        else:
            elems2dofs[:, m] = (bubble_base + np.arange(n_elems) * nb
                                + bubble_count)
            bubble_count += 1
    elems2dofs = np.concatenate(
        [elems2dofs + c * n_p for c in range(components)], axis=1)
    return elems2dofs, np.tile(signs, (1, components)), n_p


# Corner s of the reference square, counterclockwise from (-1, -1).
_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))

# Local edge s joins corners s and (s+1) % 4.  For each edge:
# tangential coordinate t = TX*xi + TY*eta (counterclockwise direction)
# and linear blend lam = (1 + BS*coord)/2 where coord is xi (axis 0)
# or eta (axis 1).
_EDGE_TANGENT = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
_EDGE_BLEND = ((1, -1.0), (0, 1.0), (1, 1.0), (0, -1.0))  # (axis, sign)


def eval_shape(kind, xi: np.ndarray, eta: np.ndarray):
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


def shape_table(p: int, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, d/dxi and d/deta of every degree-p shape function, each
    (n_basis, n_points), one function at a time."""
    points = np.asarray(points, dtype=float)
    rows = [eval_shape(kind, points[:, 0], points[:, 1]) for kind in shape_kinds(p)]
    return tuple(np.array(part) for part in zip(*rows))


def grid_cells(xs, ys, keep_cell) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and counterclockwise cells of the grid xs x ys, keeping cell
    (i, j) where keep_cell(i, j), with unused nodes dropped."""
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
    return nodes, renum[elems]


def make_rect(nx: int, ny: int) -> QuadMesh:
    """Uniform nx x ny mesh of the unit square [0, 1]^2."""
    return build_mesh(*_grid(np.linspace(0.0, 1.0, nx + 1),
                             np.linspace(0.0, 1.0, ny + 1),
                             np.ones((ny, nx), dtype=bool)))


def refine_by_stacks(mesh: QuadMesh) -> QuadMesh:
    """Uniform refinement with the four children written out one by one:
    original nodes, then edge midpoints, then element centers."""
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
    return build_mesh(nodes, children.reshape(-1, 4))


def element_areas(mesh: QuadMesh) -> np.ndarray:
    """Signed shoelace areas (positive for counterclockwise quads)."""
    x = mesh.nodes[mesh.elems2nodes]
    nxt = np.roll(x, -1, axis=1)
    return 0.5 * np.sum(x[:, :, 0] * nxt[:, :, 1] - nxt[:, :, 0] * x[:, :, 1], axis=1)


def perforated_square_cells(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and elements of the perforated square, cell by cell: keep the
    cells whose closure misses the open hole, snap the nodes near it onto
    the circle, drop the elements the snap folds, renumber."""
    n = 8 * 2**level
    h = 2.0 / n
    xs = np.linspace(0.0, 2.0, n + 1)
    r = HOLE_RADIUS

    def keep(i, j):
        dx = max(xs[i] - 1.0, 1.0 - xs[i + 1], 0.0)
        dy = max(xs[j] - 1.0, 1.0 - xs[j + 1], 0.0)
        return np.hypot(dx, dy) >= r

    nodes, elems = grid_cells(xs, xs, keep)
    offset = nodes - 1.0
    dist = np.hypot(offset[:, 0], offset[:, 1])
    scale = np.where(dist < r + h, r / np.where(dist > 0.0, dist, 1.0), 1.0)
    nodes = 1.0 + offset * scale[:, None]
    elems = elems[_corner_cross(nodes, elems).min(axis=1) > 0.0]
    used = np.unique(elems)
    renum = np.zeros(nodes.shape[0], dtype=np.int64)
    renum[used] = np.arange(used.size)
    return nodes[used], renum[elems]


def read_rows(path) -> list[ConvergenceRow]:
    """The rows of a convergence-table CSV written by ``hpmin.cli``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            ConvergenceRow(
                level=int(r["level"]), nelems=int(r["nelems"]),
                dofs=int(r["dofs"]), time_s=float(r["time_s"]),
                iters=int(r["iters"]), energy=float(r["energy"]),
            )
            for r in reader
        ]


def read_vtk(path) -> dict:
    """The blocks of a legacy ASCII VTK file written by ``hpmin.vtk``.

    Returns a dict with ``points`` (n, 2), ``cells`` (n_cells, 4) and one
    flat array per SCALARS field, keyed by its name.
    """
    lines = iter(Path(path).read_text().splitlines())
    out = {}
    for line in lines:
        head = line.split()
        if head[:1] == ["POINTS"]:
            rows = [next(lines).split() for _ in range(int(head[1]))]
            out["points"] = np.array(rows, dtype=float)[:, :2]
        elif head[:1] == ["CELLS"]:
            rows = [next(lines).split() for _ in range(int(head[1]))]
            out["cells"] = np.array(rows, dtype=np.int64)[:, 1:]
        elif head[:1] in (["POINT_DATA"], ["CELL_DATA"]):
            count = int(head[1])
        elif head[:1] == ["SCALARS"]:
            next(lines)  # LOOKUP_TABLE default
            out[head[1]] = np.array([next(lines) for _ in range(count)], dtype=float)
    return out
