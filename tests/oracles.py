"""Reference implementations and shared checks that only the tests read.

Each reference implementation is the plain form of a fast path in
``hpmin``: naive central differences of a whole energy (the suite's one
copy), central differences of the element energies one slot at a time,
element Hessian blocks from stress differences, the stiffness matrix
assembled one element at a time, per-element physical shape derivatives,
the full-to-free DOF index, the element DOF tables one local slot at a
time, Steihaug CG with a new array per vector operation, Legendre
polynomials and kernels one degree at a time, shape functions evaluated
one at a time from the geometry of the reference square, shoelace element
areas, structured grids built cell by cell, and uniform refinement with
each child stacked by hand.

It also holds what only the tests use: the set-up of a degree-p space and
of the two benchmark problems, the batched evaluations of an element-block
build, the unit-square mesh generator, the local basis count, and readers
of the convergence-table CSV that ``hpmin.cli`` writes and of the legacy
VTK files that ``hpmin.vtk`` writes.

The ``check_*`` functions at the end are the checks that a unit test and
an acceptance criterion share, so each exists once: the DOF counts and
the sparsity nesting, explicit gradients against naive differences, the
finite-difference Hessian against the stiffness matrix, the traces,
parity, partition of unity and inter-element continuity of the basis, and
the solver oracles.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hpmin.solver
from hpmin.basis import Bubble, EdgeMode, Nodal, n_bubbles, shape_kinds, tabulate
from hpmin.cli import ConvergenceRow
from hpmin.dofmap import DirichletSpec, build_dofmap, sample_field, sparsity_pattern
from hpmin.energy import BarrierError, NeoHookeModel, PLaplaceModel, identity_deformation
from hpmin.fd import FD_STEP, greedy_coloring, hessian_fd
from hpmin.mesh import (
    HOLE_RADIUS,
    QuadMesh,
    _corner_cross,
    _grid,
    build_mesh,
    geometry_factors,
    make_lshape,
    make_perforated_square,
)
from hpmin.problems import neohooke_problem, plaplace_problem
from hpmin.quadrature import rule_for_degree
from hpmin.solver import (
    CG_TOL,
    EnergyProblem,
    TrOptions,
    _boundary_tau,
    _unit_scale,
    minimize,
    steihaug_cg,
)


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


def gradient_central(energy, v: np.ndarray, dofs=None) -> np.ndarray:
    """Naive central differences of a scalar energy over the given dofs,
    with coordinate i moved by FD_STEP max(1, |v_i|) up and down.

    Reference implementation: every probe re-evaluates the full energy.
    """
    v = np.asarray(v, dtype=float)
    dofs = np.arange(v.size) if dofs is None else np.asarray(dofs)
    g = np.empty(dofs.size)
    for out, i in enumerate(dofs):
        hi = FD_STEP * max(1.0, abs(v[i]))
        probe = v.copy()
        probe[i] = v[i] + hi
        e_up = energy(probe)
        probe[i] = v[i] - hi
        e_dn = energy(probe)
        if not (np.isfinite(e_up) and np.isfinite(e_dn)):
            raise BarrierError(f"energy not finite at probe of dof {i}")
        g[out] = (e_up - e_dn) / (2.0 * hi)
    return g


def steihaug_cg_plain(H, g: np.ndarray, radius: float,
                      rtol: float = CG_TOL) -> tuple[np.ndarray, bool]:
    """``hpmin.solver.steihaug_cg`` as a new array per vector operation,
    with ``np.linalg.norm`` and ``np.max(np.abs(.))``."""
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    g = np.asarray(g, dtype=float)
    s = np.zeros_like(g)
    g_max = np.max(np.abs(g), initial=0.0)
    if g_max == 0.0:
        return s, False
    scale = _unit_scale(g_max)
    unit = _unit_scale(radius)
    r = g * scale
    g_norm = np.linalg.norm(r)
    d = -r
    rr = g_norm * g_norm
    for _ in range(2 * g.size):
        Hd = (H @ d) * scale
        kappa = d @ Hd
        # no curvature, or so little that rr / kappa would overflow
        if kappa <= rr / np.finfo(float).max:
            return s + _boundary_tau(s, d, radius) * d, True
        alpha = rr / kappa
        s_trial = s + alpha * d
        # |s_trial| >= radius; past the max test every entry is inside
        # the radius, so the norm in units of it cannot overflow
        if (np.max(np.abs(s_trial)) >= radius
                or np.linalg.norm(s_trial * unit) >= radius * unit):
            return s + _boundary_tau(s, d, radius) * d, True
        s = s_trial
        r = r + alpha * Hd
        rr_new = r @ r
        if np.sqrt(rr_new) <= rtol * g_norm:
            break
        d = -r + (rr_new / rr) * d
        rr = rr_new
    return s, False


def fe_space(mesh: QuadMesh, p: int, components: int = 1, dirichlet=None):
    """Geometry factors and DOF map of degree p on a mesh, at the
    quadrature rule of ``hpmin.problems``: (geometry, dofmap)."""
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    return geo, build_dofmap(mesh, p, components=components, dirichlet=dirichlet)


def model_problem(problem: str, p: int, level: int | None = None):
    """The problem and model of a benchmark functional at degree p:
    ``hyper``, the Neo-Hookean run on the perforated square (level 0 by
    default), or ``plaplace``, power-law diffusion with alpha = 3 on the
    L-shape (level 1 by default)."""
    if problem == "hyper":
        mesh = make_perforated_square(0 if level is None else level)
        return neohooke_problem(mesh, p=p, young=2e8, poisson=0.3,
                                f=(-3.5e7, -3.5e7))
    mesh = make_lshape(1 if level is None else level)
    return plaplace_problem(mesh, p=p, alpha=3.0, f=-10.0)


def block_evaluations(mode: str, components: int) -> tuple[str, int]:
    """The pointwise function that a mode's element blocks evaluate, and
    its batched evaluations per build for the n = 2 * components entries
    of G: 2 n of the stress (``explicit``), or 1 + 2 n + 2 n (n - 1) of
    the density (the central mode): 4 or 8, and 9 or 33."""
    n = 2 * components
    if mode == "explicit":
        return "stress", 2 * n
    return "density", 1 + 2 * n + 2 * n * (n - 1)


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


def stiffness_matrix(model) -> np.ndarray:
    """The Galerkin stiffness matrix, the integral of grad phi_i . grad
    phi_j, over the free DOFs of a degree-1 scalar model (every sign +1):
    the Hessian of the alpha = 2 power-law energy.

    Reference implementation: one element at a time, one entry at a time.
    """
    dm, geo = model.dofmap, model.geometry
    K = np.zeros((dm.n_free, dm.n_free))
    fi = free_index(dm)
    dphi_x, dphi_y = physical_derivatives(geo)
    for t in range(dm.mesh.n_elems):
        dofs = fi[dm.elems2dofs[t]]
        ke = np.einsum("q,qa,qb->ab", geo.wdetj[t], dphi_x[t], dphi_x[t])
        ke += np.einsum("q,qa,qb->ab", geo.wdetj[t], dphi_y[t], dphi_y[t])
        for a in range(dofs.size):
            for b in range(dofs.size):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    K[dofs[a], dofs[b]] += ke[a, b]
    return K


def dof_kind(dm, dof) -> str:
    """Kind of a global DOF, read off the blocked numbering."""
    base = dof % dm.n_p
    n_nodes, n_edges = dm.mesh.n_nodes, dm.mesh.n_edges
    if base < n_nodes:
        return "node"
    return "edge" if base < n_nodes + (dm.p - 1) * n_edges else "bubble"


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
    local slot at a time from the kind of its shape function, and the
    slots of the odd-degree edge modes in every component."""
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
    odd_slots = []
    for m, kind in enumerate(kinds):
        if isinstance(kind, Nodal):
            elems2dofs[:, m] = mesh.elems2nodes[:, kind.node]
        elif isinstance(kind, EdgeMode):
            s, k = kind.edge, kind.degree
            elems2dofs[:, m] = (edge_base
                                + mesh.elems2edges[:, s] * (p - 1) + (k - 2))
            if k % 2 == 1:
                odd_slots.append(m)
                against = mesh.elems2nodes[:, s] > nxt[:, s]
                signs[against, m] = -1.0
        else:
            elems2dofs[:, m] = (bubble_base + np.arange(n_elems) * nb
                                + bubble_count)
            bubble_count += 1
    elems2dofs = np.concatenate(
        [elems2dofs + c * n_p for c in range(components)], axis=1)
    odd_slots = [c * len(kinds) + m for c in range(components) for m in odd_slots]
    return elems2dofs, np.tile(signs, (1, components)), n_p, odd_slots


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


# Checks that a unit test and an acceptance criterion share: each asserts
# one property, and both tests call the one copy.

def check_lshape_p2_count():
    """The level-0 L-shape at p = 2 has 53 DOFs per component: its 21
    nodes, then one mode on each of its 32 edges, and no bubble."""
    dm = build_dofmap(make_lshape(0), p=2)
    assert dm.n_p == 53
    assert dm.mesh.n_nodes == 21 and dm.mesh.n_edges == 32
    kinds = [dof_kind(dm, d) for d in range(dm.n_p)]
    assert kinds.count("node") == 21
    assert kinds.count("edge") == 32
    assert kinds.count("bubble") == 0


def check_lshape_level1_free_count():
    """The level-1 L-shape at p = 2 with u = 0 on the boundary has 113
    free DOFs: (65 - 32 boundary nodes) + (112 - 32 boundary edges)."""
    dm = build_dofmap(make_lshape(1), p=2, dirichlet=DirichletSpec(g=0.0))
    assert dm.n_free == 113


def check_sparsity_nesting():
    """The p = 2 pattern of the level-0 L-shape, restricted to the nodal
    rows and columns, is the p = 1 pattern."""
    mesh = make_lshape(0)
    pat1 = sparsity_pattern(build_dofmap(mesh, p=1))
    pat2 = sparsity_pattern(build_dofmap(mesh, p=2))
    nodal = mesh.n_nodes
    rows1, cols1 = pat1.nonzero()
    rows2, cols2 = pat2.nonzero()
    mask = (rows2 < nodal) & (cols2 < nodal)
    block = set(zip(rows2[mask].tolist(), cols2[mask].tolist()))
    assert block == set(zip(rows1.tolist(), cols1.tolist()))


def _check_gradient(model, v):
    g = model.gradient(v)
    err = np.max(np.abs(g - gradient_central(model.energy, v))) / np.max(np.abs(g))
    assert err < 1e-6


def check_plaplace_gradient(alpha: float, rng):
    """At 5 random points, the explicit gradient of the power-law energy
    (level-0 L-shape, p = 2, f = -10, no fixed DOF) matches the naive
    central differences of the energy to 1e-6 relative."""
    model = PLaplaceModel(*fe_space(make_lshape(0), 2), alpha=alpha, f=-10.0)
    for _ in range(5):
        _check_gradient(model, rng.standard_normal(model.dofmap.n_dofs))


def check_neohooke_gradient(rng):
    """At 5 random admissible points near the identity, the explicit
    gradient of the Neo-Hookean energy (level-0 perforated square, p = 2,
    no fixed DOF) matches the naive central differences of the energy to
    1e-6 relative."""
    geo, dm = fe_space(make_perforated_square(0), 2, components=2)
    model = NeoHookeModel(geo, dm, c1=1.0, d1=2.0, f=(-1.0, -2.0))
    v_id = identity_deformation(dm)
    for _ in range(5):
        v = v_id + 0.005 * rng.standard_normal(dm.n_dofs)
        assert np.isfinite(model.energy(v))
        _check_gradient(model, v)


def check_fd_hessian_is_the_stiffness(rng):
    """At a random point, the colored forward-difference Hessian of the
    alpha = 2 power-law energy (level-1 L-shape, p = 1, u = 0 on the
    boundary), a linear problem, matches the assembled stiffness matrix to
    1e-5 relative.  Returns the stiffness matrix, the point and the
    problem."""
    fe, model = plaplace_problem(make_lshape(1), p=1, alpha=2.0, f=-10.0)
    K = stiffness_matrix(model)
    colored = greedy_coloring(fe.pattern)
    v = rng.standard_normal(K.shape[0])
    H = hessian_fd(fe.gradient, v, colored, g0=fe.gradient(v)).toarray()
    assert np.max(np.abs(H - K)) / np.max(np.abs(K)) < 1e-5
    return K, v, fe


def edge_points(s: int, n: int = 10) -> np.ndarray:
    """n points along local edge s of the reference square, (n, 2)."""
    t = np.linspace(-1.0, 1.0, n)
    block = {0: (t, -np.ones(n)), 1: (np.ones(n), t),
             2: (t, np.ones(n)), 3: (-np.ones(n), t)}[s]
    return np.column_stack(block)


def check_edge_traces(p: int):
    """Every degree-p edge mode vanishes, to 1e-12, on the other three
    edges of the reference square."""
    for s_other in range(4):
        table = tabulate(p, edge_points(s_other))
        for m, kind in enumerate(shape_kinds(p)):
            if isinstance(kind, EdgeMode) and kind.edge != s_other:
                assert np.max(np.abs(table.values[m])) < 1e-12


def check_bubble_traces(p: int):
    """Every degree-p bubble vanishes, to 1e-12, on all four edges."""
    for s in range(4):
        table = tabulate(p, edge_points(s))
        for m, kind in enumerate(shape_kinds(p)):
            if isinstance(kind, Bubble):
                assert np.max(np.abs(table.values[m])) < 1e-12


def check_partition_of_unity(p: int):
    """The four nodal functions sum to 1, to 1e-14, at the degree-p
    quadrature points."""
    table = tabulate(p, rule_for_degree(p).points)
    assert np.max(np.abs(table.values[:4].sum(axis=0) - 1.0)) < 1e-14


def check_edge_parity(p: int, t: np.ndarray):
    """Reversing the coordinate t along edge 0 multiplies every degree-k
    edge mode of degree p by (-1)^k: odd modes flip."""
    fwd = tabulate(p, np.column_stack([t, -np.ones_like(t)]))
    rev = tabulate(p, np.column_stack([-t, -np.ones_like(t)]))
    for m, kind in enumerate(shape_kinds(p)):
        if isinstance(kind, EdgeMode) and kind.edge == 0:
            np.testing.assert_allclose(rev.values[m],
                                       (-1.0) ** kind.degree * fwd.values[m],
                                       atol=1e-13)


def interior_edge_pairs(mesh: QuadMesh) -> dict:
    """(element, local edge) of both sides of every interior edge, keyed
    by the edge."""
    boundary = set(mesh.boundary_edges.tolist())
    where = {}
    for t in range(mesh.n_elems):
        for s in range(4):
            e = mesh.elems2edges[t, s]
            if e not in boundary:
                where.setdefault(e, []).append((t, s))
    return where


def trace_on_edge(dm, v_full, t, s, lam) -> np.ndarray:
    """Field values in element t on its local edge s, at the fractions lam
    of the global edge from its first node."""
    mesh = dm.mesh
    a = mesh.edges2nodes[mesh.elems2edges[t, s], 0]
    tau = 2.0 * lam - 1.0 if mesh.elems2nodes[t, s] == a else 1.0 - 2.0 * lam
    ref = (np.outer((1.0 - tau) / 2.0, _CORNERS[s])
           + np.outer((1.0 + tau) / 2.0, _CORNERS[(s + 1) % 4]))
    return sample_field(dm, v_full, tabulate(dm.p, ref))[0, t]


def check_interelement_continuity(mesh: QuadMesh, p: int, rng):
    """A random degree-p field takes the same values, to 1e-10, from both
    sides of every interior edge, at 10 points along it."""
    dm = build_dofmap(mesh, p=p)
    v = rng.standard_normal(dm.n_dofs)
    lam = np.linspace(0.05, 0.95, 10)
    for (ta, sa), (tb, sb) in interior_edge_pairs(mesh).values():
        np.testing.assert_allclose(trace_on_edge(dm, v, ta, sa, lam),
                                   trace_on_edge(dm, v, tb, sb, lam), atol=1e-10)


def dense_pattern(n: int) -> sp.csr_matrix:
    """The n x n pattern with every entry stored."""
    return sp.csr_matrix(np.ones((n, n), dtype=bool))


def check_spd_quadratic(rng, monkeypatch):
    """The solver minimizes a random SPD quadratic J = v.A.v / 2 - b.v
    (n = 10) from 0 in at most 10 iterations, to a gradient below 1e-10
    and v within 1e-9 of the solution of A v = b."""
    n = 10
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    problem = EnergyProblem(
        energy=lambda v: 0.5 * v @ A @ v - b @ v,
        gradient=lambda v: A @ v - b,
        pattern=dense_pattern(n),
        x0=np.zeros(n),
    )
    # J(x0) = 0, so the stopping test is grad_norm < 1e-10
    monkeypatch.setattr(hpmin.solver, "GRAD_RTOL", 1e-10)
    sol = minimize(problem, TrOptions())
    assert sol.converged
    assert sol.iterations <= 10
    assert sol.grad_norm < 1e-10
    np.testing.assert_allclose(sol.v_free, np.linalg.solve(A, b), atol=1e-9)


def check_rosenbrock(monkeypatch):
    """The solver takes the Rosenbrock function from (-1.2, 1) to its
    minimizer (1, 1), to 1e-8."""
    def energy(v):
        x, y = v
        return (1 - x) ** 2 + 100 * (y - x * x) ** 2

    def gradient(v):
        x, y = v
        return np.array([-2 * (1 - x) - 400 * x * (y - x * x),
                         200 * (y - x * x)])

    problem = EnergyProblem(energy=energy, gradient=gradient,
                            pattern=dense_pattern(2),
                            x0=np.array([-1.2, 1.0]))
    # J(x0) = 24.2, so the stopping test is grad_norm < 9.68e-13
    monkeypatch.setattr(hpmin.solver, "GRAD_RTOL", 4e-14)
    sol = minimize(problem, TrOptions(max_iters=500))
    assert sol.converged
    np.testing.assert_allclose(sol.v_free, [1.0, 1.0], atol=1e-8)


def check_steihaug_interior(g: np.ndarray):
    """On H = I with the radius 10 |g|, Steihaug CG returns the Newton
    step -g, inside the region."""
    step, hit = steihaug_cg(sp.eye(g.size, format="csr"), g,
                            radius=10 * np.linalg.norm(g))
    np.testing.assert_allclose(step, -g, atol=1e-12)
    assert not hit


def check_steihaug_boundary(g: np.ndarray, radius: float):
    """On H = I with a radius below |g|, Steihaug CG returns the step along
    -g to the boundary."""
    step, hit = steihaug_cg(sp.eye(g.size, format="csr"), g, radius=radius)
    assert hit
    assert np.linalg.norm(step) == pytest.approx(radius, abs=1e-12)
    np.testing.assert_allclose(step, -radius * g / np.linalg.norm(g), atol=1e-12)


def check_steihaug_negative_curvature(radius: float):
    """With g along the negative eigenvector of diag(1, -1), Steihaug CG
    moves straight down -g to the boundary."""
    step, hit = steihaug_cg(sp.diags([1.0, -1.0]).tocsr(), np.array([0.0, 1.0]),
                            radius=radius)
    assert hit
    assert np.linalg.norm(step) == pytest.approx(radius, abs=1e-12)
    assert step[1] < 0

