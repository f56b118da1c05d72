"""Global degree-of-freedom bookkeeping for hierarchical quad elements.

Two element-indexed tables tie the mesh topology to the global basis:
the element-to-DOF incidence aligned with the local shape ordering, and
the per-entry signs that repair odd-degree edge modes whose element-local
direction opposes the global (ascending node index) edge direction.

Global numbering is blocked: nodal DOFs by node index, then edge DOFs by
edge index and degree, then bubbles by element; vector problems repeat
the whole layout per component (all x-DOFs, then all y-DOFs).  The kind
of a DOF follows from its scalar id and the two block offsets kept in
``DofMap``: ids below ``edge_base`` are nodal, ids below ``bubble_base``
are edge modes, the rest are bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import EdgeMode, Nodal, n_bubbles, shape_kinds, tabulate
from .mesh import QuadMesh

__all__ = [
    "DirichletSpec",
    "DofMap",
    "SparsityPattern",
    "build_dofmap",
    "sparsity_pattern",
    "expand_solution",
    "local_layout",
    "sample_field",
]


@dataclass(frozen=True)
class DirichletSpec:
    """Boundary selection by tags plus the boundary value g.

    ``tags`` may contain generator tags ("left", "hole", ...) or the
    built-in "boundary" for the whole boundary.  ``g`` is a constant
    (scalar, or a length-``components`` sequence) or a callable
    ``g(x, y)``, called once with the coordinate arrays of the selected
    nodes, returning a value or array (a tuple of them, one per component,
    for vector problems).  Nodal DOFs on selected nodes are fixed to g
    evaluated there; edge modes on selected boundary edges are fixed to
    zero (exact whenever g restricted to the edge is linear); bubbles are
    never fixed.
    """

    tags: tuple[str, ...] = ("boundary",)
    g: object = 0.0


@dataclass
class DofMap:
    """Global DOF layout for one mesh and uniform degree p."""

    mesh: QuadMesh
    p: int
    components: int
    n_p: int                  # scalar global basis count
    edge_base: int            # first scalar edge-mode id (= number of nodes)
    bubble_base: int          # first scalar bubble id
    elems2dofs: np.ndarray    # (T, n_p_ref) scalar DOF ids, ShapeTable order
    signs: np.ndarray         # (T, n_p_ref) entries +-1
    free_dofs: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.n_p * self.components

    @property
    def n_free(self) -> int:
        return self.free_dofs.size


def _resolve_g(g, xy: np.ndarray, components: int) -> np.ndarray:
    """Evaluate the boundary datum at the rows of xy, -> (components, len(xy))."""
    if callable(g):
        g = g(xy[:, 0], xy[:, 1])
        parts = g if isinstance(g, (tuple, list)) else [g]
    else:
        parts = np.atleast_1d(np.asarray(g, dtype=float))
    if len(parts) != components:
        raise ValueError(
            f"boundary value has {len(parts)} components, expected {components}"
        )
    return np.stack([np.broadcast_to(np.asarray(v, dtype=float), len(xy))
                     for v in parts])


def _selected_boundary(mesh: QuadMesh, tags) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and boundary edges picked by a tag list."""
    chosen = []
    for tag in tags:
        if tag == "boundary":
            chosen.append(mesh.boundary_nodes)
        elif tag in mesh.node_tags:
            chosen.append(mesh.node_tags[tag])
        else:
            known = ["boundary", *mesh.node_tags]
            raise ValueError(f"unknown boundary tag {tag!r}; known: {known}")
    nodes = np.unique(np.concatenate(chosen)) if chosen else np.array([], dtype=int)
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[nodes] = True
    edge_nodes = mesh.edges2nodes[mesh.boundary_edges]
    covered = mask[edge_nodes[:, 0]] & mask[edge_nodes[:, 1]]
    return nodes, mesh.boundary_edges[covered]


def build_dofmap(mesh: QuadMesh, p: int, components: int = 1,
                 dirichlet: DirichletSpec | None = None) -> DofMap:
    """Enumerate global DOFs and constraints for uniform degree p."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if components not in (1, 2):
        raise ValueError(f"components must be 1 or 2, got {components}")

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

    n_dofs = n_p * components
    fixed_mask = np.zeros(n_dofs, dtype=bool)
    fixed_values_full = np.zeros(n_dofs)
    if dirichlet is not None:
        sel_nodes, sel_edges = _selected_boundary(mesh, dirichlet.tags)
        offsets = n_p * np.arange(components)[:, None]
        node_ids = offsets + sel_nodes
        fixed_mask[node_ids] = True
        fixed_values_full[node_ids] = _resolve_g(dirichlet.g, mesh.nodes[sel_nodes],
                                                 components)
        edge_modes = (edge_base + (p - 1) * sel_edges[:, None]
                      + np.arange(p - 1)).ravel()
        fixed_mask[offsets + edge_modes] = True

    fixed_dofs = np.where(fixed_mask)[0]
    free_dofs = np.where(~fixed_mask)[0]
    return DofMap(
        mesh=mesh, p=p, components=components, n_p=n_p, edge_base=edge_base,
        bubble_base=bubble_base, elems2dofs=elems2dofs, signs=signs,
        free_dofs=free_dofs, fixed_dofs=fixed_dofs,
        fixed_values=fixed_values_full[fixed_dofs],
    )


@dataclass(frozen=True)
class SparsityPattern:
    """Structural nonzeros of the free-DOF Hessian, sorted by (row, col)."""

    n: int
    rows: np.ndarray
    cols: np.ndarray

    @property
    def nnz(self) -> int:
        return self.rows.size

    def to_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix((np.ones(self.nnz), (self.rows, self.cols)),
                             shape=(self.n, self.n))


def sparsity_pattern(dofmap: DofMap) -> SparsityPattern:
    """Free DOFs i, j are coupled iff they co-occur in some element.

    For vector problems all components of an element's DOFs co-occur, so
    the pattern is the scalar pattern tiled ``components`` x ``components``
    before the free-DOF restriction.  The free columns of the
    element-DOF incidence give the pattern as CSR, so its entries come
    out in (row, col) order.
    """
    n_elems = dofmap.mesh.n_elems
    cols, _ = local_layout(dofmap)
    rows = np.repeat(np.arange(n_elems), cols.shape[1])
    inc = sp.csr_matrix(
        (np.ones(cols.size), (rows, cols.ravel())),
        shape=(n_elems, dofmap.n_dofs),
    )[:, dofmap.free_dofs]
    coupled = (inc.T @ inc).tocsr()
    coupled.sort_indices()
    # int64 ids: int32 ones slow down every gather of the Hessian assembly
    return SparsityPattern(
        n=dofmap.n_free,
        rows=np.repeat(np.arange(dofmap.n_free), np.diff(coupled.indptr)),
        cols=coupled.indices.astype(np.int64),
    )


def expand_solution(dofmap: DofMap, free_vector) -> np.ndarray:
    """Insert fixed boundary values into a free-DOF vector."""
    free_vector = np.asarray(free_vector, dtype=float)
    if free_vector.shape != (dofmap.n_free,):
        raise ValueError(
            f"expected {dofmap.n_free} free values, got {free_vector.shape}"
        )
    full = np.empty(dofmap.n_dofs)
    full[dofmap.free_dofs] = free_vector
    full[dofmap.fixed_dofs] = dofmap.fixed_values
    return full


def local_layout(dofmap: DofMap) -> tuple[np.ndarray, np.ndarray]:
    """Element incidence and signs tiled over components.

    Returns (cols, signs), both (n_elems, n_p_ref * components), with the
    component blocks concatenated: local slot c * n_p_ref + m addresses
    global DOF elems2dofs[t, m] + c * n_p.
    """
    cols = np.concatenate(
        [dofmap.elems2dofs + c * dofmap.n_p for c in range(dofmap.components)],
        axis=1,
    )
    signs = np.tile(dofmap.signs, (1, dofmap.components))
    return cols, signs


def sample_field(dofmap: DofMap, v_full: np.ndarray, ref_points) -> np.ndarray:
    """Evaluate the expansion on every element at reference points.

    Returns (n_elems, n_points) values of the first component.
    """
    table = tabulate(dofmap.p, ref_points)
    coeff = dofmap.signs * v_full[dofmap.elems2dofs]
    return coeff @ table.values
