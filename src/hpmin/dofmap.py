"""Global degree-of-freedom bookkeeping for hierarchical quad elements.

Two element-indexed tables tie the mesh topology to the global basis:
the element-to-DOF incidence aligned with the local shape ordering, and
the per-entry signs that repair odd-degree edge modes whose element-local
direction opposes the global (ascending node index) edge direction.  Both
are stored in the local layout the kernels read: for a vector problem the
scalar columns are tiled once per component, so slot c * m + j of an
element (m local shape functions) addresses component c of its local
function j: that function's scalar DOF id plus c * n_p.  Only the slots
of odd-degree edge modes can carry a sign of -1, and there are none at
p <= 2; the DOF map records those slots, and the signed gather, the
signed scatter and the element Hessian blocks multiply only them, since
a sign of +1 changes no bit.

Global numbering is blocked: nodal DOFs by node index, then edge DOFs by
edge index and degree, then bubbles by element; vector problems repeat
the whole layout per component (all x-DOFs, then all y-DOFs).  So the
kind of a DOF follows from its scalar id and the mesh counts: ids below
the number of nodes are nodal, the next (p - 1) per edge are edge modes,
the rest are bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import EdgeMode, ShapeTable, n_bubbles, shape_kinds
from .mesh import QuadMesh

__all__ = [
    "DirichletSpec",
    "DofMap",
    "build_dofmap",
    "sparsity_pattern",
    "expand_solution",
    "sample_field",
]


@dataclass(frozen=True)
class DirichletSpec:
    """Boundary selection by a coordinate predicate plus the boundary value g.

    ``on(x, y)`` is called once with the coordinate arrays of the mesh's
    boundary nodes and returns a bool mask of the nodes to fix, one entry
    per node; anything else raises ``ValueError``.  ``on=None`` fixes the
    whole boundary.  ``g`` is a constant (scalar, or a
    length-``components`` sequence) or a callable ``g(x, y)``, called once
    with the coordinate arrays of the fixed nodes, returning a value or
    array (a tuple of them, one per component, for vector problems).
    Nodal DOFs on fixed nodes are set to g evaluated there; edge modes on
    boundary edges with both end nodes fixed are set to zero (exact
    whenever g restricted to the edge is linear); bubbles are never fixed.
    """

    on: object = None
    g: object = 0.0


@dataclass
class DofMap:
    """Global DOF layout for one mesh and uniform degree p."""

    mesh: QuadMesh
    p: int
    components: int
    n_p: int                  # scalar global basis count
    # (T, components * m) for m local shape functions: slot c * m + j holds
    # the scalar id of local function j (ShapeTable order) plus c * n_p
    elems2dofs: np.ndarray
    signs: np.ndarray         # (T, components * m) entries +-1, same slots
    # the slots of odd-degree edge modes, in every component: the only
    # columns of ``signs`` that can hold -1
    signed_slots: np.ndarray
    free_dofs: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.n_p * self.components

    @property
    def n_free(self) -> int:
        return self.free_dofs.size

    def gather(self, v_full) -> np.ndarray:
        """Signed element-local coefficients of a full vector, in the
        layout of ``elems2dofs``."""
        v_full = np.asarray(v_full, dtype=float)
        if v_full.shape != (self.n_dofs,):
            raise ValueError(
                f"expected coefficient vector of length {self.n_dofs}, "
                f"got {v_full.shape}"
            )
        return self.apply_signs(v_full[self.elems2dofs])

    def scatter(self, local: np.ndarray) -> np.ndarray:
        """Accumulate signed element-local values into a full vector."""
        if self.signed_slots.size:
            local = self.apply_signs(local.copy())
        return np.bincount(self.elems2dofs.ravel(), weights=local.ravel(),
                           minlength=self.n_dofs)

    def apply_signs(self, local: np.ndarray) -> np.ndarray:
        """Multiply ``local``, whose last two axes are (T, slots), by the
        signs of its slots, in place, and return it.  Only the signed slots
        are touched: a sign of +1 changes no bit."""
        if self.signed_slots.size:
            local[..., self.signed_slots] *= self.signs[:, self.signed_slots]
        return local


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


def _selected_boundary(mesh: QuadMesh, on) -> tuple[np.ndarray, np.ndarray]:
    """Boundary nodes picked by the predicate ``on`` and the boundary edges
    whose end nodes are both picked."""
    nodes = mesh.boundary_nodes
    if on is not None:
        mask = np.asarray(on(*mesh.nodes[nodes].T))
        if mask.dtype != bool or mask.shape != nodes.shape:
            raise ValueError(
                f"boundary predicate must return a bool mask of shape "
                f"{nodes.shape}, got {mask.dtype} of shape {mask.shape}")
        nodes = nodes[mask]
    picked = np.zeros(mesh.n_nodes, dtype=bool)
    picked[nodes] = True
    covered = picked[mesh.edges2nodes[mesh.boundary_edges]].all(axis=1)
    return nodes, mesh.boundary_edges[covered]


def build_dofmap(mesh: QuadMesh, p: int, components: int = 1,
                 dirichlet: DirichletSpec | None = None) -> DofMap:
    """Enumerate global DOFs and constraints for uniform degree p.

    ``elems2dofs`` and ``signs`` are built as three blocks of columns: the
    element's corner nodes; its edge modes, each addressed by local side
    and degree, with sign -1 for an odd degree on a side whose local
    direction runs against the global one; and its bubbles.  A vector
    problem repeats the blocks once per component.  ``signed_slots``
    lists the columns of the odd-degree edge modes.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if components not in (1, 2):
        raise ValueError(f"components must be 1 or 2, got {components}")

    nb = n_bubbles(p)
    n_nodes, n_edges, n_elems = mesh.n_nodes, mesh.n_edges, mesh.n_elems
    edge_base = n_nodes
    bubble_base = n_nodes + (p - 1) * n_edges
    n_p = bubble_base + n_elems * nb

    # shape_kinds(p) orders the local functions as the 4 corners, the edge
    # modes, then the nb bubbles: one block of columns each
    side, degree = np.array([(k.edge, k.degree) for k in shape_kinds(p)
                             if isinstance(k, EdgeMode)],
                            dtype=np.int64).reshape(-1, 2).T
    against = mesh.elems2nodes > np.roll(mesh.elems2nodes, -1, axis=1)
    flip = (degree % 2 == 1) & against[:, side]
    elems2dofs = np.hstack([
        mesh.elems2nodes,
        edge_base + mesh.elems2edges[:, side] * (p - 1) + (degree - 2),
        bubble_base + nb * np.arange(n_elems)[:, None] + np.arange(nb),
    ])
    signs = np.hstack([np.ones((n_elems, 4)), np.where(flip, -1.0, 1.0),
                       np.ones((n_elems, nb))])
    signed_slots = (4 + np.flatnonzero(degree % 2)
                    + elems2dofs.shape[1] * np.arange(components)[:, None]).ravel()
    elems2dofs = np.concatenate(
        [elems2dofs + c * n_p for c in range(components)], axis=1)
    signs = np.tile(signs, (1, components))

    n_dofs = n_p * components
    fixed_mask = np.zeros(n_dofs, dtype=bool)
    fixed_values_full = np.zeros(n_dofs)
    if dirichlet is not None:
        sel_nodes, sel_edges = _selected_boundary(mesh, dirichlet.on)
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
        mesh=mesh, p=p, components=components, n_p=n_p,
        elems2dofs=elems2dofs, signs=signs, signed_slots=signed_slots,
        free_dofs=free_dofs, fixed_dofs=fixed_dofs,
        fixed_values=fixed_values_full[fixed_dofs],
    )


def sparsity_pattern(dofmap: DofMap) -> sp.csr_matrix:
    """Free DOFs i, j are coupled iff they co-occur in some element.

    For vector problems all components of an element's DOFs co-occur, so
    the pattern is the scalar pattern tiled ``components`` x ``components``
    before the free-DOF restriction.  Returns the (n_free, n_free) bool
    CSR matrix of couplings, the square of the free columns of the
    element-DOF incidence, with sorted indices and no repeated entry.
    Its ``indices`` and ``indptr`` are read-only: every FD Hessian shares
    them, so an in-place structural change raises instead.
    """
    e2d = dofmap.elems2dofs
    inc = sp.csr_matrix(
        (np.ones(e2d.size, dtype=bool), e2d.ravel(),
         np.arange(0, e2d.size + 1, e2d.shape[1])),
        shape=(dofmap.mesh.n_elems, dofmap.n_dofs),
    )[:, dofmap.free_dofs]
    coupled = (inc.T @ inc).tocsr()
    coupled.sort_indices()
    coupled.indices.setflags(write=False)
    coupled.indptr.setflags(write=False)
    return coupled


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


def sample_field(dofmap: DofMap, v_full: np.ndarray, table: ShapeTable) -> np.ndarray:
    """Evaluate the expansion on every element at the points of ``table``.

    ``table`` is the degree-p shape table at the reference points.
    Returns (components, n_elems, n_points) values.
    """
    if table.p != dofmap.p:
        raise ValueError(f"shape table has degree {table.p}, expected {dofmap.p}")
    n_elems, m = dofmap.mesh.n_elems, table.values.shape[0]
    values = dofmap.gather(v_full).reshape(-1, m) @ table.values
    return values.reshape(n_elems, dofmap.components, -1).transpose(1, 0, 2)
