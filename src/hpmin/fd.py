"""Derivative-free machinery: central-difference gradients and sparse
finite-difference Hessians, from element slots or a distance-2 coloring.

The gradient path exploits element locality: perturbing one DOF changes
the energy density only on the elements containing it, in one local slot
of each.  So the central differences probe one local slot at a time, all
elements at once, and no probe of the full energy is made here: the
model's ``slot_differences`` gives the per-element differences.

The energy is a sum of element energies, so its Hessian is a sum of
element blocks (a partially separable function, Griewank & Toint 1982).
The model differences its element residuals (explicit gradient) or its
per-element central differences (central-difference gradient) once per
local slot, with that slot of every element moved at once, and one
``bincount`` scatters the blocks into the pattern through a position map
built once (``SlotPattern``).  A problem without element kernels takes
one forward gradient difference per color group instead; group members
share no structurally-coupled row, so every pattern column can be read
off directly (Coleman & More 1983).  The groups come from a greedy
coloring in smallest-last order, which needs fewer of them than the
natural order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FD_STEP",
    "ColoredPattern",
    "SlotPattern",
    "gradient_central_local",
    "greedy_coloring",
    "hessian_blocks",
    "hessian_fd",
    "slot_pattern",
]

# Relative difference step: coordinate i moves by FD_STEP * max(1, |v_i|).
FD_STEP = 1e-6


def _steps(values: np.ndarray) -> np.ndarray:
    """Per-coordinate step FD_STEP * max(1, |v_i|)."""
    return FD_STEP * np.maximum(1.0, np.abs(values))


def gradient_central_local(model, v_full: np.ndarray) -> np.ndarray:
    """Central differences one local slot at a time, one entry per DOF.

    A probe of DOF i changes only the elements holding it, and each element
    holds it in one local slot.  So for each slot s all elements are probed
    together: slot s of every element moves by its DOF's step
    ``FD_STEP * max(1, |v_i|)``, up and down, and element e's energy
    difference is credited to ``elems2dofs[e, s]`` alone.  One ``bincount``
    adds the differences up slot by slot, so each DOF's bin gets the same
    terms in the same order whatever else is probed, and fixed DOFs are
    probed like free ones.  ``model`` provides ``dofmap``, ``b_full`` and
    ``slot_differences(v_full, steps)``, the (elements, slots) array of
    e_up - e_dn; the result has the layout of ``model.gradient`` and equals
    central differences of the full energy up to summation order.
    """
    v_full = np.asarray(v_full, dtype=float)
    dm = model.dofmap
    steps = _steps(v_full)
    rows = model.slot_differences(v_full, steps)
    diff = np.bincount(dm.elems2dofs.T.ravel(), weights=rows.T.ravel(),
                       minlength=dm.n_dofs)
    return diff / (2.0 * steps) - model.b_full


@dataclass(frozen=True)
class ColoredPattern:
    """Distance-2 coloring of a sparsity pattern, with its probe bookkeeping.

    DOFs in one group share no structurally-nonzero row, so a single
    gradient difference recovers all of their Hessian columns.
    ``members[g]`` lists the DOFs of group g in increasing order.  For the
    pattern's stored entries (row, col) in CSR order, ``cols`` holds col,
    ``source`` the flat index ``groups[col] * n + row`` of the entry's
    estimate in the (n_groups, n) array of gradient differences, and
    ``transpose`` the position of the mirror entry (col, row).
    """

    pattern: sp.csr_matrix
    groups: np.ndarray
    n_groups: int
    members: tuple[np.ndarray, ...]
    source: np.ndarray
    cols: np.ndarray
    transpose: np.ndarray


def _colored(pattern: sp.csr_matrix, groups: np.ndarray,
             transpose: np.ndarray) -> ColoredPattern:
    """The ``ColoredPattern`` of a valid distance-2 coloring ``groups``."""
    n = pattern.shape[0]
    n_groups = int(groups.max(initial=-1)) + 1
    by_group = np.argsort(groups, kind="stable")
    bounds = np.cumsum(np.bincount(groups, minlength=n_groups))[:-1]
    # int64 ids: int32 ones slow down every gather of the Hessian assembly
    cols = pattern.indices.astype(np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
    return ColoredPattern(
        pattern=pattern, groups=groups, n_groups=n_groups,
        members=tuple(np.split(by_group, bounds)),
        source=groups[cols] * n + rows, cols=cols, transpose=transpose)


def _smallest_last_order(reach: sp.csr_matrix) -> np.ndarray:
    """Vertices of the symmetric graph ``reach`` in smallest-last order.

    A vertex's degree is its count of stored entries among the vertices
    left.  Each round peels every vertex of least degree and takes its
    entries out of the degrees of its neighbours, with one row gather and
    one ``bincount``.  The order is the reverse of the peel:
    the last round first, each round in increasing vertex id.
    """
    n = reach.shape[0]
    starts, nbrs = reach.indptr, reach.indices
    degree = np.diff(starts).astype(np.int64)
    order = np.empty(n, dtype=np.int64)
    left = np.arange(n)
    end = n
    while left.size:
        left_degree = degree[left]
        least = left_degree == left_degree.min()
        peel, left = left[least], left[~least]
        order[end - peel.size:end] = peel
        end -= peel.size
        lengths = starts[peel + 1] - starts[peel]
        # positions in nbrs of the peeled rows, concatenated
        shift = np.repeat(starts[peel] - np.cumsum(lengths) + lengths, lengths)
        degree -= np.bincount(nbrs[shift + np.arange(shift.size)], minlength=n)
    return order


def greedy_coloring(pattern: sp.csr_matrix) -> ColoredPattern:
    """Sequential greedy distance-2 coloring in smallest-last order.

    ``pattern`` is a square CSR matrix with sorted indices and no repeated
    entry; every stored entry is a coupling, whatever its value.  It must
    be symmetric, as a Hessian pattern is.  Two DOFs conflict when they
    are within two hops, i.e. share a row of the pattern: a stored entry of
    its boolean square.  DOFs are visited in smallest-last order on that
    square (Coleman & More 1983), and each takes the smallest color not
    yet used among its conflicts.
    """
    if not (sp.issparse(pattern) and pattern.format == "csr"
            and pattern.shape[0] == pattern.shape[1]
            and pattern.has_canonical_format):
        raise ValueError("pattern must be a square CSR matrix with sorted "
                         "indices and no repeated entry")
    n = pattern.shape[0]
    # 1-based entry numbers: every stored entry is nonzero, and the mirror
    # of entry k carries k + 1 to the position of (col, row)
    entry = sp.csr_matrix((np.arange(1, pattern.nnz + 1), pattern.indices,
                           pattern.indptr), shape=pattern.shape)
    mirror = entry.T.tocsr()
    if not (np.array_equal(mirror.indptr, pattern.indptr)
            and np.array_equal(mirror.indices, pattern.indices)):
        raise ValueError("pattern is not symmetric")
    mirror.data -= 1  # the position of each entry's mirror
    reach = entry.astype(bool)
    reach = reach @ reach
    starts, two_hop = reach.indptr, reach.indices
    groups = -np.ones(n, dtype=np.int64)
    for i in _smallest_last_order(reach).tolist():
        used = set(groups[two_hop[starts[i]:starts[i + 1]]].tolist())
        color = 0
        while color in used:
            color += 1
        groups[i] = color
    return _colored(pattern, groups, mirror.data)


@dataclass(frozen=True)
class SlotPattern:
    """Where the element-slot Hessian terms land in the data of a pattern.

    Term [b, e, a] of the (slots, T, slots) blocks that ``hessian_fd``
    scatters couples the DOFs of slots a (row) and b (column) of element e.
    ``positions`` holds, flat in that order, the index of the term's entry
    in the pattern's CSR data, or ``nnz`` when either DOF is fixed, and
    ``transpose`` the position of each entry's mirror, as in
    ``ColoredPattern``.
    """

    pattern: sp.csr_matrix
    positions: np.ndarray
    transpose: np.ndarray


def slot_pattern(pattern: sp.csr_matrix, element_dofs: np.ndarray) -> SlotPattern:
    """The ``SlotPattern`` of a pattern that holds every pair of DOFs
    sharing an element.

    ``element_dofs`` (T, slots) gives the pattern row of the DOF in every
    element slot, -1 where it is fixed.  Slot by slot, one sparse lookup
    reads the entry numbers of the pairs (slot a, slot b) of all elements;
    a pair of free DOFs outside the pattern raises.
    """
    nnz = pattern.nnz
    fixed = element_dofs < 0
    dofs = np.maximum(element_dofs, 0)
    # 1-based entry numbers, so that a pair outside the pattern reads 0
    entry = sp.csr_matrix((np.arange(1, nnz + 1), pattern.indices,
                           pattern.indptr), shape=pattern.shape)
    positions = np.empty((dofs.shape[1], *dofs.shape), dtype=np.int64)
    for slot, cols in enumerate(dofs.T):
        found = entry[dofs.ravel(), np.repeat(cols, dofs.shape[1])]
        positions[slot] = np.asarray(found).reshape(dofs.shape) - 1
    dropped = fixed[None, :, :] | fixed.T[:, :, None]
    if np.any((positions < 0) & ~dropped):
        raise ValueError("pattern does not hold every pair of DOFs that "
                         "share an element")
    positions[dropped] = nnz
    # term [a, e, b] mirrors term [b, e, a]; dropped terms write the last
    # bin, and an entry no term reaches stays its own mirror
    transpose = np.arange(nnz + 1)
    transpose[positions] = positions.transpose(2, 1, 0)
    return SlotPattern(pattern, positions.ravel(), transpose[:nnz])


def hessian_blocks(element_hessians, v_full: np.ndarray) -> np.ndarray:
    """``element_hessians(v_full, steps)``, a model's ``element_hessians``
    or ``element_hessians_fd``, at the steps of ``hessian_fd``,
    FD_STEP * max(1, |v_i|), with fixed DOFs stepped like free ones."""
    v_full = np.asarray(v_full, dtype=float)
    return element_hessians(v_full, _steps(v_full))


def hessian_fd(grad, v: np.ndarray, layout: ColoredPattern | SlotPattern,
               g0: np.ndarray | None) -> sp.csr_matrix:
    """Sparse symmetric Hessian estimate from forward differences.

    With a ``ColoredPattern``, for each color group one evaluates
    grad(v + steps on the group), with step FD_STEP * max(1, |v_i|) on
    coordinate i, in one probe vector that is restored after each call;
    each pattern entry then reads its group's difference, so entries
    outside the pattern are discarded.  ``grad`` acts on vectors of the
    same layout as ``v``, and ``g0`` is grad(v), which the caller already
    holds, so the estimate costs exactly one gradient call per color
    group.  Row i of a probe's difference sees at most one member of the
    group, the one coupled to i, so every entry, and the whole H, has the
    same bits under any valid distance-2 coloring.

    With a ``SlotPattern``, ``grad(v)`` gives the (slots, T, slots) element
    blocks of ``hessian_blocks`` instead, and ``g0`` is not read.  One
    ``bincount`` adds them into the pattern's data; terms of fixed DOFs go
    to a bin past the end, which is dropped.

    Either way the result is symmetrized, (H + H^T) / 2, directly in the
    pattern's CSR layout and shares the pattern's ``indices`` and
    ``indptr`` arrays.
    """
    v = np.asarray(v, dtype=float)
    pattern = layout.pattern
    if v.size != pattern.shape[0]:
        raise ValueError(f"expected vector of length {pattern.shape[0]}, got {v.size}")
    if isinstance(layout, SlotPattern):
        data = np.bincount(layout.positions, weights=grad(v).ravel(),
                           minlength=pattern.nnz + 1)[:pattern.nnz]
    else:
        steps = _steps(v)
        diffs = np.empty((layout.n_groups, v.size))
        probe = v.copy()
        for group, members in enumerate(layout.members):
            probe[members] = v[members] + steps[members]
            diffs[group] = grad(probe) - g0
            probe[members] = v[members]
        data = diffs.take(layout.source) / steps.take(layout.cols)
    return sp.csr_matrix(((data + data[layout.transpose]) * 0.5,
                          pattern.indices, pattern.indptr), shape=pattern.shape)
