"""The finite-difference step rules and the sparse Hessian layouts:
element slots or a distance-2 coloring.

The energy is a sum of element energies, so its Hessian is a sum of
element blocks (a partially separable function, Griewank & Toint 1982).
A model takes them at every quadrature point, on the gradient array G:
central differences of its stress, with the entries of G moved by their
steps from :func:`difference_steps`, or second differences of its
density, with the steps from :func:`hessian_steps`.  One ``bincount``
scatters the blocks into the pattern through a position map built once
(``SlotPattern``).  A problem without element kernels takes one forward
gradient difference per color group instead; group members share no
structurally-coupled row, so every pattern column can be read off
directly (Coleman & More 1983).  The groups come from a plain greedy
coloring in natural order: the model problems never take this path,
which serves generic problems and is the reference the element slots are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FD_STEP",
    "HESSIAN_STEP",
    "ColoredPattern",
    "SlotPattern",
    "difference_steps",
    "greedy_coloring",
    "hessian_fd",
    "hessian_steps",
    "slot_pattern",
]

# Relative difference step: coordinate i moves by FD_STEP * max(1, |v_i|).
FD_STEP = 1e-6

# Relative step of the pointwise second differences of a density: entry i
# of G moves by HESSIAN_STEP * max(1, |G_i|).  A central second difference
# has truncation error O(h^2) and round-off O(eps / h^2), balanced near
# eps^(1/4), about 1.2e-4.
HESSIAN_STEP = 1e-4


def difference_steps(values: np.ndarray) -> np.ndarray:
    """Per-coordinate step FD_STEP * max(1, |v_i|)."""
    return FD_STEP * np.maximum(1.0, np.abs(values))


def hessian_steps(values: np.ndarray) -> np.ndarray:
    """Per-entry step HESSIAN_STEP * max(1, |G_i|)."""
    return HESSIAN_STEP * np.maximum(1.0, np.abs(values))


@dataclass(frozen=True)
class ColoredPattern:
    """Distance-2 coloring of a sparsity pattern.

    DOFs in one group share no structurally-nonzero row, so a single
    gradient difference recovers all of their Hessian columns.
    ``groups[i]`` is the group of DOF i, one of ``n_groups``, and
    ``transpose`` holds, for the pattern's stored entries in CSR order,
    the position of each entry's mirror (col, row).
    """

    pattern: sp.csr_matrix
    groups: np.ndarray
    n_groups: int
    transpose: np.ndarray


def greedy_coloring(pattern: sp.csr_matrix) -> ColoredPattern:
    """Sequential greedy distance-2 coloring in natural order.

    ``pattern`` is a square CSR matrix with sorted indices and no repeated
    entry; every stored entry is a coupling, whatever its value.  It must
    be symmetric, as a Hessian pattern is.  Two DOFs conflict when they
    are within two hops, i.e. share a row of the pattern: a stored entry of
    its boolean square.  DOFs are visited in increasing id, and each takes
    the smallest color not yet used among its conflicts.
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
    for i in range(n):
        used = set(groups[two_hop[starts[i]:starts[i + 1]]].tolist())
        color = 0
        while color in used:
            color += 1
        groups[i] = color
    return ColoredPattern(pattern, groups, int(groups.max(initial=-1)) + 1,
                          mirror.data)


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
    a pair of free DOFs outside the pattern raises.  Fixed slots read an
    empty row and column appended to the pattern, so a pattern with no
    row at all maps every term to the dropped bin.
    """
    n, nnz = pattern.shape[0], pattern.nnz
    fixed = element_dofs < 0
    dofs = np.where(fixed, n, element_dofs)
    # 1-based entry numbers, so that a pair outside the pattern reads 0,
    # and an empty row and column n for the fixed slots
    entry = sp.csr_matrix((np.arange(1, nnz + 1), pattern.indices,
                           np.append(pattern.indptr, pattern.indptr[-1])),
                          shape=(n + 1, n + 1))
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


def hessian_fd(grad, v: np.ndarray, layout: ColoredPattern | SlotPattern,
               g0: np.ndarray | None) -> sp.csr_matrix:
    """Sparse symmetric Hessian estimate from forward differences.

    With a ``ColoredPattern``, for each color group g one evaluates
    grad(v + steps on the group), with step FD_STEP * max(1, |v_i|) on
    coordinate i, on a new probe vector; each pattern entry (i, j) then
    reads entry i of the difference of j's group, over j's step, so
    entries outside the pattern are discarded.
    ``grad`` acts on vectors of the same layout as ``v``, and ``g0`` is
    grad(v), which the caller already holds, so the estimate costs exactly
    one gradient call per color group.  Row i of a probe's difference sees
    at most one member of the group, the one coupled to i, so every entry,
    and the whole H, has the same bits under any valid distance-2 coloring.

    With a ``SlotPattern``, ``grad(v)`` gives the (slots, T, slots) element
    blocks instead, a model's ``element_hessians`` or
    ``element_hessians_fd`` over all DOFs, fixed ones included, and ``g0``
    is not read.  One ``bincount`` adds them into the pattern's data;
    terms of fixed DOFs go to a bin past the end, which is dropped.

    Either way the result is symmetrized, (H + H^T) / 2, directly in the
    pattern's CSR layout, so H equals H^T bit for bit, and shares the
    pattern's ``indices`` and ``indptr`` arrays.
    """
    v = np.asarray(v, dtype=float)
    pattern = layout.pattern
    if v.size != pattern.shape[0]:
        raise ValueError(f"expected vector of length {pattern.shape[0]}, got {v.size}")
    if isinstance(layout, SlotPattern):
        data = np.bincount(layout.positions, weights=grad(v).ravel(),
                           minlength=pattern.nnz + 1)[:pattern.nnz]
    else:
        steps, groups = difference_steps(v), layout.groups
        diffs = np.empty((layout.n_groups, v.size))
        for g in range(layout.n_groups):
            diffs[g] = grad(np.where(groups == g, v + steps, v)) - g0
        rows = np.repeat(np.arange(v.size), np.diff(pattern.indptr))
        cols = pattern.indices
        data = diffs[groups[cols], rows] / steps[cols]
    return sp.csr_matrix(((data + data[layout.transpose]) * 0.5,
                          pattern.indices, pattern.indptr), shape=pattern.shape)
