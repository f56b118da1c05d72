"""Derivative-free machinery: central-difference gradients and sparse
finite-difference Hessians driven by a distance-2 coloring of the pattern.

The gradient path exploits element locality: perturbing one DOF changes
the energy density only on the elements containing it, in one local slot
of each.  So the central differences probe one local slot at a time, all
elements at once, and no probe of the full energy is made here: the
model's ``slot_differences`` gives the per-element differences, and it
recomputes only the elements whose local coefficients or steps moved
since its last call that covered most of them.  A Hessian probe moves
one color group, which touches about a third of the elements.  The Hessian
needs one forward gradient difference per color group; group members
share no structurally-coupled row, so every pattern column can be read
off directly.  The groups come from a greedy coloring in smallest-last
order, which needs fewer of them than the natural order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FD_STEP",
    "ColoredPattern",
    "gradient_central_local",
    "greedy_coloring",
    "hessian_fd",
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


def hessian_fd(grad, v: np.ndarray, colored: ColoredPattern,
               g0: np.ndarray) -> sp.csr_matrix:
    """Sparse symmetric Hessian estimate from grouped forward differences.

    For each color group one evaluates grad(v + steps on the group), with
    step FD_STEP * max(1, |v_i|) on coordinate i, in one probe vector that
    is restored after each call; each pattern entry then reads its group's
    difference, so entries outside the pattern are discarded.  The result
    is symmetrized, (H + H^T) / 2, directly in the pattern's CSR layout and
    shares the pattern's ``indices`` and ``indptr`` arrays.
    ``grad`` acts on vectors of the same layout as ``v``, and ``g0`` is
    grad(v), which the caller already holds, so the estimate costs exactly
    one gradient call per color group.

    Row i of a probe's difference sees at most one member of the group,
    the one coupled to i, so every entry, and the whole H, has the same
    bits under any valid distance-2 coloring.
    """
    v = np.asarray(v, dtype=float)
    pattern = colored.pattern
    if v.size != pattern.shape[0]:
        raise ValueError(f"expected vector of length {pattern.shape[0]}, got {v.size}")
    steps = _steps(v)
    diffs = np.empty((colored.n_groups, v.size))
    probe = v.copy()
    for group, members in enumerate(colored.members):
        probe[members] = v[members] + steps[members]
        diffs[group] = grad(probe) - g0
        probe[members] = v[members]
    data = diffs.take(colored.source) / steps.take(colored.cols)
    return sp.csr_matrix(((data + data[colored.transpose]) * 0.5,
                          pattern.indices, pattern.indptr), shape=pattern.shape)
