"""Derivative-free machinery: central-difference gradients and sparse
finite-difference Hessians driven by a distance-2 coloring of the pattern.

The gradient path exploits element locality: perturbing one DOF changes
the energy density only on the elements containing it, so each central
difference re-evaluates a handful of element densities instead of the
whole functional; no probe of the full energy is made here.  The Hessian
needs one forward gradient difference per color group; group members
share no structurally-coupled row, so every pattern column can be read
off directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dofmap import SparsityPattern, local_layout
from .energy import BarrierError

__all__ = [
    "FD_STEP",
    "ColoredPattern",
    "gradient_central_local",
    "greedy_coloring",
    "hessian_fd",
]

# Relative difference step: coordinate i moves by FD_STEP * max(1, |v_i|).
FD_STEP = 1e-6

# (element, slot) pairs per batch of probes: a batch's temporaries, a few
# (pairs, n_ip) arrays, stay at a few hundred kB, which malloc reuses from
# batch to batch.  Arrays of several MB go back to the OS after each call
# and cost thousands of page faults when they are allocated again.
_PAIR_CHUNK = 1024


def _steps(values: np.ndarray, h: float) -> np.ndarray:
    """Per-coordinate step h * max(1, |v_i|)."""
    return h * np.maximum(1.0, np.abs(values))


def gradient_central_local(model, v_full: np.ndarray, h: float = FD_STEP,
                           dofs=None) -> np.ndarray:
    """Central differences re-evaluating only the touched elements.

    ``model`` provides ``local_coeffs``, ``element_energies_local``,
    ``b_full`` and ``dofmap``; the result equals central differences of
    the full energy up to summation order.  ``dofs`` must not repeat an id.
    """
    v_full = np.asarray(v_full, dtype=float)
    dm = model.dofmap
    dofs = np.arange(dm.n_dofs) if dofs is None else np.asarray(dofs)

    # one (element, local slot) pair per occurrence of each requested dof,
    # in increasing flat index, so each dof's differences add up in that order
    cols, signs = local_layout(dm)
    position = np.full(dm.n_dofs, -1)
    position[dofs] = np.arange(dofs.size)
    if np.count_nonzero(position >= 0) != dofs.size:
        raise ValueError("dofs contains repeated ids")
    owner = position[cols]
    pair_elem, pair_slot = np.nonzero(owner >= 0)
    owner = owner[pair_elem, pair_slot]
    pair_sign = signs[pair_elem, pair_slot]

    base = model.local_coeffs(v_full)
    steps = _steps(v_full[dofs], h)
    diff = np.zeros(dofs.size)
    for lo in range(0, owner.size, _PAIR_CHUNK):
        sl = slice(lo, min(lo + _PAIR_CHUNK, owner.size))
        elems, slots = pair_elem[sl], pair_slot[sl]
        delta = pair_sign[sl] * steps[owner[sl]]
        probe = base[elems]
        rows = np.arange(elems.size)
        center = probe[rows, slots].copy()
        probe[rows, slots] = center + delta
        e_up = model.element_energies_local(elems, probe)
        probe[rows, slots] = center - delta
        e_dn = model.element_energies_local(elems, probe)
        if not (np.all(np.isfinite(e_up)) and np.all(np.isfinite(e_dn))):
            raise BarrierError("energy not finite at a finite-difference probe")
        np.add.at(diff, owner[sl], e_up - e_dn)
    return diff / (2.0 * steps) - model.b_full[dofs]


@dataclass(frozen=True)
class ColoredPattern:
    """Distance-2 coloring of a sparsity pattern, with its CSR layout.

    DOFs in one group share no structurally-nonzero row, so a single
    gradient difference recovers all of their Hessian columns.  The
    pattern's (row, col) order is CSR order: ``indptr`` completes its
    column indices to a CSR structure, and ``transpose`` maps each entry
    to the position of its mirror entry (col, row).
    """

    pattern: SparsityPattern
    groups: np.ndarray
    n_groups: int
    indptr: np.ndarray
    transpose: np.ndarray


def greedy_coloring(pattern: SparsityPattern) -> ColoredPattern:
    """Sequential greedy distance-2 coloring in natural DOF order.

    Each DOF takes the smallest color not yet used within two hops of it,
    read off its row of the boolean square of the pattern.  The pattern
    must be symmetric, as a Hessian pattern is.
    """
    adj = pattern.to_csr()
    if adj.nnz != pattern.nnz:
        raise ValueError("pattern repeats an entry")
    transpose = np.lexsort((pattern.rows, pattern.cols))
    if not (np.array_equal(pattern.rows[transpose], pattern.cols)
            and np.array_equal(pattern.cols[transpose], pattern.rows)):
        raise ValueError("pattern is not symmetric or not sorted by (row, col)")
    reach = adj.astype(bool)
    reach = reach @ reach
    starts, two_hop = reach.indptr, reach.indices
    groups = -np.ones(pattern.n, dtype=np.int64)
    for i in range(pattern.n):
        used = set(groups[two_hop[starts[i]:starts[i + 1]]].tolist())
        color = 0
        while color in used:
            color += 1
        groups[i] = color
    return ColoredPattern(pattern=pattern, groups=groups,
                          n_groups=int(groups.max(initial=-1)) + 1,
                          indptr=adj.indptr, transpose=transpose)


def hessian_fd(grad, v: np.ndarray, colored: ColoredPattern,
               g0: np.ndarray | None = None) -> sp.csr_matrix:
    """Sparse symmetric Hessian estimate from grouped forward differences.

    For each color group one evaluates grad(v + steps on the group), with
    step FD_STEP * max(1, |v_i|) on coordinate i, and scatters the
    difference into the pattern columns of that group; entries outside the
    pattern are discarded and the result is symmetrized, (H + H^T) / 2,
    directly in the pattern's CSR layout.
    ``grad`` acts on vectors of the same layout as ``v``.
    """
    v = np.asarray(v, dtype=float)
    pattern = colored.pattern
    if v.size != pattern.n:
        raise ValueError(f"expected vector of length {pattern.n}, got {v.size}")
    if g0 is None:
        g0 = grad(v)
    steps = _steps(v, FD_STEP)
    diffs = np.empty((colored.n_groups, pattern.n))
    for group in range(colored.n_groups):
        members = colored.groups == group
        probe = v.copy()
        probe[members] += steps[members]
        diffs[group] = grad(probe) - g0
    data = (diffs[colored.groups[pattern.cols], pattern.rows]
            / steps[pattern.cols])
    return sp.csr_matrix(((data + data[colored.transpose]) * 0.5,
                          pattern.cols, colored.indptr),
                         shape=(pattern.n, pattern.n))
