"""Reference implementations that only the tests read.

Each one is the plain form of a fast path in ``hpmin``: whole-energy
central differences, per-element physical shape derivatives, and the
full-to-free DOF index.
"""

import numpy as np

from hpmin.energy import BarrierError
from hpmin.fd import FD_STEP


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
