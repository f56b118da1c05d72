"""Discrete energy functionals and their explicit gradients.

A model is only its pointwise pair on the gradient array G = grad v at
the quadrature points, shape (components, 2, elems, n_ip): the density
W(G) and the stress P = dW/dG.  The shared base class does the rest once
for every model: gather signed local coefficients into G, integrate
w |J| W(G) per element, contract w |J| P(G) with the shape-function
derivatives, scatter into a global gradient, and subtract the linear load
term ``b . v`` assembled once up front.

A physical shape-function gradient is J^{-T} times the reference one, and
the reference derivatives are one table shared by all elements.  So the
gather is a batched matrix product of the local coefficients with that
table followed by J^{-T} at each point, and the gradient maps P back to
the reference directions with w |J| J^{-T} and contracts with one batched
product against the transposed table; no per-element derivative tensor
is formed.  Outside these kernels G is exposed only as
``NeoHookeModel.gradfield``, the named entries of F for det F checks.

* scalar power-law diffusion: (1/alpha) integral |grad v|^alpha - integral f v
* vector compressible Neo-Hookean elasticity with stored density
  W(F) = C1 (|F|^2 - 2 - 2 log det F) + D1 (det F - 1)^2, where v holds
  deformation coefficients and F is its gradient.  det F <= 0 anywhere
  turns the energy into +inf, so step rejection in the minimizer handles
  the orientation barrier automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dofmap import DofMap
from .mesh import GeometryFactors

__all__ = [
    "BarrierError",
    "DeformationField",
    "PLaplaceModel",
    "NeoHookeModel",
    "assemble_load",
    "identity_deformation",
]


class BarrierError(ArithmeticError):
    """Gradient requested at a configuration with non-positive det F."""


@dataclass(frozen=True)
class DeformationField:
    """Deformation-gradient components at all quadrature points, (T, n_ip)."""

    f11: np.ndarray
    f12: np.ndarray
    f21: np.ndarray
    f22: np.ndarray

    @property
    def det(self) -> np.ndarray:
        return self.f11 * self.f22 - self.f12 * self.f21


def assemble_load(geometry: GeometryFactors, dofmap: DofMap, f) -> np.ndarray:
    """Load vector of a constant source: b[i] = integral f phi_i.

    ``f`` is a scalar (1 component) or a length-2 sequence; both fixed and
    free entries are populated.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if f.shape != (dofmap.components,):
        raise ValueError(f"expected {dofmap.components} load components, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"load f must be finite, got {f.tolist()}")
    # integral of each local shape function over each element
    cell = np.einsum("tq,mq->tm", geometry.wdetj, geometry.table.values)
    return dofmap.scatter(np.repeat(f, cell.shape[1])
                          * np.tile(cell, dofmap.components))


def identity_deformation(dofmap: DofMap) -> np.ndarray:
    """Coefficients of the identity map: nodal DOFs = coordinates, rest 0."""
    if dofmap.components != 2:
        raise ValueError("identity deformation needs a 2-component DofMap")
    v = np.zeros(dofmap.n_dofs)
    # component c's nodal DOFs are ids c * n_p + node: row c of the view
    v.reshape(2, dofmap.n_p)[:, :dofmap.mesh.n_nodes] = dofmap.mesh.nodes.T
    return v


class _ModelBase:
    """Gather -> pointwise -> contract -> scatter over one geometry and DOF map.

    A subclass defines two pointwise functions of the gradient array G of
    shape (components, 2, elems, n_ip): ``density(G)``, the energy density
    W at every quadrature point, and ``stress(G)``, its derivative dW/dG
    with the shape of G.
    """

    def __init__(self, geometry: GeometryFactors, dofmap: DofMap, f):
        if geometry.n_elems != dofmap.mesh.n_elems:
            raise ValueError("geometry and dofmap belong to different meshes")
        self.geometry = geometry
        self.dofmap = dofmap
        self.b_full = assemble_load(geometry, dofmap, f)
        table = geometry.table
        self._ref = np.stack([table.dxi, table.deta])  # (2, m, n_ip)
        self._ref_t = np.ascontiguousarray(self._ref.transpose(0, 2, 1))  # (2, n_ip, m)
        self._w_jinv_t = geometry.wdetj * geometry.jinv_t  # (2, 2, T, n_ip)

    def _gather(self, v_loc: np.ndarray) -> np.ndarray:
        """Gradient array G of all elements, (components, 2, T, n_ip).

        The reference derivatives of all components come from one batched
        product with the shared table; J^{-T} then maps them to physical
        directions: G[c, a] = sum_b J^{-T}[a, b] R[c, b].
        """
        n_elems = v_loc.shape[0]
        v_c = v_loc.reshape(n_elems, self.dofmap.components, 1, -1)
        R = v_c.transpose(1, 2, 0, 3) @ self._ref  # (components, 2, T, n_ip)
        return np.einsum("abpq,cbpq->capq", self.geometry.jinv_t, R)

    def element_energies_local(self, v_loc: np.ndarray) -> np.ndarray:
        """Per-element density integrals for given local coefficients, (T,)."""
        dens = self.density(self._gather(v_loc))
        # w |J| > 0 on valid meshes, so a +inf density gives a +inf element
        return np.einsum("pq,pq->p", self.geometry.wdetj, dens)

    def element_energies(self, v_full: np.ndarray) -> np.ndarray:
        """Per-element density integrals (no load term), (T,)."""
        return self.element_energies_local(self.dofmap.gather(v_full))

    def energy(self, v_full: np.ndarray) -> float:
        dens = self.element_energies(v_full)
        if not np.all(np.isfinite(dens)):
            return np.inf
        return float(dens.sum() - self.b_full @ v_full)

    def gradient(self, v_full: np.ndarray) -> np.ndarray:
        G = self._gather(self.dofmap.gather(v_full))
        # w |J| P J^{-T}: the stress against the reference directions
        Q = np.einsum("catq,abtq->cbtq", self.stress(G), self._w_jinv_t)
        g_loc = (Q @ self._ref_t).sum(axis=1)  # (components, T, m)
        g_loc = g_loc.transpose(1, 0, 2).reshape(G.shape[2], -1)
        return self.dofmap.scatter(g_loc) - self.b_full


def _frobenius2(G: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of G at every quadrature point."""
    return sum(g * g for g in G.reshape(-1, *G.shape[2:]))


# signs that turn G[::-1, ::-1] into the cofactor matrix of a 2x2 G
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]]).reshape(2, 2, 1, 1)


def _det(G: np.ndarray) -> np.ndarray:
    """det F at every quadrature point of a 2-component G."""
    return G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]


class PLaplaceModel(_ModelBase):
    """Power-law diffusion energy (1/alpha) integral |grad v|^alpha - integral f v."""

    def __init__(self, geometry: GeometryFactors, dofmap: DofMap,
                 alpha: float, f: float):
        if not 1.0 < alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 1 for a unique "
                             f"minimizer, got {alpha}")
        if dofmap.components != 1:
            raise ValueError("scalar model needs a 1-component DofMap")
        super().__init__(geometry, dofmap, f)
        self.alpha = float(alpha)

    def density(self, G: np.ndarray) -> np.ndarray:
        """(1/alpha) |grad v|^alpha."""
        return _frobenius2(G) ** (self.alpha / 2.0) / self.alpha

    def stress(self, G: np.ndarray) -> np.ndarray:
        """|grad v|^(alpha-2) grad v."""
        norm2 = _frobenius2(G)
        # the analytic limit at grad v = 0 is 0 for every alpha > 1: the
        # base 1 put there multiplies G = 0, so no 0 ** negative is taken
        return np.where(norm2 > 0.0, norm2, 1.0) ** ((self.alpha - 2.0) / 2.0) * G


class NeoHookeModel(_ModelBase):
    """Compressible Neo-Hookean stored energy over deformation coefficients."""

    def __init__(self, geometry: GeometryFactors, dofmap: DofMap,
                 c1: float, d1: float, f):
        if not (0.0 < c1 < np.inf and 0.0 < d1 < np.inf):
            raise ValueError(f"material constants c1, d1 must be positive and "
                             f"finite, got {c1}, {d1}")
        if dofmap.components != 2:
            raise ValueError("elasticity model needs a 2-component DofMap")
        super().__init__(geometry, dofmap, f)
        self.c1 = float(c1)
        self.d1 = float(d1)

    @classmethod
    def from_young_poisson(cls, geometry, dofmap, young: float, poisson: float, f):
        """Standard identification C1 = mu/2, D1 = K/2 from (E, nu)."""
        if not 0.0 < young < np.inf:
            raise ValueError(f"Young's modulus E must be positive and finite, "
                             f"got {young}")
        if not -1.0 < poisson < 0.5:
            raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {poisson}")
        mu = young / (2.0 * (1.0 + poisson))
        bulk = young / (3.0 * (1.0 - 2.0 * poisson))
        return cls(geometry, dofmap, c1=mu / 2.0, d1=bulk / 2.0, f=f)

    def gradfield(self, v_full: np.ndarray) -> DeformationField:
        """Deformation gradient F at all quadrature points."""
        G = self._gather(self.dofmap.gather(v_full))
        return DeformationField(*G.reshape(4, *G.shape[2:]))

    def density(self, G: np.ndarray) -> np.ndarray:
        """Pointwise stored energy, +inf where the deformation inverts."""
        det = _det(G)
        dens = np.full(det.shape, np.inf)
        ok = det > 0.0
        det_ok = det[ok]
        dens[ok] = (self.c1 * (_frobenius2(G)[ok] - 2.0 - 2.0 * np.log(det_ok))
                    + self.d1 * (det_ok - 1.0) ** 2)
        return dens

    def stress(self, G: np.ndarray) -> np.ndarray:
        """First Piola stress P = 2 C1 (F - F^{-T}) + 2 D1 (det F - 1) det F F^{-T}."""
        det = _det(G)
        if det.min(initial=np.inf) <= 0.0:
            raise BarrierError("gradient requested at an inverted configuration")
        coef = (2.0 * self.d1 * (det - 1.0) * det - 2.0 * self.c1) / det
        # det F F^{-T} is the cofactor matrix [[f22, -f21], [-f12, f11]]
        return 2.0 * self.c1 * G + coef * (G[::-1, ::-1] * _COFACTOR_SIGNS)
