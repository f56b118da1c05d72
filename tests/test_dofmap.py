"""DOF bookkeeping: counts, signs, continuity, Dirichlet sets, sparsity."""

import numpy as np
import pytest

from hpmin.basis import n_basis_functions
from hpmin.dofmap import (
    DirichletSpec,
    build_dofmap,
    expand_solution,
    sample_field,
    sparsity_pattern,
)
from hpmin.mesh import make_lshape, make_perforated_square, make_rect
from oracles import free_index

RNG = np.random.default_rng(20240512)

_CORNERS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def _kind(dm, dof):
    """Kind of a global DOF, read off the blocked numbering."""
    base = dof % dm.n_p
    if base < dm.edge_base:
        return "node"
    return "edge" if base < dm.bubble_base else "bubble"


def test_lshape_p2_global_count():
    dm = build_dofmap(make_lshape(0), p=2)
    assert dm.n_p == 53
    kinds = [_kind(dm, d) for d in range(dm.n_p)]
    assert kinds.count("node") == 21
    assert kinds.count("edge") == 32
    assert kinds.count("bubble") == 0


def test_lshape_level1_free_count():
    dm = build_dofmap(make_lshape(1), p=2, dirichlet=DirichletSpec(("boundary",), 0.0))
    # cross-check: (65 - 32 boundary nodes) + (112 - 32 boundary edges)
    assert dm.n_free == 113


def test_p1_reduces_to_nodal_incidence():
    mesh = make_perforated_square(0)
    dm = build_dofmap(mesh, p=1)
    np.testing.assert_array_equal(dm.elems2dofs, mesh.elems2nodes)
    assert np.all(dm.signs == 1.0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_count_formula_matches_enumeration(p):
    for mesh in (make_lshape(0), make_rect(3, 2), make_perforated_square(0)):
        dm = build_dofmap(mesh, p=p)
        bubbles = max(0, (p - 2) * (p - 3) // 2) if p >= 4 else 0
        assert dm.n_p == mesh.n_nodes + (p - 1) * mesh.n_edges + mesh.n_elems * bubbles
        seen = np.unique(dm.elems2dofs)
        np.testing.assert_array_equal(seen, np.arange(dm.n_p))
        assert dm.elems2dofs.shape[1] == n_basis_functions(p)


def _trace_on_edge(dm, v_full, t, s, lam):
    """Field values in element t on its local edge s, at global fractions lam."""
    mesh = dm.mesh
    a = mesh.edges2nodes[mesh.elems2edges[t, s], 0]
    tau = 2.0 * lam - 1.0 if mesh.elems2nodes[t, s] == a else 1.0 - 2.0 * lam
    ref = (np.outer((1.0 - tau) / 2.0, _CORNERS[s])
           + np.outer((1.0 + tau) / 2.0, _CORNERS[(s + 1) % 4]))
    return sample_field(dm, v_full, ref)[t]


def _interior_edge_pairs(mesh):
    boundary = set(mesh.boundary_edges.tolist())
    where = {}
    for t in range(mesh.n_elems):
        for s in range(4):
            e = mesh.elems2edges[t, s]
            if e not in boundary:
                where.setdefault(e, []).append((t, s))
    return where


@pytest.mark.parametrize("p", [2, 3, 4])
def test_interelement_continuity(p):
    for mesh in (make_lshape(0), make_perforated_square(0)):
        dm = build_dofmap(mesh, p=p)
        v = RNG.standard_normal(dm.n_dofs)
        lam = np.linspace(0.06, 0.94, 10)
        for e, sides in _interior_edge_pairs(mesh).items():
            (ta, sa), (tb, sb) = sides
            va = _trace_on_edge(dm, v, ta, sa, lam)
            vb = _trace_on_edge(dm, v, tb, sb, lam)
            np.testing.assert_allclose(va, vb, atol=1e-10)


def test_single_odd_edge_mode_is_globally_consistent():
    # activate one degree-3 edge DOF on an interior edge and compare sides
    mesh = make_lshape(0)
    dm = build_dofmap(mesh, p=3)
    pairs = _interior_edge_pairs(mesh)
    e = next(iter(pairs))
    dof = dm.edge_base + e * (dm.p - 1) + (3 - 2)  # degree-3 mode of edge e
    v = np.zeros(dm.n_dofs)
    v[dof] = 1.0
    lam = np.linspace(0.1, 0.9, 10)
    (ta, sa), (tb, sb) = pairs[e]
    va = _trace_on_edge(dm, v, ta, sa, lam)
    vb = _trace_on_edge(dm, v, tb, sb, lam)
    assert np.max(np.abs(va)) > 0.05  # mode actually nonzero on the edge
    np.testing.assert_allclose(va, vb, atol=1e-12)


def test_dirichlet_fixes_nodes_and_edges_not_bubbles():
    dm = build_dofmap(make_lshape(0), p=4, dirichlet=DirichletSpec(("boundary",), 0.0))
    fixed_kinds = {_kind(dm, d) for d in dm.fixed_dofs}
    assert fixed_kinds == {"node", "edge"}
    # 16 boundary nodes + 16 boundary edges * 3 modes each
    assert dm.fixed_dofs.size == 16 + 16 * 3


def test_dirichlet_tag_subsets():
    mesh = make_perforated_square(0)
    dm = build_dofmap(mesh, p=2, components=2,
                      dirichlet=DirichletSpec(("left", "bottom"), lambda x, y: (x, y)))
    fixed_nodes = [d % dm.n_p for d in dm.fixed_dofs if _kind(dm, d) == "node"]
    coords = mesh.nodes[np.unique(fixed_nodes)]
    assert np.all((np.abs(coords[:, 0]) < 1e-12) | (np.abs(coords[:, 1]) < 1e-12))
    # nodal values must interpolate g = identity in each component
    for d, val in zip(dm.fixed_dofs, dm.fixed_values):
        comp, base = divmod(d, dm.n_p)
        if _kind(dm, d) == "node":
            assert val == pytest.approx(mesh.nodes[base, comp], abs=1e-14)
        else:
            assert val == 0.0


def test_dirichlet_scalar_callable():
    mesh = make_lshape(0)
    dm = build_dofmap(mesh, p=2, dirichlet=DirichletSpec(("boundary",),
                                                         lambda x, y: x + 2 * y))
    nodal = dm.fixed_dofs < dm.edge_base
    x, y = mesh.nodes[dm.fixed_dofs[nodal]].T
    np.testing.assert_array_equal(dm.fixed_values[nodal], x + 2 * y)
    assert np.all(dm.fixed_values[~nodal] == 0.0)


def test_unknown_tag_raises():
    with pytest.raises(ValueError, match="unknown boundary tag"):
        build_dofmap(make_lshape(0), p=2, dirichlet=DirichletSpec(("lid",), 0.0))


def test_expand_solution_roundtrip():
    dm = build_dofmap(make_lshape(0), p=1, dirichlet=DirichletSpec(("boundary",), 1.0))
    full = expand_solution(dm, np.zeros(dm.n_free))
    assert dm.n_free == 5  # interior nodes of the level-0 L-shape
    assert full.sum() == pytest.approx(16.0)  # 16 boundary nodes carry g = 1
    dm_nobc = build_dofmap(make_lshape(0), p=1)
    v = RNG.standard_normal(dm_nobc.n_dofs)
    np.testing.assert_array_equal(expand_solution(dm_nobc, v), v)
    with pytest.raises(ValueError):
        expand_solution(dm, np.zeros(dm.n_free + 1))


def test_sparsity_single_element_dense():
    pat = sparsity_pattern(build_dofmap(make_rect(1, 1), p=1))
    assert pat.n == 4
    assert pat.nnz == 16


def test_sparsity_symmetric_with_diagonal():
    dm = build_dofmap(make_lshape(0), p=2, dirichlet=DirichletSpec(("boundary",), 0.0))
    pat = sparsity_pattern(dm)
    entries = set(zip(pat.rows.tolist(), pat.cols.tolist()))
    assert all((j, i) in entries for i, j in entries)
    assert all((i, i) in entries for i in range(pat.n))


def test_sparsity_nodal_block_nesting():
    # restricting the p=2 pattern to nodal rows/columns gives the p=1 pattern
    mesh = make_lshape(0)
    pat1 = sparsity_pattern(build_dofmap(mesh, p=1))
    pat2 = sparsity_pattern(build_dofmap(mesh, p=2))
    nodal = mesh.n_nodes
    mask = (pat2.rows < nodal) & (pat2.cols < nodal)
    block = set(zip(pat2.rows[mask].tolist(), pat2.cols[mask].tolist()))
    full = set(zip(pat1.rows.tolist(), pat1.cols.tolist()))
    assert block == full


def _cooccurrence(dm):
    """Brute-force pattern: free DOF pairs that share an element, in free ids."""
    fi = free_index(dm)
    expected = set()
    for t in range(dm.mesh.n_elems):
        dofs = [fi[c * dm.n_p + d] for c in range(dm.components)
                for d in dm.elems2dofs[t]]
        expected.update((i, j) for i in dofs for j in dofs if i >= 0 and j >= 0)
    return expected


def _assert_csr_order(pat):
    np.testing.assert_array_equal(np.lexsort((pat.cols, pat.rows)),
                                  np.arange(pat.nnz))
    assert pat.rows.dtype == pat.cols.dtype == np.int64


def test_vector_pattern_matches_bruteforce():
    mesh = make_rect(2, 1)
    dm = build_dofmap(mesh, p=2, components=2)
    pat = sparsity_pattern(dm)
    # oracle: direct co-occurrence scan over elements and components
    expected = set()
    for t in range(mesh.n_elems):
        dofs = [c * dm.n_p + d for c in range(2) for d in dm.elems2dofs[t]]
        expected.update((i, j) for i in dofs for j in dofs)
    got = set(zip(pat.rows.tolist(), pat.cols.tolist()))
    assert got == expected
    _assert_csr_order(pat)
    # and it is the scalar pattern tiled 2x2
    pat_s = sparsity_pattern(build_dofmap(mesh, p=2))
    tiled = set()
    for i, j in zip(pat_s.rows.tolist(), pat_s.cols.tolist()):
        for ci in range(2):
            for cj in range(2):
                tiled.add((ci * dm.n_p + i, cj * dm.n_p + j))
    assert got == tiled
    # with Dirichlet sides the pattern keeps exactly the free-DOF couplings
    dm_bc = build_dofmap(make_perforated_square(0), p=3, components=2,
                         dirichlet=DirichletSpec(("left", "bottom"),
                                                 lambda x, y: (x, y)))
    assert 0 < dm_bc.n_free < dm_bc.n_dofs
    pat_bc = sparsity_pattern(dm_bc)
    assert pat_bc.n == dm_bc.n_free
    got_bc = set(zip(pat_bc.rows.tolist(), pat_bc.cols.tolist()))
    assert pat_bc.nnz == len(got_bc)
    assert got_bc == _cooccurrence(dm_bc)
    _assert_csr_order(pat_bc)
