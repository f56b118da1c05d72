"""DOF bookkeeping: counts, signs, continuity, Dirichlet sets, sparsity."""

import numpy as np
import pytest

from hpmin.dofmap import (
    DirichletSpec,
    build_dofmap,
    expand_solution,
    sparsity_pattern,
)
from hpmin.mesh import make_lshape, make_perforated_square
from hpmin.problems import neohooke_problem
from oracles import (
    check_interelement_continuity,
    check_lshape_level1_free_count,
    check_lshape_p2_count,
    check_sparsity_nesting,
    dof_kind,
    dofmap_tables,
    free_index,
    interior_edge_pairs,
    make_rect,
    n_basis_functions,
    trace_on_edge,
)

RNG = np.random.default_rng(20240512)


def _left_or_bottom(x, y):
    return (np.abs(x) < 1e-12) | (np.abs(y) < 1e-12)


def test_lshape_p2_global_count():
    check_lshape_p2_count()


def test_lshape_level1_free_count():
    check_lshape_level1_free_count()


def test_p1_reduces_to_nodal_incidence():
    mesh = make_perforated_square(0)
    dm = build_dofmap(mesh, p=1)
    np.testing.assert_array_equal(dm.elems2dofs, mesh.elems2nodes)
    assert np.all(dm.signs == 1.0)


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_tables_match_slot_by_slot_oracle(p, components):
    for mesh in (make_lshape(1), make_perforated_square(1)):
        dm = build_dofmap(mesh, p, components=components)
        elems2dofs, signs, n_p, odd_slots = dofmap_tables(mesh, p, components)
        assert dm.n_p == n_p
        assert dm.elems2dofs.dtype == elems2dofs.dtype
        np.testing.assert_array_equal(dm.elems2dofs, elems2dofs)
        np.testing.assert_array_equal(dm.signs, signs)
        # the gather, the scatter and the blocks sign only these slots
        assert dm.signed_slots.tolist() == odd_slots
        assert np.all(np.delete(signs, odd_slots, axis=1) == 1.0)
        assert (len(odd_slots) == 0) == (p <= 2)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_count_formula_matches_enumeration(p):
    for mesh in (make_lshape(0), make_rect(3, 2), make_perforated_square(0)):
        dm = build_dofmap(mesh, p=p)
        bubbles = max(0, (p - 2) * (p - 3) // 2) if p >= 4 else 0
        assert dm.n_p == mesh.n_nodes + (p - 1) * mesh.n_edges + mesh.n_elems * bubbles
        seen = np.unique(dm.elems2dofs)
        np.testing.assert_array_equal(seen, np.arange(dm.n_p))
        assert dm.elems2dofs.shape[1] == n_basis_functions(p)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_interelement_continuity(p):
    for mesh in (make_lshape(0), make_perforated_square(0)):
        check_interelement_continuity(mesh, p, RNG)


def test_single_odd_edge_mode_is_globally_consistent():
    # activate one degree-3 edge DOF on an interior edge and compare sides
    mesh = make_lshape(0)
    dm = build_dofmap(mesh, p=3)
    pairs = interior_edge_pairs(mesh)
    e = next(iter(pairs))
    dof = mesh.n_nodes + e * (dm.p - 1) + (3 - 2)  # degree-3 mode of edge e
    v = np.zeros(dm.n_dofs)
    v[dof] = 1.0
    lam = np.linspace(0.1, 0.9, 10)
    (ta, sa), (tb, sb) = pairs[e]
    va = trace_on_edge(dm, v, ta, sa, lam)
    vb = trace_on_edge(dm, v, tb, sb, lam)
    assert np.max(np.abs(va)) > 0.05  # mode actually nonzero on the edge
    np.testing.assert_allclose(va, vb, atol=1e-12)


def test_dirichlet_fixes_nodes_and_edges_not_bubbles():
    dm = build_dofmap(make_lshape(0), p=4, dirichlet=DirichletSpec(g=0.0))
    fixed_kinds = {dof_kind(dm, d) for d in dm.fixed_dofs}
    assert fixed_kinds == {"node", "edge"}
    # 16 boundary nodes + 16 boundary edges * 3 modes each
    assert dm.fixed_dofs.size == 16 + 16 * 3


def test_dirichlet_tag_subsets():
    mesh = make_perforated_square(0)
    dm = build_dofmap(mesh, p=2, components=2,
                      dirichlet=DirichletSpec(_left_or_bottom, lambda x, y: (x, y)))
    fixed_nodes = [d % dm.n_p for d in dm.fixed_dofs if dof_kind(dm, d) == "node"]
    coords = mesh.nodes[np.unique(fixed_nodes)]
    assert np.all((np.abs(coords[:, 0]) < 1e-12) | (np.abs(coords[:, 1]) < 1e-12))
    # nodal values must interpolate g = identity in each component
    for d, val in zip(dm.fixed_dofs, dm.fixed_values):
        comp, base = divmod(d, dm.n_p)
        if dof_kind(dm, d) == "node":
            assert val == pytest.approx(mesh.nodes[base, comp], abs=1e-14)
        else:
            assert val == 0.0


def test_dirichlet_scalar_callable():
    mesh = make_lshape(0)
    dm = build_dofmap(mesh, p=2, dirichlet=DirichletSpec(g=lambda x, y: x + 2 * y))
    nodal = dm.fixed_dofs < mesh.n_nodes
    x, y = mesh.nodes[dm.fixed_dofs[nodal]].T
    np.testing.assert_array_equal(dm.fixed_values[nodal], x + 2 * y)
    assert np.all(dm.fixed_values[~nodal] == 0.0)


def test_boundary_predicate_must_return_bool_mask():
    wrong = (
        lambda x, y: x,                         # float values
        lambda x, y: (x == 0.0).astype(int),    # 0/1 integers
        lambda x, y: np.ones(x.size + 1, dtype=bool),
        lambda x, y: np.ones((x.size, 1), dtype=bool),
    )
    for on in wrong:
        with pytest.raises(ValueError, match="bool mask"):
            build_dofmap(make_lshape(0), p=2, dirichlet=DirichletSpec(on, 0.0))
    # one entry per boundary node: fixing none leaves every DOF free
    dm = build_dofmap(make_lshape(0), p=2,
                      dirichlet=DirichletSpec(lambda x, y: np.zeros(x.size, bool)))
    assert dm.n_free == dm.n_dofs


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_neohooke_fixes_left_and_bottom_sides(level, p):
    # n cells per side: the left and bottom sides share their corner, so
    # they hold 2n + 1 nodes and 2n edges of p - 1 modes, per component
    _, model = neohooke_problem(make_perforated_square(level), p=p,
                                young=2e8, poisson=0.3, f=(0.0, 0.0))
    dm, nodes = model.dofmap, model.dofmap.mesh.nodes
    n = 8 * 2**level
    assert dm.fixed_dofs.size == 2 * ((2 * n + 1) + 2 * n * (p - 1))
    comp, base = np.divmod(dm.fixed_dofs, dm.n_p)
    nodal = base < dm.mesh.n_nodes
    x, y = nodes[base[nodal]].T
    assert np.all((x == 0.0) | (y == 0.0))
    np.testing.assert_array_equal(dm.fixed_values[nodal],
                                  nodes[base[nodal], comp[nodal]])
    assert np.all(dm.fixed_values[~nodal] == 0.0)


def test_expand_solution_roundtrip():
    dm = build_dofmap(make_lshape(0), p=1, dirichlet=DirichletSpec(g=1.0))
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
    assert pat.shape[0] == 4
    assert pat.nnz == 16


def test_sparsity_symmetric_with_diagonal():
    dm = build_dofmap(make_lshape(0), p=2, dirichlet=DirichletSpec(g=0.0))
    pat = sparsity_pattern(dm)
    rows, cols = pat.nonzero()
    entries = set(zip(rows.tolist(), cols.tolist()))
    assert all((j, i) in entries for i, j in entries)
    assert all((i, i) in entries for i in range(pat.shape[0]))


def test_sparsity_nodal_block_nesting():
    # restricting the p=2 pattern to nodal rows/columns gives the p=1 pattern
    check_sparsity_nesting()


def _cooccurrence(dm):
    """Brute-force pattern: free DOF pairs that share an element, in free ids."""
    fi = free_index(dm)
    expected = set()
    for t in range(dm.mesh.n_elems):
        dofs = fi[dm.elems2dofs[t]]
        expected.update((i, j) for i in dofs for j in dofs if i >= 0 and j >= 0)
    return expected


def test_vector_pattern_matches_bruteforce():
    mesh = make_rect(2, 1)
    dm = build_dofmap(mesh, p=2, components=2)
    pat = sparsity_pattern(dm)
    # oracle: direct co-occurrence scan over elements and components
    expected = set()
    for t in range(mesh.n_elems):
        dofs = dm.elems2dofs[t]
        expected.update((i, j) for i in dofs for j in dofs)
    rows, cols = pat.nonzero()
    got = set(zip(rows.tolist(), cols.tolist()))
    assert got == expected
    assert pat.has_canonical_format
    # and it is the scalar pattern tiled 2x2
    pat_s = sparsity_pattern(build_dofmap(mesh, p=2))
    tiled = set()
    rows_s, cols_s = pat_s.nonzero()
    for i, j in zip(rows_s.tolist(), cols_s.tolist()):
        for ci in range(2):
            for cj in range(2):
                tiled.add((ci * dm.n_p + i, cj * dm.n_p + j))
    assert got == tiled
    # with Dirichlet sides the pattern keeps exactly the free-DOF couplings
    dm_bc = build_dofmap(make_perforated_square(0), p=3, components=2,
                         dirichlet=DirichletSpec(_left_or_bottom,
                                                 lambda x, y: (x, y)))
    assert 0 < dm_bc.n_free < dm_bc.n_dofs
    pat_bc = sparsity_pattern(dm_bc)
    assert pat_bc.shape[0] == dm_bc.n_free
    rows_bc, cols_bc = pat_bc.nonzero()
    got_bc = set(zip(rows_bc.tolist(), cols_bc.tolist()))
    assert pat_bc.nnz == len(got_bc)
    assert got_bc == _cooccurrence(dm_bc)
    assert pat_bc.has_canonical_format
