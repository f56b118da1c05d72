"""Mesh generators, refinement, and geometry factors."""

import numpy as np
import pytest

from hpmin.basis import tabulate
from hpmin.mesh import (
    build_mesh,
    geometry_factors,
    make_lshape,
    make_perforated_square,
    refine_uniform,
)
from hpmin.quadrature import rule_for_degree
from oracles import (
    element_areas,
    grid_cells,
    make_rect,
    perforated_square_cells,
    physical_derivatives,
    refine_by_stacks,
)

HOLE_AREA_EXACT = 4.0 - np.pi / 9.0


def test_lshape_level0_counts():
    mesh = make_lshape(0)
    assert mesh.n_nodes == 21
    assert mesh.n_edges == 32
    assert mesh.n_elems == 12


def test_lshape_level1_counts():
    # direct count oracle: 21 + 32 midpoints + 12 centers; 2*32 + 4*12 edges
    mesh = make_lshape(1)
    assert mesh.n_nodes == 65
    assert mesh.n_edges == 112
    assert mesh.n_elems == 48


def test_lshape_element_scaling():
    for level in range(4):
        assert make_lshape(level).n_elems == 12 * 4**level
    # Table-scale check without building the big mesh
    assert 12 * 4**6 == 49152


def test_lshape_area_exact():
    for level in (0, 1, 2):
        areas = element_areas(make_lshape(level))
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(3.0, abs=1e-12)


def test_monte_carlo_area_oracle():
    # sanity-check the analytic target for the perforated domain
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 2.0, size=(200_000, 2))
    inside = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 1.0) >= 1.0 / 3.0
    mc = 4.0 * inside.mean()
    assert mc == pytest.approx(HOLE_AREA_EXACT, abs=0.01)


def test_perforated_square_hole_nodes_on_circle():
    # the hole's boundary nodes are those nearer than 1 to the center; none
    # lies inside the disk, most lie on the circle, and the rest are the
    # staircase corners left where slivers were dropped, within 2h of it
    r = 1.0 / 3.0
    for level, n_near, n_on in ((0, 16, 12), (1, 24, 20), (2, 48, 32),
                                (3, 88, 64)):
        mesh = make_perforated_square(level)
        h = 2.0 / (8 * 2**level)
        dist = np.hypot(*(mesh.nodes[mesh.boundary_nodes] - 1.0).T)
        dist = dist[dist < 1.0]
        assert dist.size == n_near
        assert np.all(dist >= r - 1e-12)
        assert np.all(dist < r + 2.0 * h)
        assert np.count_nonzero(np.abs(dist - r) < 1e-12) == n_on


def test_perforated_square_orientation_and_area_convergence():
    errs = []
    for level in (0, 1, 2, 3):
        mesh = make_perforated_square(level)
        areas = element_areas(mesh)
        assert np.all(areas > 0)
        total = areas.sum()
        assert total < HOLE_AREA_EXACT  # chamfered hole over-removes area
        errs.append(HOLE_AREA_EXACT - total)
    assert errs[3] < errs[0] / 4
    assert errs[3] < 0.02


def test_perforated_square_level2_element_count():
    # deterministic count; same order of magnitude as the reference meshes
    # and inside the 500..2000 window used by the hyperelastic benchmark
    mesh = make_perforated_square(2)
    assert mesh.n_elems == 904
    assert 500 <= mesh.n_elems <= 2000


def test_perforated_square_side_nodes():
    for level in (0, 1, 2):
        mesh = make_perforated_square(level)
        xy = mesh.nodes[mesh.boundary_nodes]
        for axis, value in ((0, 0.0), (0, 2.0), (1, 0.0), (1, 2.0)):
            on_side = np.abs(xy[:, axis] - value) < 1e-9
            assert np.count_nonzero(on_side) == 8 * 2**level + 1


def test_grid_generators_match_cell_by_cell_oracle():
    xs = np.linspace(0.0, 2.0, 5)
    cases = (
        (make_lshape(0), grid_cells(xs, xs, lambda i, j: not (i >= 2 and j <= 1))),
        (make_rect(3, 2), grid_cells(np.linspace(0.0, 1.0, 4),
                                     np.linspace(0.0, 1.0, 3), lambda i, j: True)),
    )
    for mesh, (nodes, elems) in cases:
        assert np.array_equal(mesh.nodes, nodes)
        assert np.array_equal(mesh.elems2nodes, elems)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_perforated_square_matches_cell_by_cell_oracle(level):
    mesh = make_perforated_square(level)
    nodes, elems = perforated_square_cells(level)
    assert np.array_equal(mesh.nodes, nodes)
    assert np.array_equal(mesh.elems2nodes, elems)


def test_refine_quadruples_and_preserves_orientation():
    mesh = make_perforated_square(0)
    fine = refine_uniform(mesh)
    assert fine.n_elems == 4 * mesh.n_elems
    assert np.all(element_areas(fine) > 0)
    assert element_areas(fine).sum() == pytest.approx(
        element_areas(mesh).sum(), abs=1e-12
    )


@pytest.mark.parametrize("make, args", [
    *((make_lshape, (level,)) for level in range(4)),
    *((make_perforated_square, (level,)) for level in range(2)),
    (make_rect, (3, 2)),
])
def test_refine_matches_child_stacks(make, args):
    mesh = make(*args)
    fine, ref = refine_uniform(mesh), refine_by_stacks(mesh)
    for name in ("nodes", "elems2nodes", "edges2nodes", "elems2edges",
                 "boundary_nodes", "boundary_edges"):
        assert np.array_equal(getattr(fine, name), getattr(ref, name)), name
        assert getattr(fine, name).dtype == getattr(ref, name).dtype, name


def test_refine_unit_square_twice():
    mesh = make_rect(1, 1)
    mesh = refine_uniform(refine_uniform(mesh))
    assert mesh.n_elems == 16
    assert mesh.n_nodes == 25


def test_refine_side_nodes():
    coarse = make_rect(2, 2)
    mesh = refine_uniform(coarse)
    # the new boundary: the old one plus the midpoints of its edges
    np.testing.assert_array_equal(
        mesh.boundary_nodes,
        np.concatenate([coarse.boundary_nodes,
                        coarse.n_nodes + coarse.boundary_edges]))
    xy = mesh.nodes[mesh.boundary_nodes]
    for axis, value in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0)):
        assert np.count_nonzero(np.abs(xy[:, axis] - value) < 1e-15) == 5


def test_edge_set_independent_of_element_order():
    mesh = make_lshape(0)
    perm = np.random.default_rng(3).permutation(mesh.n_elems)
    shuffled = build_mesh(mesh.nodes, mesh.elems2nodes[perm])
    np.testing.assert_array_equal(shuffled.edges2nodes, mesh.edges2nodes)
    np.testing.assert_array_equal(shuffled.boundary_edges, mesh.boundary_edges)


def _shuffled_elements():
    mesh = make_lshape(2)
    perm = np.random.default_rng(5).permutation(mesh.n_elems)
    return build_mesh(mesh.nodes, mesh.elems2nodes[perm])


def _unused_nodes():
    # 7 far-away nodes no element uses, mixed among the others by a random
    # renumbering of all ids
    mesh = make_lshape(1)
    nodes = np.vstack([mesh.nodes, np.full((7, 2), 9.0)])
    perm = np.random.default_rng(6).permutation(len(nodes))
    renumbered = np.empty_like(nodes)
    renumbered[perm] = nodes
    return build_mesh(renumbered, perm[mesh.elems2nodes])


EDGE_MESHES = {
    **{f"lshape_L{k}": lambda k=k: make_lshape(k) for k in range(6)},
    **{f"perforated_L{k}": lambda k=k: make_perforated_square(k)
       for k in range(3)},
    "shuffled_elements": _shuffled_elements,
    "unused_nodes": _unused_nodes,
}


@pytest.mark.parametrize("name", EDGE_MESHES)
def test_edge_tables_equal_rowwise_unique(name):
    # oracle: MATLAB's unique(sort(E, 2), 'rows') as numpy spells it, a
    # row-wise unique of the sorted node pairs of every local edge
    mesh = EDGE_MESHES[name]()
    pairs = np.stack([mesh.elems2nodes, np.roll(mesh.elems2nodes, -1, axis=1)],
                     axis=2).reshape(-1, 2)
    edges2nodes, inverse, counts = np.unique(
        np.sort(pairs, axis=1), axis=0, return_inverse=True, return_counts=True)
    boundary_edges = np.where(counts == 1)[0]
    expected = {
        "edges2nodes": edges2nodes,
        "elems2edges": inverse.reshape(-1, 4),
        "boundary_edges": boundary_edges,
        "boundary_nodes": np.unique(edges2nodes[boundary_edges]),
    }
    for key, want in expected.items():
        got = getattr(mesh, key)
        assert got.dtype == want.dtype, key
        np.testing.assert_array_equal(got, want, err_msg=key)


@pytest.mark.parametrize("name", EDGE_MESHES)
def test_inverse_transposed_jacobian_keeps_the_stacked_bits(name):
    # oracle: the four cofactors stacked into one (2, 2, T, n_ip) array,
    # then divided by det J as a whole
    mesh = EDGE_MESHES[name]()
    rule = rule_for_degree(2)
    table = tabulate(2, rule.points)
    geo = geometry_factors(mesh, rule, table)
    x = mesh.nodes[mesh.elems2nodes]
    j11, j12, j21, j22 = (np.einsum("mq,tm->tq", d[:4], x[:, :, c])
                          for c in (0, 1) for d in (table.dxi, table.deta))
    det = j11 * j22 - j12 * j21
    stacked = np.stack([np.stack([j22, -j21]), np.stack([-j12, j11])]) / det
    assert geo.jinv_t.dtype == stacked.dtype
    assert geo.jinv_t.shape == stacked.shape
    assert geo.jinv_t.tobytes() == stacked.tobytes()  # -0.0 included


UNIT_SQUARES = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                         [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])


@pytest.mark.parametrize("elems, match", [
    ([[0, 1, 4, -3]], "outside"),  # -3 would wrap to node 3
    ([[0, 1, 4, 6]], "outside"),
    (np.zeros((0, 4), dtype=np.int64), "non-empty"),
    ([[0, 1, 4], [1, 2, 5]], "non-empty"),
    ([0, 1, 4, 3], "non-empty"),
    ([[0, 1.5, 4, 3]], "non-integral"),
    ([[0, 1, 4, np.nan]], "non-integral"),
])
def test_rejects_malformed_elements(elems, match):
    with pytest.raises(ValueError, match=match):
        build_mesh(UNIT_SQUARES, elems)


def test_accepts_integral_float_ids():
    mesh = build_mesh(UNIT_SQUARES, [[0.0, 1.0, 4.0, 3.0], [1.0, 2.0, 5.0, 4.0]])
    assert mesh.elems2nodes.dtype == np.int64
    np.testing.assert_array_equal(mesh.elems2nodes, [[0, 1, 4, 3], [1, 2, 5, 4]])
    assert mesh.n_edges == 7


def test_rejects_a_node_count_past_the_edge_key():
    # 3 037 000 500^2 > 2^63; a broadcast view holds the nodes in 16 bytes
    nodes = np.broadcast_to(np.zeros(2), (3_037_000_500, 2))
    with pytest.raises(ValueError, match="2\\^63"):
        build_mesh(nodes, [[0, 1, 4, 3]])


def test_interior_edges_shared_by_two_elements():
    mesh = make_lshape(1)
    counts = np.bincount(mesh.elems2edges.ravel(), minlength=mesh.n_edges)
    boundary = np.zeros(mesh.n_edges, dtype=bool)
    boundary[mesh.boundary_edges] = True
    assert np.all(counts[boundary] == 1)
    assert np.all(counts[~boundary] == 2)


def test_elems2edges_alignment():
    mesh = make_lshape(0)
    for t in range(mesh.n_elems):
        for s in range(4):
            a, b = mesh.elems2nodes[t, s], mesh.elems2nodes[t, (s + 1) % 4]
            edge = mesh.edges2nodes[mesh.elems2edges[t, s]]
            assert set(edge) == {a, b}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_nodes(bad):
    nodes = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [bad, 1.0]]
    with pytest.raises(ValueError, match="non-finite"):
        build_mesh(nodes, [[0, 1, 2, 3]])


@pytest.mark.parametrize("nodes", [
    np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(8), np.zeros((4, 2, 1))])
def test_rejects_nodes_that_are_not_n_by_2(nodes):
    with pytest.raises(ValueError, match=r"\(N, 2\)"):
        build_mesh(nodes, [[0, 1, 2, 3]])


def test_rejects_clockwise_element():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="counterclockwise"):
        build_mesh(nodes, [[0, 3, 2, 1]])


def test_geometry_factors_affine_scaling():
    h = 0.5
    unit = make_rect(1, 1)
    mesh = build_mesh(h * unit.nodes, unit.elems2nodes)
    rule = rule_for_degree(2)
    geo = geometry_factors(mesh, rule, tabulate(2, rule.points))
    # det J = h^2 / 4 at every point for an axis-aligned square of side h
    np.testing.assert_allclose(geo.wdetj[0], rule.weights * h**2 / 4.0, atol=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_geometry_factors_lshape_area(p):
    mesh = make_lshape(0)
    rule = rule_for_degree(p)
    geo = geometry_factors(mesh, rule, tabulate(p, rule.points))
    assert geo.wdetj.sum() == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(
        geo.wdetj.sum(axis=1), element_areas(mesh), atol=1e-12
    )


def test_geometry_factors_hand_computed_gradient():
    # node 0 hat on the unit square: N = (1-x)(1-y), grad at center = (-1/2, -1/2)
    mesh = make_rect(1, 1)
    rule = rule_for_degree(1)
    center = np.array([[0.0, 0.0]])
    table = tabulate(1, center)
    import dataclasses

    rule_center = dataclasses.replace(rule, points=center, weights=np.array([4.0]))
    geo = geometry_factors(mesh, rule_center, table)
    dphi_x, dphi_y = physical_derivatives(geo)
    assert dphi_x[0, 0, 0] == pytest.approx(-0.5, abs=1e-14)
    assert dphi_y[0, 0, 0] == pytest.approx(-0.5, abs=1e-14)


def test_geometry_factors_inverse_transposed_jacobian():
    # J^{-T} J^T = I at every point, J from the bilinear corner map
    mesh = make_perforated_square(1)
    rule = rule_for_degree(2)
    geo = geometry_factors(mesh, rule, tabulate(2, rule.points))
    q1 = tabulate(1, rule.points)
    x = mesh.nodes[mesh.elems2nodes]
    # jac[c, b]: derivative of coordinate c along reference direction b
    jac = np.array([[np.einsum("mq,tm->tq", d, x[:, :, c]) for d in (q1.dxi, q1.deta)]
                    for c in range(2)])
    product = np.einsum("abtq,cbtq->actq", geo.jinv_t, jac)
    np.testing.assert_allclose(product, np.eye(2)[:, :, None, None]
                               * np.ones_like(product), rtol=0, atol=1e-12)


def test_geometry_factors_rejects_degenerate():
    # bypass build_mesh validation to hit geometry_factors' own check
    import dataclasses

    good = make_rect(1, 1)
    folded = dataclasses.replace(
        good, nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5], [1.0, 0.4]])
    )
    rule = rule_for_degree(1)
    with pytest.raises(ValueError, match="degenerate element 0"):
        geometry_factors(folded, rule, tabulate(1, rule.points))


def test_geometry_factors_rejects_a_nan_jacobian():
    # bypass build_mesh validation; NaN <= 0 is False, so only a sign test
    # written as not (det > 0) stops a NaN determinant before wdetj
    import dataclasses

    nan_node = dataclasses.replace(
        make_rect(1, 1),
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [np.nan, 1.0]]))
    rule = rule_for_degree(1)
    with pytest.raises(ValueError, match="degenerate element 0"):
        geometry_factors(nan_node, rule, tabulate(1, rule.points))


def test_geometry_factors_requires_matching_points():
    mesh = make_rect(1, 1)
    with pytest.raises(ValueError, match="quadrature points"):
        geometry_factors(mesh, rule_for_degree(2), tabulate(2, rule_for_degree(3).points))
