"""Quadrature oracles: closed forms, numpy's leggauss, and exactness checks."""

import numpy as np
import pytest

from hpmin.basis import tabulate
from hpmin.quadrature import gauss_1d, rule_for_degree


def test_one_point_rule_is_midpoint():
    x, w = gauss_1d(1)
    np.testing.assert_allclose(x, [0.0], atol=1e-15)
    np.testing.assert_allclose(w, [2.0], atol=1e-15)


def test_two_point_rule_closed_form():
    # nodes solve L_2(x) = 0  =>  x = +-1/sqrt(3)
    x, w = gauss_1d(2)
    np.testing.assert_allclose(x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)


def test_three_point_rule_integrates_quartic():
    x, w = gauss_1d(3)
    assert np.dot(w, x**4) == pytest.approx(2.0 / 5.0, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 17))
def test_against_numpy_leggauss(n):
    x, w = gauss_1d(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, x_ref, atol=2e-15)
    np.testing.assert_allclose(w, w_ref, atol=2e-15)


def test_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        gauss_1d(0)
    with pytest.raises(ValueError):
        rule_for_degree(0)


@pytest.mark.parametrize("p,n_ip", [(1, 4), (2, 9), (4, 25)])
def test_tensor_rule_counts(p, n_ip):
    rule = rule_for_degree(p)
    assert rule.n_ip == n_ip
    assert abs(rule.weights.sum() - 4.0) < 1e-13
    assert np.all(rule.weights > 0)
    assert np.all(np.abs(rule.points) < 1.0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_point_symmetry(p):
    rule = rule_for_degree(p)
    pts = {(round(x, 14), round(y, 14)): w for (x, y), w in zip(rule.points, rule.weights)}
    for (x, y), w in pts.items():
        for sx, sy in ((-x, y), (x, -y), (-x, -y)):
            assert pts[(round(sx, 14), round(sy, 14))] == pytest.approx(w, abs=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_exact_for_shape_function_products(p):
    # oracle: a finer rule with 2p + 2 points per direction
    rule = rule_for_degree(p)
    fine = rule_for_degree(2 * p + 1)
    table = tabulate(p, rule.points)
    table_fine = tabulate(p, fine.points)
    ints = np.einsum("aq,bq,q->ab", table.values, table.values, rule.weights)
    ints_fine = np.einsum(
        "aq,bq,q->ab", table_fine.values, table_fine.values, fine.weights
    )
    assert np.max(np.abs(ints - ints_fine)) < 1e-12
