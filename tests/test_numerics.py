import numpy as np
import pytest

from sppc import errors, numerics

from conftest import random_spd


def test_cholesky_identity():
    np.testing.assert_allclose(numerics.cholesky(np.eye(3)), np.eye(3))


def test_cholesky_scalar():
    np.testing.assert_allclose(numerics.cholesky([[4.0]]), [[2.0]])


def test_cholesky_two_by_two():
    s = np.array([[4.0, 2.0], [2.0, 5.0]])
    lower = numerics.cholesky(s)
    np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(lower @ lower.T, s)


def test_cholesky_rejects_indefinite():
    with pytest.raises(errors.NotPositiveDefinite):
        numerics.cholesky([[1.0, 3.0], [3.0, 1.0]])


def test_cholesky_rejects_tiny_pivot():
    with pytest.raises(errors.NotPositiveDefinite):
        numerics.cholesky([[1.0, 0.0], [0.0, 1e-16]])


def test_cholesky_rejects_asymmetric():
    with pytest.raises(errors.NonSymmetric):
        numerics.cholesky([[1.0, 0.5], [0.0, 1.0]])


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        s = random_spd(rng, n)
        lower = numerics.cholesky(s)
        gap = np.abs(lower @ lower.T - s).max()
        assert gap <= 1e-10 * (1.0 + np.abs(s).max())


def test_sym_eigenvalues_identity():
    np.testing.assert_allclose(numerics.sym_eigenvalues(np.eye(2)), [1.0, 1.0])


def test_sym_eigenvalues_diagonal_sorted():
    np.testing.assert_allclose(numerics.sym_eigenvalues([[3.0, 0.0], [0.0, 2.0]]),
                               [2.0, 3.0])


def test_sym_eigenvalues_two_by_two():
    # roots of the characteristic quadratic of [[1,-2],[-2,5]]
    values = numerics.sym_eigenvalues([[1.0, -2.0], [-2.0, 5.0]])
    expected = [3.0 - 2.0 * np.sqrt(2.0), 3.0 + 2.0 * np.sqrt(2.0)]
    np.testing.assert_allclose(values, expected, rtol=1e-12)


def test_sym_eigenvalues_rejects_asymmetric():
    with pytest.raises(errors.NonSymmetric):
        numerics.sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_sym_eigenvalues_similarity_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        s = random_spd(rng, n)
        t, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = numerics.sym_eigenvalues(s)
        b = numerics.sym_eigenvalues(t.T @ s @ t)
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8)


def test_solve_least_squares_identity():
    np.testing.assert_allclose(
        numerics.solve_least_squares(np.eye(2), [3.0, 7.0]), [3.0, 7.0])


def test_solve_least_squares_single_column():
    u = numerics.solve_least_squares([[1.0], [2.0]], [-2.0, -4.0])
    np.testing.assert_allclose(u, [-2.0])


def test_solve_least_squares_square():
    u = numerics.solve_least_squares([[1.0, 0.0], [2.0, 1.0]], [-2.0, -4.0])
    np.testing.assert_allclose(u, [-2.0, 0.0], atol=1e-12)


def test_solve_least_squares_matches_direct_solve():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = random_spd(rng, n)
        y = rng.standard_normal(n)
        np.testing.assert_allclose(numerics.solve_least_squares(m, y),
                                   np.linalg.solve(m, y),
                                   rtol=1e-10, atol=1e-10)


def test_solve_least_squares_normal_equation_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = int(rng.integers(2, 20))
        cols = int(rng.integers(1, rows + 1))
        m = rng.standard_normal((rows, cols))
        y = rng.standard_normal(rows)
        u = numerics.solve_least_squares(m, y)
        residual = m.T @ (m @ u - y)
        assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(m.T @ y))


def test_solve_least_squares_ill_conditioned_matches_lstsq():
    # condition numbers 1e6..1e10, where normal equations would lose
    # half the digits; built from random orthogonal factors. Two backward
    # stable solvers may differ by about cond * eps in the coefficients
    # (measured at most 1.1e-16 * cond over 2000 such cases), so the bound
    # is 1e-8 at cond 1e6 and scales with the condition number.
    rng = np.random.default_rng(11)
    for cond in np.geomspace(1e6, 1e10, 9):
        rows = int(rng.integers(4, 30))
        cols = int(rng.integers(2, rows + 1))
        left, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
        right, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
        m = (left * np.geomspace(1.0, 1.0 / cond, cols)) @ right.T
        y = rng.standard_normal(rows)
        expected = np.linalg.lstsq(m, y, rcond=None)[0]
        u = numerics.solve_least_squares(m, y)
        assert np.linalg.norm(u - expected) <= 1e-14 * cond * np.linalg.norm(expected)


def test_solve_least_squares_rejects_wide():
    with pytest.raises(errors.RankDeficient):
        numerics.solve_least_squares(np.ones((1, 2)), [1.0])


def test_solve_least_squares_rejects_dependent_columns():
    m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(errors.RankDeficient):
        numerics.solve_least_squares(m, [1.0, 1.0, 1.0])


def test_solve_least_squares_rejects_length_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        numerics.solve_least_squares(np.eye(2), [1.0, 2.0, 3.0])


def test_general_eigen_min_equal_matrices():
    s = random_spd(np.random.default_rng(0), 3)
    assert numerics.congruent_spectrum(s, s)[0] == pytest.approx(1.0, abs=1e-12)


def test_general_eigen_min_scaling():
    assert numerics.congruent_spectrum(np.eye(2), 2 * np.eye(2))[0] == pytest.approx(0.5)


def test_general_eigen_min_diagonal():
    q = np.diag([1.0, 2.0])
    p = np.diag([2.0, 2.0])
    assert numerics.congruent_spectrum(q, p)[0] == pytest.approx(0.5)


def test_general_eigen_max_diagonal():
    m = np.diag([1.0, 6.0])
    s = np.diag([2.0, 2.0])
    assert numerics.congruent_spectrum(m, s)[-1] == pytest.approx(3.0)


def test_general_eigen_requires_positive_definite():
    with pytest.raises(errors.NotPositiveDefinite):
        numerics.congruent_spectrum(np.eye(2), np.zeros((2, 2)))[0]


def test_general_eigen_rejects_shape_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        numerics.congruent_spectrum(np.eye(2), np.eye(3))[0]
