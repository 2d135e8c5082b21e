import copy
import dataclasses
import pickle

import numpy as np
import pytest

import sppc
from sppc import errors, numerics
from sppc.solvers import ControlPacket

from conftest import random_spd


def test_as_symmetric_keeps_symmetric_input():
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        s = numerics.symmetrize(random_spd(rng, n))
        out = numerics.as_symmetric(s, "s", n)
        assert out is not s and out.dtype == np.float64
        assert out.tobytes() == s.tobytes()
    np.testing.assert_array_equal(numerics.as_symmetric([[4.0]], "s"), [[4.0]])


def test_as_symmetric_averages_within_tolerance():
    # the tolerance is relative to max|M|: 1e-3 off 1e12 I is 1e-15 relative
    for scale, gap in ((1.0, 0.5 * numerics.SYMMETRY_TOL), (1e12, 1e-3)):
        out = numerics.as_symmetric([[scale, gap], [0.0, scale]], "s")
        assert out.tobytes() == out.T.tobytes()
        assert out[0, 1] == 0.5 * gap


def test_as_symmetric_rejects_asymmetric():
    # [[1e-12, 5e-13], [0, 1e-12]] is 50% asymmetric however small its entries
    for m in ([[1.0, 0.5], [0.0, 1.0]], [[1.0, 2 * numerics.SYMMETRY_TOL], [0.0, 1.0]],
              [[1e-12, 5e-13], [0.0, 1e-12]]):
        with pytest.raises(errors.NonSymmetric, match="^Q asymmetry"):
            numerics.as_symmetric(m, "Q")


def test_as_symmetric_rejects_strictly_upper():
    with pytest.raises(errors.NonSymmetric, match="^Q asymmetry"):
        numerics.as_symmetric([[0.0, 1.0], [0.0, 0.0]], "Q")


def test_as_symmetric_rejects_bad_shape():
    for m, n in ((np.ones((2, 3)), None), (np.eye(2), 3), (np.ones(2), None)):
        with pytest.raises(errors.DimensionMismatch, match="^P "):
            numerics.as_symmetric(m, "P", n)


def test_cholesky_identity():
    np.testing.assert_allclose(numerics.cholesky(np.eye(3)), np.eye(3))


def test_cholesky_scalar():
    np.testing.assert_allclose(numerics.cholesky(np.array([[4.0]])), [[2.0]])


def test_cholesky_two_by_two():
    s = np.array([[4.0, 2.0], [2.0, 5.0]])
    lower = numerics.cholesky(s)
    np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 2.0]])
    np.testing.assert_allclose(lower @ lower.T, s)


def test_cholesky_rejects_indefinite():
    with pytest.raises(errors.NotPositiveDefinite):
        numerics.cholesky(np.array([[1.0, 3.0], [3.0, 1.0]]))


def test_cholesky_rejects_tiny_pivot():
    with pytest.raises(errors.NotPositiveDefinite):
        numerics.cholesky(np.array([[1.0, 0.0], [0.0, 1e-16]]))


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        s = random_spd(rng, n)
        lower = numerics.cholesky(s)
        gap = np.abs(lower @ lower.T - s).max()
        assert gap <= 1e-10 * (1.0 + np.abs(s).max())


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
    spectrum = numerics.congruent_spectrum(s, numerics.cholesky(s))
    assert spectrum[0] == pytest.approx(1.0, abs=1e-12)


def test_general_eigen_min_scaling():
    spectrum = numerics.congruent_spectrum(np.eye(2), numerics.cholesky(2 * np.eye(2)))
    assert spectrum[0] == pytest.approx(0.5)


def test_general_eigen_min_diagonal():
    q = np.diag([1.0, 2.0])
    p = np.diag([2.0, 2.0])
    assert numerics.congruent_spectrum(q, numerics.cholesky(p))[0] == pytest.approx(0.5)


def test_general_eigen_max_diagonal():
    m = np.diag([1.0, 6.0])
    s = np.diag([2.0, 2.0])
    assert numerics.congruent_spectrum(m, numerics.cholesky(s))[-1] == pytest.approx(3.0)


def test_general_eigen_requires_positive_definite():
    with pytest.raises(errors.NotPositiveDefinite):
        numerics.congruent_spectrum(np.eye(2), numerics.cholesky(np.zeros((2, 2))))


def test_congruent_spectrum_identity():
    np.testing.assert_allclose(numerics.congruent_spectrum(np.eye(2), np.eye(2)), [1.0, 1.0])


def test_congruent_spectrum_diagonal_sorted():
    # over the identity the spectrum is the numerator's own, ascending
    np.testing.assert_allclose(
        numerics.congruent_spectrum(np.diag([3.0, 2.0]), np.eye(2)), [2.0, 3.0])


def test_congruent_spectrum_two_by_two():
    # roots of the characteristic quadratic of [[1,-2],[-2,5]]
    m = np.array([[1.0, -2.0], [-2.0, 5.0]])
    expected = np.array([3.0 - 2.0 * np.sqrt(2.0), 3.0 + 2.0 * np.sqrt(2.0)])
    np.testing.assert_allclose(numerics.congruent_spectrum(m, np.eye(2)), expected,
                               rtol=1e-12)
    np.testing.assert_allclose(numerics.congruent_spectrum(m, numerics.cholesky(2 * np.eye(2))),
                               expected / 2, rtol=1e-12)


def test_congruent_spectrum_congruence_invariance():
    # m inv(s) and (T^T m T) inv(T^T s T) are similar for invertible T
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m, s = random_spd(rng, n), random_spd(rng, n)
        t, _ = np.linalg.qr(rng.standard_normal((n, n)))
        t = t * rng.uniform(0.5, 2.0, n)
        a = numerics.congruent_spectrum(m, numerics.cholesky(s))
        b = numerics.congruent_spectrum(numerics.symmetrize(t.T @ m @ t),
                                        numerics.cholesky(numerics.symmetrize(t.T @ s @ t)))
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-8)


@numerics.record
class _Pair:
    """A record with one array field, counting the checks it passes."""

    a: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", numerics.as_int(self.n, "n", 0))
        _checked.append(self.n)


_checked: list = []


@pytest.mark.parametrize("B", [1, 2, 7, 64])
def test_stacked_matmul_matches_ndarray_dot(B):
    # solvers._omp_rows and run_trial's norm_x rest on this: a matmul
    # stacked over B rows with a singleton core dimension makes, on each
    # row, the BLAS call ndarray.dot makes on the 1-D row, so every row keeps
    # its bits (a 2-D product of the rows need not). Shapes span the
    # envelope: n <= 20, N <= 64, G and H with n N rows
    rng = np.random.default_rng(B)
    for n, N in ((1, 1), (1, 4), (4, 10), (4, 20), (12, 40), (20, 64)):
        G, H = rng.standard_normal((n * N, N)), rng.standard_normal((n * N, n))
        W = rng.standard_normal((n, n))
        R, X, C = (rng.standard_normal((B, size)) for size in (n * N, n, N))
        for stacked, rows in (((R[:, None, :] @ G)[:, 0, :], [r.dot(G) for r in R]),
                              ((H @ X[:, :, None])[:, :, 0], [H.dot(x) for x in X]),
                              ((W @ X[:, :, None])[:, :, 0], [W.dot(x) for x in X]),
                              ((G @ C[:, :, None])[:, :, 0], [G.dot(c) for c in C]),
                              ((R[:, None, :] @ R[:, :, None])[:, 0, 0], [r.dot(r) for r in R])):
            assert stacked.tobytes() == np.array(rows).tobytes(), (n, N)
        # a Gram-Schmidt step at pick k gathers each row's k earlier basis rows and
        # R^-1 block and its column G[:, j]; a refit gathers k + 1 of each. Each row
        # reads basis[i] and r_inv[i] in place, and G[:, j] strided. The stacked step
        # gathers the columns strided too (one row included), so its product makes
        # the 1-row call at every k: a strided dot at k = 1, a strided gemv after
        basis, r_inv = rng.standard_normal((B, N, n * N)), rng.standard_normal((B, N, N))
        for k in range(N):
            js = rng.integers(0, N, B)
            g = np.empty((n * N, B + 1))[:, 1:].T
            g[...] = G.T[js]
            stacked = (basis[:, :k].copy() @ g[:, :, None])[:, :, 0]
            rows = [b[:k].dot(G[:, j]) for b, j in zip(basis, js)]
            assert stacked.tobytes() == np.array(rows).tobytes(), (n, N, k)
            for a in (k, k + 1):
                B_a, R_a, C_a = basis[:, :a].copy(), r_inv[:, :a, :a].copy(), C[:, :a].copy()
                for stacked, rows in (
                        ((C_a[:, None, :] @ B_a)[:, 0, :], [c.dot(b[:a]) for c, b in zip(C_a, basis)]),
                        ((B_a @ R[:, :, None])[:, :, 0], [b[:a].dot(r) for b, r in zip(basis, R)]),
                        ((R_a @ C_a[:, :, None])[:, :, 0],
                         [t[:a, :a].dot(c) for t, c in zip(r_inv, C_a)])):
                    assert stacked.tobytes() == np.array(rows).tobytes(), (n, N, k, a)


@pytest.mark.parametrize("B", [1, 2, 7, 64])
def test_stacked_l1_steps_match_the_homotopy_arithmetic(B):
    # l1 in lockstep would rest on these: solvers._l1 takes c = b - u K[A] as
    # np.dot of a list u with K[A], and its step rules as Python float
    # arithmetic. A matmul stacked over B rows with a singleton core dimension
    # gives np.dot's bits at every active-set size up to 24, on one K[A] shared
    # by the rows or on each row's own; numpy's elementwise float64 ops round
    # each Python operation the same way
    rng = np.random.default_rng(B)
    for N in (4, 10, 20, 40, 64):
        K = rng.standard_normal((N, N))
        K = K.T @ K
        for a in range(1, min(N, 24) + 1):
            A = np.sort(rng.choice(N, a, replace=False))
            rows, U = K.take(A, axis=0), rng.standard_normal((B, a))
            dots = np.array([np.dot(u, rows) for u in U.tolist()])
            assert (U[:, None, :] @ rows)[:, 0, :].tobytes() == dots.tobytes(), (N, a)
            own = rng.standard_normal((B, a, N))
            dots = np.array([np.dot(u, r) for u, r in zip(U.tolist(), own)])
            assert (U[:, None, :] @ own)[:, 0, :].tobytes() == dots.tobytes(), (N, a)
    t, s, c, d = (rng.standard_normal(250) * 2.0 ** rng.integers(-30, 30, 250)
                  for _ in range(4))
    for step in (lambda t, s, c, d: t - s * c, lambda t, s, c, d: t / s,
                 lambda t, s, c, d: t + d * c, lambda t, s, c, d: -t / d):
        floats = [step(*v) for v in zip(t.tolist(), s.tolist(), c.tolist(), d.tolist())]
        assert step(t, s, c, d).tobytes() == np.array(floats).tobytes()


def test_record_freezes_a_copy_of_a_writable_array():
    mine = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    r = _Pair(mine, 1)
    assert mine.flags.writeable and r.a is not mine
    assert r.a.flags.c_contiguous and not r.a.flags.writeable
    assert (r.a == mine).all()
    assert _Pair(r.a, 1).a is r.a           # a read-only array is taken as it is
    assert _Pair([[1.0, 2.0]], 1).a.shape == (1, 2)
    assert _Pair(r.a, 1) != _Pair(r.a, 1)   # compared by identity
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.n = 2
    with pytest.raises(errors.ConfigError):
        _Pair(r.a, True)


def test_record_copies_a_read_only_view_of_a_writable_array():
    a = np.ones(3)
    v = a.view()
    v.setflags(write=False)
    p = ControlPacket(v, 0.0, 1.0, 1)
    a[0] = 5.0
    assert p.coeffs[0] == 1.0 and a.flags.writeable
    # frozen freezes what a view sees, so the record takes it without a copy
    view = numerics.frozen(np.arange(6.0).reshape(2, 3))
    assert not view.base.flags.writeable and _Pair(view, 1).a is view
    plant = sppc.PlantModel(A=[[2.0, 0.1], [0.0, 1.5]], B=[[0.3], [1.0]])
    h = sppc.build_horizon(plant, np.eye(2), np.eye(2), 3)
    assert h.G.base is not None and not h.G.base.flags.writeable   # G: a view, not a copy


def test_record_copies_through_its_constructor():
    r = _Pair(np.ones(3), 4)
    for clone in (lambda: pickle.loads(pickle.dumps(r)), lambda: copy.copy(r),
                  lambda: copy.deepcopy(r)):
        del _checked[:]
        c = clone()
        assert _checked == [4]              # the copy passed the check again
        assert not c.a.flags.writeable and c.a.tobytes() == r.a.tobytes()
