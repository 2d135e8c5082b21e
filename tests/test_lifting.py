import numpy as np
import pytest
import scipy.linalg

import sppc
from sppc import errors

from conftest import random_reachable_plant, random_spd
from oracles import reference_horizon, stage_cost


def dense_weights(Q, P, N):
    """Reference block diagonals: Qbar and its blockwise factor Rbar."""
    qbar = scipy.linalg.block_diag(*([Q] * (N - 1) + [P]))
    rbar = scipy.linalg.block_diag(*([np.linalg.cholesky(Q).T] * (N - 1)
                                     + [np.linalg.cholesky(P).T]))
    return qbar, rbar


def test_scalar_horizon_matrices(scalar_case):
    plant, syn, h = scalar_case
    phi, upsilon, _, _ = reference_horizon(plant, syn.Q, syn.P, 2)
    np.testing.assert_allclose(phi, [[1.0, 0.0], [2.0, 1.0]])
    np.testing.assert_allclose(upsilon, [[2.0], [4.0]])
    qbar, rbar = dense_weights(syn.Q, syn.P, 2)
    np.testing.assert_allclose(qbar, np.eye(2))
    np.testing.assert_allclose(h.G, rbar @ phi)
    np.testing.assert_allclose(h.G, phi)
    np.testing.assert_allclose(h.H, [[-2.0], [-4.0]])
    assert h.n == 1


def test_degenerate_horizon_single_block():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    h = sppc.build_horizon(plant, [[1.0]], [[4.0]], 1)
    qbar, rbar = dense_weights(np.array([[1.0]]), np.array([[4.0]]), 1)
    np.testing.assert_allclose(qbar, [[4.0]])
    np.testing.assert_allclose(rbar, [[2.0]])
    np.testing.assert_allclose(h.G, [[2.0]])
    np.testing.assert_allclose(h.H, [[-4.0]])
    np.testing.assert_allclose(h.gram, [[4.0]])


def test_horizon_rejects_bad_n():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    with pytest.raises(errors.ConfigError):
        sppc.build_horizon(plant, [[1.0]], [[1.0]], 0)
    with pytest.raises(errors.ConfigError):
        sppc.build_horizon(plant, [[1.0]], [[1.0]], 2.5)


def _stacked_states(plant, x, u):
    """Oracle: iterate the plant step and stack the predicted states."""
    out = []
    for uk in u:
        x = sppc.step(plant, x, uk)
        out.append(x)
    return np.concatenate(out)


def test_stacked_prediction_identity():
    # Phi u + Upsilon x stacks the predicted states, and G u - H x weights
    # them by Rbar
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 9))
        plant = random_reachable_plant(rng, n)
        Q, P = random_spd(rng, n), random_spd(rng, n)
        h = sppc.build_horizon(plant, Q, P, N)
        phi, upsilon, _, _ = reference_horizon(plant, Q, P, N)
        _, rbar = dense_weights(Q, P, N)
        x = rng.standard_normal(n)
        u = rng.standard_normal(N)
        states = _stacked_states(plant, x, u)
        np.testing.assert_allclose(phi @ u + upsilon @ x, states, atol=1e-10, rtol=1e-10)
        np.testing.assert_allclose(h.G @ u - h.H @ x, rbar @ states,
                                   atol=1e-10, rtol=1e-10)


def test_blockwise_square_root():
    # the blockwise G and H equal the dense Rbar Phi and -Rbar Upsilon,
    # and G^T G equals Phi^T Qbar Phi
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 7))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        P = random_spd(rng, n)
        h = sppc.build_horizon(plant, Q, P, N)
        phi, upsilon, _, _ = reference_horizon(plant, Q, P, N)
        qbar, rbar = dense_weights(Q, P, N)
        gap = np.abs(rbar.T @ rbar - qbar).max()
        assert gap <= 1e-10 * (1.0 + np.abs(qbar).max())
        np.testing.assert_allclose(h.G, rbar @ phi, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(h.H, -rbar @ upsilon, rtol=1e-12, atol=1e-12)
        reference = phi.T @ qbar @ phi
        assert np.abs(h.gram - reference).max() <= 1e-10 * np.abs(reference).max()
        np.testing.assert_allclose(h.col_norms, np.sqrt(np.diag(reference)), rtol=1e-10)
        assert not (h.gram.flags.writeable or h.col_norms.flags.writeable)


@pytest.mark.parametrize("n, N, identity_q", [
    pytest.param(n, N, False, id=f"{n}-{N}")
    for n, N in ((1, 1), (1, 64), (2, 1), (3, 7), (4, 10), (7, 33), (11, 20), (16, 3), (20, 1),
                 (20, 20), (20, 64), (8, 1), (16, 1), (20, 2), (20, 3), (20, 5), (20, 10),
                 (20, 32))
] + [pytest.param(20, 64, True, id="20-64-identity-q")])
def test_horizon_bits_match_reference(n, N, identity_q):
    # same values and same memory layout: the batched product for G rounds
    # differently on a differently strided Phi (at n >= 16 with N = 3 or
    # 20, for one), and G's Toeplitz product differently in other layouts
    # (at N = 1, and at n = 20 with a non-identity Q)
    rng = np.random.default_rng(100 * n + N)
    for _ in range(3):
        plant = random_reachable_plant(rng, n)
        Q, P = random_spd(rng, n), random_spd(rng, n)
        Q = np.eye(n) if identity_q else Q
        h = sppc.build_horizon(plant, Q, P, N)
        for got, want in zip((h.G, h.H), reference_horizon(plant, Q, P, N)[2:]):
            assert (got.tobytes(), got.strides) == (want.tobytes(), want.strides)


def test_horizon_leaves_callers_arrays_writable(example_case):
    _, syn, h = example_case
    G, H = np.array(h.G), np.array(h.H)
    f = sppc.HorizonData(N=h.N, G=G, H=H)
    assert G.flags.writeable and H.flags.writeable
    assert not (f.G.flags.writeable or f.H.flags.writeable)
    G[0, 0] = H[0, 0] = 7.0
    assert (f.G.tobytes(), f.H.tobytes()) == (h.G.tobytes(), h.H.tobytes())
    # a read-only array is shared, not copied: build_horizon's G and H too
    assert sppc.HorizonData(N=h.N, G=h.G, H=h.H).G is h.G


def test_derived_data_do_not_depend_on_layout():
    # a Fortran-ordered G is held C-ordered, so OMP's column norms, the Gram
    # and both designs round as on the lifting itself (at a layout-keeping
    # HorizonData the column norms differed on every case here)
    rng = np.random.default_rng(3)
    for n in (4, 8, 12, 16, 20):
        for N in (10, 20, 33, 64):
            plant = random_reachable_plant(rng, n)
            h = sppc.build_horizon(plant, random_spd(rng, n), random_spd(rng, n), N)
            f = sppc.HorizonData(N=N, G=np.asfortranarray(h.G), H=h.H)
            assert f.G.flags.c_contiguous and not f.G.flags.writeable
            x = rng.standard_normal(n)
            y = h.H @ x
            # OMP stops 5% of the way from ||y||^2 down to the least-squares floor
            u = np.linalg.lstsq(h.G, y, rcond=None)[0]
            floor = np.sum((h.G @ u - y) ** 2)
            W = (floor + 0.05 * (y @ y - floor)) / (x @ x) * np.eye(n)
            lam = 0.1 * np.abs(h.G.T @ y).max()
            assert h.col_norms.tobytes() == f.col_norms.tobytes()
            assert h.gram.tobytes() == f.gram.tobytes()
            for design in (lambda k: sppc.omp_design(k, W, x),
                           lambda k: sppc.l1_design(k, x, lam, 0.0)):
                a, b = design(h), design(f)
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
                assert (a.residual_sq, a.iterations) == (b.residual_sq, b.iterations)


def test_horizon_shapes_must_fit():
    # G needs N columns and H as many rows as G; n N rows are not required
    with pytest.raises(errors.DimensionMismatch):
        sppc.HorizonData(N=3, G=np.ones((8, 2)), H=np.ones((8, 2)))
    with pytest.raises(errors.DimensionMismatch):
        sppc.HorizonData(N=2, G=np.eye(4)[:, :2], H=np.ones((6, 2)))


def test_lifted_input_map_full_column_rank():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        plant = random_reachable_plant(rng, n)
        h = sppc.build_horizon(plant, random_spd(rng, n), random_spd(rng, n),
                               int(rng.integers(1, 7)))
        sv = np.linalg.svd(h.G, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


def test_stage_cost_zero():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    h = sppc.build_horizon(plant, [[1.0]], [[1.0]], 2)
    assert stage_cost(h, [0.0, 0.0], [0.0]) == 0.0


def test_stage_cost_deadbeat(scalar_case):
    plant, syn, h = scalar_case
    assert stage_cost(h, [-2.0, 0.0], [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_stage_cost_matches_simulated_sum():
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 8))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        P = random_spd(rng, n)
        h = sppc.build_horizon(plant, Q, P, N)
        x = rng.standard_normal(n)
        u = rng.standard_normal(N)
        states = _stacked_states(plant, x, u).reshape(N, n)
        total = sum(states[i] @ Q @ states[i] for i in range(N - 1))
        total += states[-1] @ P @ states[-1]
        assert stage_cost(h, u, x) == pytest.approx(total, rel=1e-9)


def test_stage_cost_rejects_bad_shapes(scalar_case):
    _, _, h = scalar_case
    with pytest.raises(errors.DimensionMismatch):
        stage_cost(h, [1.0], [1.0])
    with pytest.raises(errors.DimensionMismatch):
        stage_cost(h, [1.0, 0.0], [1.0, 1.0])
