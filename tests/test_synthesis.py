import numpy as np
import pytest

import sppc
from sppc import errors, synthesis
from sppc.numerics import solve_least_squares

from conftest import random_reachable_plant, random_spd


def test_riccati_scalar_unstable():
    # A^T P A - (A P B)^2 / (B^T P B) collapses to zero for scalar data
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    P, iterations, residual = sppc.solve_riccati(plant, [[1.0]])
    np.testing.assert_allclose(P, [[1.0]])
    assert iterations >= 1
    assert residual <= 1e-12


def test_riccati_deadbeat_plant():
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = float(rng.uniform(0.5, 4.0))
        plant = sppc.PlantModel(A=[[0.0]], B=[[1.0]])
        P, _, _ = sppc.solve_riccati(plant, [[q]])
        np.testing.assert_allclose(P, [[q]])


def test_riccati_rejects_unreachable():
    plant = sppc.PlantModel(A=np.eye(2), B=[[1.0], [1.0]])
    with pytest.raises(errors.NotReachable):
        sppc.solve_riccati(plant, np.eye(2))


def test_riccati_residual_and_gap_random():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        P, _, residual = sppc.solve_riccati(plant, Q)
        assert residual <= 1e-9 * (1.0 + np.abs(P).max())
        gap = np.linalg.eigvalsh(0.5 * (P - Q + (P - Q).T))
        assert gap[0] >= -1e-9


def test_riccati_homogeneous_in_q():
    rng = np.random.default_rng(15)
    plant = random_reachable_plant(rng, 3)
    Q = random_spd(rng, 3)
    P1, _, _ = sppc.solve_riccati(plant, Q)
    P2, _, _ = sppc.solve_riccati(plant, 2.5 * Q)
    np.testing.assert_allclose(P2, 2.5 * P1, rtol=1e-8)


def test_rho_equal_matrices():
    s = random_spd(np.random.default_rng(0), 3)
    assert sppc.compute_rho(s, s) == pytest.approx(0.0, abs=1e-12)


def test_rho_scalar_ratio():
    assert sppc.compute_rho([[1.0]], [[2.0]]) == pytest.approx(0.5)


def test_rho_scalar_plant_chain(scalar_case):
    _, syn, _ = scalar_case
    assert syn.rho == 0.0


def test_c_scalar_hand_value(scalar_case):
    _, syn, h = scalar_case
    expected = 5.0 * (3.0 + 2.0 * np.sqrt(2.0))
    assert sppc.compute_c(h, syn.P, 0.0) == pytest.approx(expected, abs=1e-9)


def test_c_geometric_prefactor():
    # the peak term does not depend on rho, so the ratio isolates the prefactor
    rng = np.random.default_rng(16)
    plant = random_reachable_plant(rng, 2)
    P = random_spd(rng, 2)
    h = sppc.build_horizon(plant, random_spd(rng, 2), P, 10)
    ratio = sppc.compute_c(h, P, 0.5) / sppc.compute_c(h, P, 0.0)
    assert ratio == pytest.approx((1.0 - 0.5 ** 10) / 0.5, rel=1e-12)
    single = sppc.build_horizon(plant, random_spd(rng, 2), P, 1)
    lone = sppc.compute_c(single, P, 0.0)
    assert sppc.compute_c(single, P, 0.9) == pytest.approx(lone, rel=1e-12)


def test_c_block_row_scalar_value(scalar_case):
    # hand value: both 2x2 generalized eigenproblems peak at 1
    _, syn, h = scalar_case
    assert sppc.compute_c(h, syn.P, 0.0, "block_row") == pytest.approx(1.0, abs=1e-9)


def test_c_rejects_bad_rho(scalar_case):
    _, syn, h = scalar_case
    with pytest.raises(errors.DegenerateInput):
        sppc.compute_c(h, syn.P, 1.0)
    with pytest.raises(errors.DegenerateInput):
        sppc.compute_c(h, syn.P, -0.1)


def test_c_rejects_unknown_interpretation(scalar_case):
    _, syn, h = scalar_case
    with pytest.raises(errors.ConfigError):
        sppc.compute_c(h, syn.P, 0.0, "diagonal")


def test_synthesize_scalar_values(scalar_case):
    _, syn, _ = scalar_case
    np.testing.assert_allclose(syn.P, [[1.0]])
    assert syn.rho == 0.0
    assert syn.c == pytest.approx(5.0 * (3.0 + 2.0 * np.sqrt(2.0)), abs=1e-9)
    expected_w = 0.5 / (5.0 * (3.0 + 2.0 * np.sqrt(2.0)))
    assert syn.W[0, 0] == pytest.approx(expected_w, abs=1e-9)
    np.testing.assert_allclose(syn.W, syn.Eps)  # P - Q vanishes here


def test_synthesize_rejects_bad_alpha():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(errors.ConfigError):
            sppc.synthesize(plant, None, 2, alpha)


def test_synthesize_default_q_is_identity():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    syn = sppc.synthesize(plant, None, 2, 0.5)
    np.testing.assert_allclose(syn.Q, np.eye(1))


def test_synthesize_deadbeat_w_equals_eps():
    plant = sppc.PlantModel(A=[[0.0]], B=[[1.0]])
    syn = sppc.synthesize(plant, [[2.0]], 3, 0.25)
    assert syn.rho == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(syn.W, syn.Eps)  # P - Q is exactly zero here


def test_invariant_checks_pass(example_case, scalar_case):
    for plant, syn in ((example_case[0], example_case[1]),
                       (scalar_case[0], scalar_case[1])):
        checks = sppc.check_invariants(plant, syn)
        names = {c.name for c in checks}
        assert {"riccati_residual", "p_minus_q_psd", "rho_in_range",
                "eps_positive", "eps_inside_cone", "w_positive_definite",
                "w_composition"} <= names
        assert all(c.passed for c in checks)


def test_feasibility_identity_random():
    # least-squares optimum of the lifted cost equals x^T (P - Q) x
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 8))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        syn = sppc.synthesize(plant, Q, N, 0.5)
        h = sppc.build_horizon(plant, Q, syn.P, N)
        for _ in range(20):
            x = rng.standard_normal(n)
            target = h.H @ x
            u = solve_least_squares(h.G, target)
            best = float(np.sum((h.G @ u - target) ** 2))
            value = float(x @ (syn.P - syn.Q) @ x)
            assert best == pytest.approx(value, rel=1e-8, abs=1e-10)


def test_synthesis_result_matrices_read_only(scalar_case):
    _, syn, _ = scalar_case
    with pytest.raises(ValueError):
        syn.W[0, 0] = 2.0


def test_block_row_synthesis_also_valid(example_plant):
    syn = sppc.synthesize(example_plant, None, 10, 0.5,
                          c_interpretation="block_row")
    assert all(c.passed for c in sppc.check_invariants(example_plant, syn))


def test_riccati_iteration_limit(monkeypatch):
    plant = sppc.PlantModel(A=[[2.0, 0.1], [0.0, 1.5]], B=[[0.3], [1.0]])
    monkeypatch.setattr(synthesis, "RICCATI_MAX_ITERATIONS", 2)
    with pytest.raises(errors.NoConvergence):
        synthesis.solve_riccati(plant, np.eye(2))
