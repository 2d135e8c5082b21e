import numpy as np
import pytest

import sppc
from sppc import errors

from conftest import EXAMPLE_POLES, random_reachable_plant


def test_plants_compare_by_identity():
    # records holding arrays compare and hash as objects: the library's
    # "same plant" is the identical one, and equal values do not make it so
    a, b = (sppc.from_poles(EXAMPLE_POLES) for _ in range(2))
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
    assert a == a and a != b
    assert {a: "a", b: "b"}[b] == "b"


def test_step_zero_input():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    np.testing.assert_allclose(sppc.step(plant, [1.0], 0.0), [2.0])


def test_step_deadbeat_cancellation():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    np.testing.assert_allclose(sppc.step(plant, [1.0], -2.0), [0.0])


def test_step_shift_register():
    plant = sppc.PlantModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    np.testing.assert_allclose(sppc.step(plant, [1.0, 1.0], 1.0), [1.0, 1.0])


def test_step_rejects_bad_state():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    with pytest.raises(errors.DimensionMismatch):
        sppc.step(plant, [1.0, 2.0], 0.0)
    with pytest.raises(errors.DimensionMismatch, match="^state has non-finite entries"):
        sppc.step(plant, [np.nan], 0.0)
    with np.errstate(over="ignore"), pytest.raises(errors.DimensionMismatch):
        sppc.step(plant, [1e308], 0.0)
    # the input is a scalar argument like any other: a finite real, not a bool
    for u in ("a", "1.5", None, [1.0, 2.0], np.nan, True, np.bool_(True)):
        with pytest.raises(errors.ConfigError, match="^input must be a finite real"):
            sppc.step(plant, [1.0], u)


def test_step_linearity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        plant = random_reachable_plant(rng, n)
        x1, x2 = rng.standard_normal((2, n))
        u1, u2 = rng.standard_normal(2)
        # the kernel's A.dot(x) + b u is the bits of A @ x + B[:, 0] u
        assert (sppc.step(plant, x1, u1).tobytes()
                == (plant.A @ x1 + plant.B[:, 0] * u1).tobytes())
        lhs = sppc.step(plant, x1 + x2, u1 + u2)
        rhs = (sppc.step(plant, x1, u1) + sppc.step(plant, x2, u2)
               - sppc.step(plant, np.zeros(n), 0.0))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_plant_model_normalizes_flat_b():
    plant = sppc.PlantModel(A=np.eye(2), B=[1.0, 0.5])
    assert plant.B.shape == (2, 1)


def test_plant_model_leaves_arguments_writable():
    a, b = np.array([[2.0]]), np.array([1.0])
    plant = sppc.PlantModel(a, b)
    a[0, 0], b[0] = 3.0, 4.0
    assert (plant.A[0, 0], plant.B[0, 0]) == (2.0, 1.0)
    with pytest.raises(ValueError):
        plant.A[0, 0] = 5.0


def test_plant_model_rejects_bad_shapes():
    with pytest.raises(errors.DimensionMismatch):
        sppc.PlantModel(A=np.ones((2, 3)), B=[[1.0], [1.0]])
    with pytest.raises(errors.DimensionMismatch):
        sppc.PlantModel(A=np.eye(2), B=[[1.0]])


def test_from_poles_single_zero():
    plant = sppc.from_poles([0.0])
    np.testing.assert_allclose(plant.A, [[0.0]])
    np.testing.assert_allclose(plant.B, [[1.0]])


def test_from_poles_pair():
    plant = sppc.from_poles([0.5, -0.5])
    np.testing.assert_allclose(plant.A, [[0.0, 1.0], [0.25, 0.0]], atol=1e-15)
    np.testing.assert_allclose(plant.B, [[0.0], [1.0]])
    values = np.sort(np.linalg.eigvals(plant.A).real)
    np.testing.assert_allclose(values, [-0.5, 0.5], atol=1e-12)


def test_from_poles_example_plant():
    plant = sppc.from_poles(EXAMPLE_POLES)
    assert plant.n == 4
    got = np.sort_complex(np.linalg.eigvals(plant.A))
    expected = np.sort_complex(np.asarray(EXAMPLE_POLES, dtype=complex))
    np.testing.assert_allclose(got, expected, atol=1e-6)


@pytest.mark.parametrize("poles", [["a"], [[1, 2], [3]], "0.5", [0.5, "0.2"], [True, 0.5],
                                   [np.nan], [0.5, complex(0.2, np.inf)], [], [[0.5]]])
def test_from_poles_checks_the_poles(poles):
    # as_array's rule with complex values admitted, naming the poles
    with pytest.raises(errors.DimensionMismatch, match="^poles "):
        sppc.from_poles(poles)


def test_from_poles_rejects_unpaired_complex():
    with pytest.raises(errors.NonConjugatePoles):
        sppc.from_poles([0.5 + 0.2j, 0.5])
    with pytest.raises(errors.NonConjugatePoles):
        sppc.from_poles([0.5 + 0.2j, 0.5 + 0.2j])


def test_from_poles_roundtrip_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        reals = rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 4)))
        pairs = rng.uniform(-1.2, 1.2, size=(int(rng.integers(0, 3)), 2))
        poles = list(reals)
        for re, im in pairs:
            poles += [complex(re, abs(im) + 0.1), complex(re, -abs(im) - 0.1)]
        plant = sppc.from_poles(poles)
        assert sppc.is_reachable(plant)
        got = np.sort_complex(np.linalg.eigvals(plant.A))
        expected = np.sort_complex(np.asarray(poles, dtype=complex))
        np.testing.assert_allclose(got, expected, atol=1e-6)


def test_is_reachable_scalar():
    assert sppc.is_reachable(sppc.PlantModel(A=[[2.0]], B=[[1.0]]))


def test_is_reachable_rank_deficient():
    plant = sppc.PlantModel(A=np.eye(2), B=[[1.0], [1.0]])
    assert not sppc.is_reachable(plant)


def test_is_reachable_example_plant(example_plant):
    assert sppc.is_reachable(example_plant)


def test_reachability_matrix_columns():
    plant = sppc.PlantModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    np.testing.assert_allclose(sppc.reachability_matrix(plant),
                               [[0.0, 1.0], [1.0, 0.0]])
