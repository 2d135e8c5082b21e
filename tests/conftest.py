"""Shared fixtures and random-instance generators for the test suite."""

import numpy as np
import pytest

import sppc

EXAMPLE_POLES = [-1.4396, 1.0808 + 0.6664j, 1.0808 - 0.6664j, 0.0220]
EXAMPLE_X0 = np.array([0.5, 0.5, 0.5, 0.5])


def random_spd(rng, n):
    """SPD matrix as M^T M + I, well conditioned at these sizes."""
    m = rng.standard_normal((n, n))
    return m.T @ m + np.eye(n)


def random_reachable_plant(rng, n):
    """Random (A, B) with A scaled to O(1) spectral radius, retried until reachable."""
    while True:
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal((n, 1))
        plant = sppc.PlantModel(A=a, B=b)
        if sppc.is_reachable(plant):
            return plant


@pytest.fixture(scope="session")
def scalar_case():
    """The hand-checked A=2, B=1, Q=1, N=2 pipeline."""
    plant = sppc.PlantModel(A=np.array([[2.0]]), B=np.array([[1.0]]))
    syn = sppc.synthesize(plant, np.array([[1.0]]), 2, 0.5)
    return plant, syn, syn.horizon


@pytest.fixture(scope="session")
def example_plant():
    return sppc.from_poles(EXAMPLE_POLES)


@pytest.fixture(scope="session")
def example_case(example_plant):
    """Fourth-order unstable plant with N=10 and identity Q, synthesized once."""
    syn = sppc.synthesize(example_plant, None, 10, 0.5)
    return example_plant, syn, syn.horizon
