"""Discrete-time LTI plant with a scalar input: x(k+1) = A x(k) + B u(k)."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NonConjugatePoles
from .numerics import _numeric_array, as_array, as_instance, as_real, record

# Largest imaginary part, relative to the largest coefficient, that the
# characteristic polynomial of conjugate-closed poles may carry.
_CONJUGATE_TOL = 1e-9


@record
class PlantModel:
    """State-space pair (A, B); A is n x n, B an n x 1 column."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = as_array(self.A, "A", (None, None))
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {a.shape}")
        b = _numeric_array(self.B, "B", None, float)
        b = as_array(b.reshape(-1, 1) if b.ndim == 1 else b, "B", (len(a), 1))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def step(plant: PlantModel, x, u: float) -> np.ndarray:
    """One plant update: A x + B u. plant, the state x and the input u pass the
    library's argument checks, and an overflow raises DimensionMismatch."""
    A = as_instance(plant, PlantModel, "plant").A
    x = as_array(x, "state", (len(A),))
    return _advance(A, plant.B[:, 0], x[None], np.array([as_real(u, "input")]))[0]


def _advance(A: np.ndarray, b: np.ndarray, X: np.ndarray, u: np.ndarray) -> np.ndarray:
    """step on checked states X and inputs u stacked by rows, b being B's column:
    the loop's update of a batch. A @ X[:, :, None] makes A.dot's BLAS call on
    each row, so a row's bits do not depend on its batch. The finiteness test
    reads the floats one by one: exact, and warning-free at a sixth of
    np.isfinite's cost on a few short states."""
    X = (A @ X[:, :, None])[:, :, 0] + b * u[:, None]
    if not all(map(math.isfinite, X.ravel().tolist())):
        raise DimensionMismatch("state, input and next state must be finite")
    return X


def from_poles(poles) -> PlantModel:
    """Controllable-canonical realization of the plant with the given poles.

    A is the companion matrix (last row carries the negated characteristic
    coefficients) of the real monic polynomial with the given roots, and
    B = [0, ..., 0, 1]^T, which is reachable by construction. The poles pass
    as_array's rule with complex values admitted, and complex poles must
    appear in conjugate pairs.
    """
    roots = _numeric_array(poles, "poles", (None,), complex)
    if roots.size == 0:
        raise DimensionMismatch("poles must be a non-empty 1-D sequence")
    coeffs = np.poly(roots)  # [1, c1, ..., cn], descending powers
    # exactly real when the roots are closed under conjugation
    if np.abs(coeffs.imag).max() > _CONJUGATE_TOL * np.abs(coeffs).max():
        raise NonConjugatePoles(f"poles {roots.tolist()} are not closed under conjugation")
    coeffs = coeffs.real
    n = roots.size
    a = np.eye(n, k=1)
    a[-1, :] = -coeffs[-1:0:-1]
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    return PlantModel(a, b)


def reachability_matrix(plant: PlantModel) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B], n x n for a scalar-input plant."""
    cols = [as_instance(plant, PlantModel, "plant").B[:, 0]]
    for _ in range(plant.n - 1):
        cols.append(plant.A @ cols[-1])
    return np.column_stack(cols)

def is_reachable(plant: PlantModel) -> bool:
    """Full-rank test of the reachability matrix (relative tolerance 1e-10)."""
    sv = np.linalg.svd(reachability_matrix(plant), compute_uv=False)
    return bool(sv[0] > 0.0 and sv[-1] > 1e-10 * sv[0])
