"""Dense float64 linear algebra for small control matrices; the library's checks.

Matrices are tiny (state dimension <= 20, horizon <= 64): robustness is
preferred over speed, and hot loops such as the OMP kernel keep their own
incremental factorizations (shared across designs in HorizonData's caches).
as_int and as_real check a scalar argument, for the library and the config
alike, and as_instance a library object (all raise ConfigError); as_array
a matrix or vector: a finite float64 array of a given shape, built from
ints or floats only (a bool in a list fails too), else DimensionMismatch
(plant.from_poles applies the same rule with complex values admitted).
as_symmetric adds symmetry for Q and P where they enter; the matrices the
library builds are trusted after. record is the one rule of a record that
holds arrays: frozen, compared by identity, never freezing a caller's
array, and pickled through its own checks.
"""

from __future__ import annotations

import dataclasses
import math
from numbers import Real

import numpy as np
import scipy.linalg

from .errors import (ConfigError, DimensionMismatch, NonSymmetric, NotPositiveDefinite,
                     RankDeficient)

SYMMETRY_TOL = 1e-10
PIVOT_REL_TOL = 1e-14
RANK_REL_TOL = 1e-12


def as_int(value, name: str, low: int, high: float = math.inf) -> int:
    """An int or numpy integer in [low, high), as int; bool is not an integer."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value < high):
        raise ConfigError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """A finite real, as float; bool is not a real."""
    try:
        if not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value):
            return float(value)
    except OverflowError:       # an int beyond the float range
        pass
    raise ConfigError(f"{name} must be a finite real, got {value!r}")


def as_instance(value, cls: type, name: str):
    """value if it is a cls, else ConfigError: the check of a library object."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def as_array(a, name: str, shape: tuple) -> np.ndarray:
    """A finite float64 array of the given shape; None leaves an axis free.

    Only arrays of ints or floats pass: strings, bools, complex values,
    objects and ragged rows raise DimensionMismatch, as do a wrong shape
    and non-finite entries.
    """
    return _numeric_array(a, name, shape, float)


def _numeric_array(a, name: str, shape: tuple | None, dtype: type) -> np.ndarray:
    """as_array for dtype float or complex (which admits complex entries);
    shape None accepts any shape."""
    try:
        m = np.asarray(a)
    except (TypeError, ValueError) as exc:     # ragged rows
        raise DimensionMismatch(f"{name} is not a numeric array: {exc}") from exc
    if m.dtype != dtype:
        if m.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
            allowed = "ints, floats or complex values" if dtype is complex else "ints or floats"
            raise DimensionMismatch(f"{name} must hold {allowed}, got dtype {m.dtype}")
        m = m.astype(dtype)
    # numpy reads a bool among numbers as 0 or 1; no ndarray holds that mix
    if not isinstance(a, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(a, dtype=object).flat):
        raise DimensionMismatch(f"{name} must hold numbers, not a bool entry")
    # the exact test first: it is the common case and costs one comparison
    if shape is not None and m.shape != shape and (
            m.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, m.shape))):
        shape = str(shape).replace("None", "any")
        raise DimensionMismatch(f"{name} must have shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise DimensionMismatch(f"{name} has non-finite entries")
    return m


def frozen(arr) -> np.ndarray:
    """arr read-only and C-ordered; a C-ordered array is frozen in place, with all it views."""
    arr = view = np.asarray(arr, order="C")
    while isinstance(view, np.ndarray):
        view.setflags(False)    # write=False: numpy parses the keyword at 4x the cost
        view = view.base
    return arr


def record(cls):
    """cls as a frozen dataclass compared by identity. Once its __post_init__
    has checked them, its np.ndarray fields are frozen, each copied unless it is
    read-only down to the array owning its memory; pickle and copy rebuild it
    through its constructor."""
    check = getattr(cls, "__post_init__", lambda self: None)

    def __post_init__(self):
        check(self)
        for name in arrays:
            a = base = getattr(self, name)
            while isinstance(base, np.ndarray) and not base.flags.writeable:
                base = base.base
            object.__setattr__(self, name, frozen(a if base is None else np.array(a)))

    cls.__post_init__ = __post_init__
    cls.__reduce__ = lambda self: (cls, tuple(getattr(self, name) for name in init))
    cls = dataclasses.dataclass(frozen=True, eq=False)(cls)
    arrays = [f.name for f in dataclasses.fields(cls) if f.type in (np.ndarray, "np.ndarray")]
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    return cls


def symmetrize(m: np.ndarray) -> np.ndarray:
    s = m + m.T
    s *= 0.5
    return s


def as_symmetric(a, name: str, n: int | None = None) -> np.ndarray:
    """A finite square float64 matrix (n x n when n is given) within
    SYMMETRY_TOL max|M| of symmetric, as (M + M^T) / 2: exactly symmetric,
    and bit for bit M when M already is.
    """
    m = as_array(a, name, (n, n))
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    gap = float(np.abs(m - m.T).max(initial=0.0))
    limit = SYMMETRY_TOL * float(np.abs(m).max(initial=0.0))
    if gap > limit:
        raise NonSymmetric(f"{name} asymmetry {gap:.3e} exceeds tolerance {limit:.1e}")
    return symmetrize(m)


def cholesky(s: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == s for symmetric positive definite s.

    s is a checked array: square, float64 and exactly symmetric, as
    as_symmetric returns or the library builds. Raises NotPositiveDefinite
    when a pivot falls at or below PIVOT_REL_TOL times the max-norm of s.
    """
    scale = float(np.abs(s).max(initial=0.0))
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    # diag(L)^2 are the elimination pivots
    if np.any(np.diag(lower) ** 2 <= PIVOT_REL_TOL * scale):
        raise NotPositiveDefinite("pivot below positive-definiteness threshold")
    return lower


def solve_least_squares(m, y) -> np.ndarray:
    """Minimize ||m @ u - y||_2 for m with full column rank.

    Solves through the thin SVD, which also supplies the rank test.
    """
    m = as_array(m, "m", (None, None))
    y = as_array(y, "y", (len(m),))
    if m.shape[0] < m.shape[1]:
        raise RankDeficient(f"{m.shape[0]} rows cannot span {m.shape[1]} columns")
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    if sv[0] <= 0.0 or sv[-1] <= RANK_REL_TOL * sv[0]:
        raise RankDeficient("smallest singular value below rank tolerance")
    return vt.T @ ((u.T @ y) / sv)


def congruent_spectrum(numerator: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of numerator @ inv(spd), given lower = cholesky(spd).

    numerator is a checked symmetric array of spd's shape (see cholesky).
    Computed through the symmetric congruence L^-1 numerator L^-T, which is
    similar to the product, so the spectrum is real; inv(spd) is never
    formed. Both operands derive from as_symmetric's checks, so the
    triangular solves skip scipy's finiteness scan.
    """
    t = scipy.linalg.solve_triangular(lower, numerator, lower=True, check_finite=False)
    m = scipy.linalg.solve_triangular(lower, t.T, lower=True, check_finite=False)
    return np.linalg.eigvalsh(symmetrize(m))
