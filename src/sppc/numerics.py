"""Dense double-precision linear algebra for small control matrices.

Everything here operates on float64 ndarrays and treats inputs as
immutable, so the routines are safe to call from concurrent contexts.
Matrices are tiny (state dimension <= 20, horizon <= 64); robustness is
preferred over speed here, so hot loops such as the OMP kernel keep their
own incremental factorizations instead of calling in once per iteration.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonSymmetric, NotPositiveDefinite, RankDeficient

SYMMETRY_TOL = 1e-10
PIVOT_REL_TOL = 1e-14
RANK_REL_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"{name} has non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch(f"{name} has non-finite entries")
    return v


def _as_square(a, name: str) -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def require_symmetric(m: np.ndarray, name: str = "matrix") -> None:
    gap = float(np.abs(m - m.T).max()) if m.size else 0.0
    if gap > SYMMETRY_TOL:
        raise NonSymmetric(f"{name} asymmetry {gap:.3e} exceeds tolerance "
                           f"{SYMMETRY_TOL:.1e}")


def cholesky(s) -> np.ndarray:
    """Lower-triangular L with L @ L.T == s for symmetric positive definite s.

    Raises NotPositiveDefinite when a pivot falls at or below
    PIVOT_REL_TOL times the max-norm of s.
    """
    s = _as_square(s, "s")
    require_symmetric(s, name="s")
    sym = symmetrize(s)
    scale = float(np.abs(sym).max()) if sym.size else 0.0
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    # diag(L)^2 are the elimination pivots
    if np.any(np.diag(lower) ** 2 <= PIVOT_REL_TOL * scale):
        raise NotPositiveDefinite("pivot below positive-definiteness threshold")
    return lower


def sym_eigenvalues(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted ascending."""
    s = _as_square(s, "s")
    require_symmetric(s, name="s")
    return np.linalg.eigvalsh(symmetrize(s))


def solve_least_squares(m, y) -> np.ndarray:
    """Minimize ||m @ u - y||_2 for m with full column rank.

    Solves through the thin SVD, which also supplies the rank test.
    """
    m = as_matrix(m, "m")
    y = as_vector(y, "y")
    if y.size != m.shape[0]:
        raise DimensionMismatch(
            f"rhs length {y.size} does not match {m.shape[0]} rows"
        )
    if m.shape[0] < m.shape[1]:
        raise RankDeficient(f"{m.shape[0]} rows cannot span {m.shape[1]} columns")
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    if sv[0] <= 0.0 or sv[-1] <= RANK_REL_TOL * sv[0]:
        raise RankDeficient("smallest singular value below rank tolerance")
    return vt.T @ ((u.T @ y) / sv)


def congruent_spectrum(numerator, spd) -> np.ndarray:
    """Eigenvalues (ascending) of numerator @ inv(spd).

    numerator is symmetric and spd symmetric positive definite, of the
    same shape. Computed through the symmetric congruence
    L^-1 numerator L^-T with spd = L L^T; inv(spd) is never formed. The
    product is similar to this symmetric matrix, so the spectrum is real.
    """
    numerator = _as_square(numerator, "numerator")
    spd = _as_square(spd, "spd")
    if numerator.shape != spd.shape:
        raise DimensionMismatch(f"shape mismatch {numerator.shape} vs {spd.shape}")
    lower = cholesky(spd)
    t = scipy.linalg.solve_triangular(lower, symmetrize(numerator), lower=True)
    m = scipy.linalg.solve_triangular(lower, t.T, lower=True)
    return np.linalg.eigvalsh(symmetrize(m))
