"""Sparse packet design.

Three solvers for the packet problem at state x: minimize the number of
nonzero entries of u subject to ||G u - H x||^2 <= x^T W x. Orthogonal
Matching Pursuit is the production path, exhaustive enumeration is the
small-horizon oracle, and an l1-regularized proximal solver stands in
for the fixed-bound baseline it is compared against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateInput, DimensionMismatch, Infeasible,
                     NoConvergence, RankDeficient)
from .lifting import HorizonData
from .numerics import RANK_REL_TOL, as_matrix, as_vector, solve_least_squares

FEASIBILITY_REL_SLACK = 1e-7
# below this absolute scale the threshold sits in the denormal range where
# relative margins are meaningless, so infeasibility is never diagnosed
FEASIBILITY_ABS_FLOOR = 1e-280
EXHAUSTIVE_MAX_N = 12
L1_MAX_ITERATIONS = 5000
L1_REL_TOL = 1e-10
L1_TRUNCATION_REL = 1e-9


@dataclass(frozen=True)
class ControlPacket:
    """A designed input sequence with its sparsity bookkeeping.

    support lists exactly the indices with nonzero coefficients, so
    len(support) is the l0 count; a picked index whose coefficient comes
    out as exactly 0.0 is not counted, so l0 may fall below iterations.
    residual_sq is ||G coeffs - H x||^2 at the solution and threshold the
    bound it was designed against (state dependent for OMP and the oracle,
    caller supplied for the l1 solver, which does not promise
    residual_sq <= threshold).
    """

    coeffs: np.ndarray
    support: tuple[int, ...]
    residual_sq: float
    threshold: float
    iterations: int

    @property
    def l0(self) -> int:
        return len(self.support)


def _packet(coeffs: np.ndarray, residual_sq: float, threshold: float,
            iterations: int) -> ControlPacket:
    coeffs = coeffs.copy()
    coeffs.setflags(write=False)
    support = tuple(int(i) for i in np.flatnonzero(coeffs != 0.0))
    return ControlPacket(coeffs=coeffs, support=support,
                         residual_sq=float(residual_sq),
                         threshold=float(threshold),
                         iterations=int(iterations))


def _design_inputs(h: HorizonData, W, x):
    W = as_matrix(W, "W")
    x = as_vector(x, "x")
    if W.shape != (h.n, h.n) or x.size != h.n:
        raise DimensionMismatch(
            f"expected W {h.n}x{h.n} and x of length {h.n}, "
            f"got {W.shape} and {x.size}"
        )
    y = h.H @ x
    eps = float(x @ (W @ x))
    return x, y, eps


def _greedy_picks(h: HorizonData, y: np.ndarray, eps: float):
    """The OMP loop: returns (picks in pick order, coefficients, ||r||^2).

    G[:, picks] = B R gains one Gram-Schmidt step with re-orthogonalization
    per pick (B stored by rows); the coefficients are R^-1 (B^T y).
    """
    G, norms = h.G, h.col_norms
    basis = np.empty((h.N, G.shape[0]))
    r_inv = np.zeros((h.N, h.N))
    picks: list[int] = []
    coeffs = np.zeros(h.N)
    r = y
    rr = float(r @ r)
    while rr > eps and len(picks) < h.N:
        score = np.abs(r @ G) / norms
        score[picks] = -np.inf
        j = int(score.argmax())
        k = len(picks)
        s = basis[:k] @ G[:, j]
        v = G[:, j] - s @ basis[:k]
        s2 = basis[:k] @ v
        v -= s2 @ basis[:k]
        pivot = math.sqrt(v @ v)
        if pivot <= RANK_REL_TOL * norms[j]:
            raise RankDeficient(f"column {j} is numerically in the span of "
                                f"columns {sorted(picks)}")
        basis[k] = v / pivot
        r_inv[:k, k] = r_inv[:k, :k] @ (s + s2) / -pivot
        r_inv[k, k] = 1.0 / pivot
        picks.append(j)
        coeffs[picks] = r_inv[:k + 1, :k + 1] @ (basis[:k + 1] @ y)
        r = y - G @ coeffs
        rr = float(r @ r)
    return picks, coeffs, rr


def _check_feasible(rr: float, eps: float) -> None:
    if rr > eps * (1.0 + FEASIBILITY_REL_SLACK) + FEASIBILITY_ABS_FLOOR:
        raise Infeasible(f"full-support residual {rr:.6e} exceeds threshold {eps:.6e}; "
                         "the synthesis that produced W is inconsistent")


def omp_design(h: HorizonData, W, x) -> ControlPacket:
    """Orthogonal Matching Pursuit for the state-dependent packet problem.

    Grows the support greedily from the residual r = H x - G u, picking
    the column most correlated with r (normalized by column norm; ties
    break to the smallest index), refitting by least squares, and
    stopping as soon as ||r||^2 <= x^T W x. Feasible by construction for
    a valid synthesis: the full-support residual is x^T (P - Q) x, which
    sits below the threshold by the margin x^T E x.
    """
    x, y, eps = _design_inputs(h, W, x)
    picks, coeffs, rr = _greedy_picks(h, y, eps)
    _check_feasible(rr, eps)
    return _packet(coeffs, rr, eps, len(picks))


def exhaustive_design(h: HorizonData, W, x) -> ControlPacket:
    """Globally sparsest feasible packet by support enumeration.

    Tries supports in order of increasing cardinality, lexicographic
    within a cardinality, and returns the first whose least-squares
    residual meets the threshold. iterations counts supports evaluated.
    Exponential in N; refuses horizons beyond EXHAUSTIVE_MAX_N.
    """
    if h.N > EXHAUSTIVE_MAX_N:
        raise ConfigError(f"horizon {h.N} exceeds exhaustive-search limit "
                          f"{EXHAUSTIVE_MAX_N}")
    x, y, eps = _design_inputs(h, W, x)
    tried = 1
    rr = float(y @ y)
    if rr <= eps:
        return _packet(np.zeros(h.N), rr, eps, tried)
    for size in range(1, h.N + 1):
        for support in itertools.combinations(range(h.N), size):
            cols = h.G[:, support]
            sol = solve_least_squares(cols, y)
            r = y - cols @ sol
            rr = float(r @ r)
            tried += 1
            if rr <= eps:
                coeffs = np.zeros(h.N)
                coeffs[list(support)] = sol
                return _packet(coeffs, rr, eps, tried)
    _check_feasible(rr, eps)
    return _packet(sol, rr, eps, tried)


def _soft_threshold(z: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - amount, 0.0)


def l1_design(h: HorizonData, x, lam: float, fixed_bound: float) -> ControlPacket:
    """Baseline design minimizing lam * ||u||_1 + 0.5 * ||G u - H x||^2.

    Accelerated proximal gradient with step 1/L, L the top eigenvalue of
    G^T G, momentum restarted whenever the objective rises. Stops when
    the relative objective change drops below L1_REL_TOL. Near-zero entries
    (below L1_TRUNCATION_REL of the largest) are truncated to exact zero
    before sparsity accounting. The packet records fixed_bound as its
    threshold for comparison purposes only; no feasibility is promised.
    """
    lam = float(lam)
    if not lam > 0.0 or not np.isfinite(lam):
        raise ConfigError(f"lam must be a positive real, got {lam!r}")
    fixed_bound = float(fixed_bound)
    if fixed_bound < 0.0 or not np.isfinite(fixed_bound):
        raise ConfigError(f"fixed_bound must be non-negative, got {fixed_bound!r}")
    x = as_vector(x, "x")
    if x.size != h.n:
        raise DimensionMismatch(f"expected x of length {h.n}, got {x.size}")
    y = h.H @ x
    K = h.gram
    b = h.G.T @ y
    yty = float(y @ y)
    if h.lipschitz <= 0.0:
        raise DegenerateInput("lifted input map has zero energy")
    step = 1.0 / h.lipschitz
    shrink = lam * step

    def objective(v: np.ndarray) -> float:
        return float(0.5 * (v @ (K @ v)) - b @ v + 0.5 * yty
                     + lam * np.abs(v).sum())

    u = np.zeros(h.N)
    momentum = u
    t = 1.0
    f_prev = objective(u)
    converged = False
    iterations = 0
    for iterations in range(1, L1_MAX_ITERATIONS + 1):
        grad = K @ momentum - b
        u_next = _soft_threshold(momentum - step * grad, shrink)
        f = objective(u_next)
        if f > f_prev:
            # momentum overshot: fall back to a plain proximal step from
            # the last iterate, which can never increase the objective
            grad = K @ u - b
            u_next = _soft_threshold(u - step * grad, shrink)
            f = objective(u_next)
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = u_next + ((t - 1.0) / t_next) * (u_next - u)
        u = u_next
        t = t_next
        if abs(f_prev - f) <= L1_REL_TOL * (1.0 + abs(f)):
            converged = True
            break
        f_prev = f
    if not converged:
        raise NoConvergence(
            f"l1 solver missed tolerance {L1_REL_TOL:.1e} "
            f"after {L1_MAX_ITERATIONS} iterations"
        )
    peak = float(np.abs(u).max()) if u.size else 0.0
    if peak > 0.0:
        u[np.abs(u) < L1_TRUNCATION_REL * peak] = 0.0
    r = h.G @ u - y
    return _packet(u, float(r @ r), fixed_bound, iterations)
