"""Stability-parameter synthesis for the sparse packet design.

Given a reachable plant and a design weight Q > 0, this module produces
the full parameter set the packet designer needs: the cheap-control
Riccati solution P, the contraction rate rho = 1 - lambda_min(Q P^-1),
the horizon constant c, a margin matrix Eps strictly inside the cone
0 < Eps < (1 - rho) P / c, and the constraint weight W = P - Q + Eps.
Feasible packets then satisfy ||G u - H x||^2 <= x^T W x with a margin of
x^T Eps x, because the unconstrained optimum of the lifted cost equals
x^T (P - Q) x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInput, NoConvergence, NotPositiveDefinite, NotReachable
from .lifting import HorizonData, build_horizon
from .numerics import as_matrix, congruent_spectrum, sym_eigenvalues, symmetrize
from .plant import PlantModel, is_reachable

RICCATI_REL_TOL = 1e-12
RICCATI_MAX_ITERATIONS = 100_000
RICCATI_PIVOT_FLOOR = 1e-12

C_INTERPRETATIONS = ("column_lift", "block_row")


@dataclass(frozen=True)
class SynthesisResult:
    """Parameters produced by the synthesis procedure, all immutable."""

    Q: np.ndarray
    P: np.ndarray
    rho: float
    c: float
    Eps: np.ndarray
    W: np.ndarray
    alpha: float
    riccati_iterations: int
    riccati_residual: float


def riccati_residual(plant: PlantModel, Q: np.ndarray, P: np.ndarray) -> float:
    """Max-norm defect of P as a fixed point of the cheap-control Riccati map."""
    A, B = plant.A, plant.B
    bpb = (B.T @ P @ B).item()
    apb = A.T @ (P @ B)
    image = A.T @ P @ A - (apb @ apb.T) / bpb + Q
    return float(np.abs(image - P).max())


def solve_riccati(plant: PlantModel, Q):
    """Fixed-point iteration for P = A^T P A - A^T P B (B^T P B)^-1 B^T P A + Q.

    Starts at P = Q, symmetrizes every iterate, and stops when the relative
    max-norm change drops below RICCATI_REL_TOL. Converges for reachable
    (A, B) with Q > 0; this is the value-iteration form of the equation.

    Returns (P, iterations, residual).
    """
    Q = as_matrix(Q, "Q")
    if not is_reachable(plant):
        raise NotReachable("plant not reachable")
    A, B = plant.A, plant.B
    P = symmetrize(Q.copy())
    iterations = 0
    for iterations in range(1, RICCATI_MAX_ITERATIONS + 1):
        bpb = (B.T @ P @ B).item()
        if bpb <= RICCATI_PIVOT_FLOOR:
            raise DegenerateInput(f"B^T P B = {bpb:.3e} underflowed")
        apb = A.T @ (P @ B)
        p_next = symmetrize(A.T @ P @ A - (apb @ apb.T) / bpb + Q)
        if not np.all(np.isfinite(p_next)):
            raise NoConvergence("Riccati iteration diverged")
        delta = float(np.abs(p_next - P).max())
        P = p_next
        if delta <= RICCATI_REL_TOL * (1.0 + float(np.abs(P).max())):
            break
    else:
        raise NoConvergence(
            f"Riccati iteration missed tolerance {RICCATI_REL_TOL:.1e} "
            f"after {RICCATI_MAX_ITERATIONS} iterations"
        )
    return P, iterations, riccati_residual(plant, Q, P)


def compute_rho(Q, P) -> float:
    """Contraction rate 1 - lambda_min(Q P^-1); in [0, 1) when Q <= P."""
    rho = 1.0 - float(congruent_spectrum(Q, P)[0])
    # P >= Q makes rho >= 0 exactly; clip rounding dust at the boundary
    return max(rho, 0.0)


def compute_c(h: HorizonData, P, rho: float,
              interpretation: str = "column_lift") -> float:
    """Horizon constant scaling the admissible margin cone.

    Both readings of the per-index quadratic form over the input map are
    supported. "column_lift" treats index i as the i-th column of Phi and
    lifts P blockwise, giving the scalar sum of P-quadratic forms over the
    column's blocks; "block_row" treats index i as the i-th block row.
    The maximum over i is scaled by the geometric-series prefactor
    (1 - rho^N) / (1 - rho) and by the inverse Gram matrix of the lifted
    input map.
    """
    if not 0.0 <= rho < 1.0:
        raise DegenerateInput(f"rho = {rho!r} outside [0, 1)")
    P = as_matrix(P, "P")
    lam_min = float(sym_eigenvalues(h.gram)[0])
    if lam_min <= 0.0:
        raise NotPositiveDefinite("lifted input map lost column rank")
    n, N = h.n, h.N
    if interpretation == "column_lift":
        blocks = h.Phi.reshape(N, n, N)
        forms = np.einsum("iaj,ab,ibj->j", blocks, P, blocks)
        peak = float(forms.max()) / lam_min
    elif interpretation == "block_row":
        peak = 0.0
        for i in range(N):
            row = h.Phi[i * n:(i + 1) * n, :]
            peak = max(peak, congruent_spectrum(row.T @ P @ row, h.gram)[-1])
    else:
        raise ConfigError(
            f"unknown c interpretation {interpretation!r}; "
            f"expected one of {C_INTERPRETATIONS}"
        )
    prefactor = (1.0 - rho ** N) / (1.0 - rho)
    return float(prefactor * peak)


def synthesize(plant: PlantModel, Q, N: int, alpha: float = 0.5, *,
               c_interpretation: str = "column_lift") -> SynthesisResult:
    """Run the synthesis procedure end to end.

    Q may be None for the identity default. alpha in (0, 1) places
    Eps = alpha (1 - rho) P / c strictly inside the admissible cone.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
    if Q is None:
        Q = np.eye(plant.n)
    Q = symmetrize(as_matrix(Q, "Q"))
    P, iterations, residual = solve_riccati(plant, Q)
    rho = compute_rho(Q, P)
    horizon = build_horizon(plant, Q, P, N)
    c = compute_c(horizon, P, rho, c_interpretation)
    eps = symmetrize(alpha * (1.0 - rho) / c * P)
    w = symmetrize(P - Q + eps)
    for arr in (Q, P, eps, w):
        arr.setflags(write=False)
    return SynthesisResult(Q=Q, P=P, rho=rho, c=c, Eps=eps, W=w, alpha=alpha,
                           riccati_iterations=iterations,
                           riccati_residual=residual)


@dataclass(frozen=True)
class InvariantCheck:
    """One named pass/fail outcome with the measured value and its limit."""

    name: str
    passed: bool
    value: float
    limit: float


def check_invariants(plant: PlantModel, result: SynthesisResult) -> list[InvariantCheck]:
    """Evaluate every SynthesisResult invariant; used by tests and the CLI manifest."""
    P, Q, eps, w = result.P, result.Q, result.Eps, result.W
    checks = []

    limit = 1e-9 * (1.0 + float(np.abs(P).max()))
    residual = riccati_residual(plant, Q, P)
    checks.append(InvariantCheck("riccati_residual", residual <= limit,
                                 residual, limit))

    gap_min = float(sym_eigenvalues(symmetrize(P - Q))[0])
    checks.append(InvariantCheck("p_minus_q_psd", gap_min >= -1e-9, gap_min, -1e-9))

    checks.append(InvariantCheck("rho_in_range", 0.0 <= result.rho < 1.0,
                                 result.rho, 1.0))

    eps_min = float(sym_eigenvalues(eps)[0])
    checks.append(InvariantCheck("eps_positive", eps_min > 0.0, eps_min, 0.0))

    cone = symmetrize((1.0 - result.rho) / result.c * P - eps)
    cone_min = float(sym_eigenvalues(cone)[0])
    checks.append(InvariantCheck("eps_inside_cone", cone_min > 0.0, cone_min, 0.0))

    w_min = float(sym_eigenvalues(w)[0])
    checks.append(InvariantCheck("w_positive_definite", w_min > 0.0, w_min, 0.0))

    w_gap = float(np.abs(w - (P - Q + eps)).max())
    w_limit = 1e-12 * (1.0 + float(np.abs(w).max()))
    checks.append(InvariantCheck("w_composition", w_gap <= w_limit, w_gap, w_limit))
    return checks
