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

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DegenerateInput, NoConvergence, NotPositiveDefinite,
                     NotReachable)
from .lifting import HorizonData, _lift
from .numerics import (as_instance, as_real, as_symmetric, cholesky, congruent_spectrum, record,
                       symmetrize)
from .plant import PlantModel, is_reachable

RICCATI_REL_TOL = 1e-12
RICCATI_MAX_ITERATIONS = 100_000


@record
class SynthesisResult:
    """Parameters produced by the synthesis procedure; the one holder of its
    plant, its lifting and W, which is P - Q + Eps by construction."""

    Q: np.ndarray
    P: np.ndarray
    rho: float
    c: float
    Eps: np.ndarray
    W: np.ndarray = field(init=False)
    riccati_iterations: int
    horizon: HorizonData     # the lifting of this Q, P and N; c is read off its G
    plant: PlantModel        # the plant this synthesis was computed for

    def __post_init__(self):
        object.__setattr__(self, "W", self.P - self.Q + self.Eps)


def _riccati_image(A, B, Q, P) -> np.ndarray:
    """A^T P A - A^T P B (B^T P B)^-1 B^T P A + Q, unsymmetrized, in a new array."""
    bpb = B.T.dot(P).dot(B).item()
    if bpb < sys.float_info.min:
        raise DegenerateInput(f"B^T P B = {bpb:.3e} underflowed")
    apb = A.T.dot(P.dot(B))
    image = A.T.dot(P).dot(A)
    image -= apb.dot(apb.T) / bpb
    image += Q
    return image


def riccati_residual(plant: PlantModel, Q: np.ndarray, P: np.ndarray) -> float:
    """Max-norm defect of P as a fixed point of the cheap-control Riccati map."""
    image = _riccati_image(plant.A, plant.B, Q, P)
    return float(np.abs(image - P).max())


def _residual_limit(P: np.ndarray) -> float:
    """The largest riccati_residual a solved P may have: 1e-9 max|P| (P >= Q > 0)."""
    return 1e-9 * float(np.abs(P).max())


@np.errstate(all="ignore")     # overflow ends in a non-finite beta or step
def _doubling(A, b, Q):
    """Doubling from H = Q, G = t b b^T at t -> inf; H after k steps is value
    iterate 2^k - 1. Ghat = G - t b b^T, M = I + Ghat H, Z = lim (I + G H)^-1."""
    H, Ghat = Q, np.zeros_like(Q)
    for steps in range(1, math.ceil(math.log2(RICCATI_MAX_ITERATIONS + 1)) + 1):
        try:
            m_inv = np.linalg.inv(np.eye(len(b)) + Ghat.dot(H))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Riccati doubling failed: {exc}") from exc
        mb, bhm = m_inv.dot(b), H.dot(b).dot(m_inv)
        beta = float(bhm.dot(b))
        Z = m_inv - np.outer(mb, bhm / beta)
        ZA = Z.dot(A)
        Ghat = symmetrize(Ghat + A.dot(np.outer(mb, b / beta) + Z.dot(Ghat)).dot(A.T))
        step, A = symmetrize(A.T.dot(H).dot(ZA)), A.dot(ZA)
        H, delta = H + step, float(np.abs(step).max())
        if not (0.0 < beta < math.inf and math.isfinite(delta)):
            raise NoConvergence(f"Riccati doubling failed: beta = {beta:.1e}, step {delta:.1e}")
        if delta <= RICCATI_REL_TOL * float(np.abs(H).max()):
            break
    return H, steps


def solve_riccati(plant: PlantModel, Q):
    """Fixed-point iteration for P = A^T P A - A^T P B (B^T P B)^-1 B^T P A + Q.

    _doubling runs first; the value map then polishes its limit, each iterate
    symmetrized, until the relative max-norm change drops below
    RICCATI_REL_TOL or, past n + 1 steps, stops shrinking; that P raises
    NoConvergence if it fails riccati_residual's limit. Every stop is
    relative, so P(2^k Q) is exactly 2^k P(Q).
    Returns (P, iterations): the doublings plus the polish steps.
    """
    return _riccati(plant, as_symmetric(Q, "Q", as_instance(plant, PlantModel, "plant").n))


def _riccati(plant: PlantModel, Q: np.ndarray):
    """solve_riccati for a checked Q."""
    if not is_reachable(plant):
        raise NotReachable("plant not reachable")
    A, B, n = plant.A, plant.B, plant.n
    P, doublings = _doubling(A, B[:, 0], Q)
    last = math.inf
    for iterations in range(1, RICCATI_MAX_ITERATIONS + 1):
        image = _riccati_image(A, B, Q, P)
        p_next = symmetrize(image)
        # image holds |p_next - P|, then |p_next|; inf or nan in p_next reach delta
        delta = float(np.abs(np.subtract(p_next, P, out=image), out=image).max())
        if not math.isfinite(delta):
            raise NoConvergence("Riccati iteration diverged")
        P = p_next
        if delta <= RICCATI_REL_TOL * float(np.abs(P, out=image).max()):
            break
        if iterations > n + 1 and delta >= last:
            if (residual := riccati_residual(plant, Q, P)) > _residual_limit(P):
                raise NoConvergence(f"Riccati polish stalled at a residual of {residual:.1e}")
            break
        last = delta
    else:
        raise NoConvergence(f"Riccati iteration missed tolerance {RICCATI_REL_TOL:.1e} "
                            f"after {RICCATI_MAX_ITERATIONS} iterations")
    return P, iterations + doublings


def compute_rho(Q, P) -> float:
    """Contraction rate 1 - lambda_min(Q P^-1); in [0, 1) when Q <= P."""
    Q = as_symmetric(Q, "Q")
    return _rho(Q, cholesky(as_symmetric(P, "P", len(Q))))


def _rho(Q: np.ndarray, lower_p: np.ndarray) -> float:
    """compute_rho for a checked Q and the Cholesky factor of P."""
    rho = 1.0 - float(congruent_spectrum(Q, lower_p)[0])
    # P >= Q makes rho >= 0 exactly; clip rounding dust at the boundary
    return max(rho, 0.0)


def compute_c(h: HorizonData, rho: float) -> float:
    """Horizon constant scaling the admissible margin cone.

    c = (1 - rho^N) / (1 - rho) ||G_T||_F^2 / lambda_min(G^T G), G_T the last
    block row of G. The numerator is the largest over packet indices j of
    sum_{k < N-j} (A^k B)^T P (A^k B), a partial sum of non-negative terms,
    so index 0 attains it, and G_T = R_P [A^(N-1) B, ..., A B, B] holds its
    terms: the numerator is one dot product of G_T's ravel.
    """
    rho = as_real(rho, "rho")
    if not 0.0 <= rho < 1.0:
        raise DegenerateInput(f"rho = {rho!r} outside [0, 1)")
    lam_min, lam_max = np.linalg.eigvalsh(as_instance(h, HorizonData, "h").gram)[[0, -1]]
    if lam_min <= 0.0:
        raise NotPositiveDefinite(f"lambda_min(G^T G) = {lam_min:.3e} <= 0 against "
                                  f"lambda_max = {lam_max:.3e} at horizon N = {h.N}")
    last = h.G[-h.n:].ravel()
    prefactor = (1.0 - rho ** h.N) / (1.0 - rho)
    return float(prefactor * (last.dot(last) / lam_min))


def _alpha(alpha) -> float:
    alpha = as_real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def synthesize(plant: PlantModel, Q, N: int, alpha: float = 0.5) -> SynthesisResult:
    """Run the synthesis procedure end to end.

    Q (checked by as_symmetric) may be None for the identity default.
    P, Eps and W are built exactly symmetric from it, so none of them is
    symmetrized again. alpha in (0, 1) places
    Eps = alpha (1 - rho) P / c strictly inside the admissible cone. Each
    argument is checked once; one factor of P serves rho and the lifting.
    """
    as_instance(plant, PlantModel, "plant")
    alpha = _alpha(alpha)
    Q = np.eye(plant.n) if Q is None else as_symmetric(Q, "Q", plant.n)
    P, iterations = _riccati(plant, Q)
    lower_p = cholesky(P)
    rho = _rho(Q, lower_p)
    horizon = _lift(plant, cholesky(Q), lower_p, N)
    c = compute_c(horizon, rho)
    eps = alpha * (1.0 - rho) / c * P
    return SynthesisResult(Q=Q, P=P, rho=rho, c=c, Eps=eps,
                           riccati_iterations=iterations, horizon=horizon, plant=plant)


@dataclass(frozen=True)
class InvariantCheck:
    """One named pass/fail outcome with the measured value and its limit."""

    name: str
    passed: bool
    value: float
    limit: float


def check_invariants(plant: PlantModel, result: SynthesisResult) -> list[InvariantCheck]:
    """Evaluate result's invariants; plant must be result.plant, by identity.

    P - Q >= 0 follows from them: eps_positive and eps_inside_cone give P > 0,
    so F(P) - Q = A^T (P - P b b^T P / b^T P b) A >= 0 for the Riccati map F,
    and lambda_min(P - Q) >= -||F(P) - P||_2 >= -n riccati_residual.
    """
    if plant is not as_instance(result, SynthesisResult, "result").plant:
        raise ConfigError("plant is not result.plant, the plant result was synthesized for")
    P, eps, rho = result.P, result.Eps, result.rho
    residual, limit = riccati_residual(plant, result.Q, P), _residual_limit(P)
    eps_min = float(np.linalg.eigvalsh(eps)[0])
    cone_min = float(np.linalg.eigvalsh((1.0 - rho) / result.c * P - eps)[0])
    w_min = float(np.linalg.eigvalsh(result.W)[0])
    return [InvariantCheck("riccati_residual", residual <= limit, residual, limit),
            InvariantCheck("rho_in_range", 0.0 <= rho < 1.0, rho, 1.0),
            InvariantCheck("eps_positive", eps_min > 0.0, eps_min, 0.0),
            InvariantCheck("eps_inside_cone", cone_min > 0.0, cone_min, 0.0),
            InvariantCheck("w_positive_definite", w_min > 0.0, w_min, 0.0)]
