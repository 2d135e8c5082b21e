"""Reference implementations the tests compare the library against.

None of these is on a library or CLI path: the small-horizon exhaustive
oracle, the lifted stage cost, the OMP kernel that refits every pick, the
lifting as first written and the horizon constant by its per-index
definition, the Riccati solve in its value-first order, and the closed
loop as first written.
"""

import itertools
import math

import numpy as np

from sppc import synthesis
from sppc.errors import ConfigError, Infeasible, NoConvergence, RankDeficient
from sppc.lifting import HorizonData
from sppc.netsim import buffer_apply, channel_step
from sppc.numerics import RANK_REL_TOL, as_array, cholesky, solve_least_squares, symmetrize
from sppc.plant import step
from sppc.solvers import (FEASIBILITY_ABS_FLOOR, FEASIBILITY_REL_SLACK, ControlPacket,
                          _design_inputs, l1_design, omp_design)

EXHAUSTIVE_MAX_N = 12


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
    W, x = _design_inputs(h, W, x)
    y = h.H @ x
    eps = float(x @ (W @ x))
    tried = 1
    rr = float(y @ y)
    if rr <= eps:
        return ControlPacket(np.zeros(h.N), rr, eps, tried)
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
                return ControlPacket(coeffs, rr, eps, tried)
    if rr > eps * (1.0 + FEASIBILITY_REL_SLACK) + FEASIBILITY_ABS_FLOOR:
        raise Infeasible(f"full-support residual {rr:.6e} exceeds threshold {eps:.6e}")
    return ControlPacket(sol, rr, eps, tried)


def stage_cost(h: HorizonData, u, x) -> float:
    """||G u - H x||^2: the Q-weighted stage sum plus the terminal P term."""
    r = h.G @ as_array(u, "u", (h.N,)) - h.H @ as_array(x, "x", (h.n,))
    return float(r @ r)


def refit_greedy_picks(h: HorizonData, y: np.ndarray, eps: float):
    """The OMP kernel that refits every pick: (picks, coefficients, ||r||^2).

    Each pick gains one Gram-Schmidt step with re-orthogonalization, then
    the coefficients are refit as R^-1 (B^T y) and the residual recomputed
    as y - G coeffs. Every step is computed here; the library may read
    them from its prefix cache, which holds the same bits.
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


def reference_horizon(plant, Q, P, N):
    """The lifting as first written: A^k B gathered by a lag index into an
    (N, N, n) array, masked by np.where. Returns Phi, Upsilon, G and H;
    build_horizon must match the bits of the last two."""
    n = plant.n
    factors = np.array([cholesky(Q).T] * (N - 1) + [cholesky(P).T])
    ab = np.empty((N, n))
    powers = np.empty((N, n, n))
    ab[0] = plant.B[:, 0]
    powers[0] = plant.A
    for k in range(1, N):
        ab[k] = plant.A @ ab[k - 1]
        powers[k] = plant.A @ powers[k - 1]
    lag = np.subtract.outer(np.arange(N), np.arange(N))
    phi = np.where((lag >= 0)[:, :, None], ab[np.maximum(lag, 0)], 0.0)
    phi = phi.transpose(0, 2, 1)
    return (phi.reshape(n * N, N), powers.reshape(n * N, n),
            (factors @ phi).reshape(n * N, N), -(factors @ powers).reshape(n * N, n))


def per_index_c(h: HorizonData, phi, P, rho: float):
    """The horizon constant by its per-index definition: (c, argmax index).

    Packet index j's form is sum_i Phi_ij^T P Phi_ij over the N block rows
    i of column j of Phi; c is the largest form over lambda_min(G^T G),
    times (1 - rho^N) / (1 - rho).
    """
    blocks = phi.reshape(h.N, h.n, h.N)
    forms = np.einsum("iaj,ab,ibj->j", blocks, P, blocks)
    lam_min = float(np.linalg.eigvalsh(h.gram)[0])
    prefactor = (1.0 - rho ** h.N) / (1.0 - rho)
    return float(prefactor * (float(forms.max()) / lam_min)), int(forms.argmax())


def value_first_riccati(plant, Q):
    """The Riccati solve in value-first order: n + 1 value steps from P = Q,
    then the doubling's limit, then the polish, under solve_riccati's stop
    rules (the relative tolerance, or after n + 1 polish steps a change no
    smaller than the one before, raising NoConvergence if that P fails
    riccati_residual's limit). Returns (P, iterations), the iterations
    counting every value step, doubling and polish step. Where it reaches
    the doubling, solve_riccati, which polishes the limit at once, must
    match P's bits; where value iteration settles first, it need not."""
    A, B, n = plant.A, plant.B, plant.n
    P, doublings, last = Q, 0, math.inf
    for iterations in range(1, synthesis.RICCATI_MAX_ITERATIONS + 1):
        if iterations == n + 2:
            P, doublings = synthesis._doubling(A, B[:, 0], Q)
        p_next = symmetrize(synthesis._riccati_image(A, B, Q, P))
        delta = float(np.abs(p_next - P).max())
        if not math.isfinite(delta):
            raise NoConvergence("value-first Riccati iteration diverged")
        P = p_next
        if delta <= synthesis.RICCATI_REL_TOL * float(np.abs(P).max()):
            return P, iterations + doublings
        if iterations - n - 1 > n + 1 and delta >= last:
            if synthesis.riccati_residual(plant, Q, P) > synthesis._residual_limit(P):
                raise NoConvergence("value-first Riccati polish stalled")
            return P, iterations + doublings
        last = delta
    raise NoConvergence("value-first Riccati iteration hit its cap")


def reference_trial(syn, solver: str, x0, steps: int, seed: int, p_drop: float,
                    lam: float | None = None) -> dict:
    """run_trial's loop as first written: (states, inputs, dropped, l0) by name.

    Each step designs with the public solver, draws its transmission with
    channel_step on PCG64(seed), plays the held packet with buffer_apply
    and advances with plant.step. run_trial must match these bits.
    """
    h = syn.horizon
    rng = np.random.Generator(np.random.PCG64(seed))
    x, held, drops = np.array(x0, dtype=float), np.zeros(h.N), 0
    states = np.zeros((steps + 1, h.n))
    inputs = np.zeros(steps + 1)
    dropped = np.zeros(steps + 1, dtype=np.uint8)
    l0 = np.zeros(steps + 1, dtype=np.int64)
    for k in range(steps):
        states[k] = x
        packet = (omp_design(h, syn.W, x) if solver == "omp"
                  else l1_design(h, x, lam, 0.0))
        if channel_step(drops, p_drop, h.N - 1, rng):
            held, drops = packet.coeffs, 0
        else:
            drops += 1
            dropped[k] = 1
        inputs[k] = buffer_apply(held, drops)
        l0[k] = packet.l0
        x = step(syn.plant, x, inputs[k])
    states[steps] = x
    return {"states": states, "inputs": inputs, "dropped": dropped, "l0": l0}
