"""Sparse packet design.

Two solvers for the packet problem at state x: minimize the number of
nonzero entries of u subject to ||G u - H x||^2 <= x^T W x. Orthogonal
Matching Pursuit is the production path, and the fixed-bound baseline it
is compared against solves the l1-regularized problem exactly by the
lasso homotopy, which follows the piecewise linear solution path from
u = 0 to the target weight (Osborne, Presnell & Turlach 2000; Efron et
al., Least Angle Regression, 2004).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import ConfigError, DegenerateInput, Infeasible, NoConvergence, RankDeficient
from .lifting import HorizonData
from .numerics import RANK_REL_TOL, as_array, as_instance, as_real, record

FEASIBILITY_REL_SLACK = 1e-7
# below this absolute scale the threshold sits in the denormal range where
# relative margins are meaningless, so infeasibility is never diagnosed
FEASIBILITY_ABS_FLOOR = 1e-280
L1_MAX_ITERATIONS = 5000
# float bytes each solver may keep per horizon in its HorizonData cache; 4 MiB is the
# knee of OMP's miss curve at N = 20, p_drop 0.9 (4.9% of lookups miss, 25% at 512 KiB)
OMP_PREFIX_BUDGET_BYTES = 1 << 22
# bytes of Gram-Schmidt rows and R^-1 a stacked OMP pass holds, the copies it gathers
# from them included (the budget as imported, so setting it later moves the cache alone)
_STACKED_BYTES = OMP_PREFIX_BUDGET_BYTES


@record
class ControlPacket:
    """A designed input sequence; its sparsity is read off the coefficients.

    support lists exactly the indices with nonzero coefficients, so
    len(support) is the l0 count; a picked index whose coefficient comes
    out as exactly 0.0 is not counted, so l0 may fall below iterations.
    residual_sq is ||G coeffs - H x||^2 at the solution and threshold the
    bound it was designed against (state dependent for OMP and the oracle,
    caller supplied for the l1 solver, which does not promise
    residual_sq <= threshold).
    """

    coeffs: np.ndarray
    residual_sq: float
    threshold: float
    iterations: int

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.coeffs))

    @property
    def l0(self) -> int:
        return int(np.count_nonzero(self.coeffs))


def _design_inputs(h: HorizonData, W, x):
    n = as_instance(h, HorizonData, "h").n
    return as_array(W, "W", (n, n)), as_array(x, "x", (n,))


def _omp(h: HorizonData, W: np.ndarray, x: np.ndarray):
    """omp_design on a checked W and x: (coeffs, ||r||^2, threshold, picks in pick order).

    G[:, picks] = B R gains one Gram-Schmidt step with re-orthogonalization per pick
    (B stored by rows). A step depends only on G and the pick prefix: h.omp_prefixes
    holds it, or _gram_schmidt computes it, as one buffer (B's new row, then R^-1's
    new column). Above the bound a feasible packet may reach, a pick projects the
    residual off the new row q of B, r <- r - (q^T r) q; a pick predicted or found
    to reach that bound, or to fill the support, refits exactly: coefficients
    R^-1 (B^T y), r = y - G coeffs, y = H x. So the loop stops only on an exact
    ||r||^2 <= eps, and raises Infeasible when the full support misses the bound.
    ndarray.dot makes the BLAS call of @ at a fraction of its dispatch cost.
    _omp_rows is its stacked twin, on many states at once.
    """
    eps = float(x.dot(W.dot(x)))
    if not math.isfinite(eps):
        raise DegenerateInput(f"x^T W x is {eps!r}; no packet can be designed against it")
    coeffs = np.zeros(h.N)
    r = y = h.H.dot(x)
    rr = float(r.dot(r))
    if rr <= eps:
        return coeffs, rr, eps, []
    G, norms, prefixes, m = h.G, h.col_norms, h.omp_prefixes, len(h.G)
    basis = np.empty((h.N, m))
    r_inv = np.zeros((h.N, h.N))
    mask = np.zeros(h.N)                                  # -inf on picked columns
    bound = eps * (1.0 + FEASIBILITY_REL_SLACK) + FEASIBILITY_ABS_FLOOR
    prefix = ()
    while rr > eps and len(prefix) < h.N:
        score = np.abs(r.dot(G))
        score /= norms
        score += mask
        j = int(score.argmax())
        k = len(prefix)
        prefix += (j,)
        step = prefixes.get(prefix)
        if step is None:
            step = _gram_schmidt(h, prefix, basis, r_inv)
        basis[k], r_inv[:k + 1, k] = step[:m], step[m:]
        mask[j] = -np.inf
        q = basis[k]
        z = float(q.dot(r))
        if rr - z * z > bound and k + 1 < h.N:
            r = r - z * q
            rr = float(r.dot(r))
            if rr > bound:
                continue
        coeffs[list(prefix)] = r_inv[:k + 1, :k + 1].dot(basis[:k + 1].dot(y))
        r = y - G.dot(coeffs)
        rr = float(r.dot(r))
    if rr > bound:
        raise Infeasible(f"full-support residual {rr:.6e} exceeds threshold {eps:.6e}; "
                         "the synthesis that produced W is inconsistent")
    return coeffs, rr, eps, list(prefix)


def _gram_schmidt(h: HorizonData, prefix: tuple, basis: np.ndarray, r_inv: np.ndarray):
    """prefix's last Gram-Schmidt step from the earlier rows of basis and columns of
    r_inv: one new buffer holding the basis row, then the R^-1 column, which is stored
    under prefix in h.omp_prefixes by _store's rule."""
    G, norms = h.G, h.col_norms
    m, k, j = G.shape[0], len(prefix) - 1, prefix[-1]
    s = basis[:k].dot(G[:, j])
    v = G[:, j] - s.dot(basis[:k])
    s2 = basis[:k].dot(v)
    v -= s2.dot(basis[:k])
    pivot = math.sqrt(v.dot(v))
    if pivot <= RANK_REL_TOL * norms[j]:
        raise RankDeficient(f"column {j} is numerically in the span of "
                            f"columns {sorted(prefix[:-1])}")
    step = np.empty(m + k + 1)
    np.divide(v, pivot, out=step[:m])
    s += s2
    np.divide(r_inv[:k, :k].dot(s), -pivot, out=step[m:-1])
    step[-1] = 1.0 / pivot
    _store(h.omp_prefixes, prefix, step, step.nbytes)
    return step


def _gram_schmidt_rows(h: HorizonData, missed: dict, basis: np.ndarray, r_inv: np.ndarray):
    """_gram_schmidt on prefixes of one length k + 1, stacked: missed maps each prefix
    to a row i whose basis[i] and r_inv[i] hold its earlier steps. Returns prefix ->
    step, a buffer of its own per prefix, stored in missed's order; a failing pivot
    raises before any step is stored. The columns of G are gathered strided, as
    _gram_schmidt reads G[:, j], so the stacked products make its BLAS calls at every
    k (test_stacked_matmul_matches_ndarray_dot pins them)."""
    G, norms, k = h.G, h.col_norms, len(next(iter(missed))) - 1
    m, first, js = len(G), list(missed.values()), [p[-1] for p in missed]
    B, g = basis[first, :k], np.empty((m, len(js) + 1))[:, 1:].T  # strided at one row too
    g[...] = G.T[js]
    s = (B @ g[:, :, None])[:, :, 0]
    v = g - (s[:, None, :] @ B)[:, 0, :]
    s2 = (B @ v[:, :, None])[:, :, 0]
    v -= (s2[:, None, :] @ B)[:, 0, :]
    pivot = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    for a in np.flatnonzero(pivot <= RANK_REL_TOL * norms[js])[:1]:
        prefix = list(missed)[a]
        raise RankDeficient(f"column {prefix[-1]} is numerically in the span of "
                            f"columns {sorted(prefix[:-1])}")
    steps = np.empty((len(js), m + k + 1))
    np.divide(v, pivot[:, None], out=steps[:, :m])
    s += s2
    np.divide((r_inv[first, :k, :k] @ s[:, :, None])[:, :, 0], -pivot[:, None],
              out=steps[:, m:-1])
    np.divide(1.0, pivot, out=steps[:, -1])
    entries = {}
    for prefix, step in zip(missed, steps):
        entries[prefix] = step = step.copy()        # an entry keeps no other step alive
        _store(h.omp_prefixes, prefix, step, step.nbytes)
    return entries


def _store(cache: dict, key, entry, nbytes: int) -> None:
    """Stores entry under key, counting nbytes, while the bytes counted in the
    cache stay within OMP_PREFIX_BUDGET_BYTES: the first entries stored stay."""
    if cache.nbytes + nbytes <= OMP_PREFIX_BUDGET_BYTES:
        cache[key] = entry
        cache.nbytes += nbytes


def _omp_rows(h: HorizonData, W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """_omp's coefficients at each row of a checked X, bit for bit: _omp's loop
    on all rows at once, in chunks whose bases and R^-1, with the copies a pick
    step gathers from them, hold at most _STACKED_BYTES.

    x^T W x, H x, the correlations, the projections and the exact refits are
    matmuls stacked over the rows with a singleton core dimension, which make
    ndarray.dot's BLAS call on each row (a 2-D product does not). A pick step
    looks up each row's prefix in the cache and takes the steps it misses in
    one _gram_schmidt_rows call, once per distinct prefix. A row leaves once its
    exact residual meets its threshold. A failing row raises the type _omp
    raises on it, but when several rows fail, the first check to fail wins, not
    the first row: DegenerateInput on any row of a chunk, then RankDeficient or
    Infeasible by pick step, rows in order within a step.
    """
    G, norms, prefixes, N, m = h.G, h.col_norms, h.omp_prefixes, h.N, len(h.G)
    chunk = max(1, _STACKED_BYTES // (16 * N * (m + N)))
    if len(X) > chunk:
        return np.vstack([_omp_rows(h, W, X[i:i + chunk]) for i in range(0, len(X), chunk)])
    eps = (X[:, None, :] @ (W @ X[:, :, None]))[:, 0, 0]
    if not np.isfinite(eps).all():
        raise DegenerateInput(f"x^T W x is {float(eps[~np.isfinite(eps)][0])!r}; "
                              "no packet can be designed against it")
    bound = eps * (1.0 + FEASIBILITY_REL_SLACK) + FEASIBILITY_ABS_FLOOR
    Y = (h.H @ X[:, :, None])[:, :, 0]
    rr = (Y[:, None, :] @ Y[:, :, None])[:, 0, 0]
    rows = np.flatnonzero(rr > eps)                 # the rows still picking
    R, rr, eps, bound = Y[rows], rr[rows], eps[rows], bound[rows]
    coeffs = np.zeros((len(X), N))
    basis, r_inv = np.empty((len(X), N, m)), np.zeros((len(X), N, N))
    mask = np.zeros((rows.size, N))                 # -inf on picked columns
    prefix, picked = [()] * len(X), np.empty((len(X), N), dtype=np.intp)
    for k in range(N):
        if not rows.size:
            break
        picks = (np.abs((R[:, None, :] @ G)[:, 0, :]) / norms + mask).argmax(axis=1)
        mask[np.arange(rows.size), picks] = -np.inf
        picked[rows, k] = picks
        steps, missed = [], {}                      # missed: prefix -> its first row
        for i, j in zip(rows.tolist(), picks.tolist()):
            prefix[i] += (j,)
            steps.append(prefixes.get(prefix[i]))
            if steps[-1] is None:
                missed.setdefault(prefix[i], i)
        taken = missed and _gram_schmidt_rows(h, missed, basis, r_inv)
        steps = np.array([taken[prefix[i]] if step is None else step
                          for i, step in zip(rows.tolist(), steps)])
        basis[rows, k], r_inv[rows, :k + 1, k] = steps[:, :m], steps[:, m:]
        q = basis[rows, k]
        z = (q[:, None, :] @ R[:, :, None])[:, 0, 0]
        projected = (rr - z * z > bound) & (k + 1 < N)
        R = R - z[:, None] * q                      # kept where projected, else refit
        rr = (R[:, None, :] @ R[:, :, None])[:, 0, 0]
        refit = np.flatnonzero(~(projected & (rr > bound)))
        fr = rows[refit]
        coeffs[fr[:, None], picked[fr, :k + 1]] = (
            r_inv[fr, :k + 1, :k + 1] @ (basis[fr, :k + 1] @ Y[fr, :, None]))[:, :, 0]
        R[refit] = r = Y[fr] - (G @ coeffs[fr, :, None])[:, :, 0]
        rr[refit] = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
        stay = (rr > eps) & (k + 1 < N)
        for a in np.flatnonzero(~stay & (rr > bound))[:1]:     # the first row to fail
            raise Infeasible(f"full-support residual {rr[a]:.6e} exceeds threshold "
                             f"{eps[a]:.6e}; the synthesis that produced W is inconsistent")
        rows, R, rr, eps, bound, mask = (a[stay] for a in (rows, R, rr, eps, bound, mask))
    return coeffs


def omp_design(h: HorizonData, W, x) -> ControlPacket:
    """Orthogonal Matching Pursuit for the state-dependent packet problem.

    Grows the support greedily from the residual r = H x - G u, picking
    the column most correlated with r (normalized by column norm; ties
    break to the smallest index), refitting by least squares, and
    stopping as soon as ||r||^2 <= x^T W x. Feasible by construction for
    a valid synthesis: the full-support residual is x^T (P - Q) x, which
    sits below the threshold by the margin x^T E x. Gram-Schmidt steps are
    shared across calls through h.omp_prefixes, bit for bit as recomputed;
    between refits the residual is updated by projection, and the
    coefficients and residual returned are always an exact refit's.
    """
    coeffs, rr, eps, picks = _omp(h, *_design_inputs(h, W, x))
    return ControlPacket(coeffs, rr, eps, len(picks))


def l1_design(h: HorizonData, x, lam: float, fixed_bound: float) -> ControlPacket:
    """Baseline design minimizing lam * ||u||_1 + 0.5 * ||G u - H x||^2, exactly.

    The lasso homotopy (LARS-lasso): the minimizer is piecewise linear in
    the weight t, so the path is followed from t = ||G^T H x||_inf, where
    u = 0, down to t = lam. On each segment the active coefficients move
    along v = K_AA^-1 sign_A (K = G^T G, by Cholesky; a failed factorization
    raises RankDeficient) until a free correlation reaches +-t, when that
    index enters with the sign of the boundary it hit, or an active
    coefficient reaches zero, when it leaves. Entries are ranked
    side-major (+t first, then the smallest index), an entry wins a tie
    with a leave, and a correlation on a boundary it does not move inward
    from enters at step 0. Zeros are exact, and iterations counts
    segments; more than L1_MAX_ITERATIONS raise NoConvergence. A segment's
    K[A], v, v K[A] and free indices depend only on its active set
    and signs: they are shared across calls through h.l1_segments, bit for
    bit as recomputed. The packet records fixed_bound as its threshold for
    comparison only; no feasibility is promised.
    """
    lam = _l1_weight(lam)
    fixed_bound = as_real(fixed_bound, "fixed_bound")
    if fixed_bound < 0.0:
        raise ConfigError(f"fixed_bound must be non-negative, got {fixed_bound!r}")
    y = as_instance(h, HorizonData, "h").H @ as_array(x, "x", (h.n,))
    coeffs, segments = _l1(h, y, lam)
    r = h.G @ coeffs - y
    return ControlPacket(coeffs, float(r @ r), fixed_bound, segments)


def _l1_weight(lam) -> float:
    lam = as_real(lam, "lam")
    if lam <= 0.0:
        raise ConfigError(f"lam must be positive, got {lam!r}")
    return lam


def _l1(h: HorizonData, y: np.ndarray, lam: float):
    """l1_design's homotopy on y = H x and a checked lam: (coeffs, segments)."""
    K, cache = h.gram, h.l1_segments
    b = h.G.T @ y
    first = int(np.abs(b).argmax())
    t = abs(float(b[first]))
    active = [first]                # ascending; sign and u run parallel to it
    sign = [1.0 if b[first] > 0.0 else -1.0]
    u = [0.0]
    segments = 0
    while t > lam:
        if segments == L1_MAX_ITERATIONS:
            raise NoConvergence(f"l1 homotopy still at weight {t:.6e} > {lam:.6e} "
                                f"after {L1_MAX_ITERATIONS} segments")
        segments += 1
        key = (tuple(active), tuple(sign))
        segment = cache.get(key)
        if segment is None:
            rows = K.take(active, axis=0)              # K[A]
            _, v, info = dposv(rows.take(active, axis=1), sign)
            if info:
                raise RankDeficient(f"active columns {active} are linearly dependent")
            free = [j for j in range(h.N) if j not in active]
            segment = rows, v.tolist(), (v @ rows).tolist(), free
            # v and free hold N entries, v K[A] another N
            _store(cache, key, segment, rows.nbytes + 16 * h.N)
        rows, v, a, free = segment
        # u = 0 on the first segment, where b - u K[A] is b exactly
        c = (b - np.dot(u, rows)).tolist() if segments > 1 else b.tolist()
        # steps g at which a free correlation c - g a meets +-(t - g); one
        # on a boundary enters at g = 0 unless it moves inward (den <= 0),
        # as the index that just left does on the side it left from
        gamma, enter, side = math.inf, -1, 0.0
        for s in (1.0, -1.0):
            for j in free:
                den = 1.0 - s * a[j]
                if den > 0.0:
                    num = t - s * c[j]
                    g = num / den if num > 0.0 else 0.0
                    if g < gamma:
                        gamma, enter, side = g, j, s
        # steps at which an active coefficient u + g v reaches zero
        out = -1
        for i, (ui, vi) in enumerate(zip(u, v)):
            if ui * vi < 0.0 and -ui / vi < gamma:
                gamma, out = -ui / vi, i
        step = min(gamma, t - lam)
        u = [ui + step * vi for ui, vi in zip(u, v)]
        if gamma >= t - lam:
            break
        t -= gamma
        if out < 0:
            at = sum(i < enter for i in active)
            active.insert(at, enter)
            sign.insert(at, side)
            u.insert(at, 0.0)
        else:
            active.pop(out)
            sign.pop(out)
            u.pop(out)
    coeffs = np.zeros(h.N)
    coeffs[active] = u
    return coeffs, segments
