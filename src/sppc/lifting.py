"""Horizon lifting: the weighted cost map of a horizon.

For a horizon of N steps the predicted states [x_1; ...; x_N] equal
Phi @ u + Upsilon @ x, with Phi block lower-triangular (block (i, j) is
A^(i-j) B) and Upsilon stacking A, A^2, ..., A^N. With Rbar the block
diagonal of the weight factors (N-1 copies of R_Q, then R_P, R^T R the
weight), G = Rbar Phi, H = -Rbar Upsilon turn the summed quadratic cost
into the single residual ||G u - H x||^2. Only G and H are formed; G is
block Toeplitz but for its last block row.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .numerics import (as_array, as_instance, as_int, as_symmetric, cholesky, frozen, record,
                       symmetrize)
from .plant import PlantModel


class _ByteCountedDict(dict):
    """A dict and the bytes its filler has stored in it."""

    nbytes = 0


@record
class HorizonData:
    """G and H for one (plant, Q, P, N); derived data cached on first use.

    G and H are held C-ordered (numerics.record), so derived data, OMP's and
    l1's caches among them, never depend on layout.
    """

    N: int
    G: np.ndarray            # (n N, N), Rbar @ Phi
    H: np.ndarray            # (n N, n), -Rbar @ Upsilon

    def __post_init__(self):
        object.__setattr__(self, "N", as_int(self.N, "horizon N", 1))
        object.__setattr__(self, "G", as_array(self.G, "G", (None, self.N)))
        object.__setattr__(self, "H", as_array(self.H, "H", (len(self.G), None)))

    @property
    def n(self) -> int:
        return self.H.shape[1]

    @cached_property
    def col_norms(self) -> np.ndarray:
        """Euclidean norm of each column of G."""
        return frozen(np.sqrt(np.einsum("ij,ij->j", self.G, self.G)))

    @cached_property
    def gram(self) -> np.ndarray:
        """G^T G."""
        return frozen(symmetrize(self.G.T @ self.G))

    @cached_property
    def omp_prefixes(self) -> dict:
        """OMP's cache: ordered pick prefix -> one buffer holding the
        Gram-Schmidt row of the last pick, then the new R^-1 column, filled by
        solvers._gram_schmidt and solvers._gram_schmidt_rows through
        solvers._store, which counts its float bytes in its nbytes."""
        return _ByteCountedDict()

    @cached_property
    def l1_segments(self) -> dict:
        """l1's cache: (active set, signs) -> K[A], v = K_AA^-1 sign_A, v K[A]
        and the free indices, filled by solvers._l1 through solvers._store,
        which counts the bytes stored in its nbytes (8 per list entry)."""
        return _ByteCountedDict()


def build_horizon(plant: PlantModel, Q, P, N: int) -> HorizonData:
    """Assemble HorizonData for horizon N >= 1 with SPD weights Q and P,
    each checked by as_symmetric.

    The weight square root is taken blockwise: each diagonal block
    contributes the transpose of its Cholesky factor (any R with R.T @ R
    equal to the block gives the same residual norms). One product
    R_Q [A^(N-1) B, ..., B, 0, ..., 0] holds every block (i, j) of G above
    its last block row, as column N-1-i+j.
    """
    n = as_instance(plant, PlantModel, "plant").n
    Q, P = as_symmetric(Q, "Q", n), as_symmetric(P, "P", n)
    return _lift(plant, cholesky(Q), cholesky(P), N)


def _lift(plant: PlantModel, lower_q, lower_p, N: int) -> HorizonData:
    """build_horizon from the Cholesky factors of Q and P. Each product has a
    C-ordered R^T and the operand layout of one block of the batched Rbar @ Phi
    in tests/oracles.py, so G and H keep its bits; other layouts do not."""
    N, n = as_int(N, "horizon N", 1), plant.n
    rq, rp = np.ascontiguousarray(lower_q.T), np.ascontiguousarray(lower_p.T)
    ab = np.zeros((2 * N - 1, n))   # A^k B for k = N-1, ..., 0, then N - 1 zero rows
    powers = np.empty((N, n, n))    # A^(k+1)
    ab[N - 1] = plant.B[:, 0]
    powers[0] = plant.A
    for k in range(1, N):
        plant.A.dot(ab[N - k], out=ab[N - 1 - k])
        plant.A.dot(powers[k - 1], out=powers[k])
    G, H = np.empty((N, n, N)), np.empty((N, n, n))
    toeplitz = rq.dot(ab.T)     # block row i < N - 1 of G: columns N-1-i, ..., 2N-2-i
    G[:-1] = as_strided(toeplitz[:, N - 1:], (N - 1, n, N), (-8, 8 * (2 * N - 1), 8))
    rp.dot(ab[:N].T, out=G[-1])
    np.matmul(rq, powers[:-1], out=H[:-1])
    rp.dot(powers[-1], out=H[-1])
    return HorizonData(N=N, G=frozen(G.reshape(n * N, N)),
                       H=frozen(np.negative(H, out=H).reshape(n * N, n)))
