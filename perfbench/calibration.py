"""Host-speed calibration for timings taken on a shared machine.

On a shared 2-core host the same code runs up to ~2x slower at times, and the
slowdown drifts over seconds to minutes: a fixed ``omp_design`` loop measured
an IQR/median of 0.18-0.23 across 5-40 s windows. Run-to-run spread of raw
times would then hide any change smaller than that.

The benchmark therefore times a fixed kernel, which does not use sppc, between
blocks of about BLOCK_S of measured work (a CLI call, a few hundred replayed
designs, a few sweep cases). ``mark`` returns the block's time factor: the
kernel's reference time over its measured time, averaged over the marks
before and after the block. Every time reported is the measured time
multiplied by its block's factor, so it reads as it would on this host at the
speed where the kernel takes its reference time.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

# Kernel time that scaled times refer to: roughly the kernel's time on an
# idle moment of the 2-core Xeon (KVM) host the baseline was recorded on.
REF_S = 0.003
RUNS = 3
# Measured work between two marks.
BLOCK_S = 0.2


class Calibration:
    """Times a fixed kernel: small dense factorizations and products plus
    interpreter work, like the solvers and the simulation loop, and two medium
    BLAS products, like the lifting. On this host that mix tracked the speed
    of omp_design replays better than either part alone."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((40, 10))
        self.v = rng.standard_normal(10)
        self.s = self.m.T @ self.m + np.eye(10)
        self.big = rng.standard_normal((512, 512))
        self.thin = rng.standard_normal((512, 64))
        self.last: float | None = None
        self.factors: list[float] = []
        self.kernel()  # the first run fills caches

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(50):
            acc += float(np.linalg.svd(self.m, compute_uv=False)[0])
            acc += float(np.linalg.cholesky(self.s)[0, 0])
            w = self.m @ self.v
            acc += float(w @ w)
            acc += sum(j * 0.5 for j in range(40))
        for _ in range(2):
            acc += float((self.big @ self.thin)[0, 0])
        return time.perf_counter() - t0

    def mark(self) -> float:
        """Measure the speed now; return the mean factor since the last mark."""
        now = REF_S / statistics.median(self.kernel() for _ in range(RUNS))
        factor = now if self.last is None else 0.5 * (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor


class Blocks:
    """Collects measured times, by series, and scales each by its block's factor.

    A block closes, with a calibration mark, once BLOCK_S of wall time has
    passed since the previous mark, so series measured in turn share marks.
    """

    def __init__(self, cal: Calibration):
        self.cal = cal
        self.raw: dict[str, list] = defaultdict(list)
        self.scaled: dict[str, list] = defaultdict(list)
        self._pending: list[tuple[str, float]] = []
        cal.mark()
        self._since = time.perf_counter()

    def add(self, series: str, value: float) -> None:
        self._pending.append((series, value))
        if time.perf_counter() - self._since >= BLOCK_S:
            self.close()

    def close(self) -> None:
        if self._pending:
            factor = self.cal.mark()
            for series, value in self._pending:
                self.raw[series].append(value)
                self.scaled[series].append(value * factor)
            self._pending = []
        self._since = time.perf_counter()
