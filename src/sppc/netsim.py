"""Closed-loop simulation over a lossy link.

Every step the controller sends a packet designed from the current state
through an erasure channel with a bounded number of consecutive drops.
The whole channel and buffer state is one integer and one array: the
count of consecutive drops and the last delivered packet (zeros before
the first delivery). The plant plays the packet's element at that count,
so the loop survives any admissible dropout pattern without exhausting
the buffer. channel_step and buffer_apply are pure functions of that
state (a wrong-typed argument raises ConfigError); drop_schedule runs the
channel for a whole trial and checks its arguments, the p_drop rule among
them, once. _run_batch steps a batch of trials in lockstep on the plant
and the lifting its synthesis holds: run_trial is its batch of one, and
run_montecarlo gives it a worker's chunk of seeds. It checks W, x0 and
lam once, and its designs skip those checks: the plant kernel keeps
every later state finite. A lost packet leaves every
state as it was, so the loop designs only the packets the buffer keeps,
and a batch's lost ones after it in one pass (solvers._omp_rows, _l1_rows).

Randomness comes exclusively from the channel: trial t of a Monte Carlo
batch owns one PCG64 generator seeded with base_seed + t, and drops are
drawn by thresholding its 53-bit uniforms, so every trace field except
the wall-clock design times is reproducible bit for bit across platforms,
batch sizes and worker counts.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import BufferExhausted, ConfigError, SppcError
from .lifting import HorizonData
from .numerics import as_array, as_instance, as_int, as_real, record
from .plant import PlantModel, _advance
from .solvers import _design_inputs, _l1, _l1_rows, _l1_weight, _omp, _omp_rows
from .synthesis import SynthesisResult

SOLVER_NAMES = ("omp", "l1")


def channel_step(drops: int, p_drop: float, max_consecutive: int,
                 rng: np.random.Generator) -> bool:
    """One transmission after `drops` consecutive losses; True means delivered.

    After max_consecutive drops the delivery is forced and consumes no
    random draw, which makes the drop counter a finite Markov chain.
    """
    try:
        return drops >= max_consecutive or not rng.random() < p_drop
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"channel_step needs numbers and a Generator: {exc}") from exc


def _p_drop(p_drop) -> float:
    p_drop = as_real(p_drop, "p_drop")
    if not 0.0 <= p_drop <= 1.0:
        raise ConfigError(f"p_drop must lie in [0, 1], got {p_drop!r}")
    return p_drop


def drop_schedule(rng: np.random.Generator, steps: int, p_drop: float,
                  max_consecutive: int) -> np.ndarray:
    """The consecutive losses ending at each of `steps` transmissions; 0 is a delivery.

    channel_step decides every transmission, reading the uniforms of one
    rng.random(steps) in turn: n scalar draws are the bits of one
    rng.random(n), so the schedule is the one channel_step stepped on rng
    gives. rng is left `steps` draws on, however many were read. steps and
    max_consecutive must be non-negative ints, p_drop must lie in [0, 1]
    and rng must be a Generator, else ConfigError.
    """
    steps = as_int(steps, "steps", 0)
    max_consecutive = as_int(max_consecutive, "max_consecutive", 0)
    p_drop = _p_drop(p_drop)
    uniforms = as_instance(rng, np.random.Generator, "rng").random(steps)
    draws = SimpleNamespace(random=iter(uniforms.tolist()).__next__)
    ages, drops = [], 0
    for _ in range(steps):
        drops = 0 if channel_step(drops, p_drop, max_consecutive, draws) else drops + 1
        ages.append(drops)
    return np.array(ages, dtype=np.int64)


def buffer_apply(held: np.ndarray, age) -> float | np.ndarray:
    """The input played `age` steps after the held packet was delivered; with
    packets stacked by rows and one age a row, each row's own input.

    Raises BufferExhausted when an age falls outside its packet, which a
    channel honoring its drop bound can never cause.
    """
    try:
        ages = np.asarray(age)
        listed = ages.ravel().tolist()      # on a few ints, cheaper than ndarray.min and max
        if 0 <= min(listed) and max(listed) < held.shape[-1]:
            return float(held[age]) if held.ndim == 1 else held[np.arange(len(held)), ages]
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"buffer_apply needs an array and integer ages: {exc}") from exc
    age = min(listed) if min(listed) < 0 else max(listed)      # an offending age
    raise BufferExhausted(f"age {age} is outside the buffer of length {held.shape[-1]}; "
                          "the channel exceeded its consecutive-drop bound")


@record
class SimTrace:
    """Per-step record of one closed-loop trial; its caller holds the solver and seed.

    All arrays have length steps + 1; the row at k = steps carries the
    final state only, with the action fields zero-filled. dropped[k] is 1
    when the packet sent at k was lost, and l0[k] counts that packet's
    nonzeros all the same. design_time_us is wall clock, the one field
    outside the determinism guarantee; a lost packet's is an equal share
    of the pass that designed its batch's lost packets after the loop.
    """

    states: np.ndarray
    norm_x: np.ndarray
    inputs: np.ndarray
    dropped: np.ndarray
    l0: np.ndarray
    design_time_us: np.ndarray

    @property
    def steps(self) -> int:
        return self.norm_x.size - 1


def run_trial(plant: PlantModel, h: HorizonData, syn: SynthesisResult,
              solver: str, x0, steps: int, seed: int, *,
              p_drop: float, lam: float | None = None) -> SimTrace:
    """Simulate one trial: design, transmit, buffer, actuate, advance.

    plant and h are syn's own, by identity: W's margin holds for those only.
    solver is "omp" or "l1"; the l1 path needs lam, and both a finite
    x0^T W x0. The PRNG is PCG64(seed) and only the channel draws from it.
    The trial is _run_batch's batch of one.
    """
    if h is not as_instance(syn, SynthesisResult, "syn").horizon:
        raise ConfigError("h is not syn.horizon, the lifting syn certified")
    if plant is not syn.plant:
        raise ConfigError("plant is not syn.plant, the plant syn was synthesized for")
    return SimTrace(*(a[0] for a in _run_batch(syn, solver, x0, steps, (seed,), p_drop, lam)))


def _run_batch(syn: SynthesisResult, solver: str, x0, steps: int, seeds, p_drop: float,
               lam: float | None) -> tuple:
    """run_trial at each of seeds in lockstep: SimTrace's fields stacked over the seeds.

    The plant and the lifting are syn's. Each step designs the received
    packets row by row in seed order, plays held[t, age] through
    buffer_apply and advances all trials in one plant._advance; the batch's
    lost packets share one stacked pass after the loop (_omp_rows, _l1_rows).
    Rows do not depend on their batch, so when a step raises, the batch runs
    again a trial at a time: the error is the first failing trial's at any size.
    """
    if solver not in SOLVER_NAMES:
        raise ConfigError(f"solver must be one of {SOLVER_NAMES}, got {solver!r}")
    seeds = [as_int(seed, "seed", 0, 2 ** 64) for seed in seeds]
    plant, h = syn.plant, syn.horizon
    W, x = _design_inputs(h, syn.W, x0)
    with np.errstate(over="ignore"):
        energy = float(x @ (W @ x))
    if not math.isfinite(energy):
        raise ConfigError(f"x0^T W x0 is {energy!r}; the designs need an x0 "
                          "small enough for it to be finite")
    omp = solver == "omp"
    lam = lam if omp else _l1_weight(lam)

    ages = np.array([drop_schedule(np.random.Generator(np.random.PCG64(seed)), steps, p_drop,
                                   h.N - 1) for seed in seeds])
    (T, steps), clock, A, b, H = ages.shape, time.perf_counter, plant.A, plant.B[:, 0], h.H
    X, held, states = np.tile(x, (T, 1)), np.zeros((T, h.N)), np.zeros((T, steps + 1, h.n))
    inputs, design_time_us = np.zeros((2, T, steps + 1))
    dropped, l0 = np.zeros((T, steps + 1), np.uint8), np.zeros((T, steps + 1), np.int64)
    dropped[:, :steps] = lost = ages != 0     # packets that left every state as it was
    try:
        for k, (age, row) in enumerate(zip(ages.T, ages.T.tolist())):
            states[:, k] = X
            for t in [t for t, a in enumerate(row) if not a]:
                t0 = clock()
                held[t] = _omp(h, W, X[t])[0] if omp else _l1(h, H.dot(X[t]), lam)[0]
                design_time_us[t, k] = (clock() - t0) * 1e6
                l0[t, k] = np.count_nonzero(held[t])
            inputs[:, k] = u = buffer_apply(held, age)
            X = _advance(A, b, X, u)
        states[:, steps] = X
        if lost.any():
            t0 = clock()
            X = states[:, :steps][lost]
            coeffs = _omp_rows(h, W, X) if omp else _l1_rows(h, (H @ X[:, :, None])[:, :, 0], lam)
            design_time_us[:, :steps][lost] = (clock() - t0) * 1e6 / len(X)
            l0[:, :steps][lost] = np.count_nonzero(coeffs, axis=1)
        # one ddot per row, the arithmetic of np.linalg.norm on each state, on the
        # row scaled by 2^-e (max |x_i| = m 2^e, 0.5 <= m < 1) so that x.x cannot
        # underflow: in x.x's normal range both scalings are exact
        _, e = np.frexp(np.abs(states).max(axis=2))
        scaled = np.ldexp(states, -e[:, :, None])
        norm_x = np.ldexp(np.sqrt((scaled[:, :, None, :] @ scaled[:, :, :, None])[:, :, 0, 0]), e)
        return states, norm_x, inputs, dropped, l0, design_time_us
    except (SppcError, ArithmeticError, Warning):    # a step's errors, and warnings raised
        if T == 1:
            raise
    return tuple(map(np.concatenate, zip(*(
        _run_batch(syn, solver, x0, steps, (seed,), p_drop, lam) for seed in seeds))))


@record
class ExperimentSetup:
    """Everything run_montecarlo needs besides trial count and seeding; the
    plant and the lifting are read off the synthesis, their one holder."""

    synthesis: SynthesisResult
    solver: str
    x0: np.ndarray
    steps: int
    p_drop: float
    lam: float | None = None

    def __post_init__(self):    # x0's length is _run_batch's to check, against the lifting
        as_instance(self.synthesis, SynthesisResult, "synthesis")
        object.__setattr__(self, "x0", as_array(self.x0, "x0", (None,)))

    @property
    def plant(self) -> PlantModel:
        return self.synthesis.plant

    @property
    def horizon(self) -> HorizonData:
        """The lifting the synthesis certified c against."""
        return self.synthesis.horizon


@record
class SolverAggregate:
    """Per-step means across trials for one solver, plus the mean design time."""

    mean_norm_x: np.ndarray
    mean_l0: np.ndarray
    mean_design_time_us: float


def log_decay_slope(mean_norm_x: np.ndarray) -> float:
    """Least-squares slope of log ||x(k)|| over the final half of the horizon.

    The fit takes at least the last two values (fewer is a ConfigError) and
    skips those at or below 1e-300; with fewer than two left it measured no
    decay and is 0.0. A strictly negative slope indicates geometric decay.
    """
    values = as_array(mean_norm_x, "mean_norm_x", (None,))
    if values.size < 2:
        raise ConfigError(f"a decay slope needs at least two values, got {values.size}")
    start = min(values.size // 2, values.size - 2)
    ks = np.flatnonzero(values[start:] > 1e-300) + start
    if ks.size < 2:
        return 0.0
    return float(np.polyfit(ks.astype(float), np.log(values[ks]), 1)[0])


def run_montecarlo(setup: ExperimentSetup, trials: int, base_seed: int,
                   workers: int = 1) -> dict[str, SolverAggregate]:
    """Repeat independent trials and average per time index, per solver.

    Returns one SolverAggregate per solver run, keyed and ordered as in
    SOLVER_NAMES. A solver's batch runs the seeds base_seed + t, so omp and
    l1 batches see identical drop patterns; a worker process runs one chunk
    of them in lockstep (_run_batch), so it unpickles the lifting and warms
    its caches once. Aggregation reduces in trial order, which keeps the
    result identical for any worker count.
    """
    trials = as_int(trials, "trials", 1)
    base_seed = as_int(base_seed, "base_seed", 0, 2 ** 64 - trials + 1)   # base_seed + t < 2^64
    workers = as_int(workers, "workers", 1)
    steps = as_int(as_instance(setup, ExperimentSetup, "setup").steps, "steps", 1)
    solvers = SOLVER_NAMES if setup.solver == "both" else (setup.solver,)
    size = -(-trials // workers)
    chunks = [range(base_seed, base_seed + trials)[i:i + size] for i in range(0, trials, size)]
    runs = [partial(_run_batch, setup.synthesis, solver, setup.x0, steps,
                    p_drop=setup.p_drop, lam=setup.lam)
            for solver in solvers]
    with (ProcessPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        # pool.map queues a solver's chunks at once: no worker idles between solvers
        batches = [map(run, chunks) if pool is None else pool.map(run, chunks) for run in runs]
        batches = [list(batch) for batch in batches]

    aggregates = {}
    for solver, batch in zip(solvers, batches):
        _, norm_x, _, _, l0, times = (np.vstack(field) for field in zip(*batch))
        aggregates[solver] = SolverAggregate(norm_x.mean(axis=0), l0.mean(axis=0),
                                             float(times[:, :steps].mean()))
    return aggregates
