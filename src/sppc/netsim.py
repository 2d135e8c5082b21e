"""Closed-loop simulation over a lossy link.

Every step the controller sends a packet designed from the current state
through an erasure channel with a bounded number of consecutive drops.
The whole channel and buffer state is one integer and one array: the
count of consecutive drops and the last delivered packet (zeros before
the first delivery). The plant plays the packet's element at that count,
so the loop survives any admissible dropout pattern without exhausting
the buffer. channel_step and buffer_apply are pure functions of that
state, run every step (a wrong-typed argument raises ConfigError, at no
cost to a right one); drop_schedule runs the channel for a whole trial
and checks its arguments, the p_drop rule among them, once. run_trial
owns the state. It checks W, x0 and lam once, and its designs skip those
checks: the plant kernel keeps every later state finite. A lost packet
leaves every state as it was, so the loop designs only the packets the
buffer keeps, and the lost ones are designed after it (OMP's in stacked
passes, solvers._omp_rows).

Randomness comes exclusively from the channel: trial t of a Monte Carlo
batch (run_trial mapped over seeds) owns one PCG64 generator seeded with
base_seed + t, and drops are drawn by thresholding its 53-bit uniforms,
so every trace field except the wall-clock design times is reproducible
bit for bit across platforms and across sequential or parallel execution.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import BufferExhausted, ConfigError
from .lifting import HorizonData
from .numerics import as_array, as_instance, as_int, as_real, record
from .plant import PlantModel, _advance
from .solvers import _design_inputs, _l1, _l1_weight, _omp, _omp_rows
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
    p_drop = as_real(p_drop, "p_drop")
    if not 0.0 <= p_drop <= 1.0:
        raise ConfigError(f"p_drop must lie in [0, 1], got {p_drop!r}")
    uniforms = as_instance(rng, np.random.Generator, "rng").random(steps)
    draws = SimpleNamespace(random=iter(uniforms.tolist()).__next__)
    ages, drops = [], 0
    for _ in range(steps):
        drops = 0 if channel_step(drops, p_drop, max_consecutive, draws) else drops + 1
        ages.append(drops)
    return np.array(ages, dtype=np.int64)


def buffer_apply(held: np.ndarray, age: int) -> float:
    """The input played `age` steps after the held packet was delivered.

    Raises BufferExhausted when age falls outside the packet, which a
    channel honoring its drop bound can never cause.
    """
    try:
        if 0 <= age < held.size:
            return float(held[age])
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"buffer_apply needs an array and an integer age: {exc}") from exc
    raise BufferExhausted(f"age {age} is outside the buffer of length {held.size}; "
                          "the channel exceeded its consecutive-drop bound")


@record
class SimTrace:
    """Per-step record of one closed-loop trial; its caller holds the solver and seed.

    All arrays have length steps + 1; the row at k = steps carries the
    final state only, with the action fields zero-filled. dropped[k] is 1
    when the packet sent at k was lost, and l0[k] counts that packet's
    nonzeros all the same. design_time_us is wall clock, the one field
    outside the determinism guarantee; a lost packet's is an equal share
    of the pass that designed the lost packets after the loop.
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
    """
    if h is not as_instance(syn, SynthesisResult, "syn").horizon:
        raise ConfigError("h is not syn.horizon, the lifting syn certified")
    if plant is not syn.plant:
        raise ConfigError("plant is not syn.plant, the plant syn was synthesized for")
    if solver not in SOLVER_NAMES:
        raise ConfigError(f"solver must be one of {SOLVER_NAMES}, got {solver!r}")
    seed = as_int(seed, "seed", 0, 2 ** 64)
    W, x = _design_inputs(h, syn.W, x0)
    with np.errstate(over="ignore"):
        energy = float(x @ (W @ x))
    if not math.isfinite(energy):
        raise ConfigError(f"x0^T W x0 is {energy!r}; the designs need an x0 "
                          "small enough for it to be finite")
    omp = solver == "omp"
    if not omp:
        lam = _l1_weight(lam)

    ages = drop_schedule(np.random.Generator(np.random.PCG64(seed)), steps, p_drop, h.N - 1)
    steps = ages.size
    clock = time.perf_counter
    A, b, H = plant.A, plant.B[:, 0], h.H
    held = np.zeros(h.N)

    states = np.zeros((steps + 1, h.n))
    inputs = np.zeros(steps + 1)
    dropped = np.zeros(steps + 1, dtype=np.uint8)
    dropped[:steps] = ages != 0
    l0 = np.zeros(steps + 1, dtype=np.int64)
    design_time_us = np.zeros(steps + 1)

    for k, age in enumerate(ages.tolist()):
        states[k] = x
        if not age:
            t0 = clock()
            held = _omp(h, W, x)[0] if omp else _l1(h, H.dot(x), lam)[0]
            design_time_us[k] = (clock() - t0) * 1e6
            l0[k] = np.count_nonzero(held)
        inputs[k] = u = buffer_apply(held, age)
        x = _advance(A, b, x, u)
    states[steps] = x
    lost = np.flatnonzero(ages)     # packets that left every state as it was
    if lost.size:
        t0 = clock()
        coeffs = (_omp_rows(h, W, states[lost]) if omp
                  else np.array([_l1(h, H.dot(x), lam)[0] for x in states[lost]]))
        design_time_us[lost] = (clock() - t0) * 1e6 / lost.size
        l0[lost] = np.count_nonzero(coeffs, axis=1)
    # one ddot per row, the arithmetic of np.linalg.norm on each state, on the
    # row scaled by 2^-e (max |x_i| = m 2^e, 0.5 <= m < 1) so that x.x cannot
    # underflow: in x.x's normal range both scalings are exact
    _, e = np.frexp(np.abs(states).max(axis=1))
    scaled = np.ldexp(states, -e[:, None])
    norm_x = np.ldexp(np.sqrt((scaled[:, None, :] @ scaled[:, :, None]).ravel()), e)
    return SimTrace(states=states, norm_x=norm_x, inputs=inputs, dropped=dropped,
                    l0=l0, design_time_us=design_time_us)


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

    def __post_init__(self):    # x0's length is run_trial's to check, against the plant
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
    SOLVER_NAMES. A solver's batch is run_trial mapped over the seeds
    base_seed + t, so omp and l1 batches see identical drop patterns; a
    worker process takes one chunk of a batch, so it unpickles the lifting
    and warms its caches once. Aggregation reduces in trial order, which
    keeps the result identical for any worker count.
    """
    trials = as_int(trials, "trials", 1)
    base_seed = as_int(base_seed, "base_seed", 0, 2 ** 64 - trials + 1)   # base_seed + t < 2^64
    workers = as_int(workers, "workers", 1)
    steps = as_int(as_instance(setup, ExperimentSetup, "setup").steps, "steps", 1)
    solvers = SOLVER_NAMES if setup.solver == "both" else (setup.solver,)
    seeds = range(base_seed, base_seed + trials)
    runs = [partial(run_trial, setup.plant, setup.horizon, setup.synthesis, solver,
                    setup.x0, steps, p_drop=setup.p_drop, lam=setup.lam)
            for solver in solvers]
    with (ProcessPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        # pool.map queues a solver's trials at once: no worker idles between solvers
        batches = [map(run, seeds) if pool is None
                   else pool.map(run, seeds, chunksize=-(-trials // workers)) for run in runs]
        batches = [list(batch) for batch in batches]

    aggregates = {}
    for solver, batch in zip(solvers, batches):
        mean_norm = np.vstack([trace.norm_x for trace in batch]).mean(axis=0)
        mean_l0 = np.vstack([trace.l0 for trace in batch]).mean(axis=0)
        times = np.vstack([trace.design_time_us for trace in batch])
        aggregates[solver] = SolverAggregate(mean_norm, mean_l0,
                                             float(times[:, :steps].mean()))
    return aggregates
