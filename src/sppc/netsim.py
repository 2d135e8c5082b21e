"""Closed-loop simulation over a lossy link.

The controller designs a packet from the current state every step and
sends it through an erasure channel with a bounded number of consecutive
drops. The whole channel and buffer state is one integer and one array:
the count of consecutive drops and the last delivered packet (zeros
before the first delivery). The plant plays the packet's element at that
count, so the loop survives any admissible dropout pattern without
exhausting the buffer. channel_step and buffer_apply are pure functions
of that state; run_trial owns it.

Randomness comes exclusively from the channel. Each trial owns one
numpy PCG64 generator seeded with base_seed + trial_index, and drops
are drawn by thresholding its 53-bit uniforms, so every trace field
except the wall-clock design times is reproducible bit for bit across
platforms and across sequential or parallel execution.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import BufferExhausted, ConfigError
from .lifting import HorizonData
from .numerics import as_vector
from .plant import PlantModel, step
from .solvers import l1_design, omp_design
from .synthesis import SynthesisResult

SOLVER_NAMES = ("omp", "l1")


def channel_step(drops: int, p_drop: float, max_consecutive: int,
                 rng: np.random.Generator) -> bool:
    """One transmission after `drops` consecutive losses; True means delivered.

    After max_consecutive drops the delivery is forced and consumes no
    random draw, which makes the drop counter a finite Markov chain.
    """
    return drops >= max_consecutive or not rng.random() < p_drop


def buffer_apply(held: np.ndarray, age: int) -> float:
    """The input played `age` steps after the held packet was delivered.

    Raises BufferExhausted when asked to play past the end of the packet,
    which a channel honoring its drop bound can never cause.
    """
    if age >= held.size:
        raise BufferExhausted(
            f"buffer of length {held.size} ran dry; "
            "the channel exceeded its consecutive-drop bound"
        )
    return float(held[age])


@dataclass(frozen=True)
class SimTrace:
    """Per-step record of one closed-loop trial.

    All arrays have length steps + 1; the row at k = steps carries the
    final state only, with the action fields zero-filled. dropped[k] is 1
    when the packet sent at k was lost. design_time_us is wall clock and
    is the one field outside the determinism guarantee.
    """

    solver: str
    seed: int
    states: np.ndarray
    norm_x: np.ndarray
    inputs: np.ndarray
    dropped: np.ndarray
    l0: np.ndarray
    design_time_us: np.ndarray

    @property
    def steps(self) -> int:
        return self.norm_x.size - 1


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def run_trial(plant: PlantModel, h: HorizonData, syn: SynthesisResult,
              solver: str, x0, steps: int, seed: int, *,
              p_drop: float, lam: float | None = None) -> SimTrace:
    """Simulate one trial: design, transmit, buffer, actuate, advance.

    solver is "omp" or "l1"; the l1 path needs lam and freezes its
    recorded threshold at x0^T W x0. The PRNG is PCG64(seed) and only
    the channel draws from it.
    """
    if solver not in SOLVER_NAMES:
        raise ConfigError(f"solver must be one of {SOLVER_NAMES}, got {solver!r}")
    if solver == "l1" and lam is None:
        raise ConfigError("l1 solver requires lam")
    if not _is_int(steps) or steps < 0:
        raise ConfigError(f"steps must be a non-negative integer, got {steps!r}")
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not isinstance(p_drop, Real) or not 0.0 <= p_drop <= 1.0:
        raise ConfigError(f"p_drop must be a real in [0, 1], got {p_drop!r}")
    x = as_vector(x0, "x0")
    if x.size != plant.n:
        raise ConfigError(f"x0 has length {x.size}, plant expects {plant.n}")

    rng = np.random.Generator(np.random.PCG64(seed))
    drops = 0
    held = np.zeros(h.N)
    fixed_bound = float(x @ (syn.W @ x))

    states = np.zeros((steps + 1, plant.n))
    norm_x = np.zeros(steps + 1)
    inputs = np.zeros(steps + 1)
    dropped = np.zeros(steps + 1, dtype=np.uint8)
    l0 = np.zeros(steps + 1, dtype=np.int64)
    design_time_us = np.zeros(steps + 1)

    for k in range(steps):
        states[k] = x
        norm_x[k] = float(np.linalg.norm(x))
        t0 = time.perf_counter()
        if solver == "omp":
            packet = omp_design(h, syn.W, x)
        else:
            packet = l1_design(h, x, lam, fixed_bound)
        design_time_us[k] = (time.perf_counter() - t0) * 1e6
        delivered = channel_step(drops, p_drop, h.N - 1, rng)
        if delivered:
            held, drops = packet.coeffs, 0
        else:
            drops += 1
        u = buffer_apply(held, drops)
        dropped[k] = 0 if delivered else 1
        l0[k] = packet.l0
        inputs[k] = u
        x = step(plant, x, u)
    states[steps] = x
    norm_x[steps] = float(np.linalg.norm(x))

    for arr in (states, norm_x, inputs, dropped, l0, design_time_us):
        arr.setflags(write=False)
    return SimTrace(solver=solver, seed=int(seed), states=states, norm_x=norm_x,
                    inputs=inputs, dropped=dropped, l0=l0,
                    design_time_us=design_time_us)


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything run_montecarlo needs besides trial count and seeding."""

    plant: PlantModel
    horizon: HorizonData
    synthesis: SynthesisResult
    solver: str
    x0: np.ndarray
    steps: int
    p_drop: float
    lam: float | None = None


@dataclass(frozen=True)
class TrialSummary:
    solver: str
    trial: int
    seed: int
    final_norm_x: float
    mean_l0: float
    mean_design_time_us: float


@dataclass(frozen=True)
class SolverAggregate:
    """Per-step means across trials for one solver, plus scalar roll-ups."""

    solver: str
    mean_norm_x: np.ndarray
    mean_l0: np.ndarray
    mean_design_time_us: float
    trial_summaries: tuple[TrialSummary, ...]


@dataclass(frozen=True)
class MonteCarloResult:
    steps: int
    trials: int
    base_seed: int
    aggregates: tuple[SolverAggregate, ...]

    def aggregate(self, solver: str) -> SolverAggregate:
        for agg in self.aggregates:
            if agg.solver == solver:
                return agg
        raise KeyError(solver)


def _trial_job(args) -> SimTrace:
    setup, solver, trial, base_seed = args
    return run_trial(setup.plant, setup.horizon, setup.synthesis, solver,
                     setup.x0, setup.steps, base_seed + trial,
                     p_drop=setup.p_drop, lam=setup.lam)


def log_decay_slope(mean_norm_x: np.ndarray) -> float:
    """Least-squares slope of log ||x(k)|| over the final half of the horizon.

    The fit takes at least the last two of the (two or more) values.
    Values are floored at 1e-300 so fully converged trajectories do not
    produce -inf; a strictly negative slope indicates geometric decay.
    """
    values = np.asarray(mean_norm_x, dtype=float)
    start = min(values.size // 2, values.size - 2)
    tail = np.log(np.maximum(values[start:], 1e-300))
    ks = np.arange(start, values.size, dtype=float)
    return float(np.polyfit(ks, tail, 1)[0])


def run_montecarlo(setup: ExperimentSetup, trials: int, base_seed: int,
                   workers: int = 1) -> MonteCarloResult:
    """Repeat independent trials and average per time index.

    Trial t uses seed base_seed + t, so omp and l1 batches see identical
    drop patterns. Aggregation always reduces in trial order, which keeps
    the result identical whether trials run sequentially or across
    worker processes.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")
    if setup.steps < 1:
        raise ConfigError("montecarlo averages designs over steps; "
                          f"steps must be >= 1, got {setup.steps!r}")
    solvers = SOLVER_NAMES if setup.solver == "both" else (setup.solver,)
    jobs = [(setup, solver, t, base_seed) for solver in solvers for t in range(trials)]
    if workers == 1:
        traces = [_trial_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_trial_job, jobs, chunksize=8))

    aggregates = []
    for index, solver in enumerate(solvers):
        batch = traces[index * trials:(index + 1) * trials]
        norms = np.vstack([trace.norm_x for trace in batch])
        sparsities = np.vstack([trace.l0 for trace in batch])
        times = np.vstack([trace.design_time_us for trace in batch])
        steps = setup.steps
        summaries = tuple(
            TrialSummary(
                solver=solver,
                trial=t,
                seed=base_seed + t,
                final_norm_x=float(trace.norm_x[-1]),
                mean_l0=float(trace.l0[:steps].mean()),
                mean_design_time_us=float(trace.design_time_us[:steps].mean()),
            )
            for t, trace in enumerate(batch)
        )
        mean_norm = norms.mean(axis=0)
        mean_l0 = sparsities.mean(axis=0)
        for arr in (mean_norm, mean_l0):
            arr.setflags(write=False)
        aggregates.append(SolverAggregate(
            solver=solver,
            mean_norm_x=mean_norm,
            mean_l0=mean_l0,
            mean_design_time_us=float(times[:, :steps].mean()),
            trial_summaries=summaries,
        ))
    return MonteCarloResult(steps=setup.steps, trials=trials,
                            base_seed=int(base_seed),
                            aggregates=tuple(aggregates))
