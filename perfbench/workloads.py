"""Workloads of the sppc benchmark: generated inputs, one measured pass, checks.

Every input reaches the program as a generated config file (through the
``sppc`` command line, called in-process) or as a generated plant (through the
public library API). A workload object is built once per run; ``prepare``
derives its inputs from the seed, and each ``run_pass`` repeats the same work,
so a pass's outputs must be identical to every other pass's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

import sppc
import sppc.cli
import sppc.config
import sppc.solvers
from calibration import Blocks

# Content of configs/example.json, the paper's experiment, fixed here so a
# change to the shipped example does not silently change the benchmark.
EXAMPLE_CONFIG = {
    "plant": {"poles": [-1.4396, [1.0808, 0.6664], [1.0808, -0.6664], 0.022]},
    "N": 10,
    "Q": "identity",
    "alpha": 0.5,
    "c_interpretation": "column_lift",
    "solver": "both",
    "lambda": 1.0,
    "x0": [0.5, 0.5, 0.5, 0.5],
    "p_drop": 0.5,
    "steps": 100,
}

# A synthesis whose margin-to-threshold ratio (the smallest generalized
# eigenvalue of Eps against W) falls below this floor has a stability margin
# at the scale of double rounding: its guarantee is void though every
# invariant check passes.
MARGIN_FLOOR = 1e-14
# Relative tolerance of the feasibility identity min_u ||G u - H x||^2 =
# x^T (P - Q) x; observed errors on sound syntheses are below 1e-10.
IDENTITY_REL_TOL = 1e-6
# Every this-many-th sweep case, when sound, is also checked against the identity.
IDENTITY_STRIDE = 10

# The sweep's warm-up pass runs every this-many-th case.
SWEEP_WARMUP_STRIDE = 23

SWEEP_N_RANGE = (2, 20)
SWEEP_HORIZON_RANGE = (4, 64)
SWEEP_ALPHA = 0.5


@dataclass
class PassResult:
    """What one pass measured and produced.

    Times are scaled by the calibration factor of the block they were measured
    in (see calibration.py); the raw_ fields keep the measured values.
    """

    total_s: float                 # raw wall time of the whole pass
    speed: float                   # mean calibration factor of the pass
    work_s: float                  # time of the operations ops counts
    raw_work_s: float
    ops: int                       # closed-loop steps, or sweep cases
    latency_us: list               # one per replayed state or sweep case
    raw_latency_us: list
    l1_latency_us: list = field(default_factory=list)
    outputs: object = None         # deterministic outputs, equal across passes
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)          # deterministic per pass


def margin_ratio(eps, w) -> float:
    """Smallest generalized eigenvalue of Eps against W; 0 when W is not SPD."""
    try:
        return float(scipy.linalg.eigh(eps, w, eigvals_only=True,
                                       subset_by_index=[0, 0])[0])
    except (np.linalg.LinAlgError, ValueError):
        return 0.0


def _feasible(h, W, x, packet) -> bool:
    """Recompute ||G u - H x||^2 and test it against x^T W x.

    The slack and absolute floor are the solver's own acceptance tolerances.
    """
    slack = getattr(sppc.solvers, "FEASIBILITY_REL_SLACK", 0.0)
    floor = getattr(sppc.solvers, "FEASIBILITY_ABS_FLOOR", 0.0)
    r = h.G @ np.asarray(packet.coeffs, dtype=float) - h.H @ x
    threshold = float(x @ (np.asarray(W) @ x))
    return float(r @ r) <= threshold * (1.0 + slack) + floor


def _replay_set(setup, solver: str, base_seed: int, trials: int, count: int):
    """States the closed loop visits in the workload's first trials, evenly thinned."""
    states, l0 = [], []
    for t in range(trials):
        trace = sppc.run_trial(setup.plant, setup.horizon, setup.synthesis, solver,
                               setup.x0, setup.steps, base_seed + t,
                               p_drop=setup.p_drop, lam=setup.lam)
        states.append(trace.states[:-1])
        l0.append(trace.l0[:-1])
    states = np.vstack(states)
    l0 = np.concatenate(l0)
    pick = np.unique(np.linspace(0, len(states) - 1, min(count, len(states))).astype(int))
    return states[pick], l0[pick]


def _quiet_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = sppc.cli.main(argv)
    return code, err.getvalue()


class MonteCarlo:
    """``sppc montecarlo`` on generated configs, and a replay of their states.

    The trials are split over several CLI calls (consecutive trial seeds, so
    together they run trials seed .. seed + trials - 1); their times give the
    closed-loop throughput. After each call a slice of the replay states is
    designed again, ``repeats`` times each, with single timed ``omp_design``
    calls (and ``l1_design`` calls, when l1_trials > 0), so replay samples are
    spread over the whole pass. The states come from the same trajectories.
    """

    def __init__(self, name: str, overrides: dict, trials: int, calls: int,
                 replay_states: int, repeats: int, l1_trials: int = 0,
                 l1_states: int = 0):
        if trials % calls:
            raise ValueError("trials must split evenly over calls")
        self.name = name
        self.overrides = overrides
        self.trials = trials
        self.calls = calls
        self.replay_states = replay_states
        self.repeats = repeats
        self.l1_trials = l1_trials
        self.l1_states = l1_states

    def prepare(self, seed: int, work_dir: str) -> None:
        per_call = self.trials // self.calls
        self.argvs, self.out_dirs = [], []
        for call in range(self.calls):
            document = {**EXAMPLE_CONFIG, **self.overrides,
                        "trials": per_call, "seed": seed + call * per_call}
            config_path = os.path.join(work_dir, f"{self.name}-{call}.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            out_dir = os.path.join(work_dir, f"{self.name}-{call}")
            self.argvs.append(["montecarlo", "--config", config_path,
                               "--out", out_dir, "--workers", "1"])
            self.out_dirs.append(out_dir)
        self.solvers = ("omp", "l1") if document["solver"] == "both" else (document["solver"],)
        self.steps_per_pass = self.trials * len(self.solvers) * document["steps"]
        self.config_path = self.argvs[0][2]
        setup = sppc.config.build_setup(sppc.config.load_config(self.config_path))
        self.horizon, self.W = setup.horizon, setup.synthesis.W
        self.lam = setup.lam
        self.fixed_bound = float(setup.x0 @ (setup.synthesis.W @ setup.x0))
        self.states, self.expected_l0 = _replay_set(
            setup, "omp", seed, self.trials, self.replay_states)
        if self.l1_trials:
            self.l1_replay, _ = _replay_set(setup, "l1", seed, self.l1_trials, self.l1_states)
        else:
            self.l1_replay = np.zeros((0, setup.plant.n))

    def probe_args(self) -> list:
        return ["montecarlo", self.config_path]

    def warm_up(self, problems: list, cal) -> None:
        self.run_pass(problems, cal)

    def _check_call(self, files: dict, counts: dict, problems: list) -> None:
        manifest = json.loads(files["manifest.json"])
        summary = json.loads(files["summary.json"])
        checks_passed = bool(manifest["all_checks_passed"])
        ratio = margin_ratio(np.array(manifest["synthesis"]["Eps"]),
                             np.array(manifest["synthesis"]["W"]))
        if not checks_passed or ratio < MARGIN_FLOOR:
            problems.append(f"example synthesis is not sound: checks passed "
                            f"{checks_passed}, margin ratio {ratio:.3e}")
        void = checks_passed and ratio < MARGIN_FLOOR
        counts["synthesis.invariant_failed"] = counts.get("synthesis.invariant_failed", 0) + (
            not checks_passed)
        counts["synthesis.void_margin"] = counts.get("synthesis.void_margin", 0) + void
        counts["synthesis.sound"] = counts.get("synthesis.sound", 0) + (checks_passed and not void)
        for solver in self.solvers:
            key = f"{solver}.mean_l0"
            counts[key] = counts.get(key, 0.0) + summary[solver]["mean_l0"] / self.calls

    def run_pass(self, problems: list, cal) -> PassResult:
        start = time.perf_counter()
        first_mark = len(cal.factors)
        times = Blocks(cal)
        failed, outputs, counts = 0, {}, {"cli.bytes_written": 0}
        h, W = self.horizon, self.W
        omp_slices = np.array_split(np.arange(len(self.states)), self.calls)
        l1_slices = np.array_split(np.arange(len(self.l1_replay)), self.calls)
        for argv, out_dir, omp_slice, l1_slice in zip(self.argvs, self.out_dirs,
                                                      omp_slices, l1_slices):
            t0 = time.perf_counter()
            code, err = _quiet_cli(argv)
            times.add("cli", time.perf_counter() - t0)
            if code != 0:
                failed += 1
                problems.append(f"sppc montecarlo exited {code}: {err.strip()}")
            else:
                files = {}
                for name in ("manifest.json", "aggregate.csv", "summary.json"):
                    with open(os.path.join(out_dir, name), "rb") as handle:
                        files[name] = handle.read()
                counts["cli.bytes_written"] += sum(len(v) for v in files.values())
                self._check_call(files, counts, problems)
                # the summary holds wall-clock design times; the rest must repeat
                outputs[out_dir] = (files["manifest.json"], files["aggregate.csv"])
            for i in omp_slice:
                x = self.states[i]
                for _ in range(self.repeats):
                    t0 = time.perf_counter()
                    try:
                        packet = sppc.omp_design(h, W, x)
                    except sppc.SppcError as exc:
                        failed += 1
                        problems.append(f"omp_design raised {type(exc).__name__}: {exc}")
                        break
                    times.add(f"omp{i}", (time.perf_counter() - t0) * 1e6)
                else:
                    _check_omp(h, W, x, self.expected_l0[i], packet, problems)
            for i in l1_slice:
                t0 = time.perf_counter()
                try:
                    packet = sppc.l1_design(h, self.l1_replay[i], self.lam, self.fixed_bound)
                except sppc.SppcError as exc:
                    failed += 1
                    problems.append(f"l1_design raised {type(exc).__name__}: {exc}")
                    continue
                times.add(f"l1{i}", (time.perf_counter() - t0) * 1e6)
                if not np.all(np.isfinite(packet.coeffs)):
                    problems.append("replayed l1 packet is not finite")
        times.close()
        counts["synthesis.failed"] = (counts.get("synthesis.invariant_failed", 0)
                                      + counts.get("synthesis.void_margin", 0))

        def per_state(prefix, n, scaled=True):
            series = times.scaled if scaled else times.raw
            return [statistics.median(series[f"{prefix}{i}"])
                    for i in range(n) if series[f"{prefix}{i}"]]

        return PassResult(total_s=time.perf_counter() - start,
                          speed=statistics.fmean(cal.factors[first_mark:]),
                          work_s=sum(times.scaled["cli"]), raw_work_s=sum(times.raw["cli"]),
                          ops=self.steps_per_pass,
                          latency_us=per_state("omp", len(self.states)),
                          raw_latency_us=per_state("omp", len(self.states), scaled=False),
                          l1_latency_us=per_state("l1", len(self.l1_replay)),
                          outputs=outputs,
                          attempted=(self.calls + self.repeats * len(self.states)
                                     + len(self.l1_replay)),
                          failed=failed, counts=counts)


def _check_omp(h, W, x, l0, packet, problems: list) -> None:
    if packet.l0 != l0:
        problems.append(f"replayed omp packet has l0 {packet.l0}, trajectory had {l0}")
    if not _feasible(h, W, x, packet):
        problems.append("replayed omp packet misses its threshold")


def random_reachable_plant(rng: np.random.Generator, n: int) -> sppc.PlantModel:
    """Gaussian A scaled by 1/sqrt(n) and Gaussian B, redrawn until reachable."""
    while True:
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal((n, 1))
        plant = sppc.PlantModel(A=a, B=b)
        if sppc.is_reachable(plant):
            return plant


def sweep_cases(seed: int) -> list:
    """One random reachable plant for every (n, N) of the claimed envelope.

    Every pair of n in SWEEP_N_RANGE and N in SWEEP_HORIZON_RANGE occurs once,
    so n and N are exactly uniform and the seed changes the plants (and with
    them the work and the outcomes) but not the problem sizes. The order is
    the same for every seed: the largest case first, so peak memory is
    reached before the heap fragments, then a fixed shuffle, so the largest
    cases, which set the tail latency, are timed at different moments.
    """
    sizes = [(n, N)
             for n in range(SWEEP_N_RANGE[0], SWEEP_N_RANGE[1] + 1)
             for N in range(SWEEP_HORIZON_RANGE[0], SWEEP_HORIZON_RANGE[1] + 1)]
    largest = sizes.pop()
    order = [largest] + [sizes[i] for i in np.random.default_rng(0).permutation(len(sizes))]
    rng = np.random.default_rng(seed)
    return [(random_reachable_plant(rng, n), N) for n, N in order]


def _identity_holds(plant, syn, h, rng) -> bool:
    """min_u ||G u - H x||^2 equals x^T (P - Q) x at a random x."""
    x = rng.standard_normal(plant.n)
    y = h.H @ x
    u = np.linalg.lstsq(h.G, y, rcond=None)[0]
    r = h.G @ u - y
    expected = float(x @ ((syn.P - syn.Q) @ x))
    return abs(float(r @ r) - expected) <= IDENTITY_REL_TOL * float(x @ (syn.P @ x))


class SynthesisSweep:
    """``synthesize`` + ``check_invariants`` + ``build_horizon`` on random plants.

    Outcomes are counted, not treated as benchmark failures: a typed
    ``SppcError`` (raised), a failed invariant check (invariant_failed), and a
    margin ratio below MARGIN_FLOOR (void_margin) each have their own counter,
    and a case is sound only when none applies. An exception that is not an
    ``SppcError`` is an untyped crash and fails the operation.
    """

    def __init__(self, name: str, cases: int | None = None):
        self.name = name
        self.case_count = cases  # None: the whole envelope grid

    def prepare(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.cases = sweep_cases(seed)[:self.case_count]

    def probe_args(self) -> list:
        return ["sweep", str(self.seed)]

    def warm_up(self, problems: list, cal) -> None:
        self.run_pass(problems, cal, self.cases[::SWEEP_WARMUP_STRIDE])

    def run_pass(self, problems: list, cal, cases=None) -> PassResult:
        start = time.perf_counter()
        first_mark = len(cal.factors)
        cases = self.cases if cases is None else cases
        check_rng = np.random.default_rng(self.seed)
        counts = {"synthesis.raised": 0, "synthesis.invariant_failed": 0,
                  "synthesis.void_margin": 0}
        outcomes, times = [], Blocks(cal)
        failed = sound = 0
        for index, (plant, N) in enumerate(cases):
            t0 = time.perf_counter()
            try:
                syn = sppc.synthesize(plant, np.eye(plant.n), N, SWEEP_ALPHA)
                checks = sppc.check_invariants(plant, syn)
                h = sppc.build_horizon(plant, syn.Q, syn.P, N)
            except sppc.SppcError as exc:
                times.add("case", (time.perf_counter() - t0) * 1e6)
                counts["synthesis.raised"] += 1
                outcomes.append(("raised", type(exc).__name__))
                continue
            except Exception as exc:  # an untyped crash is itself the finding
                failed += 1
                problems.append(f"sweep case n={plant.n} N={N} crashed: {exc!r}")
                outcomes.append(("crashed", type(exc).__name__))
                continue
            times.add("case", (time.perf_counter() - t0) * 1e6)
            if not all(check.passed for check in checks):
                counts["synthesis.invariant_failed"] += 1
                outcomes.append(("invariant_failed", syn.c, syn.rho))
            elif margin_ratio(syn.Eps, syn.W) < MARGIN_FLOOR:
                counts["synthesis.void_margin"] += 1
                outcomes.append(("void_margin", syn.c, syn.rho))
            else:
                outcomes.append(("sound", syn.c, syn.rho))
                sound += 1
                if index % IDENTITY_STRIDE == 0 and not _identity_holds(plant, syn, h, check_rng):
                    problems.append(f"sweep case n={plant.n} N={N}: feasibility identity fails")
        times.close()
        counts["synthesis.failed"] = sum(counts.values())
        counts["synthesis.sound"] = sound
        return PassResult(total_s=time.perf_counter() - start,
                          speed=statistics.fmean(cal.factors[first_mark:]),
                          work_s=sum(times.scaled["case"]) * 1e-6,
                          raw_work_s=sum(times.raw["case"]) * 1e-6, ops=len(times.raw["case"]),
                          latency_us=times.scaled["case"], raw_latency_us=times.raw["case"],
                          outputs=outcomes, attempted=len(cases), failed=failed,
                          counts=counts)


def probe_setup(kind: str, arg: str) -> None:
    """The set-up a fresh interpreter pays before a workload's first result.

    For the sweep this is the envelope's largest case, so its size does not
    depend on the seed.
    """
    if kind == "montecarlo":
        sppc.config.build_setup(sppc.config.load_config(arg))
        return
    n, N = SWEEP_N_RANGE[1], SWEEP_HORIZON_RANGE[1]
    plant = random_reachable_plant(np.random.default_rng(int(arg)), n)
    syn = sppc.synthesize(plant, np.eye(n), N, SWEEP_ALPHA)
    sppc.check_invariants(plant, syn)
    sppc.build_horizon(plant, syn.Q, syn.P, N)
