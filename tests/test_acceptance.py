"""End-to-end acceptance gates for the whole pipeline.

Each test prints exactly one pass/fail line so a log scrape shows the
eight gates at a glance. Seeds are pinned; every expected number is
recomputed from an independent oracle inside the test, never copied
from a previous run of the code under test.
"""

import json
import time

import numpy as np

import sppc
import sppc.cli as cli
from sppc.netsim import buffer_apply, channel_step
from sppc.numerics import solve_least_squares
from sppc.solvers import FEASIBILITY_ABS_FLOOR, FEASIBILITY_REL_SLACK

from conftest import EXAMPLE_POLES, random_reachable_plant, random_spd
from oracles import exhaustive_design


def report(number, name, passed, detail):
    line = f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} [{detail}]"
    print(line)
    assert passed, line


def within_threshold(packet):
    return packet.residual_sq <= (packet.threshold
                                  * (1.0 + FEASIBILITY_REL_SLACK)
                                  + FEASIBILITY_ABS_FLOOR)


def test_criterion_1_synthesis_validity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    failures = []
    for _ in range(50):
        n = int(rng.integers(1, 7))
        N = int(rng.integers(1, 13))
        plant = random_reachable_plant(rng, n)
        syn = sppc.synthesize(plant, random_spd(rng, n), N, 0.5)
        failures += [c.name for c in sppc.check_invariants(plant, syn)
                     if not c.passed]
    elapsed = time.perf_counter() - t0
    report(1, "synthesis validity", not failures and elapsed < 10.0,
           f"50 plants, invariant failures={failures}, {elapsed:.2f}s")


def test_criterion_2_feasibility_identity():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    infeasible = 0
    for _ in range(10):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 11))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        syn = sppc.synthesize(plant, Q, N, 0.5)
        h = sppc.build_horizon(plant, Q, syn.P, N)
        gap = syn.P - syn.Q
        for _ in range(100):
            x = rng.standard_normal(n)
            y = h.H @ x
            u = solve_least_squares(h.G, y)
            resid = h.G @ u - y
            best = float(resid @ resid)
            value = float(x @ gap @ x)
            # both sides are bounded by ||H x||^2 (u = 0 is admissible), so
            # that is the scale a relative comparison is meaningful against;
            # x near the null space of P - Q makes value itself rounding dust
            scale = max(float(y @ y), 1e-300)
            worst = max(worst, abs(best - value) / scale)
            try:
                sppc.omp_design(h, syn.W, x)
            except sppc.Infeasible:
                infeasible += 1
    elapsed = time.perf_counter() - t0
    report(2, "feasibility identity",
           worst <= 1e-8 and infeasible == 0 and elapsed < 10.0,
           f"1000 states, worst rel err {worst:.2e}, "
           f"infeasible={infeasible}, {elapsed:.2f}s")


def test_criterion_3_omp_vs_oracle():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    infeasible = 0
    beaten = 0
    matched = 0
    total = 200
    for _ in range(total):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 9))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        syn = sppc.synthesize(plant, Q, N, 0.5)
        h = sppc.build_horizon(plant, Q, syn.P, N)
        x = rng.standard_normal(n)
        greedy = sppc.omp_design(h, syn.W, x)
        oracle = exhaustive_design(h, syn.W, x)
        if not within_threshold(greedy):
            infeasible += 1
        if oracle.l0 > greedy.l0:
            beaten += 1
        if oracle.l0 == greedy.l0:
            matched += 1
    elapsed = time.perf_counter() - t0
    report(3, "greedy vs exhaustive",
           infeasible == 0 and beaten == 0
           and matched >= total // 2 and elapsed < 60.0,
           f"{total} instances, infeasible={infeasible}, oracle wins by "
           f"sparsity on {beaten}, matched={matched}, {elapsed:.2f}s")


def test_criterion_4_scalar_hand_trace():
    plant = sppc.PlantModel(A=np.array([[2.0]]), B=np.array([[1.0]]))
    syn = sppc.synthesize(plant, np.array([[1.0]]), 2, 0.5)
    h = sppc.build_horizon(plant, syn.Q, syn.P, 2)
    packet = sppc.omp_design(h, syn.W, np.array([1.0]))
    c_hand = 5.0 * (3.0 + 2.0 * np.sqrt(2.0))
    w_hand = 0.5 / c_hand
    errors = {
        "P": abs(syn.P[0, 0] - 1.0),
        "rho": abs(syn.rho),
        "c": abs(syn.c - c_hand),
        "W": abs(syn.W[0, 0] - w_hand),
        "u0": abs(packet.coeffs[0] + 2.0),
        "u1": abs(packet.coeffs[1]),
    }
    ok = max(errors.values()) <= 1e-9 and packet.l0 == 1
    report(4, "hand-traced scalar pipeline", ok,
           f"max abs err {max(errors.values()):.2e}, l0={packet.l0}")


def test_criterion_5_example_experiment():
    t0 = time.perf_counter()
    plant = sppc.from_poles(EXAMPLE_POLES)
    syn = sppc.synthesize(plant, None, 10, 0.5)
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    setup = sppc.ExperimentSetup(synthesis=syn, solver="both",
                                 x0=x0, steps=100, p_drop=0.5, lam=1.0)
    result = sppc.run_montecarlo(setup, trials=500, base_seed=20260814)
    m = result["omp"].mean_norm_x
    l1 = result["l1"]

    # (a) greedy packets: monotone decay after the transient, deep final
    # contraction, strictly negative fitted slope. Monotonicity allows
    # additive dust at 1e-12 of the initial level, far below any real rise.
    diffs = np.diff(m[10:])
    monotone = bool(np.all(diffs <= 1e-12 * m[0]))
    deep = m[100] <= 1e-4 * m[0]
    slope = sppc.log_decay_slope(m)

    # (b) l1 baseline: comparable early sparsity but a plateau, bounded
    # away from zero and from the initial level over the final 50 steps
    early_l0 = float(l1.mean_l0[:10].mean())
    tail = l1.mean_norm_x[51:101]
    plateau = bool(np.all(tail > 1e-3 * m[0])) and bool(np.all(tail < 0.1 * m[0]))

    elapsed = time.perf_counter() - t0
    ok = (monotone and deep and slope < 0.0
          and early_l0 <= 3.0 and plateau and elapsed < 300.0)
    report(5, "lossy-loop experiment", ok,
           f"monotone={monotone}, final/initial={m[100] / m[0]:.1e}, "
           f"slope={slope:.2f}, l1 early l0={early_l0:.2f}, "
           f"l1 tail in [{tail.min() / m[0]:.1e}, {tail.max() / m[0]:.1e}] "
           f"of m[0], {elapsed:.0f}s")


def test_criterion_6_channel_buffer_contract():
    p, N = 0.9, 10
    bound = N - 1

    # oracle: stationary distribution of the drop-counter chain, solved
    # numerically from the transition matrix rather than a closed form
    states = bound + 1
    T = np.zeros((states, states))
    for s in range(bound):
        T[s, s + 1] = p
        T[s, 0] = 1.0 - p
    T[bound, 0] = 1.0
    values, vectors = np.linalg.eig(T.T)
    pi = np.real(vectors[:, np.argmax(np.real(values))])
    pi = pi / pi.sum()
    analytic_rate = float(p * pi[:bound].sum())

    rng = np.random.default_rng(106)
    held = np.zeros(N)
    fresh = np.arange(1.0, N + 1.0)
    steps = 1_000_000
    drops = 0
    run = 0
    longest = 0
    exhausted = False
    try:
        for _ in range(steps):
            if channel_step(run, p, bound, rng):
                held = fresh
                run = 0
            else:
                drops += 1
                run += 1
                longest = max(longest, run)
            buffer_apply(held, run)
    except sppc.BufferExhausted:
        exhausted = True
    empirical = drops / steps
    ok = (longest <= bound and not exhausted
          and abs(empirical - analytic_rate) <= 0.02)
    report(6, "channel and buffer contract", ok,
           f"longest run {longest} (bound {bound}), exhausted={exhausted}, "
           f"rate {empirical:.5f} vs analytic {analytic_rate:.5f}")


def test_criterion_7_determinism(tmp_path):
    doc = {
        "plant": {"poles": [-1.4396, [1.0808, 0.6664], [1.0808, -0.6664], 0.022]},
        "N": 10,
        "solver": "both",
        "lambda": 1.0,
        "x0": [0.5, 0.5, 0.5, 0.5],
        "p_drop": 0.5,
        "steps": 30,
        "trials": 8,
        "seed": 20260814,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outputs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        out = tmp_path / name
        code = cli.main(["montecarlo", "--config", str(cfg),
                         "--out", str(out)] + extra)
        assert code == 0
        outputs.append((out / "aggregate.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(7, "byte-identical reruns", ok,
           f"rerun identical={outputs[0] == outputs[1]}, "
           f"parallel identical={outputs[0] == outputs[2]}")


def test_criterion_8_greedy_speedup():
    # small margin alpha makes the threshold tight, so packets are dense
    # and the enumeration has to climb through large support sizes
    rng = np.random.default_rng(108)
    omp_times = []
    exhaustive_times = []
    for _ in range(25):
        plant = random_reachable_plant(rng, 3)
        syn = sppc.synthesize(plant, None, 12, 0.05)
        h = sppc.build_horizon(plant, syn.Q, syn.P, 12)
        x = rng.standard_normal(3)
        t0 = time.perf_counter()
        sppc.omp_design(h, syn.W, x)
        t1 = time.perf_counter()
        exhaustive_design(h, syn.W, x)
        t2 = time.perf_counter()
        omp_times.append(t1 - t0)
        exhaustive_times.append(t2 - t1)
    ratio = float(np.median(exhaustive_times) / np.median(omp_times))
    report(8, "greedy speedup", ratio >= 50.0,
           f"median speedup {ratio:.0f}x over 25 instances")
