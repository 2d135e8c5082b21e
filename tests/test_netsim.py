import dataclasses
import pickle
from pathlib import Path
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sppc
from sppc import cli, errors, solvers
from sppc.netsim import SOLVER_NAMES, buffer_apply, channel_step, drop_schedule
from sppc.numerics import cholesky, congruent_spectrum
from sppc.solvers import FEASIBILITY_REL_SLACK

from conftest import EXAMPLE_POLES, EXAMPLE_X0, random_reachable_plant
from oracles import reference_trial


def run_channel(p_drop, max_consecutive, rng, n):
    """Outcomes of n transmissions, keeping the drop count as run_trial does."""
    drops = 0
    outcomes = []
    for _ in range(n):
        delivered = channel_step(drops, p_drop, max_consecutive, rng)
        drops = 0 if delivered else drops + 1
        outcomes.append(delivered)
    return outcomes


def test_channel_never_drops_at_zero():
    rng = np.random.default_rng(0)
    assert all(run_channel(0.0, 5, rng, 200))


def test_channel_certain_drop_hits_bound_exactly():
    rng = np.random.default_rng(0)
    assert run_channel(1.0, 2, rng, 12) == [False, False, True] * 4


def test_channel_forced_delivery_consumes_no_draw():
    # p = 1 alternates drop, forced delivery; only drops draw randomness
    rng = np.random.default_rng(7)
    run_channel(1.0, 1, rng, 10)
    reference = np.random.default_rng(7)
    reference.random(5)
    assert rng.bit_generator.state == reference.bit_generator.state
    # a forced delivery leaves the generator untouched
    state = rng.bit_generator.state
    assert channel_step(1, 0.0, 1, rng)
    assert rng.bit_generator.state == state


def test_channel_bound_and_empirical_rate():
    rng = np.random.default_rng(99)
    p, bound = 0.5, 9
    n = 100_000
    drops = 0
    run = 0
    for delivered in run_channel(p, bound, rng, n):
        if delivered:
            run = 0
        else:
            drops += 1
            run += 1
            assert run <= bound
    # stationary drop rate of the truncated geometric chain
    expected = p * (1.0 - p ** bound) / (1.0 - p ** (bound + 1))
    assert drops / n == pytest.approx(expected, abs=0.01)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 60), st.floats(0.0, 1.0),
       st.integers(0, 12))
def test_drop_schedule_is_channel_step_stepped(seed, steps, p_drop, max_consecutive):
    # one rng.random(steps) read in turn gives the drops of one draw per
    # undecided step: the schedule's ages are the stepped drop counts
    stepped = run_channel(p_drop, max_consecutive, np.random.default_rng(seed), steps)
    ages = drop_schedule(np.random.default_rng(seed), steps, p_drop, max_consecutive)
    assert ages.dtype == np.int64 and ages.shape == (steps,)
    drops, expected = 0, []
    for delivered in stepped:
        drops = 0 if delivered else drops + 1
        expected.append(drops)
    assert ages.tolist() == expected


def test_drop_schedule_rejects_a_non_generator():
    with pytest.raises(errors.ConfigError, match="^rng must be of type Generator"):
        drop_schedule(np.random.RandomState(0).random_sample, 5, 0.5, 2)
    with pytest.raises(errors.ConfigError, match="^steps must be an integer"):
        drop_schedule(np.random.default_rng(0), 2.5, 0.5, 2)


@pytest.mark.parametrize("p_drop, max_consecutive, message", [
    (2.0, 2, "p_drop must lie in"), (-0.1, 2, "p_drop must lie in"),
    (float("nan"), 2, "p_drop must be a finite real"), (True, 2, "p_drop must be a finite real"),
    (0.5, -1, "max_consecutive must be an integer"), (0.5, 2.0, "max_consecutive must be"),
])
def test_drop_schedule_checks_its_channel(p_drop, max_consecutive, message):
    # the channel's own rules, checked once per schedule: a drop probability
    # in [0, 1] and a non-negative integer bound on consecutive drops
    rng = np.random.default_rng(0)
    with pytest.raises(errors.ConfigError, match=f"^{message}"):
        drop_schedule(rng, 3, p_drop, max_consecutive)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_channel_validation(example_case):
    # the drop probability is checked where the channel is run; the drop
    # bound is N - 1, which cannot go negative because N >= 1 is enforced
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(errors.ConfigError):
            sppc.run_trial(plant, h, syn, "omp", x0, 5, 0, p_drop=bad)
    with pytest.raises(errors.ConfigError):
        sppc.build_horizon(plant, syn.Q, syn.P, 0)


def test_buffer_plays_packet_then_tail():
    held = np.array([5.0, 6.0, 7.0])
    assert [buffer_apply(held, age) for age in range(3)] == [5.0, 6.0, 7.0]
    with pytest.raises(errors.BufferExhausted):
        buffer_apply(np.arange(3.0), 3)
    # a negative index would silently play the packet's tail
    with pytest.raises(errors.BufferExhausted, match="age -1"):
        buffer_apply(np.arange(3.0), -1)


def test_stacked_buffer_reads_each_row_alone():
    # packets stacked by rows, one age a row: row t plays held[t, age[t]]. An
    # age past a row's end is the next row's head in the flat buffer, and
    # raises instead; so does a negative age, which would play the row's tail
    held = np.arange(12.0).reshape(3, 4)
    assert buffer_apply(held, np.array([0, 3, 1])).tolist() == [0.0, 7.0, 9.0]
    for ages, bad in (([4, 0, 0], 4), ([0, 0, -1], -1), ([0, 9, -2], -2)):
        with pytest.raises(errors.BufferExhausted, match=rf"^age {bad} is outside"):
            buffer_apply(held, np.array(ages))


def test_an_age_past_the_packet_exhausts_every_path(example_case, monkeypatch, tmp_path,
                                                    capsys):
    # a channel that broke its drop bound: trial seed 1's schedule reaches
    # age N at step 3. The trial, a Monte Carlo batch holding it and the
    # console script all stop with BufferExhausted (exit code 3)
    plant, syn, h = example_case
    schedule = sppc.netsim.drop_schedule

    def broken(rng, *args):
        ages = schedule(rng, *args)
        if rng.bit_generator.seed_seq.entropy == 1:
            ages[3] = h.N
        return ages

    monkeypatch.setattr(sppc.netsim, "drop_schedule", broken)
    sppc.run_trial(plant, h, syn, "omp", EXAMPLE_X0, 10, 0, p_drop=0.5)
    with pytest.raises(errors.BufferExhausted, match=rf"^age {h.N} is outside"):
        sppc.run_trial(plant, h, syn, "omp", EXAMPLE_X0, 10, 1, p_drop=0.5)
    setup = sppc.ExperimentSetup(synthesis=syn, solver="both", x0=EXAMPLE_X0, steps=10,
                                 p_drop=0.5, lam=1.0)
    with pytest.raises(errors.BufferExhausted, match=rf"^age {h.N} is outside"):
        sppc.run_montecarlo(setup, 3, 0)
    example = Path(__file__).resolve().parents[1] / "configs" / "example.json"
    code = cli.main(["montecarlo", "--config", str(example), "--trials", "3", "--seed", "0",
                     "--out", str(tmp_path)])
    assert code == 3
    assert '"BufferExhausted"' in capsys.readouterr().err


def test_buffer_fresh_packet_resets_cursor(example_case):
    # every delivery plays the head of the packet designed at that step
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    tr = sppc.run_trial(plant, h, syn, "omp", x0, 40, 0, p_drop=0.5)
    delivered = np.flatnonzero(tr.dropped[:tr.steps] == 0)
    assert delivered.size > 0
    for k in delivered:
        assert tr.inputs[k] == sppc.omp_design(h, syn.W, tr.states[k]).coeffs[0]


def test_buffer_starts_zero_filled(example_case):
    assert buffer_apply(np.zeros(4), 0) == 0.0
    # at p = 1 the first N - 1 packets are lost and the plant plays zeros
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    tr = sppc.run_trial(plant, h, syn, "omp", x0, h.N, 0, p_drop=1.0)
    assert np.all(tr.dropped[:h.N - 1] == 1) and tr.dropped[h.N - 1] == 0
    assert np.all(tr.inputs[:h.N - 1] == 0.0)


def test_trial_playout_uses_packet_element_at_drop_age(example_case):
    # inputs[k] is element age[k] of the packet designed at k - age[k],
    # where age[k] counts the consecutive drops ending at k
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    for seed in range(3):
        tr = sppc.run_trial(plant, h, syn, "omp", x0, 100, seed, p_drop=0.9)
        age = 0
        for k in range(tr.steps):
            age = age + 1 if tr.dropped[k] else 0
            j = k - age
            expected = (0.0 if j < 0 else
                        sppc.omp_design(h, syn.W, tr.states[j]).coeffs[age])
            assert tr.inputs[k] == expected


@pytest.fixture(scope="module")
def generic_case():
    """A generic 12-state plant at N = 40 (Q = I, alpha 0.5), and an x0 for it."""
    rng = np.random.default_rng(0)
    syn = sppc.synthesize(random_reachable_plant(rng, 12), None, 40, 0.5)
    return syn, rng.standard_normal(12)


def loop_case(request, N):
    """(syn, x0) of a trial case: the example at N = 10 or 20 with its x0, or
    the generic 12-state plant at N = 40."""
    if N == 40:
        return request.getfixturevalue("generic_case")
    plant, syn, _ = request.getfixturevalue("example_case")
    return (syn if N == 10 else sppc.synthesize(plant, None, N, 0.5)), EXAMPLE_X0


# p_drop 0.1 leaves a trial few lost steps, a small stacked pass; p_drop 0.5
# and 0.9 leave more, and the generic plant's passes take more than one chunk
GENERIC = pytest.param(40, 0.9, id="generic12-40-0.9")


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@pytest.mark.parametrize("N, p_drop", [pytest.param(10, 0.5, id="0.5"),
                                       pytest.param(10, 0.9, id="0.9"), (10, 0.1), GENERIC])
def test_trial_norm_and_l0_match_each_state(request, solver, N, p_drop):
    # norm_x is reduced over all states after the loop: a batch-shaped BLAS
    # reduction would not round like np.linalg.norm on each state. Where x.x
    # leaves the normal range np.linalg.norm underflows, and norm_x does not
    # (seed 7's OMP states fall below 1e-162 from step 55 on). l0 counts
    # every packet sent, the lost ones designed after the loop included
    syn, x0 = loop_case(request, N)
    h = syn.horizon
    for seed in (4, 7):
        tr = sppc.run_trial(syn.plant, h, syn, solver, x0, 100, seed,
                            p_drop=p_drop, lam=1.0)
        assert np.array_equal(tr.norm_x == 0.0, ~tr.states.any(axis=1))
        for k in range(tr.steps + 1):
            x = tr.states[k]
            top = float(np.abs(x).max())
            if float(x @ x) >= np.finfo(float).tiny:
                assert tr.norm_x[k] == np.linalg.norm(x)
            elif top > 0.0:
                assert tr.norm_x[k] == pytest.approx(top * np.linalg.norm(x / top),
                                                     rel=1e-14)
        for k in range(tr.steps):
            x = tr.states[k]
            packet = (sppc.omp_design(h, syn.W, x) if solver == "omp"
                      else sppc.l1_design(h, x, 1.0, 1.0))
            assert tr.l0[k] == np.count_nonzero(packet.coeffs)


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9), (10, 0.0), (10, 1.0), (10, 0.1),
                                       GENERIC])
def test_trial_matches_the_reference_loop(request, solver, N, p_drop):
    # the drawn schedule, the kernel step and the cached designs, with the
    # lost packets designed after the loop, give the bits of the loop that
    # draws, designs, buffers and steps through the public calls
    syn, x0 = loop_case(request, N)
    for seed in range(4):
        for steps in (0, 60):
            tr = sppc.run_trial(syn.plant, syn.horizon, syn, solver, x0, steps,
                                seed, p_drop=p_drop, lam=1.0)
            for name, expected in reference_trial(syn, solver, x0, steps, seed,
                                                  p_drop, lam=1.0).items():
                actual = getattr(tr, name)
                assert actual.dtype == expected.dtype, name
                assert actual.tobytes() == expected.tobytes(), (name, seed, steps)


@pytest.mark.parametrize("p_drop", [0.0, 0.5, 1.0])
def test_scalar_trial_matches_the_reference_loop(scalar_case, p_drop):
    plant, syn, h = scalar_case
    for seed in range(3):
        tr = sppc.run_trial(plant, h, syn, "omp", np.array([1.0]), 10, seed, p_drop=p_drop)
        for name, expected in reference_trial(syn, "omp", [1.0], 10, seed, p_drop).items():
            assert getattr(tr, name).tobytes() == expected.tobytes(), (name, seed)


def run_in_batches(syn, solver, x0, steps, seeds, size, p_drop):
    """_run_batch over seeds in consecutive batches of `size`, fields joined in seed order."""
    batches = [sppc.netsim._run_batch(syn, solver, x0, steps, seeds[i:i + size], p_drop, 1.0)
               for i in range(0, len(seeds), size)]
    return [np.concatenate(field) for field in zip(*batches)]


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9), (10, 0.0), (10, 1.0)])
def test_batch_of_any_size_gives_each_trial_its_run_trial_bits(request, solver, N, p_drop):
    # trials stepped in lockstep, with every lost packet of the batch designed
    # in one pass, keep each trial's bits: at p_drop 0 every packet is
    # received, at 1 only the forced deliveries are
    syn, x0 = loop_case(request, N)
    seeds = range(5)
    traces = [sppc.run_trial(syn.plant, syn.horizon, syn, solver, x0, 60, seed,
                             p_drop=p_drop, lam=1.0) for seed in seeds]
    for size in (1, 2, len(seeds)):
        states, norm_x, inputs, dropped, l0, _ = run_in_batches(syn, solver, x0, 60, seeds,
                                                                 size, p_drop)
        for name, batch in (("states", states), ("norm_x", norm_x), ("inputs", inputs),
                            ("dropped", dropped), ("l0", l0)):
            for t, trace in enumerate(traces):
                assert batch[t].tobytes() == getattr(trace, name).tobytes(), (name, size, t)


def test_batch_raises_its_first_failing_trials_error(example_case, monkeypatch):
    # seed 1 exhausts its buffer at step 2, before seed 0's poisoned packet
    # (a non-finite design at a later reception) reaches the plant: every
    # batch size raises seed 0's DimensionMismatch, run_trial's error on it
    plant, syn, h = example_case
    clean = sppc.run_trial(plant, h, syn, "omp", EXAMPLE_X0, 20, 0, p_drop=0.5)
    k0 = next(k for k in range(8, 20) if not clean.dropped[k])
    poisoned = clean.states[k0].tobytes()
    omp, schedule = sppc.netsim._omp, sppc.netsim.drop_schedule

    def design(h, W, x):
        return (np.full(h.N, np.inf),) if x.tobytes() == poisoned else omp(h, W, x)

    def broken(rng, *args):
        ages = schedule(rng, *args)
        if rng.bit_generator.seed_seq.entropy == 1:
            ages[2] = h.N
        return ages

    monkeypatch.setattr(sppc.netsim, "_omp", design)
    monkeypatch.setattr(sppc.netsim, "drop_schedule", broken)
    raised = []
    with np.errstate(all="ignore"):     # inf * 0 on B's zero entries makes NaN quietly
        for size in (1, 2, 4):
            with pytest.raises(errors.SppcError) as info:
                run_in_batches(syn, "omp", EXAMPLE_X0, 20, range(4), size, 0.5)
            raised.append((type(info.value), str(info.value)))
        setup = sppc.ExperimentSetup(synthesis=syn, solver="omp", x0=EXAMPLE_X0, steps=20,
                                     p_drop=0.5)
        with pytest.raises(errors.SppcError) as info:
            sppc.run_montecarlo(setup, 4, 0)
        raised.append((type(info.value), str(info.value)))
    assert raised == [(errors.DimensionMismatch,
                       "state, input and next state must be finite")] * 4


@pytest.mark.parametrize("n, N", [(12, 40), (20, 64)])
def test_trial_lost_designs_stay_within_the_stacked_cap(n, N):
    # a trial's lost steps hold at most _STACKED_BYTES at once, in each
    # solver's pass: OMP's Gram-Schmidt rows and R^-1 in chunks of 12 rows at
    # (12, 40) and of 3 at (20, 64), where the trials peak at 2.6 and 4.1 MiB
    # (in one pass their 92 lost steps peak at 17 and 67 MiB); l1's homotopy
    # arrays in chunks of 546 and 341 rows, so a trial's 92 take one pass (0.5
    # and 1.7 MiB) and ten times as many take two and three (1.0 and 2.7 MiB,
    # 6.6 MiB at (20, 64) in one chunk). The first run fills the caches, so
    # the measured one adds no entries to them
    rng = np.random.default_rng(0)
    syn = sppc.synthesize(random_reachable_plant(rng, n), None, N, 0.5)
    x0 = rng.standard_normal(n)
    for solver in ("omp", "l1"):
        sppc.run_trial(syn.plant, syn.horizon, syn, solver, x0, 100, 1, p_drop=0.9, lam=1.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            trace = sppc.run_trial(syn.plant, syn.horizon, syn, solver, x0, 100, 1, p_drop=0.9,
                                   lam=1.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert trace.dropped.sum() >= 80
        assert peak <= solvers._STACKED_BYTES + (2 << 20), solver
    X = np.tile(trace.states[np.flatnonzero(trace.dropped[:-1])], (10, 1))
    Y = (syn.horizon.H @ X[:, :, None])[:, :, 0]
    tracemalloc.start()
    try:
        solvers._l1_rows(syn.horizon, Y, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= solvers._STACKED_BYTES + (2 << 20)


def test_trial_zero_initial_state(example_case):
    plant, syn, h = example_case
    tr = sppc.run_trial(plant, h, syn, "omp", np.zeros(4), 20, 3, p_drop=0.5)
    assert np.all(tr.states == 0.0)
    assert np.all(tr.inputs == 0.0)
    assert np.all(tr.l0 == 0)


def test_trial_scalar_deadbeat(scalar_case):
    plant, syn, h = scalar_case
    tr = sppc.run_trial(plant, h, syn, "omp", np.array([1.0]), 10, 0, p_drop=0.0)
    assert tr.norm_x[0] == 1.0
    assert np.all(tr.norm_x[1:] == 0.0)
    assert tr.inputs[0] == -2.0
    assert np.all(tr.dropped == 0)


def test_trial_deterministic_given_seed(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    a = sppc.run_trial(plant, h, syn, "omp", x0, 40, 11, p_drop=0.7)
    b = sppc.run_trial(plant, h, syn, "omp", x0, 40, 11, p_drop=0.7)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.norm_x, b.norm_x)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.dropped, b.dropped)
    np.testing.assert_array_equal(a.l0, b.l0)


def test_trial_seed_changes_channel(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    a = sppc.run_trial(plant, h, syn, "omp", x0, 40, 0, p_drop=0.5)
    b = sppc.run_trial(plant, h, syn, "omp", x0, 40, 1, p_drop=0.5)
    assert not np.array_equal(a.dropped, b.dropped)


def test_trial_solver_seed_pairing(example_case):
    # same seed gives omp and l1 the same drop pattern; only the channel
    # consumes randomness
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    a = sppc.run_trial(plant, h, syn, "omp", x0, 30, 5, p_drop=0.5)
    b = sppc.run_trial(plant, h, syn, "l1", x0, 30, 5, p_drop=0.5, lam=1.0)
    np.testing.assert_array_equal(a.dropped, b.dropped)


def test_trial_zero_steps(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    tr = sppc.run_trial(plant, h, syn, "omp", x0, 0, 0, p_drop=0.5)
    assert tr.steps == 0
    assert tr.norm_x.shape == (1,)
    np.testing.assert_allclose(tr.states[0], x0)
    assert tr.norm_x[0] == pytest.approx(1.0)


def test_trial_final_row_zero_filled(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    tr = sppc.run_trial(plant, h, syn, "omp", x0, 5, 2, p_drop=0.5)
    assert tr.inputs[-1] == 0.0
    assert tr.dropped[-1] == 0
    assert tr.l0[-1] == 0
    assert tr.design_time_us[-1] == 0.0
    assert tr.norm_x[-1] == pytest.approx(np.linalg.norm(tr.states[-1]))


def test_trial_rejects_bad_arguments(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(errors.ConfigError):
        sppc.run_trial(plant, h, syn, "greedy", x0, 5, 0, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_trial(plant, h, syn, "l1", x0, 5, 0, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_trial(plant, h, syn, "omp", x0, -1, 0, p_drop=0.5)
    # x0 is checked once, as omp_design checks x; a config x0 of the wrong
    # length is a ConfigError before any trial runs
    with pytest.raises(errors.DimensionMismatch, match=r"^x must have shape \(4,\)"):
        sppc.run_trial(plant, h, syn, "omp", np.zeros(2), 5, 0, p_drop=0.5)
    # a plant other than syn's own fails up front, an equal rebuilt one too
    other = sppc.PlantModel([[0.5, 0.1], [0.0, 0.3]], [[0.0], [1.0]])
    for stranger in (other, sppc.PlantModel(plant.A, plant.B)):
        with pytest.raises(errors.ConfigError, match=r"^plant is not syn\.plant"):
            sppc.run_trial(stranger, h, syn, "omp", x0, 5, 0, p_drop=0.5)
    for steps, seed, p_drop in ((True, 0, 0.5), (5, -1, 0.5), (5, 2 ** 64, 0.5),
                                (5, 1.5, 0.5), (5, True, 0.5), (5, 0, "0.5")):
        with pytest.raises(errors.ConfigError):
            sppc.run_trial(plant, h, syn, "omp", x0, steps, seed, p_drop=p_drop)


def test_trial_overflowing_state(example_case):
    # x0^T W x0 overflows: both solvers reject x0 up front, and a design
    # at such a state has no finite threshold to meet
    plant, syn, h = example_case
    x0 = np.full(4, 1e300)
    for solver in SOLVER_NAMES:
        with pytest.raises(errors.ConfigError, match=r"x0\^T W x0 is inf"):
            sppc.run_trial(plant, h, syn, solver, x0, 100, 0, p_drop=0.5, lam=1.0)
    with np.errstate(over="ignore"), pytest.raises(errors.DegenerateInput,
                                                   match=r"x\^T W x is inf"):
        sppc.omp_design(h, syn.W, x0)


def test_trial_lyapunov_descent_at_receptions(example_case):
    # a property of the example plant, not a guarantee of the design: on it
    # x^T P x shrinks by 0.9 over every reception step until the state hits
    # numerical zero (measured worst ratio over these seeds 0.733); nothing
    # bounds the one-step ratio on other plants. The guarantee is the
    # cost bound of test_omp_cost_bound_between_receptions.
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    for seed in range(5):
        tr = sppc.run_trial(plant, h, syn, "omp", x0, 100, seed, p_drop=0.5)
        v = np.einsum("ki,ij,kj->k", tr.states, syn.P, tr.states)
        for k in range(tr.steps):
            if tr.dropped[k] == 0 and v[k] > 1e-200:
                assert v[k + 1] <= 0.9 * v[k]


@pytest.mark.parametrize("p_drop", [0.5, 0.9])
def test_omp_lyapunov_contraction_between_receptions(example_case, p_drop):
    # a property of the example plant, not a guarantee of the design: on it
    # V = x^T P x shrinks by at least rho from one reception to the next,
    # however many drops lie between them (measured worst ratios 0.970 rho at
    # p_drop 0.5, 0.973 rho at 0.9). The rho-form fails on envelope plants (up
    # to 1.20 rho, see RECEPTION_BOUND_PLANTS); the guarantee is the cost
    # bound of test_omp_cost_bound_between_receptions.
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    checked = 0
    for seed in range(20):
        tr = sppc.run_trial(plant, h, syn, "omp", x0, 100, seed, p_drop=p_drop)
        v = np.einsum("ki,ij,kj->k", tr.states, syn.P, tr.states)
        receptions = np.flatnonzero(tr.dropped[:tr.steps] == 0)
        for k, k_next in zip(receptions, receptions[1:]):
            if np.linalg.norm(tr.states[k]) > 1e-100:
                assert v[k_next] <= syn.rho * v[k] * (1.0 + 1e-9)
                checked += 1
    assert checked >= 100


# (plant, n, N): the example plant, then envelope plants drawn from their seed
# by random_reachable_plant; the four n = 2 plants break the rho-form
# V(x_k') <= rho V(x_k) (up to 1.20 rho), the four n >= 18 ones run long packets
RECEPTION_BOUND_PLANTS = [("example", 4, 10), (23, 2, 46), (94, 2, 18),
                          (200, 2, 43), (214, 2, 9), (93, 20, 64),
                          (183, 20, 62), (197, 19, 61), (208, 18, 62)]


def reception_bound_plant(plant_id):
    """The plant and horizon N named by an entry of RECEPTION_BOUND_PLANTS."""
    if plant_id == "example":
        return sppc.from_poles(EXAMPLE_POLES), 10
    rng = np.random.default_rng(plant_id)
    n = int(rng.integers(2, 21))
    N = int(rng.integers(4, 65))
    return random_reachable_plant(rng, n), N


@pytest.mark.parametrize("p_drop", [0.5, 0.9])
@pytest.mark.parametrize("plant_id, n, N", RECEPTION_BOUND_PLANTS)
def test_omp_cost_bound_between_receptions(plant_id, n, N, p_drop):
    # P is the cheap-control Riccati fixed point, so the packet delivered at
    # reception k costs at least V(x_k') from the next reception k' on:
    #   V(x_k') + sum_{k<i<k'} x_i^T Q x_i <= ||G u - H x_k||^2 <= x_k^T W x_k,
    # so V at the next reception is at most lambda_max(W, P) < 1 times V here.
    # Measured worst: 1.1e-11 above the bound (seed 93), 6.8e-6 below it (example).
    plant, horizon = reception_bound_plant(plant_id)
    assert (plant.n, horizon) == (n, N)
    syn = sppc.synthesize(plant, None, N, 0.5)
    assert congruent_spectrum(syn.W, cholesky(syn.P))[-1] < 1.0
    checked = 0
    for seed in range(2):
        x0 = np.random.default_rng(1000 + seed).standard_normal(n)
        tr = sppc.run_trial(plant, syn.horizon, syn, "omp", x0, 40, seed,
                            p_drop=p_drop)
        xs = tr.states
        v, q, w = (np.einsum("ki,ij,kj->k", xs, m, xs)
                   for m in (syn.P, syn.Q, syn.W))
        receptions = np.flatnonzero(tr.dropped[:tr.steps] == 0)
        for k, k_next in zip(receptions, receptions[1:]):
            if np.linalg.norm(xs[k]) > 1e-100:    # above the underflow regime
                cost = v[k_next] + q[k + 1:k_next].sum()
                assert cost <= w[k] * (1.0 + FEASIBILITY_REL_SLACK)
                checked += 1
    assert checked >= 5


def test_montecarlo_single_trial_matches_run_trial(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    setup = sppc.ExperimentSetup(synthesis=syn, solver="omp", x0=x0, steps=25, p_drop=0.5)
    result = sppc.run_montecarlo(setup, trials=1, base_seed=42)
    trace = sppc.run_trial(plant, h, syn, "omp", x0, 25, 42, p_drop=0.5)
    assert list(result) == ["omp"]
    agg = result["omp"]
    np.testing.assert_array_equal(agg.mean_norm_x, trace.norm_x)
    np.testing.assert_array_equal(agg.mean_l0, trace.l0.astype(float))


def test_montecarlo_reproducible(example_case):
    _, syn, _ = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    setup = sppc.ExperimentSetup(synthesis=syn, solver="both", x0=x0, steps=15, p_drop=0.5,
                                 lam=1.0)
    a = sppc.run_montecarlo(setup, trials=3, base_seed=9)
    b = sppc.run_montecarlo(setup, trials=3, base_seed=9)
    assert list(a) == list(b) == list(SOLVER_NAMES)
    for solver in SOLVER_NAMES:
        np.testing.assert_array_equal(a[solver].mean_norm_x, b[solver].mean_norm_x)
        np.testing.assert_array_equal(a[solver].mean_l0, b[solver].mean_l0)


def test_montecarlo_parallel_matches_sequential(example_case):
    # OMP in two chunks of 2 trials, then both solvers in two chunks of 10 each
    _, syn, _ = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    for solver, trials in (("omp", 4), ("both", 20)):
        setup = sppc.ExperimentSetup(synthesis=syn, solver=solver,
                                     x0=x0, steps=10, p_drop=0.5, lam=1.0)
        seq = sppc.run_montecarlo(setup, trials=trials, base_seed=1)
        par = sppc.run_montecarlo(setup, trials=trials, base_seed=1, workers=2)
        assert list(seq) == list(par)
        for agg in seq:
            np.testing.assert_array_equal(seq[agg].mean_norm_x, par[agg].mean_norm_x)
            np.testing.assert_array_equal(seq[agg].mean_l0, par[agg].mean_l0)


def test_montecarlo_rejects_bad_arguments(example_case):
    _, syn, _ = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    good = sppc.ExperimentSetup(synthesis=syn, solver="omp", x0=x0, steps=5, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(good, trials=0, base_seed=0)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(good, trials=1, base_seed=0, workers=0)
    bad_solver = sppc.ExperimentSetup(synthesis=syn, solver="newton", x0=x0, steps=5,
                                      p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(bad_solver, trials=1, base_seed=0)
    no_lam = sppc.ExperimentSetup(synthesis=syn, solver="l1", x0=x0, steps=5, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(no_lam, trials=1, base_seed=0)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(good, trials=1, base_seed=-5)
    no_steps = sppc.ExperimentSetup(synthesis=syn, solver="omp", x0=x0, steps=0, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(no_steps, trials=1, base_seed=0)


def test_montecarlo_seed_range_covers_every_trial(example_case, monkeypatch):
    # trial t draws with seed base_seed + t, so the last trial's seed bounds
    # base_seed: a run past 2^64 - 1 fails before any trial
    _, syn, _ = example_case
    setup = sppc.ExperimentSetup(synthesis=syn, solver="omp", x0=EXAMPLE_X0, steps=5,
                                 p_drop=0.5)
    # each trial's schedule is drawn from its own PCG64(seed), whose entropy is the seed
    seeds = []
    schedule = sppc.netsim.drop_schedule
    monkeypatch.setattr(sppc.netsim, "drop_schedule", lambda rng, *args: seeds.append(
        rng.bit_generator.seed_seq.entropy) or schedule(rng, *args))
    for base_seed in (2 ** 64 - 1, 2 ** 64 - 2):
        with pytest.raises(errors.ConfigError, match=r"^base_seed must be an integer"):
            sppc.run_montecarlo(setup, 3, base_seed)
    assert seeds == []
    sppc.run_montecarlo(setup, 3, 2 ** 64 - 3)
    assert seeds == [2 ** 64 - 3, 2 ** 64 - 2, 2 ** 64 - 1]


def test_log_decay_slope_recovers_geometric_rate():
    ks = np.arange(101)
    slope = sppc.log_decay_slope(0.9 ** ks)
    assert slope == pytest.approx(np.log(0.9), rel=1e-9)
    # a series at rest measured no decay
    assert sppc.log_decay_slope(np.zeros(101)) == 0.0
    assert sppc.log_decay_slope(np.r_[1.0, np.zeros(100)]) == 0.0


def test_log_decay_slope_ignores_underflowed_tail():
    # the entries at exact 0 are not part of the geometric tail
    series = 0.9 ** np.arange(101)
    series[80:] = 0.0
    assert sppc.log_decay_slope(series) == pytest.approx(np.log(0.9), rel=1e-9)


def test_log_decay_slope_two_points():
    # one step gives two norms; the fit must not shrink to a single point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sppc.log_decay_slope([1.0, 0.5]) == pytest.approx(np.log(0.5))
    for short in ([1.0], []):
        with pytest.raises(errors.ConfigError):
            sppc.log_decay_slope(short)


def test_trace_arrays_read_only(example_case):
    plant, syn, h = example_case
    tr = sppc.run_trial(plant, h, syn, "omp", np.zeros(4), 3, 0, p_drop=0.5)
    with pytest.raises(ValueError):
        tr.norm_x[0] = 1.0


def _array_fields(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
            if isinstance(getattr(record, f.name), np.ndarray)}


def test_every_record_array_is_read_only_and_survives_pickling(example_case):
    # each of the seven records that hold arrays, as built and as a pool
    # worker receives or returns it: read-only arrays, the same bits
    plant, syn, h = example_case
    setup = sppc.ExperimentSetup(syn, "both", EXAMPLE_X0, 5, 0.5, lam=1.0)
    records = [plant, h, syn, sppc.omp_design(h, syn.W, EXAMPLE_X0), setup,
               sppc.run_trial(plant, h, syn, "omp", EXAMPLE_X0, 5, 0, p_drop=0.5),
               *sppc.run_montecarlo(setup, 2, 0).values()]
    assert len({type(r) for r in records}) == 7
    for record in records:
        arrays = _array_fields(record)
        assert arrays
        copy = pickle.loads(pickle.dumps(record))
        for name, arr in _array_fields(copy).items():
            assert not (arr.flags.writeable or arrays[name].flags.writeable), name
            assert arr.tobytes() == arrays[name].tobytes()


def test_unpickled_setup_keeps_one_plant_and_lifting(example_case):
    # run_montecarlo pickles the plant, the lifting and the synthesis to its
    # workers together: the copies keep run_trial's identity rule
    plant, syn, h = example_case
    setup = _setup(syn)
    p, g, s = pickle.loads(pickle.dumps((setup.plant, setup.horizon, setup.synthesis)))
    assert s.plant is p and s.horizon is g
    copy = pickle.loads(pickle.dumps(setup))
    assert copy.synthesis.plant is copy.plant and copy.horizon is copy.synthesis.horizon
    assert not (copy.x0.flags.writeable or copy.synthesis.W.flags.writeable
                or copy.plant.A.flags.writeable or copy.horizon.G.flags.writeable)
    trace = sppc.run_trial(p, g, s, "omp", EXAMPLE_X0, 5, 0, p_drop=0.5)
    assert trace.norm_x.tobytes() == sppc.run_trial(plant, h, syn, "omp", EXAMPLE_X0, 5, 0,
                                                    p_drop=0.5).norm_x.tobytes()


def test_setup_x0_is_read_only_and_leaves_callers_array_writable(example_case):
    # every trial of a run shares x0
    x0 = np.array(EXAMPLE_X0)
    setup = sppc.ExperimentSetup(example_case[1], "omp", x0, 5, 0.5)
    assert x0.flags.writeable and not setup.x0.flags.writeable
    x0[0] = 9.0
    assert setup.x0.tobytes() == EXAMPLE_X0.tobytes()


def _setup(syn):
    return sppc.ExperimentSetup(syn, "omp", EXAMPLE_X0, 5, 0.5)


def _skewed(m):
    """A copy of m with an asymmetry of 0.5, far past the symmetry tolerance."""
    m = np.array(m, dtype=float)
    m[0, 1] += 0.5
    return m


@pytest.mark.parametrize("call, error", [
    (lambda p, s, x: sppc.l1_design(s.horizon, x, None, 1.0), errors.ConfigError),
    (lambda p, s, x: sppc.l1_design(s.horizon, x, "1.0", 1.0), errors.ConfigError),
    (lambda p, s, x: sppc.l1_design(s.horizon, x, 1.0, None), errors.ConfigError),
    (lambda p, s, x: sppc.l1_design(s.horizon, x, 1.0, "a"), errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(p, s.horizon, s, "l1", x, 5, 0, p_drop=0.5,
                                    lam="a"), errors.ConfigError),
    (lambda p, s, x: sppc.run_montecarlo(_setup(s), 1.5, 0), errors.ConfigError),
    (lambda p, s, x: sppc.run_montecarlo(_setup(s), True, 0), errors.ConfigError),
    (lambda p, s, x: sppc.run_montecarlo(_setup(s), 2, 0, workers=1.0),
     errors.ConfigError),
    (lambda p, s, x: sppc.synthesize(p, None, 10, None), errors.ConfigError),
    (lambda p, s, x: sppc.synthesize(p, np.eye(3), 10), errors.DimensionMismatch),
    (lambda p, s, x: sppc.synthesize(p, np.ones((4, 3)), 10), errors.DimensionMismatch),
    (lambda p, s, x: sppc.solve_riccati(p, np.eye(5)), errors.DimensionMismatch),
    (lambda p, s, x: sppc.build_horizon(p, s.Q, s.P, True), errors.ConfigError),
    (lambda p, s, x: sppc.synthesize(p, None, True), errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(p, s.horizon, s, "omp", x, 5, 0, p_drop=True),
     errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(p, s.horizon, s, "l1", x, 5, 0, p_drop=0.5,
                                    lam=True), errors.ConfigError),
    (lambda p, s, x: sppc.l1_design(s.horizon, x, True, 1.0), errors.ConfigError),
    (lambda p, s, x: sppc.l1_design(s.horizon, x, 1.0, False), errors.ConfigError),
    (lambda p, s, x: sppc.run_montecarlo(_setup(s), 2, True), errors.ConfigError),
    (lambda p, s, x: sppc.PlantModel(A=[["a"]], B=[[1.0]]), errors.DimensionMismatch),
    (lambda p, s, x: sppc.build_horizon(p, "a", s.P, 10), errors.DimensionMismatch),
    (lambda p, s, x: sppc.compute_rho([[1.0, 0.0], [1.0]], s.P), errors.DimensionMismatch),
    (lambda p, s, x: sppc.omp_design(s.horizon, s.W, "a"), errors.DimensionMismatch),
    (lambda p, s, x: sppc.compute_c(s.horizon, "0.5"), errors.ConfigError),
    (lambda p, s, x: sppc.compute_c(s.horizon, None), errors.ConfigError),
    (lambda p, s, x: sppc.compute_c(s.horizon, True), errors.ConfigError),
    (lambda p, s, x: sppc.synthesize(p, _skewed(s.Q), 10), errors.NonSymmetric),
    (lambda p, s, x: sppc.solve_riccati(p, _skewed(s.Q)), errors.NonSymmetric),
    (lambda p, s, x: sppc.compute_rho(_skewed(s.Q), s.P), errors.NonSymmetric),
    (lambda p, s, x: sppc.build_horizon(p, s.Q, _skewed(s.P), 10), errors.NonSymmetric),
    (lambda p, s, x: sppc.compute_rho(s.Q, _skewed(s.P)), errors.NonSymmetric),
    (lambda p, s, x: sppc.omp_design(s.horizon, s.W, ["0.5"] * 4), errors.DimensionMismatch),
    (lambda p, s, x: sppc.l1_design(s.horizon, ["0.5"] * 4, 1, 1), errors.DimensionMismatch),
    (lambda p, s, x: sppc.run_trial(p, s.horizon, s, "omp", ["0.5"] * 4, 5, 0, p_drop=0.5),
     errors.DimensionMismatch),
    (lambda p, s, x: sppc.compute_rho([["1"] * 4] * 4, s.P), errors.DimensionMismatch),
    (lambda p, s, x: sppc.PlantModel([[2.0]], [[True]]), errors.DimensionMismatch),
    (lambda p, s, x: sppc.step(p, ["1"] * 4, 1.0), errors.DimensionMismatch),
    (lambda p, s, x: sppc.HorizonData(N=1, G=[[np.nan]], H=[[1.0]]),
     errors.DimensionMismatch),
    (lambda p, s, x: channel_step(0, "0.5", 9, np.random.default_rng(0)), errors.ConfigError),
    (lambda p, s, x: channel_step(0, 0.5, 9, None), errors.ConfigError),
    (lambda p, s, x: buffer_apply(np.zeros(4), "a"), errors.ConfigError),
    (lambda p, s, x: sppc.step(p, x, "1.5"), errors.ConfigError),
    (lambda p, s, x: sppc.synthesize(None, None, 10), errors.ConfigError),
    (lambda p, s, x: sppc.check_invariants(p, None), errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(p, s.horizon, None, "omp", x, 5, 0, p_drop=0.5),
     errors.ConfigError),
    (lambda p, s, x: sppc.omp_design(s.horizon, s.W, [0.5, True, 0.5, 0.5]),
     errors.DimensionMismatch),
    (lambda p, s, x: sppc.step(p, [True, 0, 0, 0], 1.0), errors.DimensionMismatch),
    (lambda p, s, x: sppc.run_trial(p, sppc.build_horizon(p, s.Q, s.P, 20), s, "omp", x, 5,
                                    0, p_drop=0.5), errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(sppc.from_poles([0.9, 0.5, 0.2, -0.3]), s.horizon, s,
                                    "omp", x, 50, 0, p_drop=0.5), errors.ConfigError),
    (lambda p, s, x: sppc.check_invariants(sppc.from_poles([0.5, 0.2]), s), errors.ConfigError),
    (lambda p, s, x: sppc.check_invariants(sppc.from_poles([0.9, 0.5, 0.2, -0.3]), s),
     errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(sppc.PlantModel(p.A, p.B), s.horizon, s, "omp", x, 5, 0,
                                    p_drop=0.5), errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(p, sppc.HorizonData(s.horizon.N, s.horizon.G, s.horizon.H),
                                    s, "omp", x, 5, 0, p_drop=0.5), errors.ConfigError),
    (lambda p, s, x: sppc.omp_design(None, s.W, x), errors.ConfigError),
    (lambda p, s, x: sppc.l1_design(None, x, 1.0, 1.0), errors.ConfigError),
    (lambda p, s, x: sppc.compute_c(None, 0.5), errors.ConfigError),
    (lambda p, s, x: sppc.build_horizon(None, s.Q, s.P, 10), errors.ConfigError),
    (lambda p, s, x: sppc.solve_riccati(None, s.Q), errors.ConfigError),
    (lambda p, s, x: sppc.is_reachable(None), errors.ConfigError),
    (lambda p, s, x: sppc.reachability_matrix(None), errors.ConfigError),
    (lambda p, s, x: sppc.step(None, x, 1.0), errors.ConfigError),
    (lambda p, s, x: sppc.run_montecarlo(None, 2, 0), errors.ConfigError),
    (lambda p, s, x: sppc.run_montecarlo(sppc.ExperimentSetup(s, "omp", x, "5", 0.5), 2, 0),
     errors.ConfigError),
    (lambda p, s, x: sppc.log_decay_slope("ab"), errors.DimensionMismatch),
    (lambda p, s, x: sppc.HorizonData(N=True, G=s.horizon.G[:, :1], H=s.horizon.H),
     errors.ConfigError),
    (lambda p, s, x: sppc.ExperimentSetup(s, "omp", [[0.5], [0.5, 0.5]], 5, 0.5),
     errors.DimensionMismatch),
    (lambda p, s, x: sppc.step(p, x, True), errors.ConfigError),
    (lambda p, s, x: sppc.step(p, x, np.inf), errors.ConfigError),
    (lambda p, s, x: sppc.ExperimentSetup(None, "omp", x, 5, 0.5), errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(None, s.horizon, s, "omp", x, 5, 0, p_drop=0.5),
     errors.ConfigError),
    (lambda p, s, x: sppc.run_trial(p, None, s, "omp", x, 5, 0, p_drop=0.5),
     errors.ConfigError),
    (lambda p, s, x: sppc.check_invariants(None, s), errors.ConfigError),
    (lambda p, s, x: sppc.from_poles(["a"]), errors.DimensionMismatch),
    (lambda p, s, x: sppc.from_poles([[1, 2], [3]]), errors.DimensionMismatch),
    (lambda p, s, x: sppc.from_poles("0.5"), errors.DimensionMismatch),
    (lambda p, s, x: sppc.from_poles([0.5, "0.2"]), errors.DimensionMismatch),
    (lambda p, s, x: sppc.from_poles([True, 0.5]), errors.DimensionMismatch),
    (lambda p, s, x: sppc.from_poles([np.nan]), errors.DimensionMismatch),
], ids=["lam-None", "lam-str", "bound-None", "bound-str", "trial-lam-str",
        "trials-float", "trials-bool", "workers-float", "alpha-None", "q-size",
        "q-rect", "riccati-q-size", "horizon-N-bool", "synthesize-N-bool",
        "trial-p_drop-bool", "trial-lam-bool", "lam-bool", "bound-bool",
        "base_seed-bool", "plant-str", "horizon-Q-str", "rho-ragged", "omp-x-str",
        "c-rho-str", "c-rho-None", "c-rho-bool", "synthesize-Q-asym", "riccati-Q-asym",
        "rho-Q-asym", "horizon-P-asym", "rho-P-asym", "omp-x-strs", "l1-x-strs",
        "trial-x0-strs", "rho-Q-strs", "plant-B-bool", "step-x-strs", "horizon-G-nan",
        "channel-p_drop-str", "channel-rng-None", "buffer-age-str", "step-u-str",
        "synthesize-plant-None", "invariants-result-None", "trial-syn-None",
        "omp-x-bool-entry", "step-x-bool-entry", "trial-h-other-N", "trial-plant-other",
        "invariants-plant-2-state", "invariants-plant-other", "trial-plant-copy",
        "trial-h-copy", "omp-h-None", "l1-h-None", "c-h-None", "horizon-plant-None",
        "riccati-plant-None", "reachable-plant-None", "reachability-plant-None",
        "step-plant-None", "montecarlo-setup-None", "montecarlo-steps-str", "slope-str",
        "horizon-data-N-bool", "setup-x0-ragged", "step-u-bool", "step-u-inf",
        "setup-synthesis-None", "trial-plant-None", "trial-h-None", "invariants-plant-None",
        "poles-str", "poles-ragged", "poles-scalar-str", "poles-str-entry", "poles-bool-entry",
        "poles-nan"])
def test_bad_library_arguments_are_typed(example_case, call, error):
    plant, syn, _ = example_case
    with pytest.raises(error):
        call(plant, syn, np.asarray(EXAMPLE_X0))
