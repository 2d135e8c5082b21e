import warnings

import numpy as np
import pytest

import sppc
from sppc import errors
from sppc.netsim import buffer_apply, channel_step


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
    assert a.solver == "omp" and b.solver == "l1"


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
    with pytest.raises(errors.ConfigError):
        sppc.run_trial(plant, h, syn, "omp", np.zeros(2), 5, 0, p_drop=0.5)
    for steps, seed, p_drop in ((True, 0, 0.5), (5, -1, 0.5), (5, 2 ** 64, 0.5),
                                (5, 1.5, 0.5), (5, True, 0.5), (5, 0, "0.5")):
        with pytest.raises(errors.ConfigError):
            sppc.run_trial(plant, h, syn, "omp", x0, steps, seed, p_drop=p_drop)


def test_trial_lyapunov_descent_at_receptions(example_case):
    # x^T P x contracts at every reception instant until the state hits
    # numerical zero; measured worst ratio over these seeds is 0.733
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    for seed in range(5):
        tr = sppc.run_trial(plant, h, syn, "omp", x0, 100, seed, p_drop=0.5)
        v = np.einsum("ki,ij,kj->k", tr.states, syn.P, tr.states)
        for k in range(tr.steps):
            if tr.dropped[k] == 0 and v[k] > 1e-200:
                assert v[k + 1] <= 0.9 * v[k]


def test_montecarlo_single_trial_matches_run_trial(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    setup = sppc.ExperimentSetup(plant=plant, horizon=h, synthesis=syn,
                                 solver="omp", x0=x0, steps=25, p_drop=0.5)
    result = sppc.run_montecarlo(setup, trials=1, base_seed=42)
    trace = sppc.run_trial(plant, h, syn, "omp", x0, 25, 42, p_drop=0.5)
    agg = result.aggregate("omp")
    np.testing.assert_array_equal(agg.mean_norm_x, trace.norm_x)
    np.testing.assert_array_equal(agg.mean_l0, trace.l0.astype(float))
    assert result.trials == 1
    assert agg.trial_summaries[0].seed == 42
    assert agg.trial_summaries[0].final_norm_x == trace.norm_x[-1]


def test_montecarlo_reproducible(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    setup = sppc.ExperimentSetup(plant=plant, horizon=h, synthesis=syn,
                                 solver="both", x0=x0, steps=15, p_drop=0.5,
                                 lam=1.0)
    a = sppc.run_montecarlo(setup, trials=3, base_seed=9)
    b = sppc.run_montecarlo(setup, trials=3, base_seed=9)
    for solver in ("omp", "l1"):
        np.testing.assert_array_equal(a.aggregate(solver).mean_norm_x,
                                      b.aggregate(solver).mean_norm_x)
        np.testing.assert_array_equal(a.aggregate(solver).mean_l0,
                                      b.aggregate(solver).mean_l0)


def test_montecarlo_parallel_matches_sequential(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    setup = sppc.ExperimentSetup(plant=plant, horizon=h, synthesis=syn,
                                 solver="omp", x0=x0, steps=10, p_drop=0.5)
    seq = sppc.run_montecarlo(setup, trials=4, base_seed=1)
    par = sppc.run_montecarlo(setup, trials=4, base_seed=1, workers=2)
    np.testing.assert_array_equal(seq.aggregate("omp").mean_norm_x,
                                  par.aggregate("omp").mean_norm_x)
    np.testing.assert_array_equal(seq.aggregate("omp").mean_l0,
                                  par.aggregate("omp").mean_l0)


def test_montecarlo_rejects_bad_arguments(example_case):
    plant, syn, h = example_case
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    good = sppc.ExperimentSetup(plant=plant, horizon=h, synthesis=syn,
                                solver="omp", x0=x0, steps=5, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(good, trials=0, base_seed=0)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(good, trials=1, base_seed=0, workers=0)
    bad_solver = sppc.ExperimentSetup(plant=plant, horizon=h, synthesis=syn,
                                      solver="newton", x0=x0, steps=5, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(bad_solver, trials=1, base_seed=0)
    no_lam = sppc.ExperimentSetup(plant=plant, horizon=h, synthesis=syn,
                                  solver="l1", x0=x0, steps=5, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(no_lam, trials=1, base_seed=0)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(good, trials=1, base_seed=-5)
    no_steps = sppc.ExperimentSetup(plant=plant, horizon=h, synthesis=syn,
                                    solver="omp", x0=x0, steps=0, p_drop=0.5)
    with pytest.raises(errors.ConfigError):
        sppc.run_montecarlo(no_steps, trials=1, base_seed=0)


def test_log_decay_slope_recovers_geometric_rate():
    ks = np.arange(101)
    slope = sppc.log_decay_slope(0.9 ** ks)
    assert slope == pytest.approx(np.log(0.9), rel=1e-9)
    assert sppc.log_decay_slope(np.zeros(101)) == pytest.approx(0.0, abs=1e-12)


def test_log_decay_slope_two_points():
    # one step gives two norms; the fit must not shrink to a single point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sppc.log_decay_slope([1.0, 0.5]) == pytest.approx(np.log(0.5))


def test_trace_arrays_read_only(example_case):
    plant, syn, h = example_case
    tr = sppc.run_trial(plant, h, syn, "omp", np.zeros(4), 3, 0, p_drop=0.5)
    with pytest.raises(ValueError):
        tr.norm_x[0] = 1.0
