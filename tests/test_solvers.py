import collections
import math
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import sppc
from sppc import errors, solvers
from sppc.lifting import HorizonData
from sppc.solvers import FEASIBILITY_ABS_FLOOR, FEASIBILITY_REL_SLACK, _omp, _omp_rows

import oracles
from conftest import EXAMPLE_X0, random_reachable_plant, random_spd
from oracles import exhaustive_design, refit_greedy_picks


def random_instance(rng, n_max=4, N_max=8):
    n = int(rng.integers(1, n_max + 1))
    N = int(rng.integers(1, N_max + 1))
    plant = random_reachable_plant(rng, n)
    Q = random_spd(rng, n)
    syn = sppc.synthesize(plant, Q, N, 0.5)
    h = sppc.build_horizon(plant, Q, syn.P, N)
    return h, syn


def feasible(packet):
    return packet.residual_sq <= (packet.threshold
                                  * (1.0 + FEASIBILITY_REL_SLACK)
                                  + FEASIBILITY_ABS_FLOOR)


def identity_horizon():
    """Hand-solvable N=2, n=1 geometry: G is the identity, H x = [1, 1]."""
    eye = np.eye(2)
    return HorizonData(N=2, G=eye, H=np.array([[1.0], [1.0]]))


def test_omp_zero_state(scalar_case):
    _, syn, h = scalar_case
    p = sppc.omp_design(h, syn.W, np.zeros(1))
    assert p.support == ()
    assert p.iterations == 0
    assert p.residual_sq == 0.0
    np.testing.assert_array_equal(p.coeffs, np.zeros(2))


def test_omp_scalar_hand_trace(scalar_case):
    # x = 1: picking index 0 alone already reproduces H x exactly
    _, syn, h = scalar_case
    p = sppc.omp_design(h, syn.W, np.array([1.0]))
    assert p.support == (0,)
    assert p.iterations == 1
    np.testing.assert_allclose(p.coeffs, [-2.0, 0.0], atol=1e-12)
    assert p.residual_sq == pytest.approx(0.0, abs=1e-20)
    assert p.threshold == pytest.approx(0.017157287525380992, rel=1e-12)


def test_omp_random_feasible_and_consistent():
    rng = np.random.default_rng(21)
    for _ in range(10):
        h, syn = random_instance(rng)
        for _ in range(20):
            x = rng.standard_normal(h.n)
            p = sppc.omp_design(h, syn.W, x)
            assert feasible(p)
            assert p.support == tuple(sorted(p.support))
            assert np.all(p.coeffs[list(p.support)] != 0.0) or p.l0 == 0
            mask = np.ones(h.N, dtype=bool)
            mask[list(p.support)] = False
            assert np.all(p.coeffs[mask] == 0.0)
            assert p.l0 == p.iterations
            resid = h.G @ p.coeffs - h.H @ x
            assert float(resid @ resid) == pytest.approx(p.residual_sq,
                                                         rel=1e-9, abs=1e-12)


def reference_greedy(G, y, eps):
    """Independent re-derivation of the greedy loop with plain numpy.

    Returns the picks in pick order, the coefficients and the history of
    squared residual norms.
    """
    support = []
    r = y.copy()
    history = [float(r @ r)]
    coeffs = np.zeros(G.shape[1])
    while history[-1] > eps and len(support) < G.shape[1]:
        score = np.abs(G.T @ r) / np.linalg.norm(G, axis=0)
        score[support] = -np.inf
        support.append(int(np.argmax(score)))
        sol = np.linalg.lstsq(G[:, support], y, rcond=None)[0]
        coeffs = np.zeros(G.shape[1])
        coeffs[support] = sol
        r = y - G @ coeffs
        history.append(float(r @ r))
    return support, coeffs, history


def test_omp_matches_reference_greedy():
    rng = np.random.default_rng(22)
    for _ in range(20):
        h, syn = random_instance(rng)
        x = rng.standard_normal(h.n)
        p = sppc.omp_design(h, syn.W, x)
        support, coeffs, history = reference_greedy(h.G, h.H @ x,
                                                    float(x @ syn.W @ x))
        assert p.iterations == len(support)
        np.testing.assert_allclose(p.coeffs, coeffs, rtol=1e-8, atol=1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def assert_same_greedy(h, W, x):
    """Pick order and iteration count equal the reference's; coefficients
    agree within 1e-9 of the packet's peak. Returns the picks."""
    y = h.H @ x
    eps = float(x @ W @ x)
    picks, coeffs, _ = reference_greedy(h.G, y, eps)
    assert _omp(h, W, x)[3] == picks
    p = sppc.omp_design(h, W, x)
    assert p.iterations == len(picks)
    assert np.abs(p.coeffs - coeffs).max() <= 1e-9 * np.abs(coeffs).max()
    return picks


@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9)])
def test_omp_matches_reference_on_example_trajectories(example_plant, N, p_drop):
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    h = syn.horizon
    checked = 0
    for seed in range(3):
        trace = sppc.run_trial(example_plant, h, syn, "omp", EXAMPLE_X0, 100,
                               seed, p_drop=p_drop)
        for x in trace.states[:-1]:
            # a subnormal threshold has no relative precision left, so the
            # stop test there is decided by underflow, not by the fit
            if float(x @ syn.W @ x) < np.finfo(float).tiny:
                continue
            assert_same_greedy(h, syn.W, x)
            checked += 1
    assert checked >= 150


@pytest.mark.parametrize("seed", [15, 234])
def test_omp_matches_reference_ill_conditioned(seed):
    # random plants of the envelope (n <= 20, N <= 64) whose final support
    # has condition number >= 1e6; the reference's pick order here is
    # unchanged by 1e-13 relative perturbations of G and H x
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    N = int(rng.integers(4, 65))
    plant = random_reachable_plant(rng, n)
    syn = sppc.synthesize(plant, None, N, 0.5)
    h = sppc.build_horizon(plant, syn.Q, syn.P, N)
    for _ in range(3):
        picks = assert_same_greedy(h, syn.W, rng.standard_normal(n))
        assert np.linalg.cond(h.G[:, picks]) >= 1e6


def assert_same_bits_as_refit_kernel(h, W, x):
    """Picks, coefficient bytes, residual and iterations equal those of the
    kernel that refits every pick. Returns the number of picks."""
    y = h.H @ x
    eps = float(x @ (W @ x))
    picks, coeffs, rr = refit_greedy_picks(h, y, eps)
    got_coeffs, got_rr, _, got_picks = _omp(h, W, x)
    assert got_picks == picks
    assert got_coeffs.tobytes() == coeffs.tobytes()
    assert np.float64(got_rr).tobytes() == np.float64(rr).tobytes()
    assert packet_bits(sppc.omp_design(h, W, x)) == (
        coeffs.tobytes(), np.array([rr, eps]).tobytes(), len(picks))
    return len(picks)


@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9)])
def test_omp_bits_match_refit_kernel_on_example_trajectories(example_plant, N, p_drop):
    # every state of the trajectories, the underflow regime included: there
    # a residual projected from pick to pick rounds far from the refit one
    # (at N = 20, seed 4 reaches thresholds near 1e-321 from step 77 on)
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    underflowed = 0
    for seed in range(5):
        trace = sppc.run_trial(example_plant, syn.horizon, syn, "omp", EXAMPLE_X0,
                               100, seed, p_drop=p_drop)
        for x in trace.states[:-1]:
            picks = assert_same_bits_as_refit_kernel(syn.horizon, syn.W, x)
            underflowed += picks > 0 and float(x @ syn.W @ x) < np.finfo(float).tiny
    assert underflowed >= 5


@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9)])
def test_omp_miss_path_bits_match_refit_kernel(example_plant, N, p_drop, monkeypatch):
    # with no room in the prefix cache every pick computes its Gram-Schmidt
    # step in place, and still gives the bits of the kernel that uses @
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", 0)
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    picks = 0
    for seed in range(3):
        trace = sppc.run_trial(example_plant, syn.horizon, syn, "omp", EXAMPLE_X0,
                               100, seed, p_drop=p_drop)
        for x in trace.states[:-1]:
            picks += assert_same_bits_as_refit_kernel(syn.horizon, syn.W, x)
    assert not syn.horizon.omp_prefixes
    assert picks >= 300


def test_omp_bits_match_refit_kernel_on_envelope():
    # random plants of the envelope (n <= 20, N <= 64) whose margin ratio
    # (smallest eigenvalue of Eps against W) is above rounding, at states
    # scaled by 2^k from the underflow range to large norms
    rng = np.random.default_rng(14)
    plants = picks = 0
    while plants < 10:
        n = int(rng.integers(2, 21))
        N = int(rng.integers(4, 65))
        plant = random_reachable_plant(rng, n)
        try:
            syn = sppc.synthesize(plant, None, N, 0.5)
        except sppc.SppcError:
            continue
        margin = scipy.linalg.eigh(syn.Eps, syn.W, eigvals_only=True,
                                   subset_by_index=[0, 0])[0]
        if margin < 1e-14:
            continue
        plants += 1
        for k in (-520, -500, -60, 0, 40):
            for x in rng.standard_normal((2, n)):
                picks += assert_same_bits_as_refit_kernel(syn.horizon, syn.W,
                                                          np.ldexp(x, k))
    assert picks >= 100


def test_omp_refits_when_projection_passes_threshold():
    # G = I and y = [1, d] with d^2 = 1.5 * 2^-53: ||y||^2 rounds up to
    # 1 + 2^-52, so after column 0 the predicted residual 2^-52 is above the
    # threshold 2e-16 while the projected one, d^2, is below it; the pick
    # still refits, and the loop stops on the refit residual
    d = math.sqrt(1.5 * 2.0 ** -53)
    h = HorizonData(N=2, G=np.eye(2), H=np.array([[1.0], [d]]))
    p = sppc.omp_design(h, np.array([[2e-16]]), np.array([1.0]))
    assert p.iterations == 1
    np.testing.assert_array_equal(p.coeffs, [1.0, 0.0])
    assert p.residual_sq == d * d


def test_omp_unreachable_threshold_is_infeasible():
    # after column 0 the residual [0, 0, 1] is orthogonal to every column:
    # the loop still takes column 1, the smallest unpicked index, and then
    # reports the threshold out of reach
    G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    h = HorizonData(N=2, G=G, H=np.array([[1.0], [0.0], [1.0]]))
    with pytest.raises(errors.Infeasible):
        sppc.omp_design(h, np.array([[0.5]]), np.array([1.0]))


def test_omp_repeated_column_is_rank_deficient():
    # column 2 repeats column 0, and the threshold is out of reach of
    # columns 0 and 1, so the greedy loop has to pick the duplicate
    G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    h = HorizonData(N=3, G=G, H=np.ones((3, 1)))
    # first from a cold prefix cache, then from the prefixes the first call
    # stored; the failing prefix is never stored
    for _ in range(2):
        with pytest.raises(errors.RankDeficient):
            sppc.omp_design(h, np.array([[0.5]]), np.array([1.0]))
        assert set(h.omp_prefixes) == {(0,), (0, 1)}


def test_stacked_omp_raises_what_omp_raises_on_a_row(example_case):
    # each failing state sits among states that design: the stacked pass
    # raises _omp's error type on it
    _, syn, h = example_case
    overflowing = np.array([[0.5] * 4, [1e300] * 4, [0.0] * 4])
    unreachable = HorizonData(N=2, G=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                              H=np.array([[1.0], [0.0], [1.0]]))
    repeated = HorizonData(N=3, G=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                           H=np.ones((3, 1)))
    rows = np.array([[0.0], [1.0], [2.0]])
    with np.errstate(over="ignore"), pytest.raises(errors.DegenerateInput,
                                                   match=r"x\^T W x is inf"):
        _omp_rows(h, syn.W, overflowing)
    with pytest.raises(errors.Infeasible):
        _omp_rows(unreachable, np.array([[0.5]]), rows)
    # from a cold prefix cache, then a warm one; the failing prefix is never
    # stored, and the pass raises before it divides by the failing pivot
    for _ in range(2):
        with warnings.catch_warnings(), pytest.raises(errors.RankDeficient):
            warnings.simplefilter("error")
            _omp_rows(repeated, np.array([[0.5]]), rows)
        assert set(repeated.omp_prefixes) == {(0,), (0, 1)}
    # at the third pick row 0 misses (0, 1, 3) and row 1 the failing (0, 1, 2):
    # the pass raises before it stores any step of that pick
    split = HorizonData(N=4, G=np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]),
                        H=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(errors.RankDeficient, match=r"column 2 .* columns \[0, 1\]"):
        _omp_rows(split, 0.5 * np.eye(2), np.array([[1.0, 0.5], [1.0, 0.0]]))
    assert set(split.omp_prefixes) == {(0,), (0, 1)}
    with pytest.raises(errors.RankDeficient, match=r"columns \[0, 1, 3\]"):
        _omp(split, 0.5 * np.eye(2), np.array([1.0, 0.5]))
    # of several failing rows the first check to fail wins, not the first
    # row: _omp raises RankDeficient on row 0, the pass DegenerateInput on row 1
    with pytest.raises(errors.RankDeficient):
        _omp(repeated, np.array([[0.5]]), rows[1])
    with np.errstate(over="ignore"), pytest.raises(errors.DegenerateInput):
        _omp_rows(repeated, np.array([[0.5]]), np.array([[1.0], [1e300]]))


def packet_bits(p):
    return (p.coeffs.tobytes(), np.array([p.residual_sq, p.threshold]).tobytes(),
            p.iterations)


def fresh_horizon(h):
    return HorizonData(N=h.N, G=h.G, H=h.H)


@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9)])
def test_omp_shared_horizon_matches_fresh_horizons(example_plant, N, p_drop):
    # designs reading Gram-Schmidt steps from one horizon's prefix cache are
    # bit for bit the designs that compute every step on a cold horizon
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    states = np.vstack([
        sppc.run_trial(example_plant, syn.horizon, syn, "omp", EXAMPLE_X0, 100,
                       seed, p_drop=p_drop).states[:-1]
        for seed in range(3)])
    for order in (states, states[::-1]):
        shared = sppc.build_horizon(example_plant, syn.Q, syn.P, N)
        picks = 0
        for x in order:
            p = sppc.omp_design(shared, syn.W, x)
            fresh = sppc.build_horizon(example_plant, syn.Q, syn.P, N)
            assert packet_bits(p) == packet_bits(sppc.omp_design(fresh, syn.W, x))
            picks += p.iterations
        assert 0 < len(shared.omp_prefixes) < picks / 2


def assert_threads_match_cold_horizons(h, design, states, bits=packet_bits):
    """Four threads design at every state on one shared copy of h, two of
    them in reverse order and switching often; each thread's packets equal
    the cold-horizon packets bit for bit."""
    expected = [bits(design(fresh_horizon(h), x)) for x in states]
    shared = fresh_horizon(h)
    results = {}

    def work(t):
        order = range(len(states)) if t % 2 else range(len(states) - 1, -1, -1)
        results[t] = {i: bits(design(shared, states[i])) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(4):
        assert [results[t][i] for i in range(len(states))] == expected


def test_omp_prefix_cache_shared_across_threads(example_plant):
    # concurrent designs on one horizon insert the same bits under the same
    # prefix, so interleaved hits and misses still give the cold-horizon result
    syn = sppc.synthesize(example_plant, None, 20, 0.5)
    states = sppc.run_trial(example_plant, syn.horizon, syn, "omp", EXAMPLE_X0,
                            100, 0, p_drop=0.9).states[:-1]
    assert_threads_match_cold_horizons(
        syn.horizon, lambda h, x: sppc.omp_design(h, syn.W, x), states)


def test_stacked_omp_prefix_cache_shared_across_threads(example_plant):
    # here a "state" is a set of rows that one stacked pass designs
    syn = sppc.synthesize(example_plant, None, 20, 0.5)
    X = sppc.run_trial(example_plant, syn.horizon, syn, "omp", EXAMPLE_X0,
                       100, 0, p_drop=0.9).states[:-1]
    assert_threads_match_cold_horizons(
        syn.horizon, lambda h, rows: _omp_rows(h, syn.W, rows),
        [X, X[::-1], X[::3], X[1::2]], bits=np.ndarray.tobytes)


def test_pickled_setup_leaves_prefix_cache_behind(example_plant):
    # a setup whose horizon has designed pickles to its cold size, as worker
    # jobs carry it; the copy rebuilds its own cache with the same packets
    syn = sppc.synthesize(example_plant, None, 20, 0.5)
    setup = sppc.ExperimentSetup(synthesis=syn, solver="omp",
                                 x0=EXAMPLE_X0, steps=100, p_drop=0.9)
    cold = pickle.dumps(setup)
    sppc.run_montecarlo(setup, 3, 0)
    assert setup.horizon.omp_prefixes
    warm = pickle.dumps(setup)
    assert len(warm) == len(cold)
    copy = pickle.loads(warm)
    assert "omp_prefixes" not in vars(copy.horizon)
    states = sppc.run_trial(example_plant, syn.horizon, syn, "omp", EXAMPLE_X0,
                            100, 5, p_drop=0.9).states[:-1]
    for x in states:
        assert (packet_bits(sppc.omp_design(copy.horizon, copy.synthesis.W, x))
                == packet_bits(sppc.omp_design(setup.horizon, syn.W, x)))
    assert copy.horizon.omp_prefixes


def stored_bytes(prefixes) -> int:
    """The bytes a prefix cache holds, each entry being one buffer: the basis row,
    then the R^-1 column."""
    return sum(step.nbytes for step in prefixes.values())


def test_omp_prefix_cache_stays_within_budget(monkeypatch):
    # envelope-sized states fill the cache past its byte budget; later
    # designs compute the steps it has no room for, with the same bits (the
    # budget is pinned at 512 KiB, which these states overflow). The bytes
    # are counted as stored, so a full cache lacks room for one entry at most
    budget = 1 << 19
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", budget)
    rng = np.random.default_rng(7)
    plant = random_reachable_plant(rng, 19)
    syn = sppc.synthesize(plant, None, 46, 0.5)
    states = rng.standard_normal((60, plant.n))
    h = fresh_horizon(syn.horizon)
    for x in states:
        sppc.omp_design(h, syn.W, x)
    stored = stored_bytes(h.omp_prefixes)
    assert stored == h.omp_prefixes.nbytes
    full_entry = 8 * (len(h.G) + h.N)
    assert budget - full_entry < stored <= budget
    for prefix, step in h.omp_prefixes.items():
        assert step.base is None and step.shape == (len(h.G) + len(prefix),)
    unbounded = fresh_horizon(syn.horizon)
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", 1 << 40)
    for x in states:
        sppc.omp_design(unbounded, syn.W, x)
    assert stored_bytes(unbounded.omp_prefixes) > 2 * stored
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", budget)
    for x in rng.standard_normal((20, plant.n)):
        assert (packet_bits(sppc.omp_design(h, syn.W, x))
                == packet_bits(sppc.omp_design(fresh_horizon(h), syn.W, x)))
    assert stored_bytes(h.omp_prefixes) <= budget


def test_omp_long_horizon_working_set_fits_the_budget(example_plant, monkeypatch):
    # at the long horizon (N = 20, p_drop 0.9) the default budget stores
    # every prefix that 24 trials reach, as an unbounded one does
    sizes = []
    for budget in (solvers.OMP_PREFIX_BUDGET_BYTES, 1 << 40):
        monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", budget)
        setup = sppc.ExperimentSetup(synthesis=sppc.synthesize(example_plant, None, 20, 0.5),
                                     solver="omp", x0=EXAMPLE_X0, steps=100, p_drop=0.9)
        sppc.run_montecarlo(setup, 24, 0)
        sizes.append(len(setup.horizon.omp_prefixes))
    assert sizes[0] == sizes[1] > 0


def test_omp_prefix_cache_retains_little_beyond_its_count(example_plant):
    # the budget counts float bytes only; what an entry holds beyond them (its
    # key tuple, dict slot and array header) stays within a fixed overhead.
    # Clearing the cache frees 163 bytes an entry beyond the count here, where
    # a (row, column) pair of views freed 407 (key tuples kept on Python's
    # free lists read as still held: a loop of run_trial calls frees 255 and 534)
    setup = sppc.ExperimentSetup(synthesis=sppc.synthesize(example_plant, None, 20, 0.5),
                                 solver="omp", x0=EXAMPLE_X0, steps=100, p_drop=0.9)
    prefixes = setup.horizon.omp_prefixes
    tracemalloc.start()
    try:
        sppc.run_montecarlo(setup, 24, 0)
        held = tracemalloc.get_traced_memory()[0]
        entries, counted = len(prefixes), prefixes.nbytes
        prefixes.clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries > 2000
    assert counted < freed <= counted + 320 * entries


def assert_stacked_matches_omp(h, W, X):
    """The stacked pass on a cold, a warm and an uncached copy of h, on one whose
    budget fills partway through the pass, and on h itself, gives _omp's
    coefficients at every row of X, bit for bit."""
    cold = fresh_horizon(h)
    expected = np.array([_omp(cold, W, x)[0] for x in X]).reshape(len(X), h.N).tobytes()
    stacked = fresh_horizon(h)
    assert _omp_rows(stacked, W, X).tobytes() == expected
    assert _omp_rows(stacked, W, X).tobytes() == expected
    assert stacked.omp_prefixes.keys() == cold.omp_prefixes.keys()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", 0)
        uncached = fresh_horizon(h)
        assert _omp_rows(uncached, W, X).tobytes() == expected
        assert not uncached.omp_prefixes
        # half the bytes the cold designs stored: the first pass stores steps
        # until the budget is full and computes the rest, the second hits the
        # stored ones and again computes the rest without storing them
        patch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", cold.omp_prefixes.nbytes // 2)
        partial = fresh_horizon(h)
        assert _omp_rows(partial, W, X).tobytes() == expected
        assert _omp_rows(partial, W, X).tobytes() == expected
        assert len(cold.omp_prefixes) < 2 or (0 < len(partial.omp_prefixes)
                                              < len(cold.omp_prefixes))
    assert _omp_rows(h, W, X).tobytes() == expected


@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_stacked_omp_matches_omp_on_envelope(seed):
    # random plants of the envelope (n <= 20, N <= 64) whose margin ratio is
    # above rounding, at 1 to 40 states scaled by 2^k from the underflow
    # range to large norms, a fifth of them exactly zero
    rng = np.random.default_rng(seed)
    n, N, rows = int(rng.integers(2, 21)), int(rng.integers(4, 65)), int(rng.integers(1, 41))
    plant = random_reachable_plant(rng, n)
    try:
        syn = sppc.synthesize(plant, None, N, 0.5)
    except sppc.SppcError:
        reject()
    if scipy.linalg.eigh(syn.Eps, syn.W, eigvals_only=True, subset_by_index=[0, 0])[0] < 1e-14:
        reject()
    X = np.ldexp(rng.standard_normal((rows, n)), rng.choice([-540, -60, 0, 40], (rows, 1)))
    X[rng.random(rows) < 0.2] = 0.0
    assert_stacked_matches_omp(syn.horizon, syn.W, X)


@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9)])
def test_stacked_omp_matches_omp_on_example_trajectories(example_plant, N, p_drop):
    # every state of three trajectories, those states at 2^-540, where
    # x^T W x underflows to 0 on some and H x does not, and single rows
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    h, W = syn.horizon, syn.W
    X = np.vstack([sppc.run_trial(example_plant, h, syn, "omp", EXAMPLE_X0, 100, seed,
                                  p_drop=p_drop).states[:-1] for seed in range(3)])
    tiny = np.ldexp(X[:40], -540)
    underflowed = [float(x @ (W @ x)) == 0.0 < float((h.H @ x) @ (h.H @ x)) for x in tiny]
    assert sum(underflowed) >= 3
    for rows in (X, tiny, X[:1], X[-1:], np.zeros((1, 4)), X[:0]):
        assert_stacked_matches_omp(h, W, rows)


def test_stacked_omp_fills_the_whole_support():
    # G = I and H x = x [1, 1, 1]: only the third pick meets 0.5 x^2, after
    # two projected picks, so every nonzero row runs the pass to full support
    h = HorizonData(N=3, G=np.eye(3), H=np.ones((3, 1)))
    X = np.array([[1.0], [0.0], [-2.0], [3.0]])
    assert np.array_equal(_omp_rows(h, np.array([[0.5]]), X), X * np.ones(3))
    assert_stacked_matches_omp(h, np.array([[0.5]]), X)


def test_stacked_omp_stores_the_entries_omp_stores(example_plant, monkeypatch):
    # on a cold lifting many rows miss one prefix in the same pick step; the
    # pass takes that step once for all of them and stores the buffer (basis
    # row, then R^-1 column) _omp stores for the prefix, bit for bit, as an
    # array of its own and with the same byte count
    syn = sppc.synthesize(example_plant, None, 20, 0.5)
    X = np.vstack([sppc.run_trial(example_plant, syn.horizon, syn, "omp", EXAMPLE_X0, 100,
                                  seed, p_drop=0.9).states[:-1] for seed in range(2)])
    stacked, single = fresh_horizon(syn.horizon), fresh_horizon(syn.horizon)
    coeffs = _omp_rows(stacked, syn.W, X).tobytes()
    designs = [_omp(single, syn.W, x) for x in X]
    assert coeffs == np.array([d[0] for d in designs]).tobytes()
    shared = collections.Counter(tuple(d[3][:k]) for d in designs for k in range(3, len(d[3]) + 1))
    assert sum(rows > 1 for rows in shared.values()) > 50
    assert len(single.omp_prefixes) > 100
    assert stacked.omp_prefixes.keys() == single.omp_prefixes.keys()
    assert stacked.omp_prefixes.nbytes == single.omp_prefixes.nbytes
    for prefix, step in single.omp_prefixes.items():
        got = stacked.omp_prefixes[prefix]
        assert got.tobytes() == step.tobytes()
        assert got.base is None and got.nbytes == step.nbytes
    # a budget that fills partway through one pick step: a pass over seed 0's
    # 100 states (one chunk) stores the steps it takes, pick step by pick step
    # and in the order of their first rows, until the budget is full, and takes
    # the rest again wherever they are missed
    picks = [d[3] for d in designs[:100]]
    order = list(dict.fromkeys(tuple(p[:k]) for k in range(1, 21) for p in picks if len(p) >= k))
    sizes = [len(prefix) for prefix in order]
    cut = sizes.index(max(set(sizes), key=sizes.count)) + 2
    assert sizes[cut - 1] == sizes[cut]
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES",
                        sum(single.omp_prefixes[p].nbytes for p in order[:cut]))
    partial = fresh_horizon(syn.horizon)
    for _ in range(2):
        assert _omp_rows(partial, syn.W, X[:100]).tobytes() == coeffs[:100 * 20 * 8]
        assert list(partial.omp_prefixes) == order[:cut]


def l1_states(plant, syn, p_drop, seeds):
    """The states of l1 trials (lam = 1) from the example x0, stacked."""
    return np.vstack([sppc.run_trial(plant, syn.horizon, syn, "l1", EXAMPLE_X0, 100, seed,
                                     p_drop=p_drop, lam=1.0).states[:-1]
                      for seed in seeds])


@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9)])
def test_l1_shared_horizon_matches_fresh_horizons(example_plant, N, p_drop):
    # designs reading segments from one horizon's l1 cache, in either order,
    # are bit for bit the designs that solve every segment on a cold horizon
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    states = l1_states(example_plant, syn, p_drop, range(3))
    for order in (states, states[::-1]):
        shared = fresh_horizon(syn.horizon)
        segments = 0
        for x in order:
            p = sppc.l1_design(shared, x, 1.0, 1.0)
            assert packet_bits(p) == packet_bits(
                sppc.l1_design(fresh_horizon(shared), x, 1.0, 1.0))
            segments += p.iterations
        assert 0 < len(shared.l1_segments) < segments


def test_l1_segment_cache_shared_across_threads(example_plant):
    syn = sppc.synthesize(example_plant, None, 20, 0.5)
    assert_threads_match_cold_horizons(
        syn.horizon, lambda h, x: sppc.l1_design(h, x, 1.0, 1.0),
        l1_states(example_plant, syn, 0.9, [0]))


def test_pickled_l1_setup_leaves_segment_cache_behind(example_plant):
    syn = sppc.synthesize(example_plant, None, 10, 0.5)
    setup = sppc.ExperimentSetup(synthesis=syn, solver="l1",
                                 x0=EXAMPLE_X0, steps=100, p_drop=0.5, lam=1.0)
    cold = pickle.dumps(setup)
    sppc.run_montecarlo(setup, 3, 0)
    assert setup.horizon.l1_segments
    warm = pickle.dumps(setup)
    assert len(warm) == len(cold)
    assert "l1_segments" not in vars(pickle.loads(warm).horizon)


def l1_stored_bytes(segments) -> int:
    """The bytes a segment cache holds, 8 per entry of its lists."""
    return sum(rows.nbytes + 8 * (len(v) + len(a) + len(free))
               for rows, v, a, free in segments.values())


def test_l1_segment_cache_stays_within_budget(monkeypatch):
    # envelope-sized designs fill the cache past its byte budget; later
    # designs solve the segments it has no room for, with the same bits (the
    # budget is pinned at 128 KiB, which these designs overflow). The bytes
    # are counted as stored, so a full cache lacks room for one entry at most
    budget = 1 << 17
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", budget)
    rng = np.random.default_rng(7)
    plant = random_reachable_plant(rng, 19)
    syn = sppc.synthesize(plant, None, 46, 0.5)
    h = fresh_horizon(syn.horizon)
    states = rng.standard_normal((20, plant.n))
    lams = [0.1 * float(np.abs(h.G.T @ (h.H @ x)).max()) for x in states]

    def designs(horizon):
        return [packet_bits(sppc.l1_design(horizon, x, lam, 1.0))
                for x, lam in zip(states, lams)]

    packets = designs(h)
    stored = l1_stored_bytes(h.l1_segments)
    assert stored == h.l1_segments.nbytes
    full_entry = 8 * h.N * (h.N + 2)
    assert budget - full_entry < stored <= budget
    assert designs(h) == packets and l1_stored_bytes(h.l1_segments) <= budget
    unbounded = fresh_horizon(h)
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", 1 << 40)
    assert designs(unbounded) == packets
    assert l1_stored_bytes(unbounded.l1_segments) > stored
    # a budget of one full-size entry changes no packet either
    tiny = fresh_horizon(h)
    monkeypatch.setattr(solvers, "OMP_PREFIX_BUDGET_BYTES", full_entry)
    assert designs(tiny) == packets
    assert 0 < l1_stored_bytes(tiny.l1_segments) <= full_entry


def test_omp_state_scaling_covariance():
    rng = np.random.default_rng(23)
    h, syn = random_instance(rng, n_max=3, N_max=6)
    x = rng.standard_normal(h.n)
    base = sppc.omp_design(h, syn.W, x)
    for t in (2.0, -3.0, 1e-3):
        scaled = sppc.omp_design(h, syn.W, t * x)
        assert scaled.support == base.support
        np.testing.assert_allclose(scaled.coeffs, t * base.coeffs, rtol=1e-9)


def test_omp_dimension_errors(scalar_case):
    _, syn, h = scalar_case
    with pytest.raises(errors.DimensionMismatch):
        sppc.omp_design(h, syn.W, np.array([1.0, 2.0]))
    with pytest.raises(errors.DimensionMismatch):
        sppc.omp_design(h, np.eye(2), np.array([1.0]))


def test_exhaustive_scalar_hand_trace(scalar_case):
    _, syn, h = scalar_case
    p = exhaustive_design(h, syn.W, np.array([1.0]))
    assert p.support == (0,)
    np.testing.assert_allclose(p.coeffs, [-2.0, 0.0], atol=1e-12)
    assert p.iterations == 2  # empty support tried first, then {0}


def test_exhaustive_zero_state(scalar_case):
    _, syn, h = scalar_case
    p = exhaustive_design(h, syn.W, np.zeros(1))
    assert p.support == ()
    assert p.iterations == 1


def test_exhaustive_prefers_lexicographic_first():
    # both singletons leave residual 1; the threshold decides which size wins
    h = identity_horizon()
    x = np.array([1.0])
    tight = exhaustive_design(h, np.array([[0.5]]), x)
    assert tight.support == (0, 1)
    np.testing.assert_allclose(tight.coeffs, [1.0, 1.0])
    assert tight.iterations == 4
    loose = exhaustive_design(h, np.array([[1.2]]), x)
    assert loose.support == (0,)
    np.testing.assert_allclose(loose.coeffs, [1.0, 0.0])
    assert loose.iterations == 2


def test_exhaustive_never_beaten_by_omp():
    rng = np.random.default_rng(25)
    for _ in range(40):
        h, syn = random_instance(rng, n_max=3, N_max=6)
        x = rng.standard_normal(h.n)
        greedy = sppc.omp_design(h, syn.W, x)
        oracle = exhaustive_design(h, syn.W, x)
        assert feasible(oracle)
        assert oracle.l0 <= greedy.l0


def test_exhaustive_horizon_cap(example_case, monkeypatch):
    _, syn, h = example_case
    monkeypatch.setattr(oracles, "EXHAUSTIVE_MAX_N", 8)
    with pytest.raises(errors.ConfigError):
        exhaustive_design(h, syn.W, np.zeros(4))


def test_l1_zero_state(scalar_case):
    _, _, h = scalar_case
    p = sppc.l1_design(h, np.zeros(1), 1.0, 0.0)
    assert p.support == ()
    assert p.residual_sq == 0.0
    assert p.threshold == 0.0


def test_l1_small_lambda_reaches_least_squares_floor(example_case):
    # as lam -> 0 the solution approaches the unconstrained least-squares
    # fit, whose residual is x^T (P - Q) x
    plant, syn, h = example_case
    x = np.array([0.5, 0.5, 0.5, 0.5])
    target = float(x @ (syn.P - syn.Q) @ x)
    p = sppc.l1_design(h, x, 1e-6, float(x @ syn.W @ x))
    assert p.residual_sq == pytest.approx(target, abs=1e-5)


def test_l1_large_lambda_gives_zero(scalar_case):
    _, syn, h = scalar_case
    x = np.array([1.0])
    knockout = float(np.abs(h.G.T @ (h.H @ x)).max()) * 1.5
    p = sppc.l1_design(h, x, knockout, 0.25)
    np.testing.assert_array_equal(p.coeffs, np.zeros(2))
    assert p.support == ()
    assert p.threshold == 0.25


def test_l1_threshold_is_caller_value(example_case):
    _, syn, h = example_case
    x = np.array([0.5, 0.5, 0.5, 0.5])
    p = sppc.l1_design(h, x, 1.0, 0.37)
    assert p.threshold == 0.37


def test_l1_objective_never_worse_than_zero_input(example_case):
    # sanity on optimality: the returned point beats u = 0 and a pure
    # least-squares fit once the l1 term is included
    _, syn, h = example_case
    rng = np.random.default_rng(26)
    lam = 1.0
    for _ in range(10):
        x = rng.standard_normal(4)
        y = h.H @ x

        def obj(u):
            return 0.5 * float((h.G @ u - y) @ (h.G @ u - y)) + lam * np.abs(u).sum()

        p = sppc.l1_design(h, x, lam, 1.0)
        ls = np.linalg.lstsq(h.G, y, rcond=None)[0]
        assert obj(p.coeffs) <= obj(np.zeros(h.N)) + 1e-9
        assert obj(p.coeffs) <= obj(ls) + 1e-9


def test_l1_tie_enters_together():
    # G is the identity, so the answer soft-thresholds H x = s [1, 1]; both
    # correlations reach the boundary at once and must enter together
    h = identity_horizon()
    for s, expected in ((1.0, 0.5), (-2.0, -1.5)):
        p = sppc.l1_design(h, np.array([s]), 0.5, 1.0)
        np.testing.assert_allclose(p.coeffs, [expected, expected], rtol=1e-15)
        assert p.support == (0, 1)


def test_l1_equal_columns_are_rank_deficient():
    # two equal columns of norm 7 tie at the start; the Cholesky solve puts
    # the second one's step direction a rounding inside the boundary, so it
    # enters at step 0 and the singular K_AA must raise, not return
    G = np.array([[7.0, 7.0], [0.0, 0.0]])
    h = HorizonData(N=2, G=G, H=np.array([[1.0], [0.0]]))
    # first from a cold segment cache, then from the one-index segments the
    # first calls stored; the failing segment is never stored
    for _ in range(2):
        for x in (1.0, -3.0):
            with pytest.raises(errors.RankDeficient):
                sppc.l1_design(h, np.array([x]), 0.1, 1.0)
        assert set(h.l1_segments) == {((0,), (1.0,)), ((0,), (-1.0,))}


def reference_l1(h, x, lam):
    """The lasso homotopy on full-length vectors: an LU solve of K_AA per
    segment and every event step masked over all N indices and both sides.

    Returns the coefficients and the segment count.
    """
    y = h.H @ x
    K = h.gram
    b = h.G.T @ y
    sides = np.array([[1.0], [-1.0]])
    u = np.zeros(h.N)
    sign = np.zeros(h.N)
    t = float(np.abs(b).max())
    first = int(np.abs(b).argmax())
    sign[first] = np.sign(b[first])
    segments = 0
    while t > lam:
        segments += 1
        A = np.flatnonzero(sign)
        v = np.zeros(h.N)
        v[A] = np.linalg.solve(K[np.ix_(A, A)], sign[A])
        c = b - K @ u
        a = K @ v
        enter = np.full((2, h.N), np.inf)
        np.divide(np.maximum(t - sides * c, 0.0), 1.0 - sides * a, out=enter,
                  where=(sign == 0.0) & (sides * a < 1.0))
        leave = np.full(h.N, np.inf)
        np.divide(-u, v, out=leave, where=u * v < 0.0)
        gamma = min(enter.min(), leave.min())
        if gamma >= t - lam:
            u += (t - lam) * v
            break
        u += gamma * v
        t -= gamma
        if enter.min() == gamma:
            side, j = divmod(int(enter.argmin()), h.N)
            sign[j] = sides[side, 0]
        else:
            j = int(leave.argmin())
            sign[j], u[j] = 0.0, 0.0
    return u, segments


def assert_same_l1(h, x, lam, p):
    """Support and segment count equal the reference's; coefficients agree
    within 1e-12 of the packet's peak."""
    coeffs, segments = reference_l1(h, x, lam)
    assert p.support == tuple(np.flatnonzero(coeffs))
    assert p.iterations == segments
    assert np.abs(p.coeffs - coeffs).max() <= 1e-12 * np.abs(coeffs).max()


def assert_kkt(h, x, lam, p):
    """The lasso optimality conditions at 1e-10 of s = max(lam, ||G^T H x||_inf):
    c = G^T (H x - G u) equals lam sign(u) on the support, |c| <= lam off it."""
    y = h.H @ x
    s = max(lam, float(np.abs(h.G.T @ y).max()))
    c = h.G.T @ (y - h.G @ p.coeffs)
    on = p.coeffs != 0.0
    assert np.all(np.abs(c[on] - lam * np.sign(p.coeffs[on])) <= 1e-10 * s)
    assert np.all(np.abs(c[~on]) <= lam + 1e-10 * s)


def assert_l1_kkt(h, x, lam):
    """l1_design's packet meets the lasso optimality conditions and matches
    the reference homotopy."""
    p = sppc.l1_design(h, x, lam, 1.0)
    assert_same_l1(h, x, lam, p)
    assert_kkt(h, x, lam, p)
    return p


def test_l1_kkt_on_example_trajectories(example_case):
    plant, syn, h = example_case
    for seed in range(3):
        trace = sppc.run_trial(plant, h, syn, "l1", EXAMPLE_X0, 100, seed,
                               p_drop=0.5, lam=1.0)
        for x in trace.states[:-1]:
            assert_l1_kkt(h, x, 1.0)


@pytest.mark.parametrize("N", [20, 32])
def test_l1_kkt_on_long_horizon_trajectories(example_plant, N):
    # here an index that leaves the path can cross the opposite boundary
    # within the next segment, so it must stay eligible to re-enter. K is
    # too ill-conditioned (cond 7.5e6 at N = 20, 4.5e10 at N = 32) for the
    # reference's LU solve to match Cholesky's coefficients to 1e-12, so
    # only support and segment count are compared with it
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    h = syn.horizon
    for seed in range(3):
        trace = sppc.run_trial(example_plant, h, syn, "l1", EXAMPLE_X0, 100, seed,
                               p_drop=0.9, lam=1.0)
        for x in trace.states[:-1]:
            p = sppc.l1_design(h, x, 1.0, 1.0)
            assert_kkt(h, x, 1.0, p)
            coeffs, segments = reference_l1(h, x, 1.0)
            assert p.support == tuple(np.flatnonzero(coeffs))
            assert p.iterations == segments


def test_l1_kkt_when_coefficients_leave(example_case):
    # at small lam the path drops coefficients it picked up earlier; each
    # segment adds or drops one index after the first pick, so
    # iterations - l0 is twice the number of drops
    _, syn, h = example_case
    rng = np.random.default_rng(27)
    drops = 0
    for _ in range(10):
        x = rng.standard_normal(4)
        top = float(np.abs(h.G.T @ (h.H @ x)).max())
        for fraction in (1e-4, 1e-2):
            p = assert_l1_kkt(h, x, fraction * top)
            drops += (p.iterations - p.l0) // 2
    assert drops >= 3


@pytest.mark.parametrize("seed", [15, 234])
def test_l1_kkt_ill_conditioned(seed):
    # the plants of test_omp_matches_reference_ill_conditioned, where
    # ||G^T H x||_inf reaches 3e15: a fixed lam = 1 would sit below double
    # precision there, so lam is scaled to it
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    N = int(rng.integers(4, 65))
    plant = random_reachable_plant(rng, n)
    syn = sppc.synthesize(plant, None, N, 0.5)
    for _ in range(3):
        x = rng.standard_normal(n)
        top = float(np.abs(syn.horizon.G.T @ (syn.horizon.H @ x)).max())
        for fraction in (1e-3, 1e-1, 0.5):
            assert_l1_kkt(syn.horizon, x, fraction * top)


def test_l1_iteration_cap(example_case, monkeypatch):
    _, syn, h = example_case
    monkeypatch.setattr(solvers, "L1_MAX_ITERATIONS", 1)
    with pytest.raises(errors.NoConvergence):
        sppc.l1_design(h, np.array([0.5, 0.5, 0.5, 0.5]), 0.01, 1.0)


def test_l1_rejects_bad_parameters(scalar_case):
    _, _, h = scalar_case
    x = np.array([1.0])
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(errors.ConfigError):
            sppc.l1_design(h, x, lam, 1.0)
    with pytest.raises(errors.ConfigError):
        sppc.l1_design(h, x, 1.0, -0.1)
    with pytest.raises(errors.DimensionMismatch):
        sppc.l1_design(h, np.ones(3), 1.0, 1.0)


def test_packets_are_read_only(scalar_case):
    _, syn, h = scalar_case
    p = sppc.omp_design(h, syn.W, np.array([1.0]))
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_packet_leaves_callers_coeffs_writable():
    coeffs = np.array([0.0, 1.5])
    p = sppc.ControlPacket(coeffs, 0.0, 1.0, 1)
    coeffs[0] = 2.0
    assert coeffs.flags.writeable and not p.coeffs.flags.writeable
    assert (p.support, p.l0) == ((1,), 1)
