import numpy as np
import pytest

import sppc
from sppc import errors, solvers
from sppc.lifting import HorizonData
from sppc.solvers import FEASIBILITY_ABS_FLOOR, FEASIBILITY_REL_SLACK, _greedy_picks

from conftest import EXAMPLE_X0, random_reachable_plant, random_spd


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
    return HorizonData(N=2, Phi=eye, Upsilon=np.array([[-1.0], [-1.0]]),
                       G=eye, H=np.array([[1.0], [1.0]]))


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
    assert _greedy_picks(h, y, eps)[0] == picks
    p = sppc.omp_design(h, W, x)
    assert p.iterations == len(picks)
    assert np.abs(p.coeffs - coeffs).max() <= 1e-9 * np.abs(coeffs).max()
    return picks


@pytest.mark.parametrize("N, p_drop", [(10, 0.5), (20, 0.9)])
def test_omp_matches_reference_on_example_trajectories(example_plant, N, p_drop):
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    h = sppc.build_horizon(example_plant, syn.Q, syn.P, N)
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


def test_omp_unreachable_threshold_is_infeasible():
    # after column 0 the residual [0, 0, 1] is orthogonal to every column:
    # the loop still takes column 1, the smallest unpicked index, and then
    # reports the threshold out of reach
    G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    h = HorizonData(N=2, Phi=G, Upsilon=-np.ones((3, 1)), G=G,
                    H=np.array([[1.0], [0.0], [1.0]]))
    with pytest.raises(errors.Infeasible):
        sppc.omp_design(h, np.array([[0.5]]), np.array([1.0]))


def test_omp_repeated_column_is_rank_deficient():
    # column 2 repeats column 0, and the threshold is out of reach of
    # columns 0 and 1, so the greedy loop has to pick the duplicate
    G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    h = HorizonData(N=3, Phi=G, Upsilon=-np.ones((3, 1)), G=G,
                    H=np.ones((3, 1)))
    with pytest.raises(errors.RankDeficient):
        sppc.omp_design(h, np.array([[0.5]]), np.array([1.0]))


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
    p = sppc.exhaustive_design(h, syn.W, np.array([1.0]))
    assert p.support == (0,)
    np.testing.assert_allclose(p.coeffs, [-2.0, 0.0], atol=1e-12)
    assert p.iterations == 2  # empty support tried first, then {0}


def test_exhaustive_zero_state(scalar_case):
    _, syn, h = scalar_case
    p = sppc.exhaustive_design(h, syn.W, np.zeros(1))
    assert p.support == ()
    assert p.iterations == 1


def test_exhaustive_prefers_lexicographic_first():
    # both singletons leave residual 1; the threshold decides which size wins
    h = identity_horizon()
    x = np.array([1.0])
    tight = sppc.exhaustive_design(h, np.array([[0.5]]), x)
    assert tight.support == (0, 1)
    np.testing.assert_allclose(tight.coeffs, [1.0, 1.0])
    assert tight.iterations == 4
    loose = sppc.exhaustive_design(h, np.array([[1.2]]), x)
    assert loose.support == (0,)
    np.testing.assert_allclose(loose.coeffs, [1.0, 0.0])
    assert loose.iterations == 2


def test_exhaustive_never_beaten_by_omp():
    rng = np.random.default_rng(25)
    for _ in range(40):
        h, syn = random_instance(rng, n_max=3, N_max=6)
        x = rng.standard_normal(h.n)
        greedy = sppc.omp_design(h, syn.W, x)
        oracle = sppc.exhaustive_design(h, syn.W, x)
        assert feasible(oracle)
        assert oracle.l0 <= greedy.l0


def test_exhaustive_horizon_cap(example_case, monkeypatch):
    _, syn, h = example_case
    monkeypatch.setattr(solvers, "EXHAUSTIVE_MAX_N", 8)
    with pytest.raises(errors.ConfigError):
        sppc.exhaustive_design(h, syn.W, np.zeros(4))


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
