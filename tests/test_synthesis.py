import dataclasses
import pickle
import sys

import numpy as np
import pytest

import sppc
from sppc import errors, synthesis
from sppc.lifting import HorizonData
from sppc.numerics import solve_least_squares

from conftest import random_reachable_plant, random_spd
from oracles import per_index_c, reference_horizon, value_first_riccati


def test_riccati_scalar_unstable():
    # A^T P A - (A P B)^2 / (B^T P B) collapses to zero for scalar data
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    P, iterations = sppc.solve_riccati(plant, [[1.0]])
    np.testing.assert_allclose(P, [[1.0]])
    assert iterations >= 1
    assert synthesis.riccati_residual(plant, np.eye(1), P) <= 1e-12


def test_riccati_deadbeat_plant():
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = float(rng.uniform(0.5, 4.0))
        plant = sppc.PlantModel(A=[[0.0]], B=[[1.0]])
        P, _ = sppc.solve_riccati(plant, [[q]])
        np.testing.assert_allclose(P, [[q]])


def test_riccati_rejects_unreachable():
    plant = sppc.PlantModel(A=np.eye(2), B=[[1.0], [1.0]])
    with pytest.raises(errors.NotReachable):
        sppc.solve_riccati(plant, np.eye(2))


def test_riccati_residual_and_gap_random():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        P, _ = sppc.solve_riccati(plant, Q)
        residual = synthesis.riccati_residual(plant, Q, P)
        assert residual <= synthesis._residual_limit(P)
        gap = np.linalg.eigvalsh(0.5 * (P - Q + (P - Q).T))
        assert gap[0] >= -1e-9


def reference_riccati(plant, Q):
    """The value iteration as first written: @ products, fresh arrays, and a
    finiteness check of each iterate. solve_riccati must match its bits."""
    A, B = plant.A, plant.B
    P = 0.5 * (Q + Q.T)
    for iterations in range(1, synthesis.RICCATI_MAX_ITERATIONS + 1):
        bpb = (B.T @ P @ B).item()
        assert bpb >= sys.float_info.min
        apb = A.T @ (P @ B)
        image = A.T @ P @ A - (apb @ apb.T) / bpb + Q
        p_next = 0.5 * (image + image.T)
        assert np.all(np.isfinite(p_next))
        delta = float(np.abs(p_next - P).max())
        P = p_next
        if delta <= synthesis.RICCATI_REL_TOL * float(np.abs(P).max()):
            return P, iterations
    raise AssertionError("reference iteration did not converge")


def reference_residual(plant, Q, P):
    A, B = plant.A, plant.B
    apb = A.T @ (P @ B)
    image = A.T @ P @ A - (apb @ apb.T) / (B.T @ P @ B).item() + Q
    return float(np.abs(image - P).max())


@pytest.fixture(scope="module")
def riccati_references():
    """(plant, Q, P_ref, iterations_ref) on 404 pairs: a deadbeat chain, a
    fixed unstable plant and 200 random plants with n in 1..20, each with
    Q = I and a random SPD Q."""
    rng = np.random.default_rng(31)
    chain = np.diag(np.ones(2), k=1)            # deadbeat chain: zero columns in A
    plants = [sppc.PlantModel(A=chain, B=[[0.0], [0.0], [1.0]]),
              sppc.PlantModel(A=[[2.0, 0.1], [0.0, 1.5]], B=[[0.3], [1.0]])]
    plants += [random_reachable_plant(rng, int(n)) for n in rng.integers(1, 21, 200)]
    pairs = [(plant, Q) for plant in plants for Q in (np.eye(plant.n), random_spd(rng, plant.n))]
    return [(plant, Q, *reference_riccati(plant, Q)) for plant, Q in pairs]


def test_riccati_bits_match_reference(riccati_references, example_plant):
    # riccati_residual does the reference's floating-point operations in its
    # order: on every solved P the two residuals are equal to the last bit
    cases = [(example_plant, np.eye(4))] + [(plant, Q) for plant, Q, _, _ in riccati_references]
    for plant, Q in cases:
        P, _ = sppc.solve_riccati(plant, Q)
        assert (synthesis.riccati_residual(plant, Q, P)
                == reference_residual(plant, Q, P))


def test_riccati_doubling_matches_reference(riccati_references, example_plant):
    # the loop polishes the doubling's limit: P agrees with the value
    # iteration's to 1e-9 relative and passes the invariant check's residual
    # bound, on every case
    example = (example_plant, np.eye(4), *reference_riccati(example_plant, np.eye(4)))
    cases = [example] + riccati_references
    assert len(cases) == 405 and example[3] == 4
    for plant, Q, P_ref, _ in cases:
        P, _ = sppc.solve_riccati(plant, Q)
        assert float(np.abs(P - P_ref).max()) <= 1e-9 * float(np.abs(P_ref).max())
        assert synthesis.riccati_residual(plant, Q, P) <= synthesis._residual_limit(P)


def test_riccati_doubling_linalg_error_is_typed(monkeypatch):
    def singular(m):
        raise np.linalg.LinAlgError("Singular matrix")

    plant = sppc.PlantModel(A=[[2.0, 0.1], [0.0, 1.5]], B=[[0.3], [1.0]])
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(errors.NoConvergence, match="doubling failed: Singular matrix"):
        synthesis.solve_riccati(plant, np.eye(2))


def test_riccati_doubling_breakdown_is_typed():
    # a non-positive pivot, and an overflow that pytest's error filter would
    # turn into a RuntimeWarning failure, both end in NoConvergence
    A, b = np.array([[2.0, 0.1], [0.0, 1.5]]), np.array([0.3, 1.0])
    for Q in (-np.eye(2), 1e306 * np.eye(2)):
        with pytest.raises(errors.NoConvergence, match="doubling failed: beta = "):
            synthesis._doubling(A, b, Q)


def test_riccati_matches_the_value_first_order(monkeypatch, riccati_references, example_plant):
    # where the value-first order reaches its doubling, P is its to the last
    # bit and the count lacks its n + 1 value steps; where value iteration
    # settles within n + 1 steps, the polished limit agrees to 1e-15 relative
    rng = np.random.default_rng(29)
    cases = [(plant, Q) for plant, Q, _, _ in riccati_references]
    cases += [(random_reachable_plant(rng, n), np.eye(n)) for n in range(2, 21, 2)]
    settled = 0
    for plant, Q in cases + [(example_plant, np.eye(4))]:
        P_ref, iterations_ref = value_first_riccati(plant, Q)
        P, iterations = sppc.solve_riccati(plant, Q)
        if iterations_ref > plant.n + 1:
            assert P.tobytes() == P_ref.tobytes()
            assert iterations == iterations_ref - (plant.n + 1)
        else:
            settled += 1
            assert float(np.abs(P - P_ref).max()) <= 1e-15 * float(np.abs(P_ref).max())
    assert settled == 20        # the example and 19 reference cases
    # the example: 3 doublings, then 1 polish step from their limit
    limit, doublings = synthesis._doubling(example_plant.A, example_plant.B[:, 0], np.eye(4))
    polished, image = [], synthesis._riccati_image
    monkeypatch.setattr(synthesis, "_riccati_image",
                        lambda A, B, Q, P: polished.append(P) or image(A, B, Q, P))
    P, iterations = sppc.solve_riccati(example_plant, np.eye(4))
    monkeypatch.undo()
    assert (doublings, len(polished), iterations) == (3, 1, 4)
    assert polished[0].tobytes() == limit.tobytes()
    for N in (10, 20):
        syn = sppc.synthesize(example_plant, None, N)
        assert (syn.P.tobytes(), syn.riccati_iterations) == (P.tobytes(), 4)


def test_riccati_doubling_error_raises_from_synthesize(monkeypatch, example_case):
    # a doubling failure is raised at once, even on a deadbeat loop that
    # value iteration from Q would settle by step n + 1
    plant, syn, _ = example_case

    def breakdown(A, b, Q):
        raise errors.NoConvergence("Riccati doubling failed: beta = -1.0e+00, step 1.0e+00")

    monkeypatch.setattr(synthesis, "_doubling", breakdown)
    with pytest.raises(errors.NoConvergence, match="doubling failed: beta = "):
        sppc.synthesize(plant, None, syn.horizon.N)


def test_riccati_polish_stops_at_its_rounding_floor(monkeypatch):
    # the value map's changes on this plant sink to a rounding floor near
    # 4e-10 relative, and the 1e-12 rule alone polished the doubling's limit
    # for 42,015 steps, until one change happened to round small
    n = 14
    plant = random_reachable_plant(np.random.default_rng(3454), n)
    limit, doublings = synthesis._doubling(plant.A, plant.B[:, 0], np.eye(n))
    polished, image = [], synthesis._riccati_image
    monkeypatch.setattr(synthesis, "_riccati_image",
                        lambda A, B, Q, P: polished.append(P) or image(A, B, Q, P))
    P, iterations = sppc.solve_riccati(plant, np.eye(n))
    monkeypatch.undo()
    # the last image is the residual of the P the polish stopped at
    steps = len(polished) - 1
    assert polished[0].tobytes() == limit.tobytes() and polished[-1] is P  # no value warm-up
    assert steps <= 2 * (n + 1) + 10 and iterations == doublings + steps
    syn = sppc.synthesize(plant, None, 10)
    assert syn.P.tobytes() == P.tobytes()
    assert [c.passed for c in sppc.check_invariants(plant, syn) if c.name == "riccati_residual"] == [True]


def test_riccati_polish_above_the_residual_limit_is_typed():
    # on this plant the value map's changes stay near 2e-8 relative, above
    # riccati_residual's 1e-9 max|P|, and the 1e-12 rule alone ran them
    # to the 100,000-step cap: the polish stops at its rounding floor with a
    # typed failure, not with a P that fails the check
    plant = random_reachable_plant(np.random.default_rng(2435), 6)
    with pytest.raises(errors.NoConvergence, match="polish stalled"):
        sppc.solve_riccati(plant, np.eye(6))
    with pytest.raises(errors.NoConvergence, match="polish stalled"):
        sppc.synthesize(plant, None, 10)


def test_riccati_homogeneous_in_q(example_plant):
    # the cheap-control problem is homogeneous in Q and every stop and limit
    # scales with P, so 2^k Q gives exactly 2^k P, the same steps, rho and c,
    # and the same verdict on every check
    rng = np.random.default_rng(15)
    cases = [(example_plant, np.eye(4))]
    cases += [(random_reachable_plant(rng, n), random_spd(rng, n)) for n in (2, 3, 6, 9)]
    for plant, Q in cases:
        base = sppc.synthesize(plant, Q, 10)
        verdicts = [(c.name, c.passed) for c in sppc.check_invariants(plant, base)]
        for k in (-60, -40, -20, 20, 40, 60):
            syn = sppc.synthesize(plant, np.ldexp(Q, k), 10)
            assert syn.P.tobytes() == np.ldexp(base.P, k).tobytes(), k
            assert syn.riccati_iterations == base.riccati_iterations, k
            assert (syn.rho, syn.c) == (base.rho, base.c), k
            assert [(c.name, c.passed) for c in sppc.check_invariants(plant, syn)] == verdicts, k


def test_rho_equal_matrices():
    s = random_spd(np.random.default_rng(0), 3)
    assert sppc.compute_rho(s, s) == pytest.approx(0.0, abs=1e-12)


def test_rho_scalar_ratio():
    assert sppc.compute_rho([[1.0]], [[2.0]]) == pytest.approx(0.5)


def test_compute_rho_rejects_shape_mismatch():
    with pytest.raises(errors.DimensionMismatch,
                       match=r"^P must have shape \(2, 2\), got \(3, 3\)"):
        sppc.compute_rho(np.eye(2), np.eye(3))


def test_asymmetric_weights_are_rejected_by_name(example_case):
    # every entry point checks Q (and P) once, with the same error
    plant, syn, _ = example_case
    q = np.eye(4)
    q[0, 1] = 0.5
    p = syn.P.copy()
    p[0, 1] += 0.5
    calls = [("Q", lambda: sppc.synthesize(plant, q, 10)),
             ("Q", lambda: sppc.solve_riccati(plant, q)),
             ("Q", lambda: sppc.build_horizon(plant, q, syn.P, 10)),
             ("Q", lambda: sppc.compute_rho(q, syn.P)),
             ("P", lambda: sppc.build_horizon(plant, syn.Q, p, 10)),
             ("P", lambda: sppc.compute_rho(syn.Q, p))]
    for name, call in calls:
        with pytest.raises(errors.NonSymmetric, match=f"^{name} asymmetry 5.000e-01"):
            call()


@pytest.mark.parametrize("n, N", [(4, 10), (11, 34), (20, 64)])
def test_synthesis_matches_the_public_entries_bit_for_bit(example_plant, n, N):
    # synthesize checks each weight once and shares P's factor between rho
    # and the lifting; the public entries check and factor on their own
    if n == 4:
        plant, Q = example_plant, None
    else:
        rng = np.random.default_rng(1)
        plant, Q = random_reachable_plant(rng, n), random_spd(rng, n)
    syn = sppc.synthesize(plant, Q, N)
    assert syn.P.tobytes() == sppc.solve_riccati(plant, syn.Q)[0].tobytes()
    assert syn.rho == sppc.compute_rho(syn.Q, syn.P)
    h = sppc.build_horizon(plant, syn.Q, syn.P, N)
    for got, want in ((syn.horizon.G, h.G), (syn.horizon.H, h.H)):
        assert (got.tobytes(), got.strides) == (want.tobytes(), want.strides)


def test_rho_scalar_plant_chain(scalar_case):
    _, syn, _ = scalar_case
    assert syn.rho == 0.0


def test_c_scalar_hand_value(scalar_case):
    _, syn, h = scalar_case
    expected = 5.0 * (3.0 + 2.0 * np.sqrt(2.0))
    assert sppc.compute_c(h, 0.0) == pytest.approx(expected, abs=1e-9)


def test_c_geometric_prefactor():
    # the peak term does not depend on rho, so the ratio isolates the prefactor
    rng = np.random.default_rng(16)
    plant = random_reachable_plant(rng, 2)
    P = random_spd(rng, 2)
    h = sppc.build_horizon(plant, random_spd(rng, 2), P, 10)
    ratio = sppc.compute_c(h, 0.5) / sppc.compute_c(h, 0.0)
    assert ratio == pytest.approx((1.0 - 0.5 ** 10) / 0.5, rel=1e-12)
    single = sppc.build_horizon(plant, random_spd(rng, 2), P, 1)
    lone = sppc.compute_c(single, 0.0)
    assert sppc.compute_c(single, 0.9) == pytest.approx(lone, rel=1e-12)


@pytest.mark.parametrize("N", [10, 20, 32])
def test_c_matches_per_index_definition_on_example(example_plant, N):
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    phi = reference_horizon(example_plant, syn.Q, syn.P, N)[0]
    c, peak_index = per_index_c(syn.horizon, phi, syn.P, syn.rho)
    assert peak_index == 0
    assert syn.c == pytest.approx(c, rel=1e-12)


def test_c_matches_per_index_definition_on_random_plants():
    # where the lifted Gram matrix has no positive lambda_min there is no c
    rng = np.random.default_rng(17)
    checked = 0
    for n in range(1, 21):
        for N in (1, 2, 7, 20, 33, 64):
            plant = random_reachable_plant(rng, n)
            Q, P = random_spd(rng, n), random_spd(rng, n)
            h = sppc.build_horizon(plant, Q, P, N)
            rho = float(rng.uniform(0.0, 0.99))
            if np.linalg.eigvalsh(h.gram)[0] <= 0.0:
                with pytest.raises(errors.NotPositiveDefinite):
                    sppc.compute_c(h, rho)
                continue
            c, peak_index = per_index_c(h, reference_horizon(plant, Q, P, N)[0], P, rho)
            assert peak_index == 0
            assert sppc.compute_c(h, rho) == pytest.approx(c, rel=1e-12)
            checked += 1
    assert checked >= 100


def test_c_does_not_depend_on_layout(example_plant):
    # the same G and H as row-strided, column-strided and Fortran-ordered
    # views give c bit for bit
    rng = np.random.default_rng(18)
    cases = [(example_plant, 10), (example_plant, 32)]
    cases += [(random_reachable_plant(rng, n), N) for n, N in ((7, 33), (16, 20), (20, 64))]
    for plant, N in cases:
        h = sppc.build_horizon(plant, np.eye(plant.n), random_spd(rng, plant.n), N)
        c = sppc.compute_c(h, 0.5)
        for view in (lambda m: np.repeat(m, 2, axis=0)[::2],
                     lambda m: np.repeat(m, 2, axis=1)[:, ::2],
                     lambda m: np.ascontiguousarray(m.T).T):
            g, H = view(h.G), view(h.H)
            assert g.base is not None and not g.flags.c_contiguous
            np.testing.assert_array_equal(g, h.G)
            assert sppc.compute_c(HorizonData(N=N, G=g, H=H), 0.5) == c


def test_c_names_the_spectrum_when_rank_is_lost(example_plant):
    # at N = 64 the example's G^T G has lambda_min below zero by rounding
    # against lambda_max; the error says so with both numbers
    P, _ = sppc.solve_riccati(example_plant, np.eye(4))
    h = sppc.build_horizon(example_plant, np.eye(4), P, 64)
    spectrum = np.linalg.eigvalsh(h.gram)
    assert spectrum[0] <= 0.0
    with pytest.raises(errors.NotPositiveDefinite) as info:
        sppc.synthesize(example_plant, None, 64, 0.5)
    message = str(info.value)
    for value in (spectrum[0], spectrum[-1]):
        assert f"{value:.3e}" in message
    assert "N = 64" in message


def test_c_rejects_bad_rho(scalar_case):
    _, syn, h = scalar_case
    with pytest.raises(errors.DegenerateInput):
        sppc.compute_c(h, 1.0)
    with pytest.raises(errors.DegenerateInput):
        sppc.compute_c(h, -0.1)


def test_synthesize_scalar_values(scalar_case):
    _, syn, _ = scalar_case
    np.testing.assert_allclose(syn.P, [[1.0]])
    assert syn.rho == 0.0
    assert syn.c == pytest.approx(5.0 * (3.0 + 2.0 * np.sqrt(2.0)), abs=1e-9)
    expected_w = 0.5 / (5.0 * (3.0 + 2.0 * np.sqrt(2.0)))
    assert syn.W[0, 0] == pytest.approx(expected_w, abs=1e-9)
    np.testing.assert_allclose(syn.W, syn.Eps)  # P - Q vanishes here


def test_synthesize_rejects_bad_alpha():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(errors.ConfigError):
            sppc.synthesize(plant, None, 2, alpha)


@pytest.mark.parametrize("scale", [1e-6, 1e-30, 1e-100])
def test_synthesize_small_b(example_case, scale):
    # the cheap-control P does not depend on the scale of B, so a tiny but
    # reachable B synthesizes like the unscaled plant and passes every check
    plant, syn, _ = example_case
    small = sppc.PlantModel(A=plant.A, B=plant.B * scale)
    result = sppc.synthesize(small, None, 10, 0.5)
    assert np.abs(result.P - syn.P).max() <= 1e-14 * np.abs(syn.P).max()
    assert all(check.passed for check in sppc.check_invariants(small, result))


def test_synthesize_rejects_underflowed_pivot(example_case):
    # B^T P B below the smallest normal double has lost its relative precision
    tiny = sppc.PlantModel(A=example_case[0].A, B=example_case[0].B * 1e-160)
    with pytest.raises(errors.DegenerateInput, match="underflowed"):
        sppc.solve_riccati(tiny, np.eye(4))


def test_synthesize_default_q_is_identity():
    plant = sppc.PlantModel(A=[[2.0]], B=[[1.0]])
    syn = sppc.synthesize(plant, None, 2, 0.5)
    np.testing.assert_allclose(syn.Q, np.eye(1))


def test_synthesize_deadbeat_w_equals_eps():
    plant = sppc.PlantModel(A=[[0.0]], B=[[1.0]])
    syn = sppc.synthesize(plant, [[2.0]], 3, 0.25)
    assert syn.rho == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(syn.W, syn.Eps)  # P - Q is exactly zero here


def test_invariant_checks_pass(example_case, scalar_case):
    for plant, syn in ((example_case[0], example_case[1]),
                       (scalar_case[0], scalar_case[1])):
        checks = sppc.check_invariants(plant, syn)
        # P - Q >= 0 follows from these five, so it has no check of its own
        assert [c.name for c in checks] == ["riccati_residual", "rho_in_range", "eps_positive",
                                            "eps_inside_cone", "w_positive_definite"]
        assert all(c.passed for c in checks)


def test_feasibility_identity_random():
    # least-squares optimum of the lifted cost equals x^T (P - Q) x
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 8))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n)
        syn = sppc.synthesize(plant, Q, N, 0.5)
        h = sppc.build_horizon(plant, Q, syn.P, N)
        for _ in range(20):
            x = rng.standard_normal(n)
            target = h.H @ x
            u = solve_least_squares(h.G, target)
            best = float(np.sum((h.G @ u - target) ** 2))
            value = float(x @ (syn.P - syn.Q) @ x)
            assert best == pytest.approx(value, rel=1e-8, abs=1e-10)


def _exactly_symmetric(m) -> bool:
    return m.tobytes() == np.ascontiguousarray(m.T).tobytes()


@pytest.mark.parametrize("N", [10, 20, 32])
def test_synthesis_matrices_exactly_symmetric_on_example(example_plant, N):
    syn = sppc.synthesize(example_plant, None, N, 0.5)
    assert all(_exactly_symmetric(m) for m in (syn.Q, syn.P, syn.Eps, syn.W))


def test_synthesis_matrices_exactly_symmetric_on_random_plants():
    # P, Eps and W are never symmetrized after the Riccati iteration, and
    # the library's checks and eigenvalue calls rely on them being exact
    rng = np.random.default_rng(23)
    synthesized = 0
    for _ in range(30):
        n, N = int(rng.integers(1, 21)), int(rng.integers(1, 65))
        plant = random_reachable_plant(rng, n)
        Q = random_spd(rng, n) if rng.random() < 0.5 else None
        try:
            syn = sppc.synthesize(plant, Q, N, 0.5)
        except errors.SppcError:
            continue
        synthesized += 1
        assert all(_exactly_symmetric(m) for m in (syn.Q, syn.P, syn.Eps, syn.W))
    assert synthesized >= 20


def test_synthesis_result_matrices_read_only(scalar_case):
    _, syn, _ = scalar_case
    with pytest.raises(ValueError):
        syn.W[0, 0] = 2.0


def test_synthesis_result_derives_w(example_case):
    # W is no constructor argument: it is P - Q + Eps bit for bit, read-only,
    # set anew by dataclasses.replace and carried through pickling
    _, syn, _ = example_case
    given = {f.name: getattr(syn, f.name) for f in dataclasses.fields(syn) if f.init}
    assert "W" not in given
    with pytest.raises(TypeError):
        synthesis.SynthesisResult(**given, W=syn.W)
    assert (syn.W == syn.P - syn.Q + syn.Eps).all()
    assert not syn.W.flags.writeable
    scaled = dataclasses.replace(syn, Eps=2.0 * syn.Eps)
    assert (scaled.W == syn.P - syn.Q + 2.0 * syn.Eps).all()
    copy = pickle.loads(pickle.dumps(syn))
    assert copy.W.tobytes() == syn.W.tobytes()


def test_hand_built_synthesis_is_read_only(example_case):
    # Q, P and Eps are frozen copies, so W = P - Q + Eps cannot go stale and
    # the caller's arrays stay writable
    _, syn, _ = example_case
    given = {f.name: getattr(syn, f.name) for f in dataclasses.fields(syn) if f.init}
    mine = {name: np.array(given[name]) for name in ("Q", "P", "Eps")}
    built = synthesis.SynthesisResult(**{**given, **mine})
    for name, arr in mine.items():
        assert arr.flags.writeable and not getattr(built, name).flags.writeable
        with pytest.raises(ValueError):
            getattr(built, name)[0, 0] = 5.0
    mine["Q"][0, 0] = 5.0
    assert built.W.tobytes() == syn.W.tobytes()


def test_riccati_iteration_limit(monkeypatch):
    plant = sppc.PlantModel(A=[[2.0, 0.1], [0.0, 1.5]], B=[[0.3], [1.0]])
    monkeypatch.setattr(synthesis, "RICCATI_MAX_ITERATIONS", 2)
    with pytest.raises(errors.NoConvergence):
        synthesis.solve_riccati(plant, np.eye(2))


def test_riccati_divergence_raises():
    # an iterate overflowing to inf or nan is caught through the step size
    plant = sppc.PlantModel(A=[[2.0, 0.1], [0.0, 1.5]], B=[[0.3], [1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(errors.NoConvergence, match="diverged"):
            synthesis.solve_riccati(plant, 1e160 * np.eye(2))
