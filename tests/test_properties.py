"""Property tests over the size envelope the numerics claim (n <= 20, N <= 64)."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import sppc
from sppc import synthesis
from sppc.errors import ConfigError
from sppc.solvers import FEASIBILITY_ABS_FLOOR, FEASIBILITY_REL_SLACK

from conftest import random_reachable_plant, random_spd

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25,
                             database=None)


@PROPERTY_SETTINGS
@given(st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_riccati_passes_its_residual_check_or_raises_typed(n, seed):
    # value iteration, the doubling's jump and the polish together: a returned
    # P is a fixed point to the invariant check's limit
    rng = np.random.default_rng(seed)
    plant = random_reachable_plant(rng, n)
    Q = random_spd(rng, n)
    try:
        P, _ = sppc.solve_riccati(plant, Q)
    except sppc.SppcError:
        return
    assert synthesis.riccati_residual(plant, Q, P) <= synthesis._residual_limit(P)


@PROPERTY_SETTINGS
@given(st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_residual_check_bounds_p_minus_q(n, seed):
    # F(P) - Q >= 0 for P > 0, so a P that passes riccati_residual has
    # lambda_min(P - Q) >= -n residual: the check P - Q >= 0 would add nothing
    rng = np.random.default_rng(seed)
    plant = random_reachable_plant(rng, n)
    Q = random_spd(rng, n)
    try:
        P, _ = sppc.solve_riccati(plant, Q)
    except sppc.SppcError:
        reject()
    residual = synthesis.riccati_residual(plant, Q, P)
    if residual > synthesis._residual_limit(P):
        reject()
    assert float(np.linalg.eigvalsh(P - Q)[0]) >= -n * residual


@st.composite
def sound_designs(draw):
    """(horizon, W, x) for a random reachable plant whose synthesis passes
    every invariant; plants whose synthesis raises or fails a check are
    skipped."""
    n = draw(st.integers(1, 20))
    N = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    plant = random_reachable_plant(rng, n)
    try:
        syn = sppc.synthesize(plant, None, N, 0.5)
    except sppc.SppcError:
        reject()
    if not all(check.passed for check in sppc.check_invariants(plant, syn)):
        reject()
    return syn.horizon, syn.W, rng.standard_normal(n)


@PROPERTY_SETTINGS
@given(sound_designs())
def test_omp_feasible_on_sound_syntheses(design):
    h, W, x = design
    packet = sppc.omp_design(h, W, x)
    r = h.G @ packet.coeffs - h.H @ x
    threshold = float(x @ (W @ x))
    assert packet.threshold == threshold
    assert float(r @ r) <= threshold * (1.0 + FEASIBILITY_REL_SLACK) + FEASIBILITY_ABS_FLOOR


@PROPERTY_SETTINGS
@given(sound_designs())
def test_omp_exactly_homogeneous_under_power_of_two_scaling(design):
    # every step of OMP is linear in x or compares scaled quantities, and
    # scaling by 2^k is exact in the normal range
    h, W, x = design
    base = sppc.omp_design(h, W, x)
    for k in range(-8, 9):
        scaled = sppc.omp_design(h, W, np.ldexp(x, k))
        assert scaled.support == base.support
        np.testing.assert_array_equal(scaled.coeffs, np.ldexp(base.coeffs, k))


@PROPERTY_SETTINGS
@given(st.lists(st.floats(0.0, 1e300), max_size=200))
def test_log_decay_slope_typed_error_or_finite(values):
    if len(values) < 2:
        with pytest.raises(ConfigError):
            sppc.log_decay_slope(values)
    else:
        assert np.isfinite(sppc.log_decay_slope(values))
