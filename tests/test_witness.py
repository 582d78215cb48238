"""Tests for the separable-channel monotonicity witness.

The analytic anchor: a coupled jump sigma_z (x) B with B^dag B = 1 makes
the qubit coherence obey d<s->/dt = (-i omega_0 - 2 gamma)<s->, so the
visibility is exactly exp(-2 gamma t).  Random channels then probe the
general statement, and the coupled Hamiltonian provides the designed
counterexample.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import initial_state
from revivalsim.lindblad import (
    ProtocolConfig,
    negativities,
    negativity,
    run_protocol,
)
from revivalsim.witness import (
    SeparableChannelSpec,
    check_monotonic,
    coupled_contrast_case,
    random_product_state,
    random_separable_spec,
    run_property_suite,
    simulate_separable,
)


def _unitary_b_spec(dim, gamma, *, splitting=0.4, seed=11):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h_b = (g + g.conj().T) / 2.0
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dim))
    return SeparableChannelSpec(
        qubit_splitting=splitting,
        oscillator_hamiltonian=h_b,
        b_operator=np.diag(phases),
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# exact decay for unitary B
# ---------------------------------------------------------------------------


def test_unitary_b_gives_exact_exponential_decay():
    gamma, dim = 0.15, 8
    spec = _unitary_b_spec(dim, gamma)
    rho0 = random_product_state(0, dim)
    trace = simulate_separable(spec, rho0, 6.0, samples=200)
    assert np.max(np.abs(trace.visibility - np.exp(-2.0 * gamma * trace.times))) < 1e-8


def test_decay_rate_fit_recovers_rate():
    gamma, dim = 0.12, 6
    spec = _unitary_b_spec(dim, gamma, seed=3)
    rho0 = random_product_state(1, dim)
    report = check_monotonic(simulate_separable(spec, rho0, 5.0, samples=150))
    assert report.monotonic
    assert report.decay_rate_fit == pytest.approx(2.0 * gamma, rel=1e-6)
    assert report.negativity_peak < 1e-10


def test_dephasing_adds_to_decay_rate():
    dim = 20
    spec = _unitary_b_spec(dim, 0.1, seed=5)
    spec.qubit_dephasing = 0.05
    rho0 = initial_state(ProtocolConfig(nbar=0.5), dim)
    report = check_monotonic(simulate_separable(spec, rho0, 5.0, samples=150))
    # both sigma_z channels dephase independently: total rate 2(gamma + deph)
    assert report.decay_rate_fit == pytest.approx(0.3, rel=1e-6)


# ---------------------------------------------------------------------------
# random channel suite
# ---------------------------------------------------------------------------


def test_random_spec_is_deterministic():
    a = random_separable_spec(7, 8)
    b = random_separable_spec(7, 8)
    assert np.array_equal(a.b_operator, b.b_operator)
    assert a.gamma == b.gamma
    assert len(a.oscillator_lindblads) == len(b.oscillator_lindblads)


def test_random_product_state_is_valid():
    rho = random_product_state(4, 10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert negativity(rho) < 1e-12


def test_property_suite_rows():
    reports = run_property_suite(8, 8, tol=1e-6, t_max=6.0, samples=200)
    assert len(reports) == 8
    # report k is seed k
    for k in (0, 5):
        trace = simulate_separable(random_separable_spec(k, 8), random_product_state(k, 8),
                                   6.0, samples=200)
        assert reports[k] == check_monotonic(trace, 1e-6)
    assert all(r.monotonic for r in reports)
    assert all(r.negativity_peak <= 1e-8 for r in reports)
    assert all(r.max_violation <= 1e-6 for r in reports)


def test_property_suite_rejects_empty():
    with pytest.raises(ValueError):
        run_property_suite(0, 8)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=1000, max_value=10_000_000))
def test_arbitrary_seeds_stay_monotonic(seed):
    spec = random_separable_spec(seed, 6)
    rho0 = random_product_state(seed, 6)
    report = check_monotonic(simulate_separable(spec, rho0, 4.0, samples=120))
    assert report.monotonic
    assert report.negativity_peak <= 1e-8


# ---------------------------------------------------------------------------
# the coupled counterexample
# ---------------------------------------------------------------------------


def _negativity_loop(rho):
    """Per-state reference: partial transpose over the qubit, one eigvalsh."""
    dim = rho.shape[0] // 2
    pt = rho.reshape(2, dim, 2, dim).transpose(2, 1, 0, 3).reshape(2 * dim, 2 * dim)
    eigs = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    return float(-eigs[eigs < 0].sum())


def test_batched_negativity_matches_per_state():
    trace = run_protocol(
        ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=20),
        keep_states=True,
    )
    want = np.array([_negativity_loop(rho) for rho in trace.states])
    assert np.max(np.abs(negativities(trace.states) - want)) < 1e-12
    assert check_monotonic(trace).negativity_peak == pytest.approx(want.max(), abs=1e-12)
    assert want.max() > 0.3


def test_separable_stats_and_states():
    spec = random_separable_spec(4, 6)
    trace = simulate_separable(spec, random_product_state(4, 6), 2.0, samples=40)
    assert trace.states.shape == (41, 12, 12)
    assert trace.stats["dim"] == 6 and trace.stats["dim_rule"] == "spec"
    assert trace.stats["segments"][0]["nfev"] > 0
    assert trace.stats["worst_trace_error"] == trace.trace_error.max() < 1e-9


def test_coupled_case_revives_and_entangles():
    report = coupled_contrast_case(0.25)
    assert not report.monotonic
    assert report.max_violation == pytest.approx(1.0 - math.exp(-0.5), abs=1e-3)
    assert report.negativity_peak > 0.01


# ---------------------------------------------------------------------------
# check_monotonic mechanics
# ---------------------------------------------------------------------------


def _synthetic_trace(t, v):
    from revivalsim.lindblad import VisibilityTrace

    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    return VisibilityTrace(
        times=t,
        visibility=v,
        sigma_minus=v.astype(complex) / 2.0,
        trace_error=np.zeros_like(t),
        tail_mass=np.zeros_like(t),
    )


def test_max_violation_is_rise_above_running_min():
    trace = _synthetic_trace([0.0, 1.0, 2.0, 3.0], [1.0, 0.4, 0.7, 0.2])
    report = check_monotonic(trace, tol=1e-6)
    assert not report.monotonic
    assert report.max_violation == pytest.approx(0.3)


def test_tolerance_permits_noise_level_rises():
    trace = _synthetic_trace([0.0, 1.0, 2.0], [1.0, 0.5, 0.5 + 5e-7])
    assert check_monotonic(trace, tol=1e-6).monotonic
    assert not check_monotonic(trace, tol=1e-7).monotonic


def test_check_monotonic_requires_two_samples():
    with pytest.raises(ValueError):
        check_monotonic(_synthetic_trace([0.0], [1.0]))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    h = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        SeparableChannelSpec(0.1, h + 1j * np.eye(4), np.eye(4), 0.1)
    with pytest.raises(ValueError):
        SeparableChannelSpec(0.1, h, np.eye(3), 0.1)
    with pytest.raises(ValueError):
        SeparableChannelSpec(0.1, h, np.eye(4), -0.1)
    with pytest.raises(ValueError):
        SeparableChannelSpec(0.1, h, np.eye(4), 0.1, oscillator_lindblads=[(h, -1.0)])


def test_simulate_rejects_bad_horizon():
    spec = _unitary_b_spec(4, 0.1)
    with pytest.raises(ValueError):
        simulate_separable(spec, random_product_state(0, 4), 0.0)
    with pytest.raises(ValueError):
        simulate_separable(spec, random_product_state(0, 4), 1.0, samples=0)
