"""Tests for the separable-channel monotonicity witness.

The analytic anchor: a coupled jump sigma_z (x) B with B^dag B = 1 makes
the qubit coherence obey d<s->/dt = (-i omega_0 - 2 gamma)<s->, so the
visibility is exactly exp(-2 gamma t).  Random channels then probe the
general statement, and the coupled Hamiltonian provides the designed
counterexample.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import initial_state, separable_blocks
from revivalsim import protocol
from revivalsim.config import ConfigError
from revivalsim.lindblad import (
    STATE_SLAB,
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


def test_random_spec_needs_two_levels():
    with pytest.raises(ValueError, match="dim must be >= 2"):
        random_separable_spec(0, 1)


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


def test_separable_runs_meet_an_exact_propagation():
    # verify's default channels (dim 16, t_max 8, 400 samples) against expm
    # of each block's generator, built from the joint operators; seeds 0-9
    # hold 0, 1 and 2 local oscillator jumps.  Measured at most 1.4e-11 in V
    # (seed 0) and 1.8e-11 in the kept states, the DOP853 solve's own error
    jumps = set()
    for seed in range(10):
        spec = random_separable_spec(seed, 16)
        rho0 = random_product_state(seed, 16)
        trace = simulate_separable(spec, rho0, 8.0, samples=400)
        blocks = separable_blocks(spec, rho0, trace.times)
        visibility = 2.0 * np.abs(np.trace(blocks[:, 2], axis1=-2, axis2=-1))
        assert np.max(np.abs(trace.visibility - visibility)) < 5e-11, seed
        states = trace.states  # rho00, rho11 and rho01 are its quadrants
        quadrants = np.stack([states[:, :16, :16], states[:, 16:, 16:], states[:, :16, 16:]], 1)
        assert np.max(np.abs(quadrants - blocks)) < 5e-11, seed
        jumps.add(len(spec.oscillator_lindblads))
    assert jumps == {0, 1, 2}


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


def _partial_transposes(states):
    """The partial transpose over the qubit of each (2d, 2d) state."""
    n, d = len(states), states.shape[-1] // 2
    return states.reshape(n, 2, d, 2, d).transpose(0, 3, 2, 1, 4).reshape(states.shape)


@pytest.mark.parametrize("source", [
    dict(gamma_m=0.0), dict(gamma_m=0.05), dict(gamma_m=0.05, protocol="spin_echo"),
    *range(5)], ids=["undamped", "damped", "damped_spin_echo"]
    + [f"separable_{seed}" for seed in range(5)])
def test_kept_states_are_exactly_hermitian(source):
    # negativities hands each partial transpose to eigvalsh as it is, which
    # reads only its lower triangle: every producer must build states, and so
    # partial transposes, that equal their conjugate transposes exactly
    if isinstance(source, int):  # a separable channel's seed
        states = simulate_separable(random_separable_spec(source, 6),
                                    random_product_state(source, 6), 3.0, samples=30).states
    else:  # a protocol run's point
        cfg = ProtocolConfig(g=0.2, nbar=1.0, gamma_a=0.01, samples_per_period=20, **source)
        states = run_protocol(cfg, keep_states=True).states
    assert len(states) > 1
    for stack in (states, _partial_transposes(states)):
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))


def _traced_peak(fn):
    """fn() and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_negativities_allocates_about_its_input():
    # the partial transposes of one slab of STATE_SLAB states at a time:
    # measured 1.01 slabs for 201 states at dim 48.  Taking them of the whole
    # stack at once peaked at 1.0 x the input (6.3 slabs here), and
    # symmetrizing them at 3.0 x
    states = run_protocol(ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=200,
                                         dim=48), keep_states=True).states
    assert len(states) > 6 * STATE_SLAB
    _, peak = _traced_peak(lambda: negativities(states))
    assert peak <= 1.1 * STATE_SLAB * states[0].nbytes


def test_negativities_of_a_partial_slab_equal_each_state_alone():
    states = run_protocol(ProtocolConfig(g=0.25, nbar=0.5, t_max=2.0 * math.pi,
                                         samples_per_period=100), keep_states=True).states
    states = states[:2 * STATE_SLAB + 5]
    assert len(states) % STATE_SLAB != 0
    want = [negativity(rho) for rho in states]
    assert np.array_equal(negativities(states), want)
    assert max(want) > 0.1


def test_simulate_separable_allocates_about_its_stack():
    # the kept states are one (n, 2d, 2d) stack, written as the solve samples
    # it: measured 1.12 stacks at dim 32.  Joining each step's blocks and
    # concatenating them peaked at 2.0 stacks
    spec, rho0 = random_separable_spec(3, 32), random_product_state(3, 32)
    trace, peak = _traced_peak(lambda: simulate_separable(spec, rho0, 8.0, samples=400))
    assert peak <= 1.25 * trace.states.nbytes


@pytest.mark.parametrize("gamma_m", [0.0, 0.01], ids=["undamped", "damped"])
def test_kept_protocol_states_allocate_one_stack_and_a_few_slabs(gamma_m):
    # rho00, rho11 and rho10 are filled STATE_SLAB samples at a time, so the
    # run holds its stack and a few slabs of (d, d) blocks: measured 5.3 slabs
    # at dim 48 on both paths.  Filling them for the whole run at once held
    # about a second stack (25 of these slabs)
    dim = 48
    cfg = ProtocolConfig(g=0.25, nbar=1.0, gamma_m=gamma_m, t_max=2.0 * math.pi,
                         samples_per_period=200, dim=dim)
    trace, peak = _traced_peak(lambda: run_protocol(cfg, keep_states=True))
    assert peak <= trace.states.nbytes + 8 * STATE_SLAB * dim**2 * 16


def _refused_peak(call):
    """The traced peak of a call that the kept-state budget refuses."""
    def refused():
        with pytest.raises(ConfigError, match="MAX_STATE_VALUES"):
            call()
    return _traced_peak(refused)[1]


@pytest.mark.parametrize("producer", ["separable", "protocol"])
def test_kept_state_budget_is_exact_at_both_producers(producer, monkeypatch):
    # both producers allocate their stacks only through protocol.kept_states:
    # with the budget set to one run's stack, that run is kept unchanged and
    # a run of one state more is refused with ConfigError
    if producer == "separable":
        spec, rho0 = random_separable_spec(0, 4), random_product_state(0, 4)
        def run(n):
            return simulate_separable(spec, rho0, 1.0, samples=n - 1).states
    else:  # basic over one period: samples_per_period + 1 samples
        def run(n):
            cfg = ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=n - 1)
            return run_protocol(cfg, keep_states=True).states
    kept = run(41)
    assert len(kept) == 41
    monkeypatch.setattr(protocol, "MAX_STATE_VALUES", kept.size)
    assert np.array_equal(run(41), kept)
    assert _refused_peak(lambda: run(42)) < 2**20


@pytest.mark.parametrize("call", [
    lambda: simulate_separable(random_separable_spec(0, 4), random_product_state(0, 4), 8.0,
                               samples=10**9),
    lambda: run_protocol(ProtocolConfig(g=5.0, t_max=2.0 * math.pi), keep_states=True),
], ids=["separable_1e9_samples", "protocol_contrast_5"])
def test_over_budget_runs_are_refused_before_allocating(call):
    # at the real budget: the separable run's sample grid alone would be 8 GB,
    # and the contrast's 201 states at dim 169 367 MB
    assert _refused_peak(call) < 2**20


def test_separable_stats_and_states():
    spec = random_separable_spec(4, 6)
    trace = simulate_separable(spec, random_product_state(4, 6), 2.0, samples=40)
    assert trace.states.shape == (41, 12, 12)
    assert trace.stats["dim"] == 6 and trace.stats["dim_rule"] == "spec"
    assert trace.stats["segments"][0]["nfev"] > 0
    pops = np.diagonal(trace.states, axis1=-2, axis2=-1).real  # rho00's, then rho11's
    trace_error = np.abs((pops[:, :6] + pops[:, 6:]).sum(axis=-1) - 1.0)
    assert trace.stats["worst_trace_error"] == trace_error.max() < 1e-9
    # the spec's dim is the model, not a truncation: no tail mass bound applies
    assert trace.stats["worst_tail_mass"] == trace.tail_mass.max()
    assert "tail_mass_bound" not in trace.stats


def test_coupled_case_revives_and_entangles():
    report = coupled_contrast_case(0.25)
    assert not report.monotonic
    assert report.max_violation == pytest.approx(1.0 - math.exp(-0.5), abs=1e-3)
    assert report.negativity_peak > 0.01


def test_coupled_case_contrast_meets_its_closed_forms():
    # at nbar = 0 the branches are coherent states |+-alpha(t)>, |alpha(pi)| =
    # 2 lam: V falls to exp(-8 lam^2) at t = pi and revives to 1, and the
    # negativity peaks there at sqrt(1 - exp(-16 lam^2)) / 2.  The run is
    # undamped, so its kept states come from the exact propagator; measured
    # 1.4e-12 off the revival and 2.4e-13 off the peak (dim 10)
    lam = 0.25
    report = coupled_contrast_case(lam)
    assert report.max_violation == pytest.approx(1.0 - math.exp(-8.0 * lam**2), abs=1e-11)
    assert report.negativity_peak == pytest.approx(
        math.sqrt(1.0 - math.exp(-16.0 * lam**2)) / 2.0, abs=1e-11)


# ---------------------------------------------------------------------------
# check_monotonic mechanics
# ---------------------------------------------------------------------------


def _synthetic_trace(t, v):
    """A trace with the given visibilities whose kept states are all one
    product state, so its negativity peak is 0."""
    from revivalsim.lindblad import VisibilityTrace

    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    return VisibilityTrace(
        times=t,
        visibility=v,
        sigma_minus=v.astype(complex) / 2.0,
        tail_mass=np.zeros_like(t),
        states=np.repeat(random_product_state(0, 2)[None], len(t), axis=0),
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
    with pytest.raises(ValueError, match="two samples"):
        check_monotonic(_synthetic_trace([0.0], [1.0]))


def test_check_monotonic_refuses_a_trace_without_states():
    # it used to report negativity_peak 0.0 for this entangling run, a value
    # it never computed
    trace = run_protocol(ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=20))
    assert trace.states is None
    with pytest.raises(ValueError, match="keep_states=True"):
        check_monotonic(trace)


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
