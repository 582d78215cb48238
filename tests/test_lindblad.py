"""Tests for the numerical master-equation engine.

The closed-form curves from `analytic` serve as oracles everywhere the
noise model admits one; the generator itself is checked directly against
the defining right-hand side on small random systems.
"""

import json
import math

import numpy as np
import pytest
from scipy import sparse

from revivalsim.algebra import TruncationError
from revivalsim.analytic import (
    CouplingParams,
    spin_echo_overlap,
    visibility_boosted,
    visibility_damped,
    visibility_thermal,
)
from revivalsim.cli import main
from revivalsim.lindblad import (
    PLUS_STATE,
    SIGMA_Z,
    ProtocolConfig,
    build_hamiltonian,
    build_liouvillian,
    initial_state,
    negativity,
    run_protocol,
    standard_jump_ops,
)

FIG_NBAR = 1.5414940825367982  # thermal occupation at omega = 1, T = 2


def _rand_herm(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def _lindblad_rhs(h, jumps, rho):
    out = -1j * (h @ rho - rho @ h)
    for rate, op in jumps:
        opd = op.conj().T
        out = out + rate * (
            op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op)
        )
    return out


# ---------------------------------------------------------------------------
# generator construction
# ---------------------------------------------------------------------------


def test_hamiltonian_layout():
    cfg = ProtocolConfig(omega=2.0, g=0.3, dim=12)
    h = build_hamiltonian(cfg)
    # qubit-up block: 2*n + 0.3*(a+ad); qubit-down block flips the coupling
    up = h[:12, :12]
    down = h[12:, 12:]
    assert up[1, 1] == pytest.approx(2.0)
    assert up[0, 1] == pytest.approx(0.3)
    assert down[0, 1] == pytest.approx(-0.3)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h[:12, 12:], 0.0)


def test_standard_jump_rates():
    cfg = ProtocolConfig(g=0.1, gamma_m=0.02, gamma_a=0.005, nbar=3.0, dim=16)
    jumps = standard_jump_ops(cfg, 16)
    rates = sorted(rate for rate, _ in jumps)
    assert rates == pytest.approx(sorted([3.0 * 0.02, 4.0 * 0.02, 0.005]))
    # no mechanical jumps when gamma_m = 0
    cfg2 = ProtocolConfig(g=0.1, gamma_a=0.005, nbar=3.0, dim=16)
    assert len(standard_jump_ops(cfg2, 16)) == 1


def test_liouvillian_action_matches_rhs():
    rng = np.random.default_rng(3)
    n = 6
    h = _rand_herm(rng, n)
    jumps = [
        (0.13, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))),
        (0.07, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))),
    ]
    sup = build_liouvillian(h, jumps)
    assert sparse.issparse(sup) and sup.format == "csr"
    rho = _rand_herm(rng, n)
    got = (sup @ rho.reshape(-1)).reshape(n, n)
    assert np.max(np.abs(got - _lindblad_rhs(h, jumps, rho))) < 1e-12


def test_liouvillian_is_csr_at_every_size():
    rng = np.random.default_rng(4)
    for n in (6, 42):
        sup = build_liouvillian(_rand_herm(rng, n), [])
        assert sparse.issparse(sup) and sup.format == "csr"


def test_liouvillian_sparse_action_matches_dense_formula():
    rng = np.random.default_rng(5)
    n = 42
    h = _rand_herm(rng, n)
    jumps = [(0.2, rng.normal(size=(n, n)) + 0j)]
    sup = build_liouvillian(h, jumps)
    rho = _rand_herm(rng, n)
    got = (sup @ rho.reshape(-1)).reshape(n, n)
    assert np.max(np.abs(got - _lindblad_rhs(h, jumps, rho))) < 1e-11


def test_liouvillian_rejects_negative_rate():
    with pytest.raises(ValueError):
        build_liouvillian(np.eye(3, dtype=complex), [(-0.1, np.eye(3, dtype=complex))])


def test_liouvillian_annihilates_steady_state():
    # with thermal jumps and no coupling, the thermal state is stationary
    from revivalsim.algebra import thermal_density

    cfg = ProtocolConfig(g=0.0, gamma_m=0.1, nbar=2.0, dim=50)
    h = build_hamiltonian(cfg)
    sup = build_liouvillian(h, standard_jump_ops(cfg, 50))
    rho = np.kron(np.diag([1.0, 0.0]).astype(complex), thermal_density(2.0, 50))
    resid = sup @ rho.reshape(-1)
    assert np.max(np.abs(resid)) < 1e-9  # truncation-limited, not solver-limited


# ---------------------------------------------------------------------------
# protocol runs against closed forms
# ---------------------------------------------------------------------------


def test_free_evolution_keeps_full_visibility():
    cfg = ProtocolConfig(g=0.0, nbar=1.0, t_max=2.0 * math.pi, samples_per_period=50)
    trace = run_protocol(cfg)
    assert np.max(np.abs(trace.visibility - 1.0)) < 1e-10


def test_vacuum_half_period_collapse():
    cfg = ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=100)
    trace = run_protocol(cfg)
    k = int(np.argmin(np.abs(trace.times - math.pi)))
    assert trace.times[k] == pytest.approx(math.pi, abs=1e-12)
    assert trace.visibility[k] == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_full_period_revival():
    cfg = ProtocolConfig(g=0.3, nbar=1.5, t_max=2.0 * math.pi, samples_per_period=60)
    trace = run_protocol(cfg)
    assert abs(trace.visibility[-1] - 1.0) < 1e-8


def test_thermal_trace_matches_closed_form():
    cfg = ProtocolConfig(g=0.1, nbar=12.0, t_max=math.pi, samples_per_period=60)
    assert cfg.resolved_dim() >= 120
    trace = run_protocol(cfg)
    pred = visibility_thermal(CouplingParams(coupling=0.1, nbar=12.0), trace.times)
    assert np.max(np.abs(trace.visibility - pred)) < 1e-6
    assert trace.visibility[-1] == pytest.approx(math.exp(-2.0), abs=1e-6)


def test_damped_trace_matches_expansion():
    cfg = ProtocolConfig(
        g=1e-2, gamma_m=5e-3, nbar=FIG_NBAR, t_max=math.pi, samples_per_period=60
    )
    trace = run_protocol(cfg)
    p = CouplingParams(coupling=1e-2, nbar=FIG_NBAR, q_factor=200.0)
    assert np.max(np.abs(trace.visibility - visibility_damped(p, trace.times))) < 1e-3


def test_qubit_dephasing_rate():
    cfg = ProtocolConfig(g=0.0, gamma_a=0.1, t_max=5.0, samples_per_period=40)
    trace = run_protocol(cfg)
    assert np.max(np.abs(trace.visibility - np.exp(-0.2 * trace.times))) < 1e-8


def test_boosted_protocol_matches_closed_form():
    cfg = ProtocolConfig(
        g=1e-2,
        g_prime=1e-1,
        nbar=FIG_NBAR,
        t_max=4.0 * math.pi,
        protocol="boosted",
        samples_per_period=100,
    )
    trace = run_protocol(cfg)
    p = CouplingParams(coupling=1e-2, boost_coupling=1e-1, nbar=FIG_NBAR)
    assert np.max(np.abs(trace.visibility - visibility_boosted(p, trace.times))) < 2e-3


def test_spin_echo_pre_closing_and_closure():
    n_pi, lam = 2, 0.05
    cfg = ProtocolConfig(g=lam, protocol="spin_echo", n_pi=n_pi, samples_per_period=40)
    trace = run_protocol(cfg)
    t_mid = n_pi * 2.0 * math.pi
    k = int(np.argmin(np.abs(trace.times - t_mid)))
    assert trace.times[k] == pytest.approx(t_mid, abs=1e-9)
    assert trace.visibility[k] == pytest.approx(
        spin_echo_overlap(n_pi, lam), abs=1e-6
    )
    assert trace.visibility[-1] == pytest.approx(1.0, abs=1e-6)
    assert trace.times[-1] == pytest.approx(2.0 * t_mid, abs=1e-9)


def test_diagnostics_stay_small_on_clean_run():
    cfg = ProtocolConfig(g=0.25, nbar=0.5, t_max=2.0 * math.pi, samples_per_period=50)
    trace = run_protocol(cfg)
    assert trace.trace_error.max() < 1e-9
    assert trace.tail_mass.max() < 1e-8
    assert trace.config["g"] == 0.25


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------


def test_negativity_product_state_is_zero():
    cfg = ProtocolConfig(g=0.1, nbar=1.0, dim=32)
    rho = initial_state(cfg, 32)
    assert negativity(rho) < 1e-12


def test_negativity_of_branch_superposition():
    # (|0>|a> + |1>|-a>)/sqrt(2): negativity = sqrt(1 - |<a|-a>|^2)/2
    alpha, dim = 0.5, 30
    amps = np.array(  # Fock amplitudes of |a>: exp(-a^2/2) a^n / sqrt(n!)
        [math.exp(-0.5 * alpha**2) * alpha**n / math.sqrt(math.factorial(n))
         for n in range(dim)]
    )
    up = np.zeros(2 * dim, dtype=complex)
    up[:dim] = amps
    down = np.zeros(2 * dim, dtype=complex)
    down[dim:] = amps * (-1.0) ** np.arange(dim)
    psi = (up + down) / math.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    s = math.exp(-2.0 * alpha**2)
    assert negativity(rho) == pytest.approx(math.sqrt(1.0 - s * s) / 2.0, abs=1e-10)


def test_negativity_peaks_at_half_period():
    cfg = ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=50)
    trace = run_protocol(cfg, keep_states=True)
    k = int(np.argmin(np.abs(trace.times - math.pi)))
    assert negativity(trace.states[k]) == pytest.approx(0.39753004881032505, abs=1e-6)
    # entanglement vanishes again at the revival
    assert negativity(trace.states[-1]) < 1e-6


def test_negativity_rejects_odd_dimension():
    with pytest.raises(ValueError):
        negativity(np.eye(5) / 5.0)


# ---------------------------------------------------------------------------
# config validation and dimension logic
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(omega=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(gamma_m=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(nbar=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="ramsey")
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="spin_echo", n_pi=0)
    with pytest.raises(ValueError):
        ProtocolConfig(samples_per_period=2)
    with pytest.raises(ValueError):
        ProtocolConfig(t_max=-1.0).resolved_t_max()
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="boosted", t_max=2.0).resolved_t_max()


def test_max_displacement_per_protocol():
    assert ProtocolConfig(g=0.1).max_displacement() == pytest.approx(0.2)
    boosted = ProtocolConfig(g=0.1, g_prime=0.4, protocol="boosted")
    assert boosted.max_displacement() == pytest.approx(1.0)
    echo = ProtocolConfig(g=0.1, protocol="spin_echo", n_pi=3)
    assert echo.max_displacement() == pytest.approx(1.2)


def test_spin_echo_duration_ignores_t_max():
    cfg = ProtocolConfig(g=0.05, protocol="spin_echo", n_pi=3, t_max=1.0)
    assert cfg.resolved_t_max() == pytest.approx(3 * 2.0 * (2.0 * math.pi))


def test_resolved_dim_floor_guard():
    with pytest.raises(TruncationError):
        ProtocolConfig(g=0.5, nbar=5.0, dim=10).resolved_dim()


def test_thermal_tail_guard_on_forced_dim():
    # dim passes the displacement floor but truncates the initial thermal tail
    cfg = ProtocolConfig(g=0.6, nbar=3.0, dim=30, t_max=1.0)
    with pytest.raises(TruncationError):
        run_protocol(cfg)


def _simulate_trace(tmp_path, fmt):
    """Run the trace writer `simulate` uses on the config g=0.2, t_max=pi."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"units = natural\ng = 0.2\nt_max = {math.pi!r}\nsamples_per_period = 20\n"
    )
    out = tmp_path / f"trace.{fmt}"
    assert main(["simulate", "--config", str(cfg_file), "--format", fmt,
                 "--out", str(out)]) == 0
    trace = run_protocol(ProtocolConfig(g=0.2, t_max=math.pi, samples_per_period=20))
    return out, trace


def test_csv_roundtrip(tmp_path):
    out, trace = _simulate_trace(tmp_path, "csv")
    content = out.read_bytes().decode()
    assert "\r" not in content
    lines = content.strip().split("\n")
    assert lines[0] == "t,visibility,re_sigma_minus,im_sigma_minus,trace_error,tail_mass"
    assert len(lines) == 1 + len(trace.times)
    fields = lines[-1].split(",")
    assert float(fields[0]) == trace.times[-1]  # %.17g round-trips exactly
    assert float(fields[1]) == trace.visibility[-1]


def test_json_export_sorted_and_complete(tmp_path):
    out, trace = _simulate_trace(tmp_path, "json")
    doc = json.loads(out.read_text())
    assert list(doc) == sorted(doc)
    assert doc["config"]["g"] == 0.2
    assert len(doc["visibility"]) == len(trace.times)
    assert doc["visibility"][-1] == trace.visibility[-1]


def test_initial_state_structure():
    cfg = ProtocolConfig(g=0.1, nbar=0.0, dim=12)
    rho = initial_state(cfg)
    target = np.kron(PLUS_STATE, np.outer(*2 * [np.eye(12)[0]]))
    assert np.max(np.abs(rho - target)) < 1e-14
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_sigma_z_convention():
    assert np.allclose(SIGMA_Z, np.diag([1.0, -1.0]))
