"""Acceptance suite: the eight headline checks, one per test.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and enforces its runtime budget.  Criteria
1-3 validate the laboratory-scale arithmetic through the closed forms;
4-7 validate the same closed forms against the master-equation engine at
numerically tractable couplings; 8 validates the collective-dephasing
approximation pair.
"""

import math
import time

import numpy as np
import pytest

from revivalsim.algebra import thermal_occupation
from revivalsim.analytic import (
    CouplingParams,
    spin_echo_overlap,
    visibility_damped,
    visibility_many_atom,
    visibility_thermal,
)
from revivalsim.design import PhysicalConfig, atoms_required, derive, k_squared
from revivalsim.lindblad import ProtocolConfig, run_protocol
from revivalsim.witness import coupled_contrast_case, run_property_suite


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_thermal_signal_scale():
    t0 = time.perf_counter()
    got = k_squared(PhysicalConfig(hold_time=10.0))
    elapsed = time.perf_counter() - t0
    rel = abs(got / 1.04e-14 - 1.0)
    ok = rel < 0.02 and elapsed < 1.0
    _report(1, ok, f"K^2 = {got:.4e}, dev {rel * 100:.2f}% from 1.04e-14, "
                   f"{elapsed * 1e3:.0f} ms")
    assert rel < 0.02
    assert elapsed < 1.0


def test_acceptance_2_contrast_estimates():
    t0 = time.perf_counter()
    d = derive(PhysicalConfig(hold_time=100.0))
    elapsed = time.perf_counter() - t0
    rel_b = abs(d.delta_v_boosted / 7e-6 - 1.0)
    factor = d.delta_v / 1e-10
    ok = rel_b < 0.15 and 1.0 / 3.0 < factor < 3.0 and elapsed < 1.0
    _report(2, ok, f"dV_b = {d.delta_v_boosted:.4e} (dev {rel_b * 100:.1f}%), "
                   f"dV = {d.delta_v:.2e} ({factor:.2f}x 1e-10), "
                   f"{elapsed * 1e3:.0f} ms")
    assert rel_b < 0.15
    assert 1.0 / 3.0 < factor < 3.0
    assert elapsed < 1.0


def test_acceptance_3_atom_count():
    t0 = time.perf_counter()
    d = derive(PhysicalConfig(hold_time=100.0))
    n = atoms_required(d.delta_v_boosted, 5.0)
    elapsed = time.perf_counter() - t0
    ok = 4.5e11 < n < 5.7e11 and elapsed < 1.0
    _report(3, ok, f"N = {n:.3e} atoms, {elapsed * 1e3:.0f} ms")
    assert 4.5e11 < n < 5.7e11
    assert elapsed < 1.0


def test_acceptance_4_damped_trace_agreement():
    t0 = time.perf_counter()
    nbar = thermal_occupation(1.0, 2.0, hbar=1.0, k_boltzmann=1.0)

    cfg = ProtocolConfig(
        g=1e-2, gamma_m=5e-3, nbar=nbar, t_max=4.0 * math.pi,
        samples_per_period=200,
    )
    trace = run_protocol(cfg)
    params = CouplingParams(coupling=1e-2, nbar=nbar, q_factor=200.0)
    max_dev = float(np.max(np.abs(trace.visibility
                                  - visibility_damped(params, trace.times))))

    # boosted variant: half-to-full-period contrast vs the unboosted one
    cfg_b = ProtocolConfig(
        g=1e-2, g_prime=1e-1, gamma_m=5e-3, nbar=nbar, t_max=4.0 * math.pi,
        protocol="boosted", samples_per_period=200,
    )
    trace_b = run_protocol(cfg_b)
    i_half = int(np.argmin(np.abs(trace.times - math.pi)))
    i_full = int(np.argmin(np.abs(trace.times - 2.0 * math.pi)))
    contrast_plain = trace.visibility[i_full] - trace.visibility[i_half]
    contrast_boosted = trace_b.visibility[i_full] - trace_b.visibility[i_half]
    ratio = contrast_boosted / contrast_plain

    a = 8.0 * (2.0 * nbar + 1.0)
    swing_plain = 1.0 - math.exp(-a * 1e-2**2)
    swing_boosted = math.exp(-a * 0.1**2) - math.exp(-a * 0.11**2)
    ratio_pred = swing_boosted / swing_plain
    ratio_dev = abs(ratio / ratio_pred - 1.0)

    elapsed = time.perf_counter() - t0
    ok = max_dev < 1e-3 and ratio_dev < 0.05 and elapsed < 60.0
    _report(4, ok, f"max |num - analytic| = {max_dev:.2e}, boost ratio "
                   f"{ratio:.2f} vs {ratio_pred:.2f} (dev {ratio_dev * 100:.1f}%), "
                   f"{elapsed:.1f} s")
    assert max_dev < 1e-3
    assert ratio_dev < 0.05
    assert elapsed < 60.0


def test_acceptance_5_separable_monotonicity_suite():
    t0 = time.perf_counter()
    reports = run_property_suite(100, 16, tol=1e-6)
    all_monotonic = all(r.monotonic for r in reports)
    worst_neg = max(r.negativity_peak for r in reports)

    contrast = coupled_contrast_case(0.25, tol=1e-6)
    revival_dev = abs(contrast.max_violation - (1.0 - math.exp(-0.5)))

    elapsed = time.perf_counter() - t0
    ok = (
        all_monotonic
        and worst_neg <= 1e-8
        and not contrast.monotonic
        and revival_dev < 1e-3
        and contrast.negativity_peak > 0.01
        and elapsed < 600.0
    )
    _report(5, ok, f"{sum(r.monotonic for r in reports)}/100 monotonic, "
                   f"max negativity {worst_neg:.1e}; coupled revival "
                   f"{contrast.max_violation:.4f} (dev {revival_dev:.1e}), "
                   f"negativity {contrast.negativity_peak:.3f}, {elapsed:.0f} s")
    assert all_monotonic
    assert worst_neg <= 1e-8
    assert not contrast.monotonic
    assert revival_dev < 1e-3
    assert contrast.negativity_peak > 0.01
    assert elapsed < 600.0


def test_acceptance_6_random_revival_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_half = worst_full = 0.0
    for _ in range(50):
        lam = rng.uniform(0.01, 0.3)
        nbar = rng.uniform(0.0, 5.0)
        cfg = ProtocolConfig(
            g=lam, nbar=nbar, t_max=2.0 * math.pi, samples_per_period=100
        )
        trace = run_protocol(cfg)
        k = int(np.argmin(np.abs(trace.times - math.pi)))
        pred = math.exp(-8.0 * lam**2 * (2.0 * nbar + 1.0))
        worst_half = max(worst_half, abs(trace.visibility[k] - pred))
        worst_full = max(worst_full, abs(trace.visibility[-1] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_half < 1e-5 and worst_full < 1e-5 and elapsed < 300.0
    _report(6, ok, f"worst |V(pi)-pred| = {worst_half:.1e}, "
                   f"worst |V(2pi)-1| = {worst_full:.1e}, {elapsed:.0f} s")
    assert worst_half < 1e-5
    assert worst_full < 1e-5
    assert elapsed < 300.0


def test_acceptance_7_spin_echo_identity():
    t0 = time.perf_counter()
    lam = 0.05
    worst_mid = worst_end = 0.0
    for n_pi in (1, 2, 4):
        cfg = ProtocolConfig(
            g=lam, protocol="spin_echo", n_pi=n_pi, samples_per_period=50
        )
        trace = run_protocol(cfg)
        t_mid = n_pi * 2.0 * math.pi
        k = int(np.argmin(np.abs(trace.times - t_mid)))
        worst_mid = max(
            worst_mid, abs(trace.visibility[k] - spin_echo_overlap(n_pi, lam))
        )
        worst_end = max(worst_end, abs(trace.visibility[-1] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_mid < 1e-6 and worst_end < 1e-6 and elapsed < 120.0
    _report(7, ok, f"worst pre-closing dev {worst_mid:.1e}, worst closure dev "
                   f"{worst_end:.1e}, {elapsed:.1f} s")
    assert worst_mid < 1e-6
    assert worst_end < 1e-6
    assert elapsed < 120.0


def test_acceptance_8_many_atom_consistency():
    t0 = time.perf_counter()
    x = np.linspace(0.0, 2.0 * math.pi, 200)
    worst_rel = 0.0
    for n_atoms in (1, 10, 100, 1000, 10000):
        for lam in (1e-3, 5e-3, 1e-2):
            p = CouplingParams(coupling=lam, nbar=0.5)
            exact = visibility_many_atom(n_atoms, p, x, method="exact")
            approx = visibility_many_atom(n_atoms, p, x, method="gaussian")
            worst_rel = max(worst_rel, float(np.max(np.abs(approx / exact - 1.0))))
    p = CouplingParams(coupling=1e-2, nbar=2.0)
    single_dev = float(
        np.max(np.abs(visibility_many_atom(1, p, x) - visibility_thermal(p, x)))
    )
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-3 and single_dev < 1e-12 and elapsed < 10.0
    _report(8, ok, f"worst exact/gaussian rel dev {worst_rel:.1e}, N=1 reduction "
                   f"dev {single_dev:.1e}, {elapsed:.2f} s")
    assert worst_rel < 1e-3
    assert single_dev < 1e-12
    assert elapsed < 10.0
