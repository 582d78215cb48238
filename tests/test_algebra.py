"""Tests for the truncated Fock-space operators and thermal-state helpers.

Thermal occupations and truncated thermal states have exact closed forms,
so the checks here are against hand-evaluated values.
"""

import math

import numpy as np
import pytest

from revivalsim.algebra import (
    DEFAULT_TAIL_BOUND,
    TruncationError,
    annihilation,
    default_dim,
    thermal_density,
    thermal_occupation,
    thermal_tail_mass,
)


# ---------------------------------------------------------------------------
# operator constructors
# ---------------------------------------------------------------------------


def test_annihilation_matrix_elements():
    a = annihilation(6)
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    # everything else zero
    mask = np.ones((6, 6), dtype=bool)
    mask[np.arange(5), np.arange(1, 6)] = False
    assert np.all(a[mask] == 0)


def test_bad_dim_rejected():
    with pytest.raises(ValueError):
        annihilation(1)
    with pytest.raises(ValueError):
        thermal_density(0.0, 0)


# ---------------------------------------------------------------------------
# thermal occupation and thermal states
# ---------------------------------------------------------------------------


def test_thermal_occupation_zero_temperature():
    assert thermal_occupation(1.0, 0.0) == 0.0


def test_thermal_occupation_log2_point():
    # hbar*omega/kT = ln 2  ->  nbar = 1
    got = thermal_occupation(math.log(2.0), 1.0, hbar=1.0, k_boltzmann=1.0)
    assert got == pytest.approx(1.0, rel=1e-14)


def test_thermal_occupation_si_reference_point():
    # omega = 2*pi/100 rad/s at 300 K sits deep in the classical regime
    from revivalsim.constants import HBAR, K_B

    omega = 2.0 * math.pi / 100.0
    got = thermal_occupation(omega, 300.0)
    x = HBAR * omega / (K_B * 300.0)
    # independent series: 1/expm1(x) = 1/x - 1/2 + O(x)
    assert got == pytest.approx(1.0 / x - 0.5, rel=1e-12)
    assert got == pytest.approx(625098574082836.62, rel=1e-15)


def test_thermal_occupation_classical_limit_within_one_percent():
    # at kT/(hbar*omega) = 100 the classical estimate is ~0.5% high
    got = thermal_occupation(1.0, 100.0, hbar=1.0, k_boltzmann=1.0)
    assert abs(got / 100.0 - 1.0) < 0.01


def test_thermal_occupation_extreme_cold_underflows_to_zero():
    assert thermal_occupation(1.0, 1e-12, hbar=1.0, k_boltzmann=1.0) == 0.0


def test_thermal_occupation_domain_errors():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 300.0)
    with pytest.raises(ValueError):
        thermal_occupation(1.0, -1.0)


def test_thermal_density_ground_state():
    rho = thermal_density(0.0, 10)
    target = np.zeros((10, 10))
    target[0, 0] = 1.0
    assert np.allclose(rho, target)


def test_thermal_density_geometric_probabilities():
    rho = thermal_density(1.0, 60)
    assert rho[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert rho[1, 1] == pytest.approx(0.25, rel=1e-12)


def test_thermal_density_mean_occupation():
    rho = thermal_density(2.0, 60)
    mean_n = np.trace(rho @ np.diag(np.arange(60.0))).real
    assert mean_n == pytest.approx(2.0, abs=1e-6)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.diag(rho).real) >= 0.0


def test_thermal_density_tail_guard():
    with pytest.raises(TruncationError) as err:
        thermal_density(5.0, 10)
    assert err.value.tail_mass > DEFAULT_TAIL_BOUND


def test_thermal_tail_mass_formula():
    assert thermal_tail_mass(1.0, 20) == pytest.approx(0.5**20, rel=1e-12)
    assert thermal_tail_mass(0.0, 5) == 0.0


# ---------------------------------------------------------------------------
# dimension selection
# ---------------------------------------------------------------------------


def test_default_dim_floor_and_monotonicity():
    assert default_dim(0.0, 0.0) >= 2
    assert default_dim(2.0, 0.5) >= default_dim(1.0, 0.5)
    assert default_dim(1.0, 1.0) >= default_dim(1.0, 0.2)


def test_default_dim_keeps_thermal_tail_below_bound():
    for nbar in (0.5, 2.0, 5.0):
        dim = default_dim(nbar, 0.0)
        assert thermal_tail_mass(nbar, dim) < DEFAULT_TAIL_BOUND

