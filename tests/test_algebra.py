"""Tests for thermal occupations, the reference thermal state and the Fock
dim rule.

Thermal occupations and truncated thermal states have exact closed forms,
so the checks here are against hand-evaluated values.  The dim rule is
`lindblad.ProtocolConfig.resolved_dim`: a default dim is the smallest d whose
displaced thermal state holds at most `DIM_TAIL_BOUND` at levels >= d - 2,
and a configured dim outside [3, MAX_DIM] is refused; any other configured
dim is judged by the run's own tail-mass and exact-visibility checks.  Its
pinned values, its cap and its protocol displacement are checked in
test_lindblad.
"""

import math

import numpy as np
import pytest

from oracles import annihilation, thermal_density
from revivalsim.algebra import thermal_occupation
from revivalsim.lindblad import DIM_TAIL_BOUND, ProtocolConfig, TruncationError, run_protocol


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
    # no configured dim below 3 runs: the run's tail check reads levels d-2, d-1
    for dim in (-1, 0, 1, 2):
        with pytest.raises(TruncationError, match=r"outside \[3, MAX_DIM"):
            ProtocolConfig(dim=dim).resolved_dim()
    # dim 10, below the old floor, holds the vacuum displaced by 0.5 and
    # meets the exact visibility
    trace = run_protocol(ProtocolConfig(g=0.25, dim=10, samples_per_period=40))
    assert trace.stats["worst_exact_error"] < 1e-9


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
    # (5/6)^28 of the thermal state lies at levels >= 28 at nbar = 5, so the
    # run refuses dim 30 by its own tail check
    cfg = ProtocolConfig(nbar=5.0, dim=30, samples_per_period=8)
    assert cfg.resolved_dim() == 30
    with pytest.raises(TruncationError, match="Fock tail mass"):
        run_protocol(cfg)


def test_thermal_tail_mass_formula():
    # the refusal, before the run, reports P(n >= 18) = 2^-18 of thermal(1) at dim 20
    with pytest.raises(TruncationError) as err:
        run_protocol(ProtocolConfig(nbar=1.0, dim=20, samples_per_period=8))
    assert f"Fock tail mass {0.5**18:.3e} at dim 20" in str(err.value)
    trace = run_protocol(ProtocolConfig(nbar=0.0, dim=11, samples_per_period=8))
    assert trace.stats["worst_exact_error"] < 1e-12


# ---------------------------------------------------------------------------
# dimension selection
# ---------------------------------------------------------------------------


def _default_dim(nbar, displacement):
    # basic protocol: max_displacement() = 2 g / omega
    return ProtocolConfig(g=displacement / 2.0, nbar=nbar).resolved_dim()


def test_default_dim_floor_and_monotonicity():
    assert _default_dim(0.0, 0.0) == 3  # the vacuum and two spare levels
    assert _default_dim(2.0, 0.5) >= _default_dim(1.0, 0.5)
    assert _default_dim(1.0, 1.0) >= _default_dim(1.0, 0.2)


def test_default_dim_keeps_thermal_tail_below_bound():
    # undisplaced, P(n >= k) = (nbar/(nbar+1))^k, and the default dim is the
    # smallest d with P(n >= d - 2) <= DIM_TAIL_BOUND
    for nbar in (0.5, 2.0, 5.0):
        dim, ratio = _default_dim(nbar, 0.0), nbar / (nbar + 1.0)
        assert ratio ** (dim - 2) <= DIM_TAIL_BOUND < ratio ** (dim - 3)
