"""Tests for the feasibility calculator.

The frozen reference numbers below were computed by evaluating the closed
forms by hand with CODATA constants (G = 6.67430e-11, hbar =
1.054571817e-34, k_B = 1.380649e-23, m_Cs = 133 * 1.66053906660e-27) at
the reference configuration: rho = 20 g/cm^3, ell = 1 mm, T = 300 K,
R_s = 0.35 mm, four-sphere arrangement.
"""

import dataclasses
import math

import pytest

from revivalsim.constants import CESIUM_MASS, G_NEWTON, HBAR, K_B
from revivalsim.design import (
    DerivedParams,
    GeometryError,
    PhysicalConfig,
    atoms_required,
    coupling_g,
    derive,
    k_squared,
    sweep_grid,
)

REFERENCE = PhysicalConfig()  # tau = 100 s, T = 300 K, four-sphere


# ---------------------------------------------------------------------------
# frozen reference values
# ---------------------------------------------------------------------------


def test_k_squared_reference_points():
    assert k_squared(PhysicalConfig(hold_time=10.0)) == pytest.approx(
        1.0384262601011326e-14, rel=1e-12
    )
    # K^2 scales as tau^4 through omega^-4
    assert k_squared(REFERENCE) == pytest.approx(1.0384262601011322e-10, rel=1e-12)


def test_contrast_reference_values():
    d = derive(REFERENCE)
    assert d.delta_v == pytest.approx(7.689343855898295e-11, rel=1e-12)
    assert d.delta_v_boosted == pytest.approx(6.9965622524194218e-06, rel=1e-12)


def test_boosted_contrast_squared_over_plain_is_two_over_pi():
    # dV_b^2/dV = 2/pi exactly, independent of every laboratory parameter
    for cfg in (
        REFERENCE,
        PhysicalConfig(hold_time=10.0),
        PhysicalConfig(temperature=4.0),
        PhysicalConfig(atom_mass=87 * 1.66053906660e-27, density=19300.0),
    ):
        d = derive(cfg)
        ratio = d.delta_v_boosted ** 2 / d.delta_v
        assert ratio == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_atoms_required_reference():
    n = atoms_required(derive(REFERENCE).delta_v_boosted, 5.0)
    assert n == pytest.approx(510705580421.52692, rel=1e-12)
    assert 4.5e11 < n < 5.7e11


def test_derive_bundle_consistency():
    d = derive(REFERENCE)
    assert isinstance(d, DerivedParams)
    assert d.omega == pytest.approx(2.0 * math.pi / 100.0, rel=1e-15)
    assert d.nbar == pytest.approx(625098574082836.62, rel=1e-12)
    assert d.thermal_ratio == pytest.approx(d.nbar, rel=1e-12)  # deep classical
    assert d.coupling_ratio == pytest.approx(8.7681989570905415e-14, rel=1e-12)
    assert d.k_squared == k_squared(REFERENCE)
    assert not d.low_temperature_flag


def test_zero_point_length_value():
    d = derive(REFERENCE)
    m = REFERENCE.sphere_mass()
    assert m == pytest.approx(3.5918876006043298e-06, rel=1e-12)
    assert d.zero_point_length == pytest.approx(
        math.sqrt(HBAR / (2.0 * m * d.omega)), rel=1e-15
    )
    assert d.zero_point_length == pytest.approx(1.5285223008576574e-14, rel=1e-12)


# ---------------------------------------------------------------------------
# high-temperature limits
# ---------------------------------------------------------------------------


def test_contrasts_reach_classical_limits():
    # at kT >> hbar*omega: dV -> (pi/(3 sqrt2)) K^2, dV_b -> (2^(1/4)/sqrt3) K
    d = derive(REFERENCE)
    assert d.delta_v / (math.pi / (3.0 * math.sqrt(2.0)) * d.k_squared) == (
        pytest.approx(1.0, rel=1e-10)
    )
    assert d.delta_v_boosted / (
        2.0**0.25 / math.sqrt(3.0) * math.sqrt(d.k_squared)
    ) == pytest.approx(1.0, rel=1e-10)


def test_low_temperature_flag_trips():
    # 2 pi/tau = 0.0628 rad/s: at T ~ 1e-14 K the ratio drops below 10
    cold = PhysicalConfig(temperature=4e-15)
    assert derive(cold).low_temperature_flag
    assert not derive(PhysicalConfig(temperature=1.0)).low_temperature_flag


# ---------------------------------------------------------------------------
# coupling geometry
# ---------------------------------------------------------------------------


def test_single_sphere_coupling_value():
    cfg = PhysicalConfig(hold_time=100.0, geometry="single_sphere")
    assert cfg.center_distance() == pytest.approx(
        math.hypot(1e-3 / math.sqrt(2.0), 0.5e-3), rel=1e-15
    )
    assert coupling_g(cfg) / cfg.omega == pytest.approx(
        1.8804121785061657e-13, rel=1e-12
    )


def test_single_sphere_coupling_formula():
    cfg = PhysicalConfig(geometry="single_sphere", kappa=1.3)
    m_sphere = cfg.sphere_mass()
    x0 = math.sqrt(HBAR / (2.0 * m_sphere * cfg.omega))
    expected = (
        1.3
        * G_NEWTON
        * CESIUM_MASS
        * m_sphere
        * cfg.splitting
        * x0
        / (HBAR * cfg.center_distance() ** 3)
    )
    assert coupling_g(cfg) == pytest.approx(expected, rel=1e-14)


def test_four_sphere_effective_coupling():
    d = derive(REFERENCE)
    assert d.coupling_ratio == pytest.approx(d.coupling / d.omega, rel=1e-15)
    # the effective coupling reproduces the boosted contrast exactly:
    # dV_b = lam * sqrt(32 (8 + nbar) / pi)
    chain = d.coupling_ratio * math.sqrt(32.0 * (8.0 + d.nbar) / math.pi)
    assert chain == pytest.approx(d.delta_v_boosted, rel=1e-12)


def test_custom_geometry_uses_explicit_mass():
    cfg = PhysicalConfig(
        geometry="custom", oscillator_mass=1e-6, distance=2e-3, kappa=0.9
    )
    x0 = math.sqrt(HBAR / (2.0 * 1e-6 * cfg.omega))
    expected = 0.9 * G_NEWTON * CESIUM_MASS * 1e-6 * 1e-3 * x0 / (HBAR * (2e-3) ** 3)
    assert coupling_g(cfg) == pytest.approx(expected, rel=1e-14)
    assert cfg.sphere_mass() == 1e-6


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(GeometryError):
        PhysicalConfig(geometry="torus")
    with pytest.raises(GeometryError):
        PhysicalConfig(geometry="four_sphere", sphere_radius=0.6e-3)
    with pytest.raises(GeometryError):
        PhysicalConfig(geometry="custom")  # no oscillator_mass


def test_positivity_validation():
    with pytest.raises(ValueError):
        PhysicalConfig(atom_mass=0.0)
    with pytest.raises(ValueError):
        PhysicalConfig(hold_time=-10.0)
    with pytest.raises(ValueError):
        PhysicalConfig(temperature=-1.0)


def test_atoms_required_validation():
    with pytest.raises(ValueError):
        atoms_required(0.0, 5.0)
    with pytest.raises(ValueError):
        atoms_required(1e-6, -1.0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_grid_layout_and_corners():
    rows = sweep_grid(REFERENCE, (10.0, 100.0, 3), (10.0, 300.0, 2))
    assert len(rows) == 6
    # tau-major ordering: first two rows share tau = 10
    assert rows[0]["tau_s"] == pytest.approx(10.0)
    assert rows[1]["tau_s"] == pytest.approx(10.0)
    assert rows[1]["temperature_K"] == pytest.approx(300.0)
    assert rows[-1]["tau_s"] == pytest.approx(100.0)
    assert rows[1]["log10_delta_v"] == pytest.approx(-14.114110717665413, rel=1e-12)
    assert rows[-1]["log10_delta_v_boosted"] == pytest.approx(
        -5.1551152973478063, rel=1e-12
    )


def test_sweep_single_point_grid():
    rows = sweep_grid(REFERENCE, (100.0, 100.0, 1), (300.0, 300.0, 1))
    assert len(rows) == 1
    assert rows[0]["log10_delta_v_boosted"] == pytest.approx(
        math.log10(derive(REFERENCE).delta_v_boosted), rel=1e-12
    )


def test_sweep_cells_equal_derive_at_each_point():
    # the sweep evaluates each cell without building its config; the values
    # must be those of derive() on that cell's config, bit for bit
    cfg = dataclasses.replace(REFERENCE, density=11340.0, splitting=2e-3)
    for row in sweep_grid(cfg, (1.0, 500.0, 7), (0.05, 400.0, 5)):
        point = derive(dataclasses.replace(cfg, hold_time=row["tau_s"],
                                           temperature=row["temperature_K"]))
        assert row["log10_delta_v"] == math.log10(point.delta_v)
        assert row["log10_delta_v_boosted"] == math.log10(point.delta_v_boosted)


def test_sweep_range_validation():
    with pytest.raises(ValueError):
        sweep_grid(REFERENCE, (100.0, 10.0, 3), (10.0, 300.0, 2))
    with pytest.raises(ValueError):
        sweep_grid(REFERENCE, (10.0, 100.0, 0), (10.0, 300.0, 2))
    with pytest.raises(ValueError):
        sweep_grid(REFERENCE, (-1.0, 100.0, 3), (10.0, 300.0, 2))
