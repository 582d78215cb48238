"""Feasibility calculator for gravitational collapse-and-revival searches.

Closed-form estimates for an atom interferometer (splitting ell, hold time
tau) gravitationally coupled to mechanical spheres of density rho.  The
four-sphere arrangement has the optimal sphere radius R_s = ell/sqrt(8)
baked into the visibility-contrast formulas, which makes the headline
numbers independent of the order-unity geometric factor kappa:

    K^2      = G^2 m^2 rho k_B T / (ell omega^4 hbar^2)
    dV       = (pi/(3 sqrt 2)) G^2 m^2 rho (8 + nbar) / (ell omega^3 hbar)
    dV_b     = 2^(1/4) G m sqrt(rho (8 + nbar) / (3 ell omega^3 hbar))

with omega = 2 pi / tau; at k_B T >> hbar omega these tend to
(pi/(3 sqrt 2)) K^2 and (2^(1/4)/sqrt 3) K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import thermal_occupation
from .config import ConfigError, DomainError
from .constants import CESIUM_MASS, G_NEWTON, HBAR, K_B

GEOMETRIES = ("single_sphere", "four_sphere", "custom")

LOW_TEMPERATURE_RATIO = 10.0  # below k_B T/(hbar omega) = 10 the (8+nbar)
                              # contrast forms lose their footing


class GeometryError(DomainError):
    """Inconsistent or unphysical source-mass geometry."""


def _quotient(numerator: float, denominator: float) -> float:
    """numerator / denominator, where the denominator is a product of
    positive inputs: one that underflowed to 0 puts the quotient beyond the
    float range."""
    if denominator == 0.0:
        raise OverflowError("a denominator underflowed to 0")
    return numerator / denominator


@dataclass(frozen=True)
class PhysicalConfig:
    """Laboratory parameters, SI units.

    atom_mass        interferometer test-particle mass (kg)
    density          source sphere density (kg/m^3)
    splitting        interferometer arm separation ell (m)
    distance         single_sphere: axial offset L with R = sqrt(L^2+(ell/2)^2)
                     custom: direct center distance R
    sphere_radius    source sphere radius (m)
    kappa            order-unity geometric prefactor of the coupling
    hold_time        free evolution time tau (s); omega = 2 pi / tau
    temperature      oscillator temperature (K)
    oscillator_mass  explicit M (kg), positive; None derives (4/3) pi R_s^3 rho
    geometry         one of GEOMETRIES
    """

    atom_mass: float = CESIUM_MASS
    density: float = 20000.0
    splitting: float = 1e-3
    distance: float = 1e-3 / math.sqrt(2.0)
    sphere_radius: float = 0.35e-3
    kappa: float = 1.0
    hold_time: float = 100.0
    temperature: float = 300.0
    oscillator_mass: float | None = None
    geometry: str = "four_sphere"

    def __post_init__(self):
        for name in (
            "atom_mass",
            "density",
            "splitting",
            "distance",
            "sphere_radius",
            "kappa",
            "hold_time",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.oscillator_mass is not None and self.oscillator_mass <= 0:
            raise ConfigError(f"oscillator_mass must be positive, got {self.oscillator_mass}")
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}")
        if self.geometry == "four_sphere" and not self.sphere_radius < self.splitting / 2:
            raise GeometryError(
                f"four spheres of radius {self.sphere_radius} do not fit a "
                f"splitting of {self.splitting} (need R_s < ell/2)"
            )
        if self.geometry == "custom" and self.oscillator_mass is None:
            raise ConfigError("custom geometry requires an explicit oscillator_mass")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.hold_time

    def sphere_mass(self) -> float:
        if self.oscillator_mass is not None:
            return self.oscillator_mass
        return (4.0 / 3.0) * math.pi * self.sphere_radius**3 * self.density

    def center_distance(self) -> float:
        if self.geometry == "single_sphere":
            return math.hypot(self.distance, self.splitting / 2.0)
        return self.distance


@dataclass(frozen=True)
class DerivedParams:
    """Derived quantities for one laboratory configuration."""

    omega: float
    nbar: float
    thermal_ratio: float  # k_B T / (hbar omega)
    zero_point_length: float
    coupling: float       # g (1/s)
    coupling_ratio: float  # lambda = g/omega
    k_squared: float
    delta_v: float
    delta_v_boosted: float
    low_temperature_flag: bool


def coupling_g(cfg: PhysicalConfig) -> float:
    """Conditional-displacement coupling rate g.

    single_sphere/custom: g = kappa G m M ell x0 / (hbar R^3) with
    x0 = sqrt(hbar/(2 M omega)).  four_sphere: the effective coupling
    implied by the closed-form contrast, G m sqrt(pi rho/(48 sqrt2 ell
    omega hbar)).
    """
    omega = cfg.omega
    if cfg.geometry == "four_sphere":
        return (
            G_NEWTON
            * cfg.atom_mass
            * math.sqrt(_quotient(math.pi * cfg.density,
                                  48.0 * math.sqrt(2.0) * cfg.splitting * omega * HBAR))
        )
    mass = cfg.sphere_mass()
    x0 = math.sqrt(_quotient(HBAR, 2.0 * mass * omega))
    r = cfg.center_distance()
    return _quotient(
        cfg.kappa * G_NEWTON * cfg.atom_mass * mass * cfg.splitting * x0, HBAR * r**3
    )


def k_squared(cfg: PhysicalConfig) -> float:
    """Squared thermal signal scale G^2 m^2 rho k_B T/(ell omega^4 hbar^2)."""
    omega = cfg.omega
    return _quotient(
        G_NEWTON**2 * cfg.atom_mass**2 * cfg.density * K_B * cfg.temperature,
        cfg.splitting * omega**4 * HBAR**2,
    )


def _contrasts(cfg: PhysicalConfig, omega: float, nbar: float) -> tuple[float, float]:
    """Full-period visibility deficit of the unboosted protocol, and the
    half-to-full-period contrast with an optimally boosted first stage, at
    oscillator frequency omega (cfg's own hold time is not read) and thermal
    occupation nbar."""
    delta_v = _quotient(
        math.pi * G_NEWTON**2 * cfg.atom_mass**2 * cfg.density * (8.0 + nbar),
        3.0 * math.sqrt(2.0) * cfg.splitting * omega**3 * HBAR,
    )
    delta_v_boosted = (
        2.0 ** 0.25
        * G_NEWTON
        * cfg.atom_mass
        * math.sqrt(_quotient(cfg.density * (8.0 + nbar), 3.0 * cfg.splitting * omega**3 * HBAR))
    )
    if not (delta_v > 0.0 and delta_v_boosted > 0.0):  # 0 has no log10 and no atom count
        raise OverflowError("a contrast underflowed to 0")
    return delta_v, delta_v_boosted


def atoms_required(visibility_contrast: float, sigma_level: float) -> float:
    """Projection-noise atom number to resolve a visibility difference:
    N = (sigma_level / dV)^2."""
    if visibility_contrast <= 0:
        raise ValueError(
            f"visibility contrast must be positive, got {visibility_contrast}"
        )
    if sigma_level <= 0:
        raise ValueError(f"sigma_level must be positive, got {sigma_level}")
    return (sigma_level / visibility_contrast) ** 2


def derive(cfg: PhysicalConfig) -> DerivedParams:
    """All derived quantities for a configuration."""
    omega = cfg.omega
    nbar = thermal_occupation(omega, cfg.temperature)
    ratio = _quotient(K_B * cfg.temperature, HBAR * omega)
    g = coupling_g(cfg)
    x0 = math.sqrt(_quotient(HBAR, 2.0 * cfg.sphere_mass() * omega))
    delta_v, delta_v_boosted = _contrasts(cfg, omega, nbar)
    return DerivedParams(
        omega=omega,
        nbar=nbar,
        thermal_ratio=ratio,
        zero_point_length=x0,
        coupling=g,
        coupling_ratio=g / omega,
        k_squared=k_squared(cfg),
        delta_v=delta_v,
        delta_v_boosted=delta_v_boosted,
        low_temperature_flag=ratio < LOW_TEMPERATURE_RATIO,
    )


def sweep_grid(
    cfg: PhysicalConfig,
    tau_range: tuple[float, float, int],
    temp_range: tuple[float, float, int],
) -> list[dict]:
    """Log-spaced (tau, T) sweep of the contrast estimates.

    Rows are emitted tau-major, then temperature; each carries log10 of
    both contrasts for direct contour plotting.
    """
    tau_lo, tau_hi, n_tau = tau_range
    t_lo, t_hi, n_temp = temp_range
    if tau_lo <= 0 or t_lo <= 0 or tau_hi < tau_lo or t_hi < t_lo:
        raise ValueError("sweep ranges must be positive and ordered")
    if n_tau < 1 or n_temp < 1:
        raise ValueError("sweep grids need at least one point per axis")

    def _log_grid(lo: float, hi: float, n: int) -> list[float]:
        if n == 1:
            return [lo]
        step = (math.log10(hi) - math.log10(lo)) / (n - 1)
        return [10.0 ** (math.log10(lo) + k * step) for k in range(n)]

    rows = []
    temps = _log_grid(t_lo, t_hi, int(n_temp))
    for tau in _log_grid(tau_lo, tau_hi, int(n_tau)):
        omega = 2.0 * math.pi / tau  # PhysicalConfig.omega at hold time tau
        for temp in temps:
            dv, dvb = _contrasts(cfg, omega, thermal_occupation(omega, temp))
            rows.append(
                {
                    "tau_s": tau,
                    "temperature_K": temp,
                    "log10_delta_v": math.log10(dv),
                    "log10_delta_v_boosted": math.log10(dvb),
                }
            )
    return rows
