"""Thermal occupations, truncated thermal states and the Fock dim rule.

A thermal state is truncated to ``dim`` levels |0>, ..., |dim-1>; states
near the truncation edge are the caller's responsibility (see `default_dim`
and the tail diagnostics).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import HBAR, K_B

DEFAULT_TAIL_BOUND = 1e-8

# Largest Fock dim a run may use.  One (2, d, d) complex protocol state takes
# 32 d^2 bytes (8.4 MB at 512) and the integrator holds about 16 of them; a
# run that keeps its states adds a (2d, 2d) joint state per sample (the
# witness integrates (3, d, d) blocks and always keeps them, so `verify`
# also bounds samples x dim^2 by `cli.MAX_STATE_VALUES`).  So a dim far
# beyond the supported envelope (129 at lambda = 0.3, nbar = 5; 268 at
# lambda = 0.3, nbar = 12) asks for gigabytes or more and is refused before
# anything is built.
MAX_DIM = 512


class TruncationError(RuntimeError):
    """Fock-space truncation too small for the requested state/evolution."""

    def __init__(self, message: str, tail_mass: float = float("nan")):
        super().__init__(message)
        self.tail_mass = tail_mass


def thermal_occupation(
    omega: float,
    temperature: float,
    *,
    hbar: float = HBAR,
    k_boltzmann: float = K_B,
) -> float:
    """Bose-Einstein occupation nbar = 1/(exp(hbar*omega/kT) - 1).

    Defaults to SI constants; pass hbar=1, k_boltzmann=1 for natural units.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        return 0.0
    x = hbar * omega / (k_boltzmann * temperature)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return 0.0


def thermal_tail_mass(nbar: float, dim: int) -> float:
    """Probability mass of an untruncated thermal state at levels >= dim."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if nbar == 0:
        return 0.0
    # sum_{n>=dim} p_n = (nbar/(nbar+1))^dim
    return math.exp(dim * math.log(nbar / (nbar + 1.0)))


def thermal_density(nbar: float, dim: int) -> np.ndarray:
    """Truncated thermal density matrix, renormalized to unit trace.

    Raises TruncationError if the untruncated state has more than
    ``DEFAULT_TAIL_BOUND`` probability mass at or above level ``dim``.
    """
    dim = int(dim)
    if dim < 2:
        raise ValueError(f"Fock dimension must be >= 2, got {dim}")
    if nbar < 0 or not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    tail = thermal_tail_mass(nbar, dim)
    if tail > DEFAULT_TAIL_BOUND:
        raise TruncationError(
            f"thermal tail mass {tail:.3e} exceeds bound {DEFAULT_TAIL_BOUND:.3e} "
            f"at dim={dim} (nbar={nbar}); increase dim",
            tail_mass=tail,
        )
    if nbar == 0:
        probs = np.zeros(dim)
        probs[0] = 1.0
    else:
        log_r = math.log(nbar / (nbar + 1.0))
        probs = np.exp(np.arange(dim) * log_r)
        probs /= probs.sum()
    return np.diag(probs).astype(complex)


def default_dim(nbar: float, max_displacement: float) -> int:
    """Fock dimension for a thermal state pushed around by displacements
    of magnitude up to ``max_displacement``.

    Uses nbar + 10*sqrt(nbar+1) + 16*|alpha|^2 + 20 as the base heuristic
    and additionally guarantees the initial thermal tail is below
    ``DEFAULT_TAIL_BOUND``.
    """
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    disp_levels = 16.0 * max_displacement**2
    base = nbar + 10.0 * math.sqrt(nbar + 1.0) + disp_levels + 20.0
    need = base
    if nbar > 0:
        # displacing the thermal tail spreads it up by ~2|alpha|sqrt(n);
        # pad generously so the revival error stays below the tail bound
        tail_dim = math.log(DEFAULT_TAIL_BOUND) / math.log(nbar / (nbar + 1.0))
        pad = 3.0 * max_displacement * math.sqrt(tail_dim)
        need = max(need, tail_dim + pad + disp_levels + 4.0)
    return max(2, math.ceil(need))
