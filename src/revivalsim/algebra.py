"""Bose-Einstein occupation of a thermal oscillator.

`design`, `cli` and the benchmark turn a temperature into the occupation
nbar here; the Fock dim rule lives in `protocol`, and the truncated thermal
state it bounds in `lindblad`.  This module imports no numpy.
"""

from __future__ import annotations

import math

from .constants import HBAR, K_B


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
    if k_boltzmann * temperature == 0:  # T = 0, or k_B T below the float range
        return 0.0
    x = hbar * omega / (k_boltzmann * temperature)
    if x == 0:
        raise OverflowError(f"nbar is beyond the float range at omega={omega}")
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return 0.0
