"""Bose-Einstein occupation of a thermal oscillator.

`design`, `cli` and the benchmark turn a temperature into the occupation
nbar here; the truncated thermal state and the Fock dim rule that bounds it
live in `lindblad`.  This module imports no numpy.
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
    if temperature == 0:
        return 0.0
    x = hbar * omega / (k_boltzmann * temperature)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return 0.0
