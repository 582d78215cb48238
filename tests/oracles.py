"""Reference constructions that the tests compare the package against.

The engine never builds the joint operators or the joint initial state: it
works on oscillator blocks.  These helpers build them the textbook way, with
np.kron, so the tests can check the block forms against them.
"""

import math

import numpy as np

from revivalsim.algebra import thermal_density
from revivalsim.lindblad import PLUS_STATE

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def annihilation(dim):
    """Truncated annihilation operator a."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def initial_state(cfg, dim=None):
    """|+><+| (x) thermal(nbar) on the joint space."""
    if dim is None:
        dim = cfg.resolved_dim()
    return np.kron(PLUS_STATE, thermal_density(cfg.nbar, dim))


def boosted_swing(params):
    """Half-to-full-period visibility rise of the boosted protocol:

        exp[-8(2nbar+1) lam'^2] - exp[-8(2nbar+1) (lam+lam')^2]

    ~ 16 (2nbar+1) lam lam' exp[-8(2nbar+1) lam'^2] for small lam.
    """
    pref = 8.0 * (2.0 * params.nbar + 1.0)
    lam = params.coupling
    lamp = params.boost_coupling
    return math.exp(-pref * lamp**2) - math.exp(-pref * (lam + lamp) ** 2)


def optimal_boost_coupling(nbar):
    """lam' maximizing the boosted signal: 1/sqrt(8 (2 nbar + 1))."""
    return 1.0 / math.sqrt(8.0 * (2.0 * nbar + 1.0))
