"""Reference constructions that the tests compare the package against.

The engine never builds the joint operators or the joint initial state: it
works on oscillator blocks.  These helpers build them the textbook way, with
np.kron, so the tests can check the block forms against them.  The closed
forms here are the approximations the package's own formulas are checked
against.
"""

import math

import numpy as np

from revivalsim.analytic import visibility_thermal
from revivalsim.lindblad import PLUS_STATE

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def annihilation(dim):
    """Truncated annihilation operator a."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def thermal_density(nbar, dim):
    """Truncated thermal density matrix, p_n ~ (nbar/(nbar+1))^n, renormalized."""
    probs = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return np.diag(probs / probs.sum()).astype(complex)


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


def visibility_many_atom_gaussian(n_atoms, params, omega_t):
    """Many-atom visibility with the collective noise cos^(N-1)(2 beta)
    approximated by exp(-2 N beta^2), beta = lam^2 omega t."""
    beta = params.coupling**2 * np.asarray(omega_t, dtype=float)
    return np.exp(-2.0 * n_atoms * beta**2) * visibility_thermal(params, omega_t)
