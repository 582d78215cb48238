"""Reference constructions that the tests compare the package against.

The engine never builds the joint operators or the joint initial state: it
works on oscillator blocks.  These helpers build them the textbook way, with
np.kron, so the tests can check the block forms against them.
`rotating_rhs` is the complex block generator the engine's real parity form
is checked against, and `separable_blocks` propagates a separable channel's
blocks exactly, with `expm` of generators built from its joint operators.
The closed forms here are the approximations the package's own formulas are
checked against.
"""

import math

import numpy as np
from scipy.linalg import expm

from revivalsim.analytic import visibility_thermal
from revivalsim.witness import PLUS_STATE, split_blocks

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def annihilation(dim):
    """Truncated annihilation operator a."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def thermal_density(nbar, dim):
    """Truncated thermal density matrix, p_n ~ (nbar/(nbar+1))^n, renormalized."""
    probs = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return np.diag(probs / probs.sum()).astype(complex)


def rotating_rhs(cfg, dim, coupling, z_right):
    """Right-hand side for one flat complex protocol block in the frame
    rotating with omega ad a: rho00 with z_right = +1 or rho01 with
    z_right = -1, the sigma_z eigenvalue of the block's column level (its row
    level is +1).

    Each term adds weights * y shifted by a row (d), a column (1) or both
    (d + 1); a zero weight on the last column keeps a shift from wrapping
    into the next row.
    """
    n_flat = dim * dim
    root = np.append(np.sqrt(np.arange(1.0, dim)), 0.0)  # <i|a|i+1>, 0 at the edge
    level = np.arange(dim, dtype=float)
    down = cfg.gamma_m * (cfg.nbar + 1.0)  # rate of the a jump
    up = cfg.gamma_m * cfg.nbar            # rate of the ad jump
    # -{L^dag L, rho}/2 of both (truncated a ad = diag(root^2)); the sigma_z
    # jump adds gamma_a (z_right - 1): nothing on rho00, -2 gamma_a on rho01
    decay = (-0.5 * (down * (level[:, None] + level) + up * (root[:, None] ** 2 + root**2))
             + cfg.gamma_a * (z_right - 1.0)).astype(complex).ravel()

    def flat(weights, shift):
        return np.broadcast_to(weights, (dim, dim)).astype(complex).ravel()[: n_flat - shift]

    # (shift, y read at the lower flat index, weights, phase slot)
    terms = []
    if coupling:
        rows = flat(coupling * root[:, None], dim)
        cols = flat(coupling * z_right * root, 1)
        terms += [(dim, False, rows, 0),  # -i g e^{-i omega t} a rho
                  (dim, True, rows, 1),   # -i g e^{+i omega t} ad rho
                  (1, True, cols, 2),     # +i z_right g e^{-i omega t} rho a
                  (1, False, cols, 3)]    # +i z_right g e^{+i omega t} rho ad
    if down:
        terms.append((dim + 1, False, flat(down * np.outer(root, root), dim + 1), None))
    if up:
        terms.append((dim + 1, True, flat(up * np.outer(root, root), dim + 1), None))

    def rhs(t, y):
        out = y * decay
        turn = complex(math.cos(cfg.omega * t), -math.sin(cfg.omega * t))
        phases = (-1j * turn, -1j * turn.conjugate(), 1j * turn, 1j * turn.conjugate())
        for shift, from_lower, weights, slot in terms:
            size = n_flat - shift
            term = (y[:size] if from_lower else y[shift:]) * weights
            if slot is not None:
                term *= phases[slot]
            if from_lower:
                out[shift:] += term
            else:
                out[:size] += term
        return out

    return rhs


def separable_generators(spec):
    """The d^2 x d^2 generators of a separable channel's blocks [rho00,
    rho11, rho01], acting on each block flattened row by row.

    The joint operators are block diagonal in the qubit, so on qubit level s
    (sigma_z eigenvalue z_s = +1, -1) the Hamiltonian omega_0 sigma_z (x) 1 +
    1 (x) H_B is H_s = z_s omega_0 + H_B and the jumps sigma_z (x) B,
    sigma_z (x) 1 and 1 (x) C are z_s B, z_s 1 and C.  The Lindblad equation
    then gives block (s, s') as

        -i (H_s rho - rho H_s') + sum_j rate_j (L_js rho L_js'^dag
            - (L_js^dag L_js rho + rho L_js'^dag L_js') / 2),

    and A rho B flattens to kron(A, B^T) rho.
    """
    eye = np.eye(spec.dim)

    def level(z):
        jumps = [(z * spec.b_operator, spec.gamma), (z * eye, spec.qubit_dephasing)]
        jumps += [(np.asarray(op, dtype=complex), rate) for op, rate in spec.oscillator_lindblads]
        return z * spec.qubit_splitting * eye + spec.oscillator_hamiltonian, jumps

    generators = []
    for z_left, z_right in ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
        (h_left, left), (h_right, right) = level(z_left), level(z_right)
        gen = -1j * (np.kron(h_left, eye) - np.kron(eye, h_right.T))
        for (op_left, rate), (op_right, _) in zip(left, right):
            gen += rate * (np.kron(op_left, op_right.conj())
                           - 0.5 * np.kron(op_left.conj().T @ op_left, eye)
                           - 0.5 * np.kron(eye, (op_right.conj().T @ op_right).T))
        generators.append(gen)
    return generators


def separable_blocks(spec, rho0, times):
    """The blocks [rho00, rho11, rho01] of the joint state rho0 evolved by the
    separable channel, shape (len(times), 3, d, d), on a uniform grid from
    times[0] = 0: each block is stepped by expm of its generator times the
    grid's spacing."""
    d = spec.dim
    out = np.empty((len(times), 3, d, d), dtype=complex)
    out[0] = split_blocks(rho0)
    for k, gen in enumerate(separable_generators(spec)):
        step = expm(gen * (times[1] - times[0]))
        for n in range(1, len(times)):
            out[n, k] = (step @ out[n - 1, k].ravel()).reshape(d, d)
    return out


def initial_state(cfg, dim=None):
    """|+><+| (x) thermal(nbar) on the joint space."""
    if dim is None:
        dim = cfg.resolved_dim()
    return np.kron(PLUS_STATE, thermal_density(cfg.nbar, dim))


def top_levels_mass(nbar, alpha, dim, chunk):
    """p_{dim-2} + p_{dim-1} of D(alpha) thermal(nbar) D(alpha)^dag for each
    alpha, by the recurrence of `protocol._populations` on chunk alphas at a
    time, each level's arithmetic allocating its results: the loop whose
    levels the engine's `_top_levels_mass` takes from `protocol._populations`,
    which updates each fresh level in place."""
    out = np.empty(len(alpha))
    for lo in range(0, len(alpha), chunk):
        mean = np.abs(alpha[lo:lo + chunk]) ** 2
        r, s = nbar / (nbar + 1.0), mean / (nbar + 1.0) ** 2
        prev, p = 0.0, np.exp(-mean / (nbar + 1.0)) / (nbar + 1.0)
        for n in range(dim - 1):
            prev, p = p, ((s + r * (2 * n + 1)) * p - r * r * n * prev) / (n + 1)
        out[lo:lo + chunk] = prev + p
    return out


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
