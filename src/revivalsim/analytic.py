"""Closed-form visibility curves for the conditional-displacement protocols.

All formulas but `visibility_exact`, which takes the engine's own rates and
times, are expressed in the dimensionless phase omega*t and the
dimensionless coupling lambda = g/omega.  Visibilities are normalized so
V(0) = 1; the raw qubit coherence is V/2.  Noise-free formulas revive
exactly at omega*t = 2*pi*k.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

ArrayLike = "float | np.ndarray"

# Times per pass of `visibility_exact`: its temporaries are about a dozen
# complex arrays of them, 1.6 MB in all, however many times it is given
CHUNK = 8192


@dataclass(frozen=True)
class CouplingParams:
    """Dimensionless parameters of a visibility curve.

    coupling        lambda = g/omega (sign irrelevant: only lambda^2 enters)
    boost_coupling  lambda' = g'/omega for the boosted protocol stage
    nbar            thermal occupation of the oscillator
    q_factor        omega/gamma_m mechanical quality factor (inf = undamped)
    qubit_decay     coherence decay rate over omega (damped formula only);
                    the engine's sqrt(gamma_a) sigma_z jump decays coherence
                    at 2 gamma_a, so it matches qubit_decay = 2 gamma_a/omega
    """

    coupling: float
    boost_coupling: float = 0.0
    nbar: float = 0.0
    q_factor: float = math.inf
    qubit_decay: float = 0.0

    def __post_init__(self):
        for name in ("coupling", "boost_coupling", "nbar", "qubit_decay"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")
        if self.qubit_decay < 0:
            raise ValueError(f"qubit_decay must be >= 0, got {self.qubit_decay}")
        if not self.q_factor > 0:
            raise ValueError(f"q_factor must be positive, got {self.q_factor}")


def visibility_ground(coupling: float, omega_t) -> ArrayLike:
    """Ground-state contrast exp[-8 lam^2 sin^2(omega t/2)]: the thermal
    contrast at nbar = 0."""
    return visibility_thermal(CouplingParams(coupling), omega_t)


def visibility_thermal(params: CouplingParams, omega_t) -> ArrayLike:
    """Thermal contrast exp[-8 lam^2 (2 nbar + 1) sin^2(omega t/2)]."""
    omega_t = np.asarray(omega_t, dtype=float)
    expo = 8.0 * params.coupling**2 * (2.0 * params.nbar + 1.0)
    out = np.exp(-expo * np.sin(omega_t / 2.0) ** 2)
    return out if out.ndim else float(out)


def visibility_damped(params: CouplingParams, omega_t) -> ArrayLike:
    """Visibility with mechanical damping (Q = omega/gamma_m) and qubit
    dephasing, to leading order in 1/Q:

        V = exp[-qubit_decay omega t] * exp[-8 lam^2 (2 nbar + 1) f(t)]
        f = (1/4)/(1 + 1/(4Q^2)) * (2 - 2 cos(x) e^{-x/2Q} + x/Q
                                      - (2/Q) sin(x) e^{-x/2Q}),  x = omega t

    qubit_decay is the coherence decay rate over omega.  The engine's
    sqrt(gamma_a) sigma_z jump decays coherence at 2 gamma_a, so it matches
    qubit_decay = 2 gamma_a/omega, not gamma_a/omega.

    The 1/Q part of f is (x cos x + x - 2 sin x)/(4Q), the first-order term
    of the exact damped visibility, so the expansion is off by O(1/Q^2).

    Reduces to `visibility_thermal` as 1/Q -> 0, qubit_decay -> 0.
    Half-period contrast is exp[-pi qubit_decay] exp[-8 lam^2 (2 nbar + 1)]
    up to O(1/Q^2).
    """
    q = params.q_factor
    if q < 10:
        warnings.warn(
            f"q_factor={q} is below 10; the O(1/Q) expansion is unreliable",
            stacklevel=2,
        )
    omega_t = np.asarray(omega_t, dtype=float)
    if np.any(omega_t / q > 1.0):
        warnings.warn(
            "gamma_m*t exceeds 1 somewhere on the requested grid; the "
            "leading-order damping expansion degrades there",
            stacklevel=2,
        )
    inv_q = 1.0 / q
    x = omega_t
    env = np.exp(-0.5 * x * inv_q)
    f = (0.25 / (1.0 + 0.25 * inv_q**2)) * (
        2.0 - 2.0 * np.cos(x) * env + x * inv_q - 2.0 * inv_q * np.sin(x) * env
    )
    expo = 8.0 * params.coupling**2 * (2.0 * params.nbar + 1.0)
    out = np.exp(-expo * f) * np.exp(-params.qubit_decay * x)
    return out if out.ndim else float(out)


def visibility_exact(omega: float, gamma_m: float, gamma_a: float, nbar: float,
                     segments, times) -> np.ndarray:
    """Exact visibility of the `lindblad` engine's model at the given times.

    The oscillator (frequency omega, damping gamma_m into a bath at nbar)
    starts thermal(nbar) and the qubit is dephased by a sigma_z jump at rate
    gamma_a; segments are the protocol's (duration, coupling, flip_after)
    steps, each flip a sigma_x echo gate.  This is the unexpanded form that
    `visibility_damped` expands to O(1/Q).

    Tr rho01(t) = Tr[rho01(0) O(0)] with O(s) = c e^{u ad} e^{v a}, O(t) = 1,
    and v = -conj(u) throughout.  Walking back from t, the time to go
    sigma obeys du/dsigma = kappa u - 2i g with kappa = i omega - gamma_m/2,
    which is closed form on each constant-coupling segment, and each flip
    maps u -> -u.  Then

        ln V = int_0^t [2 g Im u - gamma_m nbar |u|^2] dsigma
               - 2 gamma_a t - nbar |u(t)|^2

    (Bose, Jacobs & Knight, PRA 59, 3204 (1999)).  The samples walk back
    `CHUNK` at a time, each chunk's together: a segment a sample has not
    reached has zero length for it.  A value does not depend on which times
    come with it.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)
    kappa = 1j * omega - 0.5 * gamma_m
    for lo in range(0, times.size, CHUNK):
        t = times.ravel()[lo:lo + CHUNK]
        u = np.zeros(t.shape, dtype=complex)
        log_v = -2.0 * gamma_a * t
        end = sum(duration for duration, _, _ in segments)
        for duration, coupling, flip in reversed(segments):
            end -= duration
            if flip:
                u = -u
            sigma = np.clip(t - end, 0.0, duration)
            # u(sigma) = b + w e^{kappa sigma} from its value w + b where the walk enters
            b = 2j * coupling / kappa
            w = u - b
            ramp = np.expm1(kappa * sigma) / kappa  # int_0^sigma e^{kappa s} ds
            # int_0^sigma e^{-gamma_m s} ds, the integral of |e^{kappa s}|^2
            fade = -np.expm1(-gamma_m * sigma) / gamma_m if gamma_m else sigma
            int_u = b * sigma + w * ramp
            int_abs2 = (abs(b) ** 2 * sigma + 2.0 * (np.conj(b) * w * ramp).real
                        + np.abs(w) ** 2 * fade)
            log_v += 2.0 * coupling * int_u.imag - gamma_m * nbar * int_abs2
            # np.multiply, not `w * np.exp(...)`: numpy reuses a temporary of
            # 256 kB or more in place with the operands swapped, and its
            # complex product is not bitwise commutative, so a time's value
            # would depend on how many times come with it
            u = b + np.multiply(w, np.exp(kappa * sigma))
        out[lo:lo + CHUNK] = np.exp(log_v - nbar * np.abs(u) ** 2)
    return out.reshape(times.shape)


def visibility_boosted(params: CouplingParams, omega_t) -> ArrayLike:
    """Two-stage boosted protocol (noise-free): coupling lam + lam' for the
    first half period, lam afterwards.

        omega t <= pi:  exp[-8 (2nbar+1) (lam+lam')^2 sin^2(omega t/2)]
        omega t >  pi:  exp[-8 (2nbar+1) (lam'^2 + (2 lam lam' + lam^2)
                                                   sin^2(omega t/2))]

    Continuous at omega t = pi; the full-period value exp[-8(2nbar+1)lam'^2]
    is the partially-suppressed revival carrying the lam signal.
    """
    omega_t = np.asarray(omega_t, dtype=float)
    lam = params.coupling
    lamp = params.boost_coupling
    pref = 8.0 * (2.0 * params.nbar + 1.0)
    s2 = np.sin(omega_t / 2.0) ** 2
    first = np.exp(-pref * (lam + lamp) ** 2 * s2)
    second = np.exp(-pref * (lamp**2 + (2.0 * lam * lamp + lam**2) * s2))
    out = np.where(omega_t <= math.pi, first, second)
    return out if out.ndim else float(out)


def visibility_many_atom(n_atoms: int, params: CouplingParams, omega_t) -> ArrayLike:
    """Per-atom visibility of N uncoupled qubits sharing the oscillator.

    Atom-atom phase noise multiplies the single-atom curve by
    cos^(N-1)(2*beta) with beta = lam^2 * omega * t, well approximated by
    exp(-2 N beta^2).  Valid for |2*beta| < pi/4.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    omega_t = np.asarray(omega_t, dtype=float)
    beta = params.coupling**2 * omega_t
    if np.any(np.abs(2.0 * beta) >= math.pi / 4.0):
        raise ValueError(
            f"|2*beta| = |2*lam^2*omega*t| reaches {np.max(np.abs(2 * beta)):.4g} "
            ">= pi/4; the collective phase-noise expansion is invalid"
        )
    out = np.cos(2.0 * beta) ** (n_atoms - 1) * visibility_thermal(params, omega_t)
    return out if out.ndim else float(out)


def spin_echo_overlap(n_pi, coupling: float) -> ArrayLike:
    """Branch overlap after n_pi echo iterations (pre-closing), n_pi an int
    or an int array:

        exp[-32 n_pi^2 lam^2]

    Each iteration (half period, flip, half period, flip) grows the
    conditional displacement by 4*lam, so n_pi iterations separate the
    branches by 8*n_pi*lam in phase space.
    """
    n_pi = np.asarray(n_pi, dtype=float)  # exact below 2^53, where n_pi^2 rounds once
    if np.any(n_pi < 1):
        raise ValueError(f"n_pi must be >= 1, got {np.min(n_pi):g}")
    out = np.exp(-32.0 * n_pi**2 * coupling**2)
    return out if out.ndim else float(out)
