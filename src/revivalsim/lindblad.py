"""Master-equation engine for the conditional-displacement protocols.

Joint Hilbert space is qubit (x) oscillator with the qubit factor first;
sigma_minus = |1><0| and the initial state is |+><+| (x) thermal(nbar).
The noise model is

    drho/dt = -i[H, rho] + sum_i ( L_i rho L_i^dag - {L_i^dag L_i, rho}/2 )

with jump operators sqrt(nbar*gamma_m) ad, sqrt((nbar+1)*gamma_m) a and
sqrt(gamma_a) sigma_z.  Visibility is reported normalized to V(0) = 1,
i.e. V = 2 |Tr(rho sigma_minus (x) 1)|; the raw coherence <sigma_minus>
is exported alongside.  The trace is never renormalized: its drift is a
solver diagnostic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .algebra import (
    TruncationError,
    annihilation,
    default_dim,
    thermal_density,
)

TRACE_ERROR_BOUND = 1e-7   # max tolerated |Tr rho - 1| along a trace
TAIL_MASS_BOUND = 1e-6     # max tolerated top-two-Fock-level occupation

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
PLUS_STATE = np.full((2, 2), 0.5, dtype=complex)

PROTOCOLS = ("basic", "boosted", "spin_echo")


class IntegrationError(RuntimeError):
    """Master-equation integration failed or its diagnostics exceeded bounds."""


@dataclass
class ProtocolConfig:
    """Parameters of a numerical protocol run.

    omega      oscillator frequency (rad/s, or 1 in natural units)
    g          qubit-oscillator coupling; only g^2 affects visibility
    g_prime    extra coupling during the first half period (boosted only)
    gamma_m    oscillator damping rate
    gamma_a    qubit dephasing rate
    nbar       thermal occupation of the oscillator and its bath
    dim        Fock truncation; None selects `algebra.default_dim`
    t_max      evolution time for basic/boosted; spin_echo derives its own
               duration 2*n_pi*(2*pi/omega) and ignores t_max
    n_pi       echo iterations per block (spin_echo only)
    """

    omega: float = 1.0
    g: float = 0.0
    g_prime: float = 0.0
    gamma_m: float = 0.0
    gamma_a: float = 0.0
    nbar: float = 0.0
    dim: int | None = None
    t_max: float | None = None
    dt_initial: float = 1e-3
    protocol: str = "basic"
    n_pi: int = 1
    samples_per_period: int = 200
    rtol: float = 1e-10
    atol: float = 1e-12
    tail_bound: float = 1e-8
    # the embedded 4/5 pair at rtol 1e-10 accumulates ~2e-8 of global error
    # over a full revival at the (lam=0.5, nbar=5) corner of the supported
    # envelope; the higher-order embedded pair is faster and ~20x tighter
    method: str = "DOP853"

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")
        if self.gamma_m < 0 or self.gamma_a < 0:
            raise ValueError("damping rates must be >= 0")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}"
            )
        if self.protocol == "spin_echo" and self.n_pi < 1:
            raise ValueError(f"n_pi must be >= 1, got {self.n_pi}")
        if self.dt_initial <= 0:
            raise ValueError("dt_initial must be positive")
        if self.samples_per_period < 4:
            raise ValueError("samples_per_period must be >= 4")

    def max_displacement(self) -> float:
        """Largest conditional displacement the protocol can reach."""
        lam = abs(self.g) / self.omega
        lamp = abs(self.g_prime) / self.omega
        if self.protocol == "boosted":
            return 2.0 * (lam + lamp)
        if self.protocol == "spin_echo":
            return 4.0 * self.n_pi * lam
        return 2.0 * lam

    def resolved_dim(self) -> int:
        dim = self.dim
        if dim is None:
            dim = default_dim(
                self.nbar, self.max_displacement(), tail_bound=self.tail_bound
            )
        dim = int(dim)
        lam = abs(self.g) / self.omega
        lamp = abs(self.g_prime) / self.omega
        floor = 16.0 * (lam + lamp) ** 2 + self.nbar + 10.0 * math.sqrt(self.nbar + 1)
        if dim <= floor:
            raise TruncationError(
                f"dim={dim} is below the safe floor {floor:.1f} for "
                f"lam={lam:.3g}, lam'={lamp:.3g}, nbar={self.nbar:.3g}"
            )
        return dim

    def resolved_t_max(self) -> float:
        period = 2.0 * math.pi / self.omega
        if self.protocol == "spin_echo":
            return 2.0 * self.n_pi * period
        t_max = 2.0 * period if self.t_max is None else float(self.t_max)
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        if self.protocol == "boosted" and t_max <= 0.5 * period:
            raise ValueError(
                "boosted protocol needs t_max beyond the first half period"
            )
        return t_max


@dataclass
class VisibilityTrace:
    """Sampled visibility curve with solver diagnostics.

    sigma_minus holds the raw coherence <sigma_minus>(t); samples falling
    on a gate time report the pre-gate value (the modulus is continuous
    across gates).  tail_mass is the occupation of the top two Fock levels.
    """

    times: np.ndarray
    visibility: np.ndarray
    sigma_minus: np.ndarray
    trace_error: np.ndarray
    tail_mass: np.ndarray
    config: dict = field(default_factory=dict)
    states: np.ndarray | None = None


def build_hamiltonian(cfg: ProtocolConfig, coupling: float | None = None) -> np.ndarray:
    """Joint Hamiltonian omega*ad*a + coupling*(a + ad)*sigma_z.

    ``coupling`` defaults to cfg.g; the boosted stage passes g + g_prime.
    """
    if coupling is None:
        coupling = cfg.g
    dim = cfg.resolved_dim()
    a = annihilation(dim)
    n_op = a.conj().T @ a
    x_m = a + a.conj().T
    eye_q = np.eye(2, dtype=complex)
    return cfg.omega * np.kron(eye_q, n_op) + coupling * np.kron(SIGMA_Z, x_m)


def standard_jump_ops(cfg: ProtocolConfig, dim: int) -> list[tuple[float, np.ndarray]]:
    """Jump operators of the standard noise model on the joint space."""
    a = annihilation(dim)
    eye_q = np.eye(2, dtype=complex)
    eye_m = np.eye(dim, dtype=complex)
    jumps = []
    if cfg.gamma_m > 0:
        if cfg.nbar > 0:
            jumps.append((cfg.nbar * cfg.gamma_m, np.kron(eye_q, a.conj().T)))
        jumps.append(((cfg.nbar + 1.0) * cfg.gamma_m, np.kron(eye_q, a)))
    if cfg.gamma_a > 0:
        jumps.append((cfg.gamma_a, np.kron(SIGMA_Z, eye_m)))
    return jumps


def build_liouvillian(h: np.ndarray, jumps: list[tuple[float, np.ndarray]]):
    """CSR supermatrix L with d vec(rho)/dt = L vec(rho) (row-major vec)."""
    n = h.shape[0]
    eye = sparse.identity(n, format="csr", dtype=complex)
    hs = sparse.csr_matrix(h)
    sup = -1j * (sparse.kron(hs, eye) - sparse.kron(eye, hs.T))
    for rate, op in jumps:
        if rate < 0:
            raise ValueError(f"jump rate must be >= 0, got {rate}")
        if rate == 0:
            continue
        ops = sparse.csr_matrix(op)
        opd_op = (ops.conj().T @ ops).tocsr()
        sup = sup + rate * (
            sparse.kron(ops, ops.conj())
            - 0.5 * sparse.kron(opd_op, eye)
            - 0.5 * sparse.kron(eye, opd_op.T)
        )
    return sup.tocsr()


def integrate_states(
    generator,
    rho0: np.ndarray,
    t_eval: np.ndarray,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    first_step: float | None = None,
    method: str = "DOP853",
) -> np.ndarray:
    """Integrate d vec(rho)/dt = generator vec(rho), sampling at t_eval;
    ``generator`` is the CSR supermatrix from `build_liouvillian`.

    Returns hermitized density matrices, shape (len(t_eval), n, n).
    """
    n = rho0.shape[0]
    y0 = np.asarray(rho0, dtype=complex).reshape(-1)
    t0, t1 = float(t_eval[0]), float(t_eval[-1])
    if t1 == t0:
        states = np.broadcast_to(rho0, (len(t_eval), n, n)).copy()
        return states
    sol = solve_ivp(
        lambda t, y: generator.dot(y),
        (t0, t1),
        y0,
        method=method,
        t_eval=np.asarray(t_eval, dtype=float),
        rtol=rtol,
        atol=atol,
        first_step=first_step,
    )
    if not sol.success:
        raise IntegrationError(f"master-equation solver failed: {sol.message}")
    states = sol.y.T.reshape(len(t_eval), n, n)
    return 0.5 * (states + states.conj().transpose(0, 2, 1))


def initial_state(cfg: ProtocolConfig, dim: int | None = None) -> np.ndarray:
    """|+><+| (x) thermal(nbar) on the joint space."""
    if dim is None:
        dim = cfg.resolved_dim()
    rho_m = thermal_density(cfg.nbar, dim, tail_bound=cfg.tail_bound)
    return np.kron(PLUS_STATE, rho_m)


def _trace_rows(states: np.ndarray, dim: int):
    """Per-sample observables and diagnostics from joint states."""
    n_samp = states.shape[0]
    sigma = np.empty(n_samp, dtype=complex)
    trace_err = np.empty(n_samp)
    tail = np.empty(n_samp)
    for k in range(n_samp):
        rho = states[k]
        blocks = rho.reshape(2, dim, 2, dim)
        # <sigma_minus> = Tr_B rho_{01} for sigma_minus = |1><0|
        sigma[k] = np.trace(blocks[0, :, 1, :])
        tr = np.trace(rho).real
        trace_err[k] = abs(tr - 1.0)
        pops = np.einsum("aiai->i", blocks).real
        tail[k] = float(pops[-2:].sum())
    return sigma, trace_err, tail


def _enforce_diagnostics(trace: VisibilityTrace) -> None:
    worst_trace = float(trace.trace_error.max())
    if worst_trace > TRACE_ERROR_BOUND:
        raise IntegrationError(
            f"trace drift {worst_trace:.3e} exceeds {TRACE_ERROR_BOUND:.1e}"
        )
    worst_tail = float(trace.tail_mass.max())
    if worst_tail > TAIL_MASS_BOUND:
        raise TruncationError(
            f"Fock tail mass {worst_tail:.3e} exceeds {TAIL_MASS_BOUND:.1e}; "
            "increase dim",
            tail_mass=worst_tail,
        )


def _run_segments(
    cfg: ProtocolConfig,
    segments: list[tuple[float, float, np.ndarray | None]],
    rho0: np.ndarray,
    keep_states: bool,
) -> VisibilityTrace:
    """Evolve through (duration, coupling, gate_after) segments."""
    dim = cfg.resolved_dim()
    period = 2.0 * math.pi / cfg.omega
    jumps = standard_jump_ops(cfg, dim)
    generators: dict[float, object] = {}

    times: list[np.ndarray] = []
    chunks: list[np.ndarray] = []
    rho = rho0
    t_now = 0.0
    for seg_idx, (duration, coupling, gate) in enumerate(segments):
        if coupling not in generators:
            h = build_hamiltonian(cfg, coupling)
            generators[coupling] = build_liouvillian(h, jumps)
        n_int = max(2, round(cfg.samples_per_period * duration / period))
        t_local = np.linspace(0.0, duration, n_int + 1)
        states = integrate_states(
            generators[coupling],
            rho,
            t_local,
            rtol=cfg.rtol,
            atol=cfg.atol,
            first_step=min(cfg.dt_initial, duration / 2),
            method=cfg.method,
        )
        rho = states[-1]
        if gate is not None:
            rho = gate @ rho @ gate.conj().T
        keep = slice(None) if seg_idx == 0 else slice(1, None)
        times.append(t_now + t_local[keep])
        chunks.append(states[keep])
        t_now += duration

    all_states = np.concatenate(chunks, axis=0)
    all_times = np.concatenate(times)
    sigma, trace_err, tail = _trace_rows(all_states, dim)
    trace = VisibilityTrace(
        times=all_times,
        visibility=2.0 * np.abs(sigma),
        sigma_minus=sigma,
        trace_error=trace_err,
        tail_mass=tail,
        config=dataclasses.asdict(cfg),
        states=all_states if keep_states else None,
    )
    _enforce_diagnostics(trace)
    return trace


def run_protocol(cfg: ProtocolConfig, *, keep_states: bool = False) -> VisibilityTrace:
    """Run the configured protocol and return its stitched trace.

    basic      constant coupling g over [0, t_max]
    boosted    coupling g + g_prime over the first half period, g after
    spin_echo  n_pi iterations of (half period, flip, half period, flip),
               echo closure per the mirrored block; the composed map is the
               identity, so the final visibility returns to 1
    """
    dim = cfg.resolved_dim()
    rho0 = initial_state(cfg, dim)
    period = 2.0 * math.pi / cfg.omega
    half = 0.5 * period
    t_max = cfg.resolved_t_max()

    if cfg.protocol == "basic":
        segments = [(t_max, cfg.g, None)]
    elif cfg.protocol == "boosted":
        segments = [
            (half, cfg.g + cfg.g_prime, None),
            (t_max - half, cfg.g, None),
        ]
    else:  # spin_echo
        flip = np.kron(SIGMA_X, np.eye(dim, dtype=complex))
        n_seg = 4 * cfg.n_pi
        segments = []
        for j in range(1, n_seg + 1):
            # the closing flip cancels the block-final flip at the junction
            # and at the very end; everywhere else a flip follows the segment
            gate = None if j in (2 * cfg.n_pi, n_seg) else flip
            segments.append((half, cfg.g, gate))
    return _run_segments(cfg, segments, rho0, keep_states)


def negativity(rho: np.ndarray) -> float:
    """Entanglement negativity across the qubit|oscillator cut.

    Sum of |negative eigenvalues| of the partial transpose over the qubit.
    """
    rho = np.asarray(rho)
    n = rho.shape[0]
    if n % 2 != 0:
        raise ValueError(f"joint dimension must be even, got {n}")
    dim = n // 2
    pt = rho.reshape(2, dim, 2, dim).transpose(2, 1, 0, 3).reshape(n, n)
    pt = 0.5 * (pt + pt.conj().T)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0].sum())
