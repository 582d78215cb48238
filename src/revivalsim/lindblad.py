"""Master-equation engine for the conditional-displacement protocols.

Joint Hilbert space is qubit (x) oscillator with the qubit factor first;
sigma_minus = |1><0| and the initial state is |+><+| (x) thermal(nbar).
The noise model is

    drho/dt = -i[H, rho] + sum_i ( L_i rho L_i^dag - {L_i^dag L_i, rho}/2 )

with H = omega ad a + coupling (a + ad) sigma_z and jump operators
sqrt(nbar*gamma_m) ad, sqrt((nbar+1)*gamma_m) a and sqrt(gamma_a) sigma_z.

Every generator keeps the sigma_z block structure, so a joint state is the
stacked (3, d, d) array [rho00, rho11, rho01] (rho10 = rho01^dag) and block
(s, s') evolves on its own as -i(H_s rho - rho H_s') + jump terms, with
H_s = omega ad a + z_s coupling (a + ad), z = (+1, -1).

The protocol model has one more symmetry: parity P = (-1)^{ad a} maps H_0
onto H_1 and leaves the thermal state and both dissipators unchanged, so
rho11 = P rho00 P at all times.  `run_protocol` therefore integrates only
the two blocks [rho00, rho01]; the sigma_x echo gate maps them to
(P rho00 P, rho01^dag), and rho11 is rebuilt only for kept states.  It
integrates in the frame rotating with omega ad a, exact for the truncated
operators: the coupling becomes coupling (a e^{-i omega t} + ad e^{i omega
t}), the dissipators are unchanged, and the right-hand side is six banded
shifts of the flat blocks.  Tr rho01 and the populations (twice diag rho00)
are frame-independent; states return to the lab frame at each segment end
(before a gate) and when kept.

`integrate_blocks` steps the DOP853 solver itself and hands each sample to
the caller as soon as the solver passes it, so a run holds O(d^2) memory
unless it keeps its states.

Visibility is reported normalized to V(0) = 1, i.e. V = 2 |Tr rho01|; the
raw coherence <sigma_minus> is exported alongside.  The trace is never
renormalized: its drift is a solver diagnostic.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853

from .algebra import MAX_DIM, TruncationError, default_dim, thermal_density

TRACE_ERROR_BOUND = 1e-7   # max tolerated |Tr rho - 1| along a trace
TAIL_MASS_BOUND = 1e-6     # max tolerated top-two-Fock-level occupation
RTOL = 1e-10               # solver relative tolerance
ATOL = 1e-12               # solver absolute tolerance
FIRST_STEP = 1e-3          # first solver step of each protocol segment

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
PLUS_STATE = np.full((2, 2), 0.5, dtype=complex)

# qubit levels (s, s') of the stacked blocks [rho00, rho11, rho01], and
# the sigma_z eigenvalue z_s of each level
BLOCK_LEFT = np.array([0, 1, 0])
BLOCK_RIGHT = np.array([0, 1, 1])
Z_LEVEL = SIGMA_Z.diagonal().real
# the blocks run_protocol integrates, [rho00, rho01]; rho11 = P rho00 P
PROTOCOL_BLOCKS = [0, 2]

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
    dim        Fock truncation; None selects `algebra.default_dim`; at most
               `algebra.MAX_DIM`
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
    protocol: str = "basic"
    n_pi: int = 1
    samples_per_period: int = 200

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
            dim = default_dim(self.nbar, self.max_displacement())
        dim = int(dim)
        if dim > MAX_DIM:
            raise TruncationError(
                f"dim={dim} exceeds MAX_DIM={MAX_DIM}; the coupling or nbar is "
                "too large for the truncated-Fock engine"
            )
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
    states, when kept, holds the joint lab-frame density matrices, shape
    (n, 2d, 2d).  stats records the run: the Fock dim and the rule that
    chose it, per-segment solver work (nfev, accepted and rejected steps,
    dense outputs, wall time) and the worst trace drift and tail mass next
    to their bounds.
    """

    times: np.ndarray
    visibility: np.ndarray
    sigma_minus: np.ndarray
    trace_error: np.ndarray
    tail_mass: np.ndarray
    config: dict = field(default_factory=dict)
    states: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


def split_blocks(rho: np.ndarray) -> np.ndarray:
    """Stacked blocks [rho00, rho11, rho01] of a joint (2d, 2d) state."""
    d = rho.shape[0] // 2
    blocks = np.asarray(rho, dtype=complex).reshape(2, d, 2, d)
    return np.stack([blocks[s, :, r, :] for s, r in zip(BLOCK_LEFT, BLOCK_RIGHT)])


def join_blocks(blocks: np.ndarray) -> np.ndarray:
    """Hermitian joint states from stacked blocks, (..., 3, d, d) -> (..., 2d, 2d)."""
    r00, r11, r01 = (blocks[..., k, :, :] for k in range(3))
    r10 = r01.conj().swapaxes(-1, -2)
    top = np.concatenate([0.5 * (r00 + r00.conj().swapaxes(-1, -2)), r01], axis=-1)
    bottom = np.concatenate([r10, 0.5 * (r11 + r11.conj().swapaxes(-1, -2))], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def _parity(rho: np.ndarray) -> np.ndarray:
    """P rho P with P = (-1)^{ad a}, on (..., d, d) oscillator blocks."""
    level = np.arange(rho.shape[-1])
    return rho * (1 - 2 * ((level[:, None] + level) % 2))


def _flip(blocks: np.ndarray) -> np.ndarray:
    """(sigma_x (x) 1) rho (sigma_x (x) 1) on the protocol blocks
    [rho00, rho01]: rho00 becomes rho11 = P rho00 P, rho01 becomes rho10."""
    return np.stack([_parity(blocks[0]), blocks[1].conj().T])


def _to_lab(blocks: np.ndarray, omega: float, t) -> np.ndarray:
    """Undo the rotating frame at time t (scalar, or one per leading sample)."""
    level = np.arange(blocks.shape[-1])
    phase = np.exp(-1j * omega * np.multiply.outer(t, level[:, None] - level))
    return blocks * phase[..., None, :, :]


def _rotating_rhs(cfg: ProtocolConfig, dim: int, coupling: float):
    """Right-hand side for the flat protocol blocks [rho00, rho01] in the
    rotating frame.

    Each term adds weights * y shifted by a row (d), a column (1) or both
    (d + 1); a zero weight on a block's last row or column keeps every
    shift inside its block.
    """
    left, right = BLOCK_LEFT[PROTOCOL_BLOCKS], BLOCK_RIGHT[PROTOCOL_BLOCKS]
    n_blocks = len(PROTOCOL_BLOCKS)
    n_flat = n_blocks * dim * dim
    root = np.append(np.sqrt(np.arange(1.0, dim)), 0.0)  # <i|a|i+1>, 0 at the edge
    level = np.arange(dim, dtype=float)
    down = cfg.gamma_m * (cfg.nbar + 1.0)  # rate of the a jump
    up = cfg.gamma_m * cfg.nbar            # rate of the ad jump
    # -{L^dag L, rho}/2 of both (truncated a ad = diag(root^2)); on rho01
    # the sigma_z jump nets -2 gamma_a
    rate = -0.5 * (down * (level[:, None] + level) + up * (root[:, None] ** 2 + root**2))
    decay = np.stack([rate, rate - 2.0 * cfg.gamma_a]).astype(complex).ravel()

    def flat(weights, shift):
        weights = np.broadcast_to(weights, (n_blocks, dim, dim)).astype(complex)
        return weights.ravel()[: n_flat - shift]

    # (shift, y read at the lower flat index, weights, phase slot)
    terms = []
    if coupling:
        rows = flat((coupling * Z_LEVEL[left])[:, None, None] * root[:, None], dim)
        cols = flat((coupling * Z_LEVEL[right])[:, None, None] * root, 1)
        terms += [(dim, False, rows, 0),  # -i z_s g e^{-i omega t} a rho
                  (dim, True, rows, 1),   # -i z_s g e^{+i omega t} ad rho
                  (1, True, cols, 2),     # +i z_s' g e^{-i omega t} rho a
                  (1, False, cols, 3)]    # +i z_s' g e^{+i omega t} rho ad
    if down:
        terms.append((dim + 1, False, flat(down * np.outer(root, root), dim + 1), None))
    if up:
        terms.append((dim + 1, True, flat(up * np.outer(root, root), dim + 1), None))
    work = np.empty(n_flat, dtype=complex)

    def rhs(t, y):
        out = y * decay
        turn = complex(math.cos(cfg.omega * t), -math.sin(cfg.omega * t))
        phases = (-1j * turn, -1j * turn.conjugate(), 1j * turn, 1j * turn.conjugate())
        for shift, from_lower, weights, slot in terms:
            size = n_flat - shift
            term = np.multiply(y[:size] if from_lower else y[shift:], weights,
                               out=work[:size])
            if slot is not None:
                np.multiply(term, phases[slot], out=term)
            target = out[shift:] if from_lower else out[:size]
            np.add(target, term, out=target)
        return out

    return rhs


def integrate_blocks(rhs, blocks0, t_eval, sample, *, first_step=None
                     ) -> tuple[np.ndarray, dict]:
    """Integrate the flattened stacked blocks under rhs(t, y) from t = 0 to
    t_eval[-1] at RTOL/ATOL, and pass the samples at the sorted times t_eval
    to sample(t, blocks) as the solver steps past them; blocks has shape
    (len(t), *blocks0.shape).

    Samples come from each accepted step's dense output, taken at the
    t_eval points in (t_old, t] (the first step also takes t = 0), the
    rule and the calls of solve_ivp with t_eval.  Returns the blocks at
    t_eval[-1] and the segment record {duration, nfev, steps, rejected,
    dense_outputs, wall_s}.
    """
    started = time.perf_counter()
    t_end = float(t_eval[-1])
    # the embedded 4/5 pair at rtol 1e-10 accumulates ~2e-8 of global error
    # over a full revival at the (lam=0.5, nbar=5) corner of the supported
    # envelope; the higher-order embedded pair is faster and ~20x tighter
    solver = DOP853(rhs, 0.0, np.asarray(blocks0, dtype=complex).ravel(), t_end,
                    rtol=RTOL, atol=ATOL, first_step=first_step)
    setup_nfev = solver.nfev
    steps = dense_outputs = taken = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"master-equation solver failed: {message}")
        steps += 1
        upto = np.searchsorted(t_eval, solver.t, side="right")
        if upto > taken:
            t_step = t_eval[taken:upto]
            blocks = solver.dense_output()(t_step).T.reshape(len(t_step), *blocks0.shape)
            dense_outputs += 1
            sample(t_step, blocks)
            taken = upto
    # a DOP853 trial costs n_stages evaluations, a dense output len(A_EXTRA)
    dense_nfev = len(DOP853.A_EXTRA) * dense_outputs
    trials = (solver.nfev - setup_nfev - dense_nfev) // DOP853.n_stages
    record = {"duration": t_end, "nfev": solver.nfev, "steps": steps,
              "rejected": trials - steps, "dense_outputs": dense_outputs,
              "wall_s": time.perf_counter() - started}
    return blocks[-1], record


def observables(d00: np.ndarray, d11: np.ndarray, d01: np.ndarray):
    """<sigma_minus>, |Tr rho - 1| and top-two-level occupation per sample,
    from the (n, d) diagonals of rho00, rho11 and rho01."""
    pops = d00.real + d11.real
    return d01.sum(axis=-1), np.abs(pops.sum(axis=-1) - 1.0), pops[:, -2:].sum(axis=-1)


def make_trace(times, rows, config, states, stats) -> VisibilityTrace:
    """Trace from per-segment `observables`; stats gains the worst diagnostics."""
    sigma, trace_err, tail = (np.concatenate(column) for column in zip(*rows))
    stats.update(worst_trace_error=float(trace_err.max()),
                 trace_error_bound=TRACE_ERROR_BOUND,
                 worst_tail_mass=float(tail.max()), tail_mass_bound=TAIL_MASS_BOUND)
    return VisibilityTrace(times, 2.0 * np.abs(sigma), sigma, trace_err, tail,
                           config, states, stats)


def initial_state(cfg: ProtocolConfig, dim: int | None = None) -> np.ndarray:
    """|+><+| (x) thermal(nbar) on the joint space."""
    if dim is None:
        dim = cfg.resolved_dim()
    rho_m = thermal_density(cfg.nbar, dim)
    return np.kron(PLUS_STATE, rho_m)


def _enforce_diagnostics(stats: dict) -> None:
    worst_trace, worst_tail = stats["worst_trace_error"], stats["worst_tail_mass"]
    if worst_trace > TRACE_ERROR_BOUND:
        raise IntegrationError(
            f"trace drift {worst_trace:.3e} exceeds {TRACE_ERROR_BOUND:.1e}")
    if worst_tail > TAIL_MASS_BOUND:
        raise TruncationError(
            f"Fock tail mass {worst_tail:.3e} exceeds {TAIL_MASS_BOUND:.1e}; "
            "increase dim", tail_mass=worst_tail)


def _run_segments(cfg: ProtocolConfig, segments: list[tuple[float, float, bool]],
                  keep_states: bool) -> VisibilityTrace:
    """Evolve through (duration, coupling, flip_after) segments."""
    dim = cfg.resolved_dim()
    period = 2.0 * math.pi / cfg.omega
    rhs_by_coupling = {}
    times, rows, kept, segment_stats = [], [], [], []
    blocks = split_blocks(initial_state(cfg, dim))[PROTOCOL_BLOCKS]
    t_now = 0.0

    def sample(t, path):
        # populations: diag(P rho00 P) = diag(rho00)
        diag = np.diagonal(path, axis1=-2, axis2=-1)
        rows.append(observables(diag[:, 0], diag[:, 0], diag[:, 1]))
        times.append(t_now + t)
        if keep_states:
            r00, r01 = np.moveaxis(_to_lab(path, cfg.omega, t), -3, 0)
            kept.append(join_blocks(np.stack([r00, _parity(r00), r01], axis=-3)))

    for seg_idx, (duration, coupling, flip) in enumerate(segments):
        if coupling not in rhs_by_coupling:
            rhs_by_coupling[coupling] = _rotating_rhs(cfg, dim, coupling)
        n_int = max(2, round(cfg.samples_per_period * duration / period))
        t_local = np.linspace(0.0, duration, n_int + 1)
        # a later segment's t = 0 is the previous one's last sample
        end, record = integrate_blocks(rhs_by_coupling[coupling], blocks,
                                       t_local if seg_idx == 0 else t_local[1:], sample,
                                       first_step=min(FIRST_STEP, duration / 2))
        segment_stats.append({**record, "coupling": coupling})
        blocks = _to_lab(end, cfg.omega, duration)
        if flip:
            blocks = _flip(blocks)
        t_now += duration

    stats = {"dim": dim, "dim_rule": "default_dim" if cfg.dim is None else "config",
             "segments": segment_stats}
    trace = make_trace(np.concatenate(times), rows, dataclasses.asdict(cfg),
                       np.concatenate(kept) if keep_states else None, stats)
    _enforce_diagnostics(stats)
    return trace


def run_protocol(cfg: ProtocolConfig, *, keep_states: bool = False) -> VisibilityTrace:
    """Run the configured protocol and return its stitched trace.

    basic      constant coupling g over [0, t_max]
    boosted    coupling g + g_prime over the first half period, g after
    spin_echo  n_pi iterations of (half period, flip, half period, flip),
               echo closure per the mirrored block; the composed map is the
               identity, so the final visibility returns to 1
    """
    half = math.pi / cfg.omega
    t_max = cfg.resolved_t_max()
    if cfg.protocol == "basic":
        segments = [(t_max, cfg.g, False)]
    elif cfg.protocol == "boosted":
        segments = [(half, cfg.g + cfg.g_prime, False), (t_max - half, cfg.g, False)]
    else:  # spin_echo
        # the closing flip cancels the block-final flip at the junction
        # and at the very end; everywhere else a flip follows the segment
        n_seg = 4 * cfg.n_pi
        segments = [(half, cfg.g, j not in (2 * cfg.n_pi, n_seg))
                    for j in range(1, n_seg + 1)]
    return _run_segments(cfg, segments, keep_states)


def negativities(states: np.ndarray) -> np.ndarray:
    """Negativity across the qubit|oscillator cut of each joint state in an
    (n, 2d, 2d) stack: the sum of |negative eigenvalues| of the partial
    transpose over the qubit, from one stacked eigvalsh."""
    n_states, n = np.shape(states)[:2]
    if n % 2 != 0:
        raise ValueError(f"joint dimension must be even, got {n}")
    d = n // 2
    pt = np.reshape(states, (n_states, 2, d, 2, d)).transpose(0, 3, 2, 1, 4)
    pt = pt.reshape(n_states, n, n)
    eigs = np.linalg.eigvalsh(0.5 * (pt + pt.conj().swapaxes(-1, -2)))
    return -np.minimum(eigs, 0.0).sum(axis=-1)


def negativity(rho: np.ndarray) -> float:
    """Entanglement negativity of one joint state across the qubit|oscillator cut."""
    return float(negativities(np.asarray(rho)[None])[0])
