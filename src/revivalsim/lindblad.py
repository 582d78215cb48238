"""Master-equation engine for the conditional-displacement protocols.

Joint Hilbert space is qubit (x) oscillator with the qubit factor first;
sigma_minus = |1><0| and the initial state is |+><+| (x) thermal(nbar).
The noise model is

    drho/dt = -i[H, rho] + sum_i ( L_i rho L_i^dag - {L_i^dag L_i, rho}/2 )

with H = omega ad a + coupling (a + ad) sigma_z and jump operators
sqrt(nbar*gamma_m) ad, sqrt((nbar+1)*gamma_m) a and sqrt(gamma_a) sigma_z.

Every generator keeps the sigma_z block structure: block (s, s') of a
joint state evolves on its own as -i(H_s rho - rho H_s') + jump terms, with
H_s = omega ad a + z_s coupling (a + ad), z = (+1, -1).

The protocol model has one more symmetry: parity P = (-1)^{ad a} maps H_0
onto H_1 and leaves the thermal state and both dissipators unchanged, so
rho11 = P rho00 P at all times.  `run_protocol` therefore evolves only
rho00 and rho01, both thermal(nbar)/2 at t = 0; the sigma_x echo gate maps
them to (P rho00 P, rho01^dag), and rho11 is rebuilt only for kept states.
The blocks never mix, not even at a gate, so a run is two `PASSES`, each
carrying one block through every segment under its own error norm: rho00
(populations only) takes far fewer steps than rho01 (the signal).  Both
evolve in the frame rotating with omega ad a, exact for the truncated
operators: the coupling becomes coupling (a e^{-i omega t} + ad e^{i omega
t}), the dissipators are unchanged, and the right-hand side is six banded
shifts of the flat block.  Tr rho01 and the populations (twice diag rho00)
are frame-independent; states return to the lab frame at each segment end
(before a gate) and when kept.

`integrate_blocks` steps the DOP853 solver itself and hands each sample to
the caller as soon as the solver passes it, so a run holds O(d^2) memory
unless it keeps its states, which go straight into one (n, 2d, 2d) array.

Visibility is reported normalized to V(0) = 1, i.e. V = 2 |Tr rho01|; the
raw coherence <sigma_minus> is exported alongside.  The trace is never
renormalized: its drift is a solver diagnostic.

`ProtocolConfig.resolved_dim` is the one Fock-truncation rule: it picks the
default dim and refuses any dim above `MAX_DIM`, below the displacement
floor or with more than `INITIAL_TAIL_BOUND` of the initial thermal state
beyond it, all before anything is allocated.  A run that still reaches its
top two levels is refused once integrated (`TAIL_MASS_BOUND`).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853

TRACE_ERROR_BOUND = 1e-7   # max tolerated |Tr rho - 1| along a trace
TAIL_MASS_BOUND = 1e-6     # max tolerated top-two-Fock-level occupation
RTOL = 1e-10               # solver relative tolerance
ATOL = 1e-12               # solver absolute tolerance
FIRST_STEP = 1e-3          # first solver step of each protocol segment
INITIAL_TAIL_BOUND = 1e-8  # max thermal mass at Fock levels >= dim at t = 0

# Largest Fock dim a run may use.  One (d, d) complex protocol block takes
# 16 d^2 bytes (4.2 MB at 512) and its solver holds about 16 of them; a
# run that keeps its states adds a (2d, 2d) joint state per sample (so
# `verify` bounds its kept states by `cli.MAX_STATE_VALUES`).  So a dim far
# beyond the supported envelope (129 at lambda = 0.3, nbar = 5; 268 at
# lambda = 0.3, nbar = 12) asks for gigabytes or more and is refused before
# anything is built.
MAX_DIM = 512

PROTOCOLS = ("basic", "boosted", "spin_echo")


class IntegrationError(RuntimeError):
    """Master-equation integration failed or its diagnostics exceeded bounds."""


class TruncationError(RuntimeError):
    """A Fock dim refused by `ProtocolConfig.resolved_dim`, or outgrown by a run."""


@dataclass
class ProtocolConfig:
    """Parameters of a numerical protocol run.

    omega      oscillator frequency (rad/s, or 1 in natural units)
    g          qubit-oscillator coupling; only g^2 affects visibility
    g_prime    extra coupling during the first half period (boosted only)
    gamma_m    oscillator damping rate
    gamma_a    qubit dephasing rate
    nbar       thermal occupation of the oscillator and its bath
    dim        Fock truncation; None selects the `resolved_dim` default;
               at most `MAX_DIM`
    t_max      evolution time for basic/boosted, positive and, boosted,
               beyond the first half period; spin_echo derives its own
               duration 2*n_pi*(2*pi/omega) and ignores t_max

    n_pi       echo iterations per block (spin_echo only)

    Non-finite floats and non-integral counts raise ValueError at construction.
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
        for name in ("omega", "g", "g_prime", "gamma_m", "gamma_a", "nbar", "t_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("dim", "n_pi", "samples_per_period"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        t_max = self.resolved_t_max()
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        if self.protocol == "boosted" and t_max <= math.pi / self.omega:
            raise ValueError(
                "boosted protocol needs t_max beyond the first half period"
            )

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
        """The run's Fock dim: the only code that picks or refuses one.

        With |alpha| = `max_displacement()`, the default is the ceiling of
        nbar + 10 sqrt(nbar+1) + 16|alpha|^2 + 20, raised for nbar > 0 to
        n_tail + 3|alpha| sqrt(n_tail) + 16|alpha|^2 + 4, where n_tail is the
        level above which the thermal state holds `INITIAL_TAIL_BOUND`.  Any
        dim raises TruncationError above `MAX_DIM`, at or below the floor
        4|alpha|^2 + nbar + 10 sqrt(nbar+1), or when the thermal state holds
        more than `INITIAL_TAIL_BOUND` at levels >= dim.
        """
        disp = self.max_displacement()
        # log of the thermal ratio nbar/(nbar+1), p_n ~ ratio^n; from log1p,
        # as the ratio itself rounds to 1 for nbar >~ 1e16
        log_ratio = -math.log1p(1.0 / self.nbar) if self.nbar else -math.inf
        dim = self.dim
        if dim is None:
            disp_levels = 16.0 * disp**2
            dim = self.nbar + 10.0 * math.sqrt(self.nbar + 1.0) + disp_levels + 20.0
            if self.nbar > 0:
                # displacing the thermal tail spreads it up by ~2|alpha|sqrt(n);
                # pad generously so the revival error stays below the tail bound
                tail_dim = math.log(INITIAL_TAIL_BOUND) / log_ratio
                pad = 3.0 * disp * math.sqrt(tail_dim)
                dim = max(dim, tail_dim + pad + disp_levels + 4.0)
            dim = np.ceil(dim)  # unlike math.ceil, keeps an infinite dim
        if dim > MAX_DIM:
            raise TruncationError(
                f"dim={dim:.0f} exceeds MAX_DIM={MAX_DIM}; the coupling or nbar is "
                "too large for the truncated-Fock engine"
            )
        dim = int(dim)
        floor = 4.0 * disp**2 + self.nbar + 10.0 * math.sqrt(self.nbar + 1)
        if dim <= floor:
            raise TruncationError(
                f"dim={dim} is below the safe floor {floor:.1f} for "
                f"displacement {disp:.3g}, nbar={self.nbar:.3g}"
            )
        tail = math.exp(dim * log_ratio)  # sum_{n >= dim} p_n = ratio^dim
        if tail > INITIAL_TAIL_BOUND:
            raise TruncationError(
                f"thermal tail mass {tail:.3e} exceeds bound {INITIAL_TAIL_BOUND:.3e} "
                f"at dim={dim} (nbar={self.nbar}); increase dim"
            )
        return dim

    def resolved_t_max(self) -> float:
        period = 2.0 * math.pi / self.omega
        if self.protocol == "spin_echo":
            return 2.0 * self.n_pi * period
        return 2.0 * period if self.t_max is None else float(self.t_max)


@dataclass
class VisibilityTrace:
    """Sampled visibility curve with solver diagnostics.

    sigma_minus holds the raw coherence <sigma_minus>(t); samples falling
    on a gate time report the pre-gate value (the modulus is continuous
    across gates).  tail_mass is the occupation of the top two Fock levels.
    states, when kept, holds the joint lab-frame density matrices, shape
    (n, 2d, 2d).  stats records the run: the Fock dim and the rule that
    chose it, one record per segment (duration, coupling, total wall time,
    and each block's solver work under rho00 and rho01: nfev, accepted and
    rejected steps, dense outputs, wall time) and the worst trace drift and
    tail mass next to their bounds.
    """

    times: np.ndarray
    visibility: np.ndarray
    sigma_minus: np.ndarray
    trace_error: np.ndarray
    tail_mass: np.ndarray
    states: np.ndarray | None = None
    stats: dict = field(default_factory=dict)


def _parity(rho: np.ndarray) -> np.ndarray:
    """P rho P with P = (-1)^{ad a}, on (..., d, d) oscillator blocks."""
    level = np.arange(rho.shape[-1])
    return rho * (1 - 2 * ((level[:, None] + level) % 2))


# One `_run_segments` pass per protocol block: its name, the sigma_z eigenvalue
# z_right of its column level, and the echo gate (rho00 -> rho11, rho01 -> rho10)
PASSES = (("rho00", 1.0, _parity), ("rho01", -1.0, lambda rho: rho.conj().T))


def _to_lab(blocks: np.ndarray, omega: float, t) -> np.ndarray:
    """Undo the rotating frame at time t: a scalar for one (d, d) block, or
    one time per sample of an (n, d, d) block path."""
    level = np.arange(blocks.shape[-1])
    return blocks * np.exp(-1j * omega * np.multiply.outer(t, level[:, None] - level))


def _rotating_rhs(cfg: ProtocolConfig, dim: int, coupling: float, z_right: float):
    """Right-hand side for one flat protocol block in the rotating frame:
    rho00 with z_right = +1 or rho01 with z_right = -1, the sigma_z
    eigenvalue of the block's column level (its row level is +1).

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
    rate = -0.5 * (down * (level[:, None] + level) + up * (root[:, None] ** 2 + root**2))
    decay = (rate + cfg.gamma_a * (z_right - 1.0)).astype(complex).ravel()

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


def make_trace(times, pops, sigma, states, stats) -> VisibilityTrace:
    """Trace from the (n, d) Fock populations and the (n,) <sigma_minus> of
    each sample; stats gains the worst trace drift and tail mass."""
    trace_err, tail = np.abs(pops.sum(axis=-1) - 1.0), pops[:, -2:].sum(axis=-1)
    stats.update(worst_trace_error=float(trace_err.max()),
                 trace_error_bound=TRACE_ERROR_BOUND,
                 worst_tail_mass=float(tail.max()), tail_mass_bound=TAIL_MASS_BOUND)
    return VisibilityTrace(times, 2.0 * np.abs(sigma), sigma, trace_err, tail,
                           states, stats)


def _thermal_state(nbar: float, dim: int) -> np.ndarray:
    """thermal(nbar) on Fock levels 0..dim-1, renormalized to unit trace."""
    probs = np.exp(np.arange(dim) * math.log(nbar / (nbar + 1.0))) if nbar else np.eye(dim)[0]
    return np.diag(probs / probs.sum()).astype(complex)


def _run_segments(cfg: ProtocolConfig, segments: list[tuple[float, float, bool]],
                  keep_states: bool) -> VisibilityTrace:
    """Evolve through (duration, coupling, flip_after) segments, one pass per
    protocol block: rho00 through every segment, then rho01."""
    dim = cfg.resolved_dim()
    period = 2.0 * math.pi / cfg.omega
    grids = []
    for duration, _, _ in segments:
        n_int = max(2, round(cfg.samples_per_period * duration / period))
        # a later segment's t = 0 is the previous one's last sample
        grids.append(np.linspace(0.0, duration, n_int + 1)[1 if grids else 0:])
    n_samples = sum(map(len, grids))
    # each pass's diagonal and trace, and its block atop the kept states
    diagonals = np.empty((len(PASSES), n_samples, dim))
    traces = np.empty((len(PASSES), n_samples), complex)
    states = np.empty((n_samples, 2 * dim, 2 * dim), complex) if keep_states else None
    records = [{"duration": t, "coupling": c} for t, c, _ in segments]
    # |+><+| (x) thermal(nbar): rho00 = rho01 = thermal/2
    half = 0.5 * _thermal_state(cfg.nbar, dim)
    k = taken = 0

    def sample(t, path):
        nonlocal taken
        rows = slice(taken, taken + len(t))
        taken = rows.stop
        diag = np.diagonal(path, axis1=-2, axis2=-1)
        diagonals[k, rows], traces[k, rows] = diag.real, diag.sum(axis=-1)
        if states is not None:
            states[rows, :dim, k * dim:(k + 1) * dim] = _to_lab(path, cfg.omega, t)

    for k, (name, z_right, gate) in enumerate(PASSES):
        rhs = {c: _rotating_rhs(cfg, dim, c, z_right) for c in {seg[1] for seg in segments}}
        block, taken = half, 0
        for (duration, coupling, flip), t_eval, record in zip(segments, grids, records):
            block, record[name] = integrate_blocks(
                rhs[coupling], block, t_eval, sample,
                first_step=min(FIRST_STEP, duration / 2))
            block = _to_lab(block, cfg.omega, duration)
            if flip:
                block = gate(block)
    for record in records:
        record["wall_s"] = record["rho00"]["wall_s"] + record["rho01"]["wall_s"]
    if states is not None:  # rho00 is Hermitian to solver accuracy only
        for rho in states:
            rho00 = 0.5 * (rho[:dim, :dim] + rho[:dim, :dim].conj().T)
            rho[:dim, :dim], rho[dim:, dim:] = rho00, _parity(rho00)
            rho[dim:, :dim] = rho[:dim, dim:].conj().T

    stats = {"dim": dim, "dim_rule": "default_dim" if cfg.dim is None else "config",
             "segments": records}
    starts = np.cumsum([0.0] + [duration for duration, _, _ in segments])
    # populations: diag(rho00) + diag(rho11), and diag(P rho00 P) = diag(rho00)
    trace = make_trace(np.concatenate([t0 + grid for t0, grid in zip(starts, grids)]),
                       2.0 * diagonals[0], traces[1], states, stats)
    if not stats["worst_trace_error"] <= TRACE_ERROR_BOUND:  # NaN fails too
        raise IntegrationError(f"trace drift {stats['worst_trace_error']:.3e} "
                               f"exceeds {TRACE_ERROR_BOUND:.1e}")
    if not stats["worst_tail_mass"] <= TAIL_MASS_BOUND:
        raise TruncationError(f"Fock tail mass {stats['worst_tail_mass']:.3e} exceeds "
                              f"{TAIL_MASS_BOUND:.1e}; increase dim")
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
