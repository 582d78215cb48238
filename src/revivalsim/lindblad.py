"""Master-equation engine for the conditional-displacement protocols.

Joint Hilbert space is qubit (x) oscillator with the qubit factor first;
sigma_minus = |1><0| and the initial state is |+><+| (x) thermal(nbar).
The noise model is

    drho/dt = -i[H, rho] + sum_i ( L_i rho L_i^dag - {L_i^dag L_i, rho}/2 )

with H = omega ad a + coupling (a + ad) sigma_z and jump operators
sqrt(nbar*gamma_m) ad, sqrt((nbar+1)*gamma_m) a and sqrt(gamma_a) sigma_z.

Every generator keeps the sigma_z blocks apart: block (s, s') of a joint
state evolves on its own as -i(H_s rho - rho H_s') + jump terms, with
H_s = omega ad a + z_s coupling (a + ad), z = (+1, -1).

Only rho01, the signal, is solved: V = 2 |Tr rho01|, normalized to V(0) = 1,
with the raw <sigma_minus> alongside.  Parity P = (-1)^{ad a} maps H_0 onto
H_1 and keeps the thermal state and both dissipators, so rho11 = P rho00 P;
and as the Hamiltonian is quadratic, the drive linear and the bath at the
state's own nbar, rho00 = D(alpha) thermal(nbar) D(alpha)^dag / 2, with alpha
the damped, driven classical amplitude.  That closed form gives the tail mass
and the rho00 and rho11 blocks of kept states.

As P a P = -a, M = rho01 P obeys a Hermiticity-preserving equation,
truncation included, and starts real and diagonal (thermal(nbar) P / 2);
runs carry it from segment to segment as the d^2 real numbers R = Re M + Im M,
with M = sym(R) + i antisym(R).  Tr rho01 = Tr M P is real, so <sigma_minus>
has no imaginary part, and the sigma_x echo gate, rho01 -> rho01^dag = P M,
maps M to P M P.  Kept states hold rho01 = M P.

Without oscillator damping (gamma_m = 0), M obeys dM/dt = -i[H, M] - 2 gamma_a M
exactly, truncation included, with H = omega ad a + coupling (a + ad) real,
symmetric and tridiagonal: H = V diag(E) V^T from one eigh per distinct
coupling.  Such a run never steps and never returns to the Fock basis: it
carries the Hermitian mode matrix A = V^T M V, as its real form Re A + Im A,
from the first sample to the last (`_exact_segment`).  Within a segment A_jk
only picks up e^{-i(E_j - E_k)t} e^{-2 gamma_a t}; the echo gate maps A to
Q A Q, Q = V^T P V, and a change of coupling to W A W^T, W = V_new^T V_old,
two real gemms on the real form, as a real congruence keeps the symmetric and
antisymmetric parts apart.  Each sample's Tr M P = Tr A Q, and each kept
M = V A V^T, comes from the same A.

With damping, rho01 takes one DOP853 solve (`integrate_blocks`) per segment.
The solve carries R in the frame rotating with omega ad a, exact for the
truncated operators: the coupling becomes coupling (a e^{-i omega t} + ad
e^{i omega t}), and the right-hand side is six banded shifts of the flat block
with real weights.  The block returns to the lab frame through M at each
segment end (before a gate) and when kept.  A run holds O(d^2) memory on
either path unless it keeps its states, in one (n, 2d, 2d) array filled in place.

A run is refused before anything is allocated when it asks for more than
`MAX_RUN_SAMPLES` samples, `ProtocolConfig.resolved_dim`, the one Fock-dim
rule, refuses its dim, its largest displacement puts more than
`TAIL_MASS_BOUND` at levels >= dim - 2, or its kept states would exceed
`MAX_STATE_VALUES` (`kept_states`, a ConfigError); and, damped, before it steps
when its fastest decay needs more than `MAX_STEP_BOUND` explicit steps.  Once
evolved, it is refused when a sample's top two levels hold more than
`TAIL_MASS_BOUND`, or when a sample is more than `EXACT_ERROR_BOUND` off the
model's exact visibility (`analytic.visibility_exact`).

`ProtocolConfig`, its dim rule, the caps `MAX_DIM` and `MAX_RUN_SAMPLES`, the
protocol names and the errors are defined in `protocol`, which the CLI loads
without this engine, and imported here under the same names.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dop853
from .analytic import CHUNK, visibility_exact
from .protocol import (DIM_TAIL_BOUND, MAX_DIM, MAX_RUN_SAMPLES, PROTOCOLS, IntegrationError,
                       ProtocolConfig, TruncationError, _populations, kept_states)

EXACT_ERROR_BOUND = 1e-7   # max tolerated |V - V_exact| along a trace
TAIL_MASS_BOUND = 1e-6     # max tolerated top-two-Fock-level occupation
RTOL = 1e-10               # solver relative tolerance
ATOL = 1e-12               # solver absolute tolerance

# Real-axis stability length of DOP853: |R(-x)| <= 1 for 0 <= x <= 6.39, where
# R is the stability polynomial of its tableau (6.3937 to four places)
STABILITY_LENGTH = 6.39
# Largest lower bound on a run's explicit step count (max|decay| times the
# protocol duration over STABILITY_LENGTH) that `run_protocol` starts on.
# The Q = 10 corner (lambda 0.3, nbar 5, gamma_m 0.1, dim 122, two periods)
# bounds at ~260 and takes ~500 steps (~700 trials); a rate far above omega
# would step for hours.
MAX_STEP_BOUND = 100_000

# Samples of an undamped segment whose sigma one gemm computes: a block's
# temporaries, and the phase steps its segment shares, are four arrays of
# (SIGMA_BLOCK, d) complex values, 0.5 MB each at dim 122
SIGMA_BLOCK = 256

# Kept joint states filled by a run, or partial-transposed by `negativities`, at a
# time, so that their temporaries are a slab's size, not the whole stack's
STATE_SLAB = 32

# scipy's DOP853 step-size controller: safety factor and step-change limits
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10


@dataclass
class VisibilityTrace:
    """Sampled visibility curve with solver diagnostics.

    sigma_minus holds the raw coherence <sigma_minus>(t), real from
    `run_protocol` and complex from `witness.simulate_separable`; samples
    falling on a gate time report the pre-gate value (the modulus is
    continuous across gates).  tail_mass is the occupation of the top two
    Fock levels.
    states, when kept, holds the joint lab-frame density matrices, shape
    (n, 2d, 2d).  exact_error (`run_protocol` only) is each sample's |V - V_exact|.
    stats records the run: the Fock dim and the rule that chose it, a record
    per segment and each diagnostic's worst value and bound.  A
    `run_protocol` segment records its duration and coupling, then either its
    DOP853 solve's nfev, steps, rejected, dense_outputs and wall_s (damped
    runs: only a stepper evolves them) or `propagator` "exact_eigh" and wall_s
    (undamped runs: rho01 P evolves under a fixed H, so nothing steps).
    """

    times: np.ndarray
    visibility: np.ndarray
    sigma_minus: np.ndarray
    tail_mass: np.ndarray
    states: np.ndarray | None = None
    stats: dict = field(default_factory=dict)
    exact_error: np.ndarray | None = None


def _to_lab(blocks: np.ndarray, omega: float, t) -> np.ndarray:
    """Undo the rotating frame at time t: a scalar for one (d, d) block, or
    one time per sample of an (n, d, d) block path."""
    level = np.arange(blocks.shape[-1])
    return blocks * np.exp(-1j * omega * np.multiply.outer(t, level[:, None] - level))


def _signs(dim: int) -> np.ndarray:
    """The diagonal (-1)^n of P = (-1)^{ad a} on levels 0..dim-1."""
    return 1.0 - 2.0 * (np.arange(dim) % 2)


def _root(dim: int) -> np.ndarray:
    """<i|a|i+1> on levels 0..dim-1, with 0 at the truncation edge."""
    return np.append(np.sqrt(np.arange(1.0, dim)), 0.0)


def _decay(cfg: ProtocolConfig, dim: int) -> np.ndarray:
    """The flat diagonal of the rho01 generator (see `_real_rhs`)."""
    root, level = _root(dim), np.arange(dim, dtype=float)
    down, up = cfg.gamma_m * (cfg.nbar + 1.0), cfg.gamma_m * cfg.nbar
    # -{L^dag L, rho}/2 of both (truncated a ad = diag(root^2)), and the
    # sigma_z jump's -2 gamma_a on the coherence
    rate = -0.5 * (down * (level[:, None] + level) + up * (root[:, None] ** 2 + root**2))
    return (rate - 2.0 * cfg.gamma_a).ravel()


def _hermitian(blocks: np.ndarray) -> np.ndarray:
    """M = sym(R) + i antisym(R) from R = Re M + Im M, on (..., d, d) blocks."""
    transposed = blocks.swapaxes(-1, -2)
    return 0.5 * (blocks + transposed) + 0.5j * (blocks - transposed)


def _real_rhs(cfg: ProtocolConfig, dim: int, coupling: float):
    """Right-hand side for one flat rho01 block in the rotating frame, held as
    the real R = Re M + Im M of the Hermitian M = rho01 P:

        dR = decay R - down a R ad - up ad R a - g (a U + ad V - U a - V ad)

    with U = c R^T + s R, V = c R^T - s R and (c, s) = (cos, sin)(omega t).

    Each term adds weights * (R, U or V) shifted by a row (d), a column (1)
    or both (d + 1); a zero weight on the last column keeps a shift from
    wrapping into the next row.
    """
    n_flat = dim * dim
    root = _root(dim)
    down = cfg.gamma_m * (cfg.nbar + 1.0)  # rate of the a jump
    up = cfg.gamma_m * cfg.nbar            # rate of the ad jump
    decay = _decay(cfg, dim)

    def flat(weights, shift):
        return np.broadcast_to(weights, (dim, dim)).ravel()[: n_flat - shift]

    work, u, v = np.empty((3, n_flat))
    # (shift, source (None: R itself), source read at the lower flat index, weights)
    terms = []
    if coupling:
        rows = flat(-coupling * root[:, None], dim)
        cols = flat(coupling * root, 1)
        terms += [(dim, u, False, rows),  # -g a U
                  (dim, v, True, rows),   # -g ad V
                  (1, u, True, cols),     # +g U a
                  (1, v, False, cols)]    # +g V ad
    if down:  # -down a R ad
        terms.append((dim + 1, None, False, flat(-down * np.outer(root, root), dim + 1)))
    if up:    # -up ad R a
        terms.append((dim + 1, None, True, flat(-up * np.outer(root, root), dim + 1)))

    def rhs(t, y):
        out = y * decay
        if coupling:
            np.multiply(y.reshape(dim, dim).T, math.cos(cfg.omega * t),
                        out=u.reshape(dim, dim))
            np.multiply(y, math.sin(cfg.omega * t), out=work)
            np.subtract(u, work, out=v)
            np.add(u, work, out=u)
        for shift, source, from_lower, weights in terms:
            source = y if source is None else source
            size = n_flat - shift
            term = np.multiply(source[:size] if from_lower else source[shift:], weights,
                               out=work[:size])
            target = out[shift:] if from_lower else out[:size]
            np.add(target, term, out=target)
        return out

    return rhs


def integrate_blocks(rhs, blocks0, t_eval, sample, *, read=None) -> tuple[np.ndarray, dict]:
    """Integrate the flattened stacked blocks under rhs(t, y) from t = 0 to
    t_eval[-1] > 0 at RTOL/ATOL, and pass the samples at the sorted times
    t_eval to sample(t, values) as the steps pass them: values holds the flat
    entries `read` of each sample, shape (len(t), len(read)), or with read
    None the whole blocks, shape (len(t), *blocks0.shape).  The state is real
    or complex as blocks0 is.

    The loop is scipy's DOP853 step by step: its tableau (`dop853`), its
    first f at t = 0, its first step (`_initial_step`, one more evaluation),
    its step-size controller and its numpy operations in its order, so
    samples and records equal solve_ivp(method="DOP853", t_eval=t_eval) bit
    for bit.  Samples come from each accepted step's dense output at the
    t_eval points in (t_old, t] (the first step also takes t = 0).  The
    7-term interpolant is built only on the read entries; the returned end is
    the last step's y_old + (y - y_old), the interpolant at t_eval[-1], where
    its other terms are multiplied by 0.  Returns the blocks at t_eval[-1]
    and the segment record {duration, nfev, steps, rejected, dense_outputs,
    wall_s}, nfev = 2 + 12 (steps + rejected) + 3 dense_outputs; raises
    ValueError, before any evaluation, on t_eval[-1] <= 0 or a non-finite
    start, and IntegrationError when the step size falls below 10 ulp of t.
    """
    started = time.perf_counter()
    t_end = float(t_eval[-1])
    if not t_end > 0:
        raise ValueError(f"the last sample time must be after t = 0, got {t_end}")
    y0 = np.ravel(blocks0)
    if not np.isfinite(y0).all():
        raise ValueError("every entry of the initial blocks must be finite")
    f0 = rhs(0.0, y0)
    h_abs = _initial_step(rhs, y0, f0, t_end)
    # the embedded 4/5 pair at rtol 1e-10 accumulates ~2e-8 of global error
    # over a full revival at the (lam=0.5, nbar=5) corner of the supported
    # envelope; the higher-order embedded pair is faster and ~20x tighter
    n_stages, n, dtype = dop853.N_STAGES, y0.size, y0.dtype
    A, B, C, E3, E5 = dop853.A, dop853.B, dop853.C, dop853.E3, dop853.E5
    n_extra = dop853.N_STAGES_EXTENDED - n_stages - 1
    exponent = -1.0 / (dop853.ERROR_ESTIMATOR_ORDER + 1)
    # rows: the stages, f at the step end, then the dense output's extra stages
    K = np.empty((dop853.N_STAGES_EXTENDED, n), dtype=dtype)
    stages = K[: n_stages + 1]
    K[0] = f0
    y, y_new = np.empty((2, n), dtype=dtype)
    y[:] = y0
    abs_y, abs_new, scale = np.abs(y), np.empty(n), np.empty(n)
    dy, err5, err3 = np.empty((3, n), dtype=dtype)
    cols = slice(None) if read is None else np.asarray(read)
    t = 0.0
    steps = trials = dense_outputs = taken = 0
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too, which would loop for ever
                raise IntegrationError(f"master-equation solver failed at t = {t:.6g}: "
                                       "required step size is less than spacing "
                                       "between numbers")
            t_new = t + h_abs
            if t_new - t_end > 0:
                t_new = t_end
            h = t_new - t
            h_abs = np.abs(h)
            for s in range(1, n_stages):
                np.dot(K[:s].T, A[s, :s], out=dy)
                dy *= h
                dy += y
                K[s] = rhs(t + C[s] * h, dy)
            np.dot(K[:n_stages].T, B, out=y_new)
            y_new *= h
            y_new += y
            K[n_stages] = rhs(t + h, y_new)
            trials += 1
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= RTOL
            scale += ATOL
            np.divide(np.dot(stages.T, E5, out=err5), scale, out=err5)
            np.divide(np.dot(stages.T, E3, out=err3), scale, out=err3)
            err5_norm_2 = np.linalg.norm(err5) ** 2
            err3_norm_2 = np.linalg.norm(err3) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / np.sqrt(denom * n)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** exponent))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            rejected = True
        t_old, t = t, t_new
        y_old, y, y_new = y, y_new, y
        abs_y, abs_new = abs_new, abs_y
        steps += 1
        upto = np.searchsorted(t_eval, t, side="right")
        if upto > taken:
            for s in range(n_stages + 1, len(K)):
                np.dot(K[:s].T, A[s, :s], out=dy)
                dy *= h
                dy += y_old
                K[s] = rhs(t_old + C[s] * h, dy)
            dense_outputs += 1
            values = _dense_values(K, h, y_old, y, t_eval[taken:upto] - t_old, cols)
            sample(t_eval[taken:upto],
                   values.reshape(-1, *blocks0.shape) if read is None else values)
            taken = upto
        K[0] = K[n_stages]
    record = {"duration": t_end,
              "nfev": 2 + n_stages * trials + n_extra * dense_outputs,
              "steps": steps, "rejected": trials - steps,
              "dense_outputs": dense_outputs, "wall_s": time.perf_counter() - started}
    return (y_old + (y - y_old)).reshape(blocks0.shape), record


def _initial_step(rhs, y0, f0, t_end):
    """scipy's `select_initial_step` for DOP853 from t = 0 to t_end at
    RTOL/ATOL (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4), in its
    numpy operations and their order: one evaluation of rhs, at t = h0."""
    scale = ATOL + np.abs(y0) * RTOL
    d0, d1 = _rms_norm(y0 / scale), _rms_norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, y0 + h0 * f0)
    d2 = _rms_norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (dop853.ERROR_ESTIMATOR_ORDER + 1))
    return min(100 * h0, h1, t_end)


def _rms_norm(x):
    """Root-mean-square norm, as scipy's step-size rules take it."""
    return np.linalg.norm(x) / x.size ** 0.5


def _dense_values(K, h, y_old, y, elapsed, cols):
    """DOP853's 7-term dense output of the step (t_old, t_old + h) with
    stages K, built and evaluated on the flat entries cols only, at the times
    t_old + elapsed; shape (len(elapsed), len(cols))."""
    delta_y = y[cols] - y_old[cols]
    f_old, f_new = K[0, cols], K[dop853.N_STAGES, cols]
    F = np.empty((3 + len(dop853.D), len(delta_y)), dtype=K.dtype)
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f_new + f_old)
    F[3:] = h * np.dot(dop853.D, K[:, cols])
    x = (elapsed / h)[:, None]
    values = np.zeros((len(x), len(delta_y)), dtype=K.dtype)
    for i, f in enumerate(reversed(F)):
        values += f
        values *= x if i % 2 == 0 else 1 - x
    values += y_old[cols]
    return values


def _top_levels_mass(nbar: float, alpha: np.ndarray, dim: int) -> np.ndarray:
    """p_{dim-2} + p_{dim-1} of D(alpha) thermal(nbar) D(alpha)^dag for each
    alpha of a 1-d array, from `protocol._populations` on `CHUNK` alphas at once."""
    out = np.empty(len(alpha))
    for lo in range(0, len(alpha), CHUNK):
        levels = _populations(nbar, np.abs(alpha[lo:lo + CHUNK]) ** 2)
        prev, p = itertools.islice(levels, dim - 2, dim)
        np.add(prev, p, out=out[lo:lo + CHUNK])
    return out


def _displaced_thermal(alpha: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Hermitian D(alpha) diag(probs) D(alpha)^dag / 2 on levels 0..d-1 per
    alpha, from <m|D(alpha)|k>: row 0 is e^{-|alpha|^2/2} (-conj alpha)^k /
    sqrt(k!), and a D = D (a + alpha) gives each next row."""
    dim, alpha, root = len(probs), alpha[:, None], _root(len(probs))[:-1]
    disp = np.empty((len(alpha), dim, dim), dtype=complex)
    disp[:, 0, 0] = np.exp(-0.5 * np.abs(alpha[:, 0]) ** 2)
    disp[:, 0, 1:] = -alpha.conj() / root
    np.cumprod(disp[:, 0], axis=-1, out=disp[:, 0])
    for m in range(dim - 1):
        disp[:, m + 1] = alpha * disp[:, m]
        disp[:, m + 1, 1:] += root * disp[:, m, :-1]
        disp[:, m + 1] /= root[m]
    rho = (disp * (0.5 * probs)) @ disp.conj().swapaxes(-1, -2)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def _eigensystem(cfg: ProtocolConfig, dim: int, coupling: float):
    """(E, V, V^T P V) of the real, symmetric, tridiagonal H = omega ad a +
    coupling (a + ad) on the dim levels, H = V diag(E) V^T: the Hamiltonian
    that M = rho01 P evolves under."""
    root = _root(dim)[:-1]
    hamiltonian = (np.diag(cfg.omega * np.arange(dim, dtype=float))
                   + np.diag(coupling * root, 1) + np.diag(coupling * root, -1))
    energies, vectors = np.linalg.eigh(hamiltonian)
    return energies, vectors, (vectors.T * _signs(dim)) @ vectors


def _phase_steps(energies: np.ndarray, step: float, count: int) -> np.ndarray:
    """e^{iE k step} for k = 0..count-1, shape (count, d): the phases of a
    uniform grid's in-block offsets.  Each doubling of the rows multiplies
    them by one row of exps, so the block costs about log2(count) rows of
    complex exp, not count, and each phase is a product of at most that many."""
    steps = np.ones((count, len(energies)), complex)
    size = 1
    while size < count:
        rows = min(size, count - size)
        np.multiply(steps[:rows], np.exp(1j * (size * step) * energies),
                    out=steps[size:size + rows])
        size *= 2
    return steps


def _evolved_modes(block: np.ndarray, p: np.ndarray, scale: float) -> np.ndarray:
    """The real form of scale A_jk conj(p_j) p_k, from the real form `block`
    of the Hermitian A: with F_jk = conj(p_j) p_k, it is scale (block o Re F
    + block^T o Im F), o the elementwise product.  Re F and Im F are two
    rank-2 real gemms, where numpy's complex outer product is several times
    slower."""
    cos_sin = np.stack([p.real, p.imag])
    real = cos_sin.T @ cos_sin  # c_j c_k + s_j s_k
    imag = cos_sin.T @ np.stack([p.imag, -p.real])  # c_j s_k - s_j c_k
    return scale * (block * real + block.T * imag)


def _exact_segment(eigensystem, phases, block, t_eval, gamma_a, sigma, rho01, parity, carry):
    """Propagate one undamped segment in closed form in the eigensystem
    (E, V, Q = V^T P V) of its H.  The state is the mode matrix A = V^T M V,
    M = rho01 P, held as its real form `block` = Re A + Im A (A is Hermitian),
    and it evolves elementwise (see the module docstring):

        A_jk(t) = e^{-2 gamma_a t} conj(p_j) p_k A_jk(0),  p = e^{iEt}.

    So each sample's Tr M P = Tr A Q is e^{-2 gamma_a t} sum_jk G_jk
    (c_j (c_k - s_k) + s_j (c_k + s_k)), with G = block o Q the real form of
    A o Q (o the elementwise product) and (c, s) = (Re, Im) p: one real gemm
    per `SIGMA_BLOCK` samples, written into sigma.  `phases` = (steps,
    e^{iET}) of the segment's coupling and duration T: a block's phases are
    the `_phase_steps` of the uniform grid's spacing times the row e^{iEt} of
    the block's first sample.  When rho01 is not None, each sample's lab-frame
    M P = V A(t) V^T P is written into it: two real gemms on the real form,
    then the signs `parity` = (-1)^n of P.
    Returns the real form of A(T) when `carry` (a next segment reads it),
    else None, and the segment record {propagator, wall_s}."""
    started = time.perf_counter()
    energies, vectors, mode_parity = eigensystem
    steps, end_phase = phases
    weights = block * mode_parity  # Q is symmetric
    for lo in range(0, len(t_eval), SIGMA_BLOCK):
        t = t_eval[lo:lo + SIGMA_BLOCK]
        n = len(t)
        fade = np.exp(-2.0 * gamma_a * t)
        phase = steps[:n] * np.exp(1j * t[0] * energies)
        cos_sin = np.concatenate([phase.real, phase.imag])
        product = cos_sin @ weights  # the rows c^T G, then s^T G
        # c^T G (c - s) + s^T G (c + s), as row dots that make no temporaries
        squares = np.einsum("ij,ij->i", product, cos_sin)
        sigma[lo:lo + n] = fade * (squares[:n] + squares[n:]
                                   + np.einsum("ij,ij->i", product[n:], cos_sin[:n])
                                   - np.einsum("ij,ij->i", product[:n], cos_sin[n:]))
        if rho01 is not None:
            for row, (p, fade_row) in enumerate(zip(phase, fade), lo):
                rho01[row] = _hermitian(
                    vectors @ _evolved_modes(block, p, fade_row) @ vectors.T) * parity
    fade_end = math.exp(-2.0 * gamma_a * t_eval[-1])
    end = _evolved_modes(block, end_phase, fade_end) if carry else None
    return end, {"propagator": "exact_eigh", "wall_s": time.perf_counter() - started}


def _run_segments(cfg: ProtocolConfig, segments: list[tuple[float, float, bool]],
                  keep_states: bool) -> VisibilityTrace:
    """Evolve rho01 through (duration, coupling, flip_after) segments; the
    populations come in closed form.  An undamped run (gamma_m = 0) takes one
    eigh per distinct coupling and carries its mode matrix A = V^T M V from
    segment to segment (`_exact_segment`): it enters modes once, from the
    diagonal M(0), and changes basis only where the coupling does, with the
    echo flip applied in modes and the phases of equal segments shared.  A
    damped run takes one DOP853 solve (`integrate_blocks`) per segment, which
    nothing else can step, and returns to the lab frame at each end.  The
    Fock dim and its tail mass come from one walk of the dim rule
    (`ProtocolConfig._dim_and_tail`)."""
    dim, dim_tail_mass = cfg._dim_and_tail()
    if not dim_tail_mass <= TAIL_MASS_BOUND:  # it bounds every sample's tail; NaN fails too
        raise TruncationError(f"Fock tail mass {dim_tail_mass:.3e} at dim {dim} (levels >= dim"
                              f" - 2) exceeds {TAIL_MASS_BOUND:.1e}; increase dim")
    exact = cfg.gamma_m == 0
    if not exact:
        # an explicit step is stable only while h |rate| stays within
        # STABILITY_LENGTH, so the fastest decay bounds the step count below
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 where a rate overflows
            rate = np.nanmax(np.abs(_decay(cfg, dim)))
        min_steps = rate * sum(duration for duration, _, _ in segments) / STABILITY_LENGTH
        if not min_steps <= MAX_STEP_BOUND:  # NaN is refused too
            raise IntegrationError(
                f"stiff run: decay rate {rate:.3e} needs at least {min_steps:.3e} explicit "
                f"steps, above {MAX_STEP_BOUND:.0e}; the damping is too fast for the "
                "explicit solver")
    period = 2.0 * math.pi / cfg.omega
    grids = []
    for duration, _, _ in segments:
        n_int = max(2, round(cfg.samples_per_period * duration / period))
        # a later segment's t = 0 is the previous one's last sample
        grids.append(np.linspace(0.0, duration, n_int + 1)[1 if grids else 0:])
    n_samples = sum(map(len, grids))
    sigma = np.empty(n_samples)
    states = kept_states(n_samples, dim) if keep_states else None
    propagators = {c: (_eigensystem if exact else _real_rhs)(cfg, dim, c)
                   for c in {seg[1] for seg in segments}}
    # |+><+| (x) thermal(nbar), renormalized on the dim levels: rho01 = thermal/2,
    # so R = M = thermal P / 2
    probs = np.exp(np.arange(dim) * math.log(cfg.nbar / (cfg.nbar + 1.0))) if cfg.nbar \
        else np.eye(dim)[0]
    probs /= probs.sum()
    parity = _signs(dim)
    flips = np.multiply.outer(parity, parity)  # P M P = M o flips
    block = np.diag(0.5 * probs * parity)
    # a bare run reads only each sample's diagonal; kept states read it all
    read = None if keep_states else np.arange(dim) * (dim + 1)
    taken = 0

    def sample(t, values):
        nonlocal taken
        rows = slice(taken, taken + len(t))
        taken = rows.stop
        if states is not None:  # rho01 = M P
            states[rows, :dim, dim:] = _to_lab(_hermitian(values), cfg.omega, t) * parity
            values = np.diagonal(values, axis1=-2, axis2=-1)
        sigma[rows] = (values * parity).sum(axis=-1)  # Tr rho01 = Tr M P, real

    # rho00 = D(alpha) thermal D(alpha)^dag / 2 with alpha' = drift alpha - i coupling
    drift, records, alphas, start = -(1j * cfg.omega + 0.5 * cfg.gamma_m), [], [], 0j
    phases = {}  # (coupling, duration) -> (steps, e^{iET}), shared by equal segments
    basis = None  # the eigenvectors V that an exact run's A = V^T M V is written in
    for index, ((duration, coupling, flip), t_eval) in enumerate(zip(segments, grids)):
        if exact:
            energies, vectors, mode_parity = propagators[coupling]
            if basis is None:  # the real, diagonal M(0) into modes: A = V^T M(0) V
                block = (vectors.T * block.diagonal()) @ vectors
            elif basis is not vectors:  # a new coupling: A -> W A W^T, W = V_new^T V_old
                turn = vectors.T @ basis
                block = turn @ block @ turn.T
            basis = vectors
            if (coupling, duration) not in phases:
                # sized by the pair's first segment: only the run's first one has t = 0 too
                phases[coupling, duration] = (
                    _phase_steps(energies, t_eval[1] - t_eval[0], min(len(t_eval), SIGMA_BLOCK)),
                    np.exp(1j * duration * energies))
            rows = slice(taken, taken + len(t_eval))
            taken = rows.stop
            block, record = _exact_segment(
                propagators[coupling], phases[coupling, duration], block, t_eval, cfg.gamma_a,
                sigma[rows], None if states is None else states[rows, :dim, dim:], parity,
                carry=index + 1 < len(segments))
            if flip and block is not None:  # P M P in modes: Q A Q
                block = mode_parity @ block @ mode_parity
        else:
            block, record = integrate_blocks(propagators[coupling], block, t_eval, sample,
                                             read=read)
            block = _to_lab(_hermitian(block), cfg.omega, duration)
            if flip:
                block = block * flips
            block = block.real + block.imag
        records.append({"duration": duration, "coupling": coupling} | record)
        fixed = 1j * coupling / drift
        alphas.append(fixed + (start - fixed) * np.exp(drift * t_eval))
        start = alphas[-1][-1]  # t_eval ends at the segment's end
        if flip:  # the echo gate maps rho01 to rho10 = P M, so M to P M P, and alpha to -alpha
            start = -start
    starts = np.cumsum([0.0] + [duration for duration, _, _ in segments])
    times = np.concatenate([t0 + grid for t0, grid in zip(starts, grids)])
    alpha = np.concatenate(alphas)
    if states is not None:  # rho00, rho11 = P rho00 P and rho10 = rho01^dag, a slab at a time
        for lo in range(0, n_samples, STATE_SLAB):
            slab = states[lo:lo + STATE_SLAB]
            rho00 = _displaced_thermal(alpha[lo:lo + STATE_SLAB], probs)
            slab[:, :dim, :dim], slab[:, dim:, dim:] = rho00, rho00 * flips
            slab[:, dim:, :dim] = slab[:, :dim, dim:].conj().swapaxes(-1, -2)
    visibility = 2.0 * np.abs(sigma)
    exact_error = np.abs(visibility - visibility_exact(
        cfg.omega, cfg.gamma_m, cfg.gamma_a, cfg.nbar, segments, times))
    tail = _top_levels_mass(cfg.nbar, alpha, dim)
    stats = {"dim": dim, "dim_rule": "config" if cfg.dim else "displaced_thermal_tail",
             "dim_tail_mass": dim_tail_mass,
             "dim_tail_bound": DIM_TAIL_BOUND, "segments": records,
             "worst_exact_error": float(exact_error.max()),
             "exact_error_bound": EXACT_ERROR_BOUND,
             "worst_tail_mass": float(tail.max()), "tail_mass_bound": TAIL_MASS_BOUND}
    if not stats["worst_tail_mass"] <= TAIL_MASS_BOUND:  # NaN fails too
        raise TruncationError(f"Fock tail mass {stats['worst_tail_mass']:.3e} exceeds "
                              f"{TAIL_MASS_BOUND:.1e}; increase dim")
    if not stats["worst_exact_error"] <= EXACT_ERROR_BOUND:
        # a configured dim can pass the tail bound yet truncate the run
        # beyond the exact check's reach, so that refusal names the dim
        hint = (f"; dim {dim} is configured, with Fock tail mass {dim_tail_mass:.3e} "
                "(levels >= dim - 2): increase dim") if cfg.dim else ""
        raise IntegrationError(f"visibility is {stats['worst_exact_error']:.3e} off its "
                               f"exact value, above {EXACT_ERROR_BOUND:.1e}{hint}")
    return VisibilityTrace(times, visibility, sigma, tail, states, stats,
                           exact_error=exact_error)


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
    transpose over the qubit, one eigvalsh per `STATE_SLAB` states.  The states
    must be Hermitian, as every state this package builds is exactly; so is
    each partial transpose then, and only its lower triangle is read."""
    n_states, n = np.shape(states)[:2]
    if n % 2 != 0:
        raise ValueError(f"joint dimension must be even, got {n}")
    d = n // 2
    out = np.empty(n_states)
    for lo in range(0, n_states, STATE_SLAB):
        pt = np.reshape(states[lo:lo + STATE_SLAB], (-1, 2, d, 2, d)).transpose(0, 3, 2, 1, 4)
        eigs = np.linalg.eigvalsh(pt.reshape(-1, n, n))
        out[lo:lo + STATE_SLAB] = -np.minimum(eigs, 0.0).sum(axis=-1)
    return out


def negativity(rho: np.ndarray) -> float:
    """Entanglement negativity of one Hermitian joint state across the
    qubit|oscillator cut; only its partial transpose's lower triangle is read."""
    return float(negativities(np.asarray(rho)[None])[0])
