"""Separable-channel evolution and the visibility monotonicity witness.

A population-preserving separable semigroup on qubit (x) oscillator forces
the coupled jump operator into the form sigma_z (x) B, under which the
qubit coherence can only decay: d<sigma_minus>/dt = -2*gamma <sigma_minus
(x) B^dag B>.  A visibility revival therefore certifies that the channel
can generate entanglement.  Generators here use the same standard-form
dissipator as `lindblad` (rate * (L rho L^dag - {L^dag L, rho}/2)), so for
B^dag B = c*1 the visibility decays at exactly 2*gamma*c.  The qubit
dephasing, the sigma_z (x) 1 jump, enters K as the decay gamma_a (z_s z_s' - 1)
of block (s, s'), as in `lindblad` and `analytic`: -2 gamma_a on rho01 alone.

These generators keep the sigma_z blocks apart but lack the protocol's
parity symmetry, so a joint state is the stacked (3, d, d) array [rho00,
rho11, rho01] (rho10 = rho01^dag), integrated as one flat vector and kept
as the quadrants of a joint (2d, 2d) state, written in place per sample into
a `kept_states` stack, which refuses a run beyond `MAX_STATE_VALUES` up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lindblad import (IntegrationError, ProtocolConfig, VisibilityTrace, integrate_blocks,
                       kept_states, negativities, run_protocol)

HERMITICITY_TOL = 1e-12
TRACE_ERROR_BOUND = 1e-7  # max tolerated |Tr rho - 1| along a separable run

PLUS_STATE = np.full((2, 2), 0.5, dtype=complex)

# qubit levels (s, s') of the stacked blocks [rho00, rho11, rho01], and
# the sigma_z eigenvalue z_s of each level
BLOCK_LEFT = np.array([0, 1, 0])
BLOCK_RIGHT = np.array([0, 1, 1])
Z_LEVEL = np.array([1.0, -1.0])


def split_blocks(rho: np.ndarray) -> np.ndarray:
    """Stacked blocks [rho00, rho11, rho01] of a joint (2d, 2d) state."""
    d = len(rho) // 2
    return np.array([rho[:d, :d], rho[d:, d:], rho[:d, d:]], dtype=complex)


@dataclass
class SeparableChannelSpec:
    """Generator data for a separable qubit-oscillator channel.

    qubit_splitting       omega_0 coefficient of sigma_z in H
    oscillator_hamiltonian  Hermitian d x d matrix H_B
    b_operator            oscillator factor B of the coupled jump sigma_z (x) B
    gamma                 rate of the coupled jump
    qubit_dephasing       rate of the local sigma_z (x) 1 jump
    oscillator_lindblads  [(op, rate), ...] local oscillator jumps 1 (x) C
    """

    qubit_splitting: float
    oscillator_hamiltonian: np.ndarray
    b_operator: np.ndarray
    gamma: float
    qubit_dephasing: float = 0.0
    oscillator_lindblads: list[tuple[np.ndarray, float]] = field(default_factory=list)

    def __post_init__(self):
        h = np.asarray(self.oscillator_hamiltonian, dtype=complex)
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
            raise ValueError("oscillator_hamiltonian must be Hermitian")
        self.oscillator_hamiltonian = h
        self.b_operator = np.asarray(self.b_operator, dtype=complex)
        if self.b_operator.shape != h.shape:
            raise ValueError("b_operator and oscillator_hamiltonian shapes differ")
        if self.gamma < 0 or self.qubit_dephasing < 0:
            raise ValueError("rates must be >= 0")
        for _, rate in self.oscillator_lindblads:
            if rate < 0:
                raise ValueError("rates must be >= 0")

    @property
    def dim(self) -> int:
        return self.oscillator_hamiltonian.shape[0]


@dataclass
class WitnessReport:
    """Outcome of the monotonicity check on one visibility trace; the
    field order is the column order of the `verify` CSV."""

    monotonic: bool
    max_violation: float
    negativity_peak: float
    decay_rate_fit: float


def _block_rhs(spec: SeparableChannelSpec):
    """Right-hand side for the flat blocks [rho00, rho11, rho01]: block (s, s') obeys
    -i(K rho - rho K_s'^dag) + sum_j rate_j c_j L_j rho L_j^dag, where K = K_s + i gamma_a
    (z_s z_s' - 1) holds the qubit dephasing as a decay, K_s = z_s omega_0 + H_B - (i/2)
    sum_j rate_j L_j^dag L_j, and c_j = z_s z_s' for sigma_z (x) B and 1 for local jumps."""
    d = spec.dim
    eye = np.eye(d, dtype=complex)
    coupled = Z_LEVEL[BLOCK_LEFT] * Z_LEVEL[BLOCK_RIGHT]
    jumps = [(spec.b_operator, spec.gamma, coupled)]
    jumps += [(np.asarray(op, dtype=complex), rate, np.ones(3))
              for op, rate in spec.oscillator_lindblads]
    loss = sum(rate * op.conj().T @ op for op, rate, _ in jumps)
    k = [z * spec.qubit_splitting * eye + spec.oscillator_hamiltonian - 0.5j * loss
         for z in Z_LEVEL]
    left = np.stack([k[s] + 1j * spec.qubit_dephasing * (c - 1.0) * eye
                     for s, c in zip(BLOCK_LEFT, coupled)])
    right = np.stack([k[s].conj().T for s in BLOCK_RIGHT])
    feeds = [(op, op.conj().T, (rate * c)[:, None, None]) for op, rate, c in jumps if rate]

    def rhs(t, y):
        rho = y.reshape(3, d, d)
        out = -1j * (left @ rho - rho @ right)
        for op, op_dag, weights in feeds:
            out += weights * (op @ rho @ op_dag)
        return out.ravel()

    return rhs


def simulate_separable(spec: SeparableChannelSpec, rho0: np.ndarray, t_max: float, *,
                       samples: int = 400) -> VisibilityTrace:
    """Evolve the joint state rho0 under the separable channel and sample
    its visibility; the trace keeps the joint (n, 2d, 2d) states, which
    `kept_states` refuses (ConfigError) over its budget before anything is
    allocated.  Raises IntegrationError when a sample's trace is off 1 by more
    than TRACE_ERROR_BOUND."""
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    d = spec.dim
    states = kept_states(samples + 1, d)
    t_eval = np.linspace(0.0, float(t_max), samples + 1)
    taken = 0

    def sample(t, blocks):  # the Hermitian parts of rho00 and rho11, rho01 and rho01^dag
        nonlocal taken
        rows, taken = states[taken:taken + len(t)], taken + len(t)
        hermitian = 0.5 * (blocks[:, :2] + blocks[:, :2].conj().swapaxes(-1, -2))
        rows[:, :d, :d], rows[:, d:, d:] = hermitian[:, 0], hermitian[:, 1]
        rows[:, :d, d:], rows[:, d:, :d] = blocks[:, 2], blocks[:, 2].conj().swapaxes(-1, -2)

    _, segment = integrate_blocks(_block_rhs(spec), split_blocks(rho0), t_eval, sample)
    diag = np.diagonal(states, axis1=-2, axis2=-1)
    pops = diag[:, :d].real + diag[:, d:].real
    sigma = np.diagonal(states[:, :d, d:], axis1=-2, axis2=-1).sum(axis=-1)
    trace_error, tail = np.abs(pops.sum(axis=-1) - 1.0), pops[:, -2:].sum(axis=-1)
    stats = {"dim": spec.dim, "dim_rule": "spec", "segments": [segment],
             "worst_trace_error": float(trace_error.max()),
             "trace_error_bound": TRACE_ERROR_BOUND,
             "worst_tail_mass": float(tail.max())}
    if not stats["worst_trace_error"] <= TRACE_ERROR_BOUND:  # NaN fails too
        raise IntegrationError(f"the separable state's trace is {stats['worst_trace_error']:.3e} "
                               f"off 1, above {TRACE_ERROR_BOUND:.1e}")
    return VisibilityTrace(t_eval, 2.0 * np.abs(sigma), sigma, tail, states, stats)


def check_monotonic(trace: VisibilityTrace, tol: float = 1e-6) -> WitnessReport:
    """Witness report for a sampled visibility curve.

    monotonic      V never rises by more than tol between adjacent samples
    max_violation  largest rise of V above its running minimum (the revival
                   amplitude for a genuinely non-monotonic curve)
    negativity_peak largest negativity of the trace's joint states, which it
                   must keep (`run_protocol(..., keep_states=True)`)
    decay_rate_fit least-squares exponential rate of V(t) (clipped at the
                   floor of numerical noise); for a separable channel with
                   B^dag B = c*1 this fits 2*gamma*c
    """
    v = np.asarray(trace.visibility, dtype=float)
    t = np.asarray(trace.times, dtype=float)
    if len(v) < 2:
        raise ValueError("trace must contain at least two samples")
    if trace.states is None:
        raise ValueError("the trace kept no joint states to take the negativity of; "
                         "run it with keep_states=True")
    return WitnessReport(
        monotonic=bool(np.all(np.diff(v) <= tol)),
        max_violation=float(np.max(v - np.minimum.accumulate(v))),
        negativity_peak=float(negativities(trace.states).max()),
        decay_rate_fit=float(-np.polyfit(t, np.log(np.clip(v, 1e-300, None)), 1)[0]),
    )


def _random_operator(rng: np.random.Generator, dim: int, norm: float) -> np.ndarray:
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    spec_norm = np.linalg.norm(op, 2)
    return op * (norm / spec_norm)


def random_separable_spec(seed: int, dim: int) -> SeparableChannelSpec:
    """Deterministic random channel: Haar-ish B with spectral norm <= 1,
    random Hermitian H_B, mixed local qubit/oscillator noise."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    b_norm = rng.uniform(0.3, 1.0)
    b_op = _random_operator(rng, dim, b_norm)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h_b = (g + g.conj().T) / 2.0
    h_b *= 1.0 / max(np.linalg.norm(h_b, 2), 1e-12)
    gamma = rng.uniform(0.0, 0.2)
    dephasing = rng.uniform(0.0, 0.1)
    locals_ = []
    for _ in range(int(rng.integers(0, 3))):
        locals_.append((_random_operator(rng, dim, 1.0), rng.uniform(0.0, 0.1)))
    return SeparableChannelSpec(
        qubit_splitting=rng.uniform(0.0, 1.0),
        oscillator_hamiltonian=h_b,
        b_operator=b_op,
        gamma=gamma,
        qubit_dephasing=dephasing,
        oscillator_lindblads=locals_,
    )


def random_product_state(seed: int, dim: int) -> np.ndarray:
    """|+><+| (x) (random full-rank oscillator state), seed-deterministic."""
    rng = np.random.default_rng(seed + 0x5EED)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho_b = g @ g.conj().T
    rho_b /= np.trace(rho_b).real
    return np.kron(PLUS_STATE, rho_b)


def run_property_suite(
    n_seeds: int,
    dim: int,
    *,
    tol: float = 1e-6,
    t_max: float = 8.0,
    samples: int = 400,
) -> list[WitnessReport]:
    """Monotonicity + zero-negativity check over seeded random channels;
    report k is seed k."""
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    reports = []
    for seed in range(n_seeds):
        spec = random_separable_spec(seed, dim)
        rho0 = random_product_state(seed, dim)
        trace = simulate_separable(spec, rho0, t_max, samples=samples)
        reports.append(check_monotonic(trace, tol))
    return reports


def coupled_contrast_case(coupling_ratio: float = 0.25, *, tol: float = 1e-6) -> WitnessReport:
    """Witness on the genuinely coupled protocol: the basic protocol over one
    period, sigma_z(a+ad) coupling at lam = coupling_ratio, no noise, keeping
    its states at its own default dim.  Expected: non-monotonic, revival
    amplitude 1 - exp(-8 lam^2), positive negativity at the half period."""
    cfg = ProtocolConfig(omega=1.0, g=coupling_ratio, t_max=2.0 * math.pi)
    return check_monotonic(run_protocol(cfg, keep_states=True), tol)
