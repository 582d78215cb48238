"""Tests for the numerical master-equation engine.

The closed-form curves from `analytic` serve as oracles everywhere the
noise model admits one.  The complex block generator of `oracles` is checked
against the defining right-hand side of the joint master equation, built here
with np.kron, on small random states, and the engine's real parity form is
checked against that generator, term by term and through tight solves.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg import expm

from oracles import SIGMA_Z, annihilation, initial_state, rotating_rhs, thermal_density
from revivalsim.analytic import (
    CHUNK,
    CouplingParams,
    spin_echo_overlap,
    visibility_boosted,
    visibility_damped,
    visibility_exact,
    visibility_thermal,
)
from revivalsim.cli import _protocol_config_from_file, main
from revivalsim.config import parse_config_file
from revivalsim import dop853, lindblad
from revivalsim.lindblad import (
    ATOL,
    EXACT_ERROR_BOUND,
    MAX_DIM,
    MAX_RUN_SAMPLES,
    MAX_STEP_BOUND,
    RTOL,
    STABILITY_LENGTH,
    IntegrationError,
    ProtocolConfig,
    TruncationError,
    _decay,
    _displaced_thermal,
    _hermitian,
    _parity,
    _real_rhs,
    _top_levels_mass,
    integrate_blocks,
    negativity,
    run_protocol,
)
from revivalsim.witness import (
    PLUS_STATE,
    _block_rhs,
    join_blocks,
    random_product_state,
    random_separable_spec,
    split_blocks,
)

FIG_NBAR = 1.5414940825367982  # thermal occupation at omega = 1, T = 2
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _random_state(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _lindblad_rhs(h, jumps, rho):
    out = -1j * (h @ rho - rho @ h)
    for rate, op in jumps:
        opd = op.conj().T
        out = out + rate * (
            op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op)
        )
    return out


def _joint_model(cfg, dim, coupling):
    """Lab-frame joint Hamiltonian and jumps of the protocol model."""
    a = annihilation(dim)
    ad = a.conj().T
    eye_q, eye_m = np.eye(2), np.eye(dim)
    h = cfg.omega * np.kron(eye_q, ad @ a) + coupling * np.kron(SIGMA_Z, a + ad)
    jumps = [
        (cfg.nbar * cfg.gamma_m, np.kron(eye_q, ad)),
        ((cfg.nbar + 1.0) * cfg.gamma_m, np.kron(eye_q, a)),
        (cfg.gamma_a, np.kron(SIGMA_Z, eye_m)),
    ]
    return h, jumps


def _dense_rhs(h, jumps):
    n = h.shape[0]
    return lambda t, y: _lindblad_rhs(h, jumps, y.reshape(n, n)).ravel()


def _apply(rhs, t, blocks):
    return rhs(t, blocks.ravel()).reshape(blocks.shape)


def _protocol_blocks(rho):
    """The blocks [rho00, rho01] of a joint state: the closed form and the solve."""
    return split_blocks(rho)[[0, 2]]


def _apply_protocol(cfg, dim, coupling, t, blocks):
    """The oracle's one-block right-hand sides of rho00 and rho01 on [rho00, rho01]."""
    return np.stack([_apply(rotating_rhs(cfg, dim, coupling, z_right), t, block)
                     for z_right, block in zip((1.0, -1.0), blocks)])


def _system(kind, dim):
    """(rhs, blocks0) of a real system, the engine's rho01 generator on R; a
    complex one, the separable channel's three blocks; or a (dim, dim) block
    of ones under a decay rate that switches on over 0.05 around t = 4, where
    scipy's own first step and controller meet rejected trials (93 steps on
    [0, 8], 22 of them rejected)."""
    if kind == "switch":
        return (lambda t, y: -20.0 * (1.0 + np.tanh((t - 4.0) / 0.05)) * y), np.ones((dim, dim))
    if kind == "real":
        cfg = ProtocolConfig(g=0.2, nbar=1.0, gamma_m=0.05, gamma_a=0.01)
        m = _random_state(np.random.default_rng(7), dim)
        return _real_rhs(cfg, dim, cfg.g), m.real + m.imag
    return _block_rhs(random_separable_spec(4, dim)), split_blocks(random_product_state(4, dim))


def _segments(cfg):
    """run_protocol's (duration, coupling, flip_after) segments, spelled out."""
    half, t_max = math.pi / cfg.omega, cfg.resolved_t_max()
    if cfg.protocol == "basic":
        return [(t_max, cfg.g, False)]
    if cfg.protocol == "boosted":
        return [(half, cfg.g + cfg.g_prime, False), (t_max - half, cfg.g, False)]
    return [(half, cfg.g, j not in (2 * cfg.n_pi, 4 * cfg.n_pi))
            for j in range(1, 4 * cfg.n_pi + 1)]


# ---------------------------------------------------------------------------
# block kernel
# ---------------------------------------------------------------------------


def test_hamiltonian_layout():
    # noiseless, in the rotating frame: block (s, s') evolves as
    # -i(V_s rho - rho V_s') with V_up = 0.3 (a e^{-i w t} + ad e^{i w t})
    # and the qubit-down block's coupling flipped; the 2 ad a term is gone
    cfg = ProtocolConfig(omega=2.0, g=0.3, dim=12)
    a = annihilation(12)
    rng = np.random.default_rng(1)
    blocks = _protocol_blocks(_random_state(rng, 24))
    for t, turn in ((0.0, 1.0), (math.pi / 4.0, -1j)):
        v_up = 0.3 * (turn * a + np.conj(turn) * a.conj().T)
        v = [v_up, -v_up]
        want = np.stack([-1j * (v[s] @ blocks[k] - blocks[k] @ v[r])
                         for k, (s, r) in enumerate([(0, 0), (0, 1)])])
        assert np.max(np.abs(_apply_protocol(cfg, 12, 0.3, t, blocks) - want)) < 1e-14


def test_standard_jump_rates():
    cfg = ProtocolConfig(g=0.1, gamma_m=0.02, gamma_a=0.005, nbar=3.0, dim=16)
    proj = np.eye(16, dtype=complex)
    ground, excited = np.outer(proj[0], proj[0]), np.outer(proj[1], proj[1])
    # blocks [rho00, rho01]; rho00 takes the Fock projectors in turn
    d0 = _apply_protocol(cfg, 16, 0.0, 0.0, np.stack([ground, ground]))
    d1 = _apply_protocol(cfg, 16, 0.0, 0.0, np.stack([excited, ground]))
    up, down = 3.0 * 0.02, 4.0 * 0.02  # rates of the ad and a jumps
    assert d0[0, 1, 1] == pytest.approx(up) and d0[0, 0, 0] == pytest.approx(-up)
    assert d1[0, 0, 0] == pytest.approx(down) and d1[0, 2, 2] == pytest.approx(2 * up)
    assert d1[0, 1, 1] == pytest.approx(-down - 2 * up)
    assert d0[1, 0, 0] == pytest.approx(-up - 2 * 0.005)
    # no mechanical jumps when gamma_m = 0: only the coherence dephases
    cfg2 = ProtocolConfig(g=0.1, gamma_a=0.005, nbar=3.0, dim=16)
    blocks = np.stack([ground, ground])
    d2 = _apply_protocol(cfg2, 16, 0.0, 0.0, blocks)
    assert np.max(np.abs(d2[0])) == 0.0
    assert np.max(np.abs(d2[1] + 2 * 0.005 * blocks[1])) < 1e-18


def test_protocol_rhs_matches_dense_lindblad():
    # rotating frame rho~ = U rho U^dag, U = exp(i omega N t):
    # d rho~/dt = i omega [N, rho~] + U L(U^dag rho~ U) U^dag
    rng = np.random.default_rng(3)
    for dim in (6, 12):
        cfg = ProtocolConfig(omega=1.3, g=0.2, gamma_m=0.05, gamma_a=0.02, nbar=0.7)
        h, jumps = _joint_model(cfg, dim, 0.35)
        levels = np.tile(np.arange(dim), 2)
        for t in (0.0, 0.9):
            rho = _random_state(rng, 2 * dim)
            u = np.diag(np.exp(1j * cfg.omega * levels * t))
            n_op = np.diag(levels.astype(complex))
            want = 1j * cfg.omega * (n_op @ rho - rho @ n_op) + u @ _lindblad_rhs(
                h, jumps, u.conj().T @ rho @ u) @ u.conj().T
            got = _apply_protocol(cfg, dim, 0.35, t, _protocol_blocks(rho))
            assert np.max(np.abs(got - _protocol_blocks(want))) < 1e-12


def test_separable_rhs_matches_dense_lindblad():
    rng = np.random.default_rng(5)
    for dim, seed in ((6, 2), (12, 3)):
        spec = random_separable_spec(seed, dim)
        assert spec.oscillator_lindblads and spec.qubit_dephasing > 0
        eye_q, eye_m = np.eye(2), np.eye(dim)
        h = spec.qubit_splitting * np.kron(SIGMA_Z, eye_m) + np.kron(
            eye_q, spec.oscillator_hamiltonian)
        jumps = [(spec.gamma, np.kron(SIGMA_Z, spec.b_operator)),
                 (spec.qubit_dephasing, np.kron(SIGMA_Z, eye_m))]
        jumps += [(rate, np.kron(eye_q, op)) for op, rate in spec.oscillator_lindblads]
        rho = _random_state(rng, 2 * dim)
        got = _apply(_block_rhs(spec), 0.0, split_blocks(rho))
        assert np.max(np.abs(got - split_blocks(_lindblad_rhs(h, jumps, rho)))) < 1e-12


def test_protocol_rhs_annihilates_steady_state():
    # with thermal jumps and no coupling, the thermal state is stationary
    cfg = ProtocolConfig(g=0.0, gamma_m=0.1, nbar=2.0, dim=50)
    rho = np.kron(np.diag([1.0, 0.0]).astype(complex), thermal_density(2.0, 50))
    resid = _apply_protocol(cfg, 50, 0.0, 1.7, _protocol_blocks(rho))
    assert np.max(np.abs(resid)) < 1e-9  # truncation-limited, not solver-limited


def test_real_rhs_is_the_rho01_rhs_in_parity_form():
    # M = rho01 P is Hermitian and R = Re M + Im M; the engine's dR is
    # Re dM + Im dM with dM = (oracle rho01 rhs of M P) P, which stays Hermitian
    rng = np.random.default_rng(8)
    for dim in (6, 12):
        parity = np.diag((-1.0) ** np.arange(dim))
        for point in (dict(g=0.35), dict(g=0.35, gamma_m=0.05, gamma_a=0.02, nbar=0.7),
                      dict(g=0.0, gamma_m=0.05, nbar=0.7)):
            cfg = ProtocolConfig(omega=1.3, **point)
            real, oracle = _real_rhs(cfg, dim, cfg.g), rotating_rhs(cfg, dim, cfg.g, -1.0)
            for t in (0.0, 0.9, 4.0):
                m = _random_state(rng, dim)
                dm = _apply(oracle, t, m @ parity) @ parity
                assert np.max(np.abs(dm - dm.conj().T)) < 1e-14
                got = _apply(real, t, m.real + m.imag)
                assert np.max(np.abs(got - (dm.real + dm.imag))) < 1e-13
                assert np.max(np.abs(_hermitian(got) - dm)) < 1e-13


def test_echo_gate_swaps_blocks():
    # a parity-symmetric state (rho11 = P rho00 P), as every protocol state is
    rho = _random_state(np.random.default_rng(6), 14)
    parity = np.diag((-1.0) ** np.arange(7))
    sym = np.kron(SIGMA_X, parity)
    rho = 0.5 * (rho + sym @ rho @ sym)
    flip = np.kron(SIGMA_X, np.eye(7))
    want = flip @ rho @ flip
    # the gate maps rho00 to rho11 = P rho00 P and rho01 to rho01^dag
    rho00, rho01 = _protocol_blocks(rho)
    got = np.stack([_parity(rho00), rho01.conj().T])
    assert np.max(np.abs(got - _protocol_blocks(want))) < 1e-15
    joint = join_blocks(np.stack([got[0], parity @ got[0] @ parity, got[1]]))
    assert np.max(np.abs(joint - want)) < 1e-15
    assert np.max(np.abs(join_blocks(split_blocks(rho)) - rho)) < 1e-15
    # so a flip maps the closed-form rho00 at alpha to the one at -alpha
    alpha, probs = np.array([0.4 - 0.3j]), thermal_density(0.8, 30).diagonal().real
    assert np.max(np.abs(_parity(_displaced_thermal(alpha, probs))
                         - _displaced_thermal(-alpha, probs))) < 1e-15


@pytest.mark.parametrize("protocol", ["basic", "boosted", "spin_echo"])
def test_kept_states_are_lab_frame_density_matrices(protocol):
    dim, n_pi = 20, 1
    boosted = protocol == "boosted"
    cfg = ProtocolConfig(g=0.15, g_prime=0.1 if boosted else 0.0, nbar=0.3,
                         gamma_m=0.02, gamma_a=0.01, dim=dim,
                         t_max=4.0 if boosted else 1.5, protocol=protocol,
                         n_pi=n_pi, samples_per_period=24)
    trace = run_protocol(cfg, keep_states=True)
    states = trace.states
    assert states.shape == (len(trace.times), 2 * dim, 2 * dim)
    assert np.max(np.abs(states - states.conj().transpose(0, 2, 1))) == 0.0
    traces = np.trace(states, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    # the lab-frame joint master equation, integrated densely, gives the
    # same states; in the rotating frame the coherences would be off by
    # the phases exp(i omega (i - j) t)
    flip = np.kron(SIGMA_X, np.eye(dim))
    rho, t_now, want = initial_state(cfg), 0.0, []
    for idx, (duration, coupling, flip_after) in enumerate(_segments(cfg)):
        rhs = _dense_rhs(*_joint_model(cfg, dim, coupling))
        t_eval = trace.times[(trace.times >= t_now - 1e-12)
                             & (trace.times <= t_now + duration + 1e-12)] - t_now
        t_eval = np.concatenate([[0.0], t_eval[t_eval > 1e-12]])
        sol = solve_ivp(rhs, (0.0, duration), rho.ravel(), method="DOP853",
                        t_eval=t_eval, rtol=1e-12, atol=1e-14)
        path = sol.y.T.reshape(-1, 2 * dim, 2 * dim)
        want.extend(path if idx == 0 else path[1:])
        rho = flip @ path[-1] @ flip if flip_after else path[-1]
        t_now += duration
    assert len(want) == len(states)
    assert np.max(np.abs(states - np.array(want))) < 1e-8


@pytest.mark.parametrize("kind", ["complex", "real", "switch"])
def test_streamed_integration_equals_solve_ivp(kind):
    # the stepped DOP853 must reproduce solve_ivp(t_eval=...) bit for bit, on
    # a real state and a complex one; t_eval holds step ends of the same solve
    # and the final t_bound, and the switched-on decay meets rejected trials
    dim, t_end = 6, 8.0
    rhs, blocks0 = _system(kind, dim)
    options = dict(method="DOP853", rtol=1e-10, atol=1e-12)
    free = solve_ivp(rhs, (0.0, t_end), blocks0.ravel(), **options)
    grid, step_ends = np.linspace(0.0, t_end, 41), free.t[1:-1:3]
    assert not np.isin(step_ends, grid).any()
    t_eval = np.unique(np.concatenate([grid, step_ends]))
    sol = solve_ivp(rhs, (0.0, t_end), blocks0.ravel(), t_eval=t_eval, **options)
    chunks = []
    end, record = integrate_blocks(rhs, blocks0, t_eval,
                                   lambda t, b: chunks.append((t.copy(), b.copy())))
    times = np.concatenate([t for t, _ in chunks])
    path = np.concatenate([b for _, b in chunks])
    assert path.dtype == end.dtype == blocks0.dtype
    assert np.array_equal(times, sol.t) and times[-1] == t_end
    assert np.array_equal(path, sol.y.T.reshape(len(t_eval), *blocks0.shape))
    assert np.array_equal(end, path[-1])
    assert record["nfev"] == sol.nfev
    assert record["steps"] == len(free.t) - 1
    assert (record["steps"], record["rejected"]) == _scipy_step_counts(
        rhs, blocks0.ravel(), t_end)
    # solve_ivp evaluates once at t0 and once to choose its first step
    trials = record["steps"] + record["rejected"]
    assert record["nfev"] == 2 + 12 * trials + 3 * record["dense_outputs"]
    assert record["dense_outputs"] == len(chunks)
    assert (record["rejected"] > 0) == (kind == "switch")


def _scipy_step_counts(rhs, y0, t_end):
    """Accepted and rejected steps of scipy's own DOP853, stepped to t_end."""
    solver = DOP853(rhs, 0.0, y0, t_end, rtol=RTOL, atol=ATOL)
    steps = trials = 0
    while solver.status == "running":
        before = solver.nfev
        solver.step()
        steps += 1
        trials += (solver.nfev - before) // DOP853.n_stages
    return steps, trials - steps


@pytest.mark.parametrize("kind", ["real", "complex", "switch"])
def test_diagonal_read_equals_solve_ivp(kind, monkeypatch):
    # the engine's damped, dephased, coupled rho01 generator on R, the
    # separable channel's complex blocks and the switched-on decay, read on
    # the last block's diagonal only: the samples are solve_ivp's bit for
    # bit, the returned block is its last full state, and the solver work is
    # the same step for step
    dim, t_end = 12, 2.0 * math.pi
    rhs, blocks0 = _system(kind, dim)
    # the last step takes the final three samples at least
    t_eval = np.append(np.linspace(0.0, t_end, 41)[:-1], t_end - np.array([2e-9, 1e-9, 0.0]))
    sol = solve_ivp(rhs, (0.0, t_end), blocks0.ravel(), method="DOP853", t_eval=t_eval,
                    rtol=RTOL, atol=ATOL)
    read = blocks0.size - dim * dim + np.arange(dim) * (dim + 1)
    dense = lindblad._dense_values
    shapes = []  # every dense output's (times, entries)
    monkeypatch.setattr(lindblad, "_dense_values",
                        lambda *args: shapes.append(dense(*args).shape) or dense(*args))
    chunks = []
    end, record = integrate_blocks(rhs, blocks0, t_eval,
                                   lambda t, values: chunks.append(values.copy()),
                                   read=read)
    assert all(chunk.shape[1:] == (dim,) and chunk.dtype == blocks0.dtype for chunk in chunks)
    # the whole block is interpolated once, at the end; the last step's
    # samples, like every other step's, only on the read entries
    assert len(chunks[-1]) >= 3
    assert shapes.count((1, blocks0.size)) == 1 == len(shapes) - len(chunks)
    assert np.array_equal(np.concatenate(chunks), sol.y[read].T)
    assert np.array_equal(end, sol.y[:, -1].reshape(blocks0.shape))
    assert record["nfev"] == sol.nfev
    steps, rejected = _scipy_step_counts(rhs, blocks0.ravel(), t_end)
    assert (record["steps"], record["rejected"]) == (steps, rejected)
    assert (rejected > 0) == (kind == "switch")


@pytest.mark.parametrize("rhs, y0, t_end", [
    (lambda t, y: -1000.0 * y, np.ones(4), 0.05),     # 100 h0 sets the step
    (lambda t, y: np.ones_like(y), np.zeros(4), 1.0),  # a zero start: h0 = 1e-6
    (lambda t, y: np.zeros_like(y), np.ones(4), 1.0),  # f = 0: max(1e-6, h0 / 1000)
    (lambda t, y: -y, np.ones(4), 1e-3)],              # the segment's end
    ids=["fast-decay", "zero-start", "steady", "short"])
def test_first_step_rule_equals_solve_ivp(rhs, y0, t_end):
    # each branch of the first-step rule takes scipy's steps bit for bit
    t_eval = np.linspace(0.0, t_end, 5)
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", t_eval=t_eval, rtol=RTOL,
                    atol=ATOL)
    chunks = []
    _, record = integrate_blocks(rhs, y0, t_eval, lambda t, values: chunks.append(values.copy()))
    assert np.array_equal(np.concatenate(chunks), sol.y.T)
    assert record["nfev"] == sol.nfev
    assert (record["steps"], record["rejected"]) == _scipy_step_counts(rhs, y0, t_end)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("nan_from", [0.0, 0.5])
def test_nan_right_hand_side_raises_integration_error(nan_from):
    # a NaN from the first f gave scipy a NaN first step, which never falls
    # below the minimum step and so looped for ever; a later NaN shrinks the
    # step until it does
    def rhs(t, y):
        return np.full_like(y, np.nan) if t >= nan_from else -y

    with pytest.raises(IntegrationError, match="spacing between numbers"):
        integrate_blocks(rhs, np.eye(3, dtype=complex), np.linspace(0.0, 1.0, 5),
                         lambda t, values: None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_eval", [[0.0], [-1.0, -0.5], [0.0, np.nan]],
                         ids=["zero", "negative", "nan"])
def test_end_at_or_before_zero_raises_value_error(t_eval):
    # refused before rhs is called, where the step loop would never run
    def rhs(t, y):
        pytest.fail("rhs evaluated")

    with pytest.raises(ValueError, match="after t = 0"):
        integrate_blocks(rhs, np.eye(3), np.array(t_eval), lambda t, values: None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_start_raises_value_error(bad):
    blocks0 = np.eye(3, dtype=complex)
    blocks0[1, 2] = bad
    rhs, t_eval = (lambda t, y: -y), np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        DOP853(rhs, 0.0, blocks0.ravel(), 1.0)
    with pytest.raises(ValueError, match="finite"):
        integrate_blocks(rhs, blocks0, t_eval, lambda t, values: None)


def test_tableau_equals_scipys_dop853():
    n = dop853.N_STAGES
    assert n == DOP853.n_stages
    assert dop853.ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order
    assert dop853.A.shape == (dop853.N_STAGES_EXTENDED,) * 2
    ours = {"A": dop853.A[:n, :n], "A_EXTRA": dop853.A[n + 1:], "B": dop853.B,
            "C": dop853.C[:n], "C_EXTRA": dop853.C[n + 1:], "E3": dop853.E3,
            "E5": dop853.E5, "D": dop853.D}
    for name, value in ours.items():
        assert np.array_equal(value, getattr(DOP853, name)), name


def test_stability_length_matches_the_tableau():
    # R(-x) = 1 - x B (I + x A)^-1 1 is DOP853's stability polynomial
    def growth(x):
        n = dop853.N_STAGES
        ones, a = np.ones(n), dop853.A[:n, :n]
        return abs(1.0 - x * dop853.B @ np.linalg.solve(np.eye(n) + x * a, ones))

    assert all(growth(x) <= 1.0 for x in np.linspace(0.0, STABILITY_LENGTH, 640))
    assert growth(STABILITY_LENGTH + 0.01) > 1.0


def test_step_bound_refuses_before_integrating(monkeypatch):
    # the bound is max|decay| * duration / STABILITY_LENGTH; the Q = 10
    # corner sits far below the limit, and a run just above it never steps
    corner = ProtocolConfig(g=0.3, nbar=5.0, gamma_m=0.1)
    corner_bound = (np.abs(_decay(corner, corner.resolved_dim())).max()
                    * corner.resolved_t_max() / STABILITY_LENGTH)
    assert 200 < corner_bound and 100 * 900 < MAX_STEP_BOUND
    cfg = ProtocolConfig(g=0.05, nbar=1.0, gamma_m=0.01, gamma_a=0.002,
                         t_max=2.0 * math.pi, samples_per_period=20)
    bound = (np.abs(_decay(cfg, cfg.resolved_dim())).max()
             * cfg.resolved_t_max() / STABILITY_LENGTH)
    monkeypatch.setattr(lindblad, "MAX_STEP_BOUND", bound * (1.0 + 1e-12))
    run_protocol(cfg)
    monkeypatch.setattr(lindblad, "MAX_STEP_BOUND", bound * (1.0 - 1e-12))
    monkeypatch.setattr(lindblad, "integrate_blocks", lambda *a, **k: pytest.fail("stepped"))
    with pytest.raises(IntegrationError, match="stiff run"):
        run_protocol(cfg)


def test_step_bound_counts_only_stepped_runs():
    # an undamped run is propagated exactly, so dephasing far beyond the
    # bound's reach (~1.2e5 steps here) never refuses it; the damped run at
    # the same rates would step, and is refused
    cfg = ProtocolConfig(g=0.05, nbar=1.0, gamma_a=6e4, t_max=2.0 * math.pi,
                         samples_per_period=100_000)
    assert 2.0 * cfg.gamma_a * cfg.resolved_t_max() / STABILITY_LENGTH > MAX_STEP_BOUND
    trace = run_protocol(cfg)
    assert trace.stats["worst_exact_error"] <= EXACT_ERROR_BOUND
    # the dephasing factor e^{-2 gamma_a t} is resolved before it underflows
    fade = np.exp(-2.0 * cfg.gamma_a * trace.times[1:4])
    assert fade[0] > 1e-4
    assert trace.visibility[1:4] == pytest.approx(fade, rel=1e-9)
    with pytest.raises(IntegrationError, match="stiff run"):
        run_protocol(dataclasses.replace(cfg, gamma_m=0.01))


@pytest.mark.parametrize("protocol, gamma_m", [
    ("basic", 0.01), ("boosted", 0.01), ("spin_echo", 0.01), ("spin_echo", 0.0)],
    ids=["basic", "boosted", "spin_echo", "spin_echo_undamped"])
def test_keep_states_leaves_visibility_bit_identical(protocol, gamma_m):
    # damped runs read one DOP853 solve; undamped ones the exact propagator,
    # whose sigma takes the same gemm whether or not states are kept
    cfg = ProtocolConfig(g=0.1, g_prime=0.05 if protocol == "boosted" else 0.0,
                         nbar=1.0, gamma_m=gamma_m, gamma_a=0.002, protocol=protocol,
                         samples_per_period=30)
    kept, bare = run_protocol(cfg, keep_states=True), run_protocol(cfg)
    assert bare.states is None and len(kept.states) == len(kept.times)
    for name in ("times", "visibility", "sigma_minus", "exact_error", "tail_mass"):
        assert np.array_equal(getattr(kept, name), getattr(bare, name)), name


# ---------------------------------------------------------------------------
# protocol runs against closed forms
# ---------------------------------------------------------------------------


def test_free_evolution_keeps_full_visibility():
    cfg = ProtocolConfig(g=0.0, nbar=1.0, t_max=2.0 * math.pi, samples_per_period=50)
    trace = run_protocol(cfg)
    assert np.max(np.abs(trace.visibility - 1.0)) < 1e-10


def test_vacuum_half_period_collapse():
    cfg = ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=100)
    trace = run_protocol(cfg)
    k = int(np.argmin(np.abs(trace.times - math.pi)))
    assert trace.times[k] == pytest.approx(math.pi, abs=1e-12)
    assert trace.visibility[k] == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_full_period_revival():
    cfg = ProtocolConfig(g=0.3, nbar=1.5, t_max=2.0 * math.pi, samples_per_period=60)
    trace = run_protocol(cfg)
    assert abs(trace.visibility[-1] - 1.0) < 1e-8


def test_thermal_trace_matches_closed_form():
    cfg = ProtocolConfig(g=0.1, nbar=12.0, t_max=math.pi, samples_per_period=60)
    assert cfg.resolved_dim() >= 120
    trace = run_protocol(cfg)
    pred = visibility_thermal(CouplingParams(coupling=0.1, nbar=12.0), trace.times)
    assert np.max(np.abs(trace.visibility - pred)) < 1e-6
    assert trace.visibility[-1] == pytest.approx(math.exp(-2.0), abs=1e-6)


def test_worst_corner_matches_thermal_closed_form():
    # lam = 0.3, nbar = 5 is the envelope's largest Fock dim; the remaining
    # error is set by atol
    cfg = ProtocolConfig(g=0.3, nbar=5.0, t_max=2.0 * math.pi, samples_per_period=100)
    trace = run_protocol(cfg)
    pred = visibility_thermal(CouplingParams(coupling=0.3, nbar=5.0), trace.times)
    assert np.max(np.abs(trace.visibility - pred)) < 5e-9


def test_damped_trace_matches_expansion():
    cfg = ProtocolConfig(
        g=1e-2, gamma_m=5e-3, nbar=FIG_NBAR, t_max=math.pi, samples_per_period=60
    )
    trace = run_protocol(cfg)
    p = CouplingParams(coupling=1e-2, nbar=FIG_NBAR, q_factor=200.0)
    assert np.max(np.abs(trace.visibility - visibility_damped(p, trace.times))) < 1e-3


@pytest.mark.parametrize("q_factor, bound", [(100.0, 1e-4), (1000.0, 1e-6)])
def test_damped_expansion_is_second_order_in_one_over_q(q_factor, bound):
    # lam = 0.2, nbar = 3 over two periods: 1.8e-5 at Q = 100 and 1.8e-7 at
    # Q = 1000; a wrong 1/Q term shows as 1.7e-2 and 1.7e-3
    cfg = ProtocolConfig(g=0.2, nbar=3.0, gamma_m=1.0 / q_factor, samples_per_period=40)
    trace = run_protocol(cfg)
    p = CouplingParams(coupling=0.2, nbar=3.0, q_factor=q_factor)
    assert np.max(np.abs(trace.visibility - visibility_damped(p, trace.times))) < bound


def test_qubit_dephasing_rate():
    cfg = ProtocolConfig(g=0.0, gamma_a=0.1, t_max=5.0, samples_per_period=40)
    trace = run_protocol(cfg)
    assert np.max(np.abs(trace.visibility - np.exp(-0.2 * trace.times))) < 1e-8


def test_boosted_protocol_matches_closed_form():
    cfg = ProtocolConfig(
        g=1e-2,
        g_prime=1e-1,
        nbar=FIG_NBAR,
        t_max=4.0 * math.pi,
        protocol="boosted",
        samples_per_period=100,
    )
    trace = run_protocol(cfg)
    p = CouplingParams(coupling=1e-2, boost_coupling=1e-1, nbar=FIG_NBAR)
    assert np.max(np.abs(trace.visibility - visibility_boosted(p, trace.times))) < 2e-3


def test_spin_echo_pre_closing_and_closure():
    n_pi, lam = 2, 0.05
    cfg = ProtocolConfig(g=lam, protocol="spin_echo", n_pi=n_pi, samples_per_period=40)
    trace = run_protocol(cfg)
    t_mid = n_pi * 2.0 * math.pi
    k = int(np.argmin(np.abs(trace.times - t_mid)))
    assert trace.times[k] == pytest.approx(t_mid, abs=1e-9)
    assert trace.visibility[k] == pytest.approx(
        spin_echo_overlap(n_pi, lam), abs=1e-6
    )
    assert trace.visibility[-1] == pytest.approx(1.0, abs=1e-6)
    assert trace.times[-1] == pytest.approx(2.0 * t_mid, abs=1e-9)


@pytest.mark.parametrize("point", [
    dict(g=0.2, nbar=2.0, gamma_m=0.05, gamma_a=0.01),
    dict(g=0.1, g_prime=0.1, nbar=1.0, gamma_m=0.02, gamma_a=0.01, protocol="boosted",
         t_max=4.0 * math.pi),
    dict(g=0.1, nbar=1.0, gamma_m=0.02, gamma_a=0.005, protocol="spin_echo"),
    dict(g=0.1, nbar=1.0, gamma_m=0.1, gamma_a=0.01),  # Q = 10, dim 36
    dict(g=0.1, g_prime=0.1, nbar=1.0, gamma_a=0.01, protocol="boosted",
         t_max=4.0 * math.pi),  # undamped: the exact propagator
], ids=["basic", "boosted", "spin_echo", "basic_q10", "boosted_undamped"])
def test_engine_matches_exact_visibility(point):
    # damping and dephasing on every protocol; measured 1.1e-10 to 3.6e-10,
    # and 1.1e-10 undamped
    cfg = ProtocolConfig(samples_per_period=40, **point)
    trace = run_protocol(cfg)
    exact = visibility_exact(cfg.omega, cfg.gamma_m, cfg.gamma_a, cfg.nbar,
                             _segments(cfg), trace.times)
    assert np.max(np.abs(trace.visibility - exact)) <= 1e-8
    assert np.array_equal(trace.exact_error, np.abs(trace.visibility - exact))


def test_exact_check_runs_in_chunks_bit_for_bit():
    # the check reads visibility_exact's whole-grid value, which it takes a
    # chunk at a time: 8,194 + 1 samples make two chunks
    cfg = ProtocolConfig(g=0.05, nbar=1.0, gamma_a=0.002, samples_per_period=CHUNK // 2 + 1)
    trace = run_protocol(cfg)
    assert len(trace.times) > CHUNK
    exact = visibility_exact(cfg.omega, cfg.gamma_m, cfg.gamma_a, cfg.nbar,
                             _segments(cfg), trace.times)
    assert np.array_equal(trace.exact_error, np.abs(trace.visibility - exact))


def test_tail_mass_runs_in_chunks_bit_for_bit(monkeypatch):
    # the run takes the tail mass in one call over its whole alpha, which
    # walks it a chunk at a time, and equals its value taken piece by piece:
    # 8,194 + 1 samples make two chunks
    cfg = ProtocolConfig(g=0.05, nbar=1.0, gamma_a=0.002, samples_per_period=CHUNK // 2 + 1)
    calls = []

    def spy(nbar, alpha, dim):
        calls.append(alpha)
        return top_levels_mass(nbar, alpha, dim)

    top_levels_mass = lindblad._top_levels_mass
    monkeypatch.setattr(lindblad, "_top_levels_mass", spy)
    trace = run_protocol(cfg)
    assert [len(alpha) for alpha in calls] == [len(trace.times)]
    third = len(trace.times) // 3
    pieces = [top_levels_mass(cfg.nbar, calls[0][rows], trace.stats["dim"])
              for rows in (slice(None, third), slice(third, None))]
    assert np.array_equal(trace.tail_mass, np.concatenate(pieces))


def test_top_levels_mass_whole_equals_chunked():
    # CHUNK alphas at a time, elementwise: the whole array equals its pieces
    # bit for bit, across each chunk boundary
    rng = np.random.default_rng(5)
    alphas = 2.0 * (rng.random(2 * CHUNK + 5) - 0.5) + 2j * (rng.random(2 * CHUNK + 5) - 0.5)
    whole = _top_levels_mass(2.0, alphas, 40)
    cuts = [0, 1000, CHUNK - 1, CHUNK + 1, 2 * CHUNK, len(alphas)]
    assert np.array_equal(whole, np.concatenate([_top_levels_mass(2.0, alphas[lo:hi], 40)
                                                 for lo, hi in zip(cuts, cuts[1:])]))
    edges = [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK]
    assert np.array_equal(whole[edges], [_top_levels_mass(2.0, alphas[i:i + 1], 40)[0]
                                         for i in edges])


def test_exact_check_refuses_a_run_off_the_exact_value(monkeypatch):
    cfg = ProtocolConfig(g=0.1, nbar=1.0, gamma_m=0.01, samples_per_period=20)
    worst = run_protocol(cfg).stats["worst_exact_error"]
    monkeypatch.setattr(lindblad, "EXACT_ERROR_BOUND", worst * (1.0 - 1e-12))
    with pytest.raises(IntegrationError, match="off its exact value"):
        run_protocol(cfg)


@pytest.mark.parametrize("nbar", [0.0, 1e-6, 0.3, 2.0, 5.0])
def test_tail_mass_matches_padded_expm(nbar):
    # p_{d-2} + p_{d-1} of D(alpha) thermal D(alpha)^dag, built in a space
    # padded far beyond the levels read
    alphas = np.array([0.0, 0.3 + 0.4j, -1.1j, 2.0 - 0.5j])
    a = annihilation(200)
    probs = thermal_density(nbar, 200).diagonal() if nbar else np.eye(200)[0]
    disps = [expm(alpha * a.conj().T - np.conj(alpha) * a) for alpha in alphas]
    pops = np.array([np.einsum("mk,k,mk->m", d, probs, d.conj()).real for d in disps])
    for dim in (20, 60):
        want = pops[:, dim - 2] + pops[:, dim - 1]
        assert np.max(np.abs(_top_levels_mass(nbar, alphas, dim) - want)) < 1e-14


def _tight_block_path(cfg, trace, z_right):
    """One protocol block (z_right = +1: rho00, -1: rho01) at the trace's times
    in the lab frame: the oracle's complex generator integrated tightly
    (rtol 1e-12) segment by segment, through the echo gate's map of that block."""
    dim = trace.stats["dim"]
    gate = _parity if z_right > 0 else (lambda block: block.conj().T)
    block = 0.5 * thermal_density(cfg.nbar, dim)
    want, t_now = [], 0.0
    for idx, (duration, coupling, flip) in enumerate(_segments(cfg)):
        mine = (trace.times >= t_now - 1e-12) & (trace.times <= t_now + duration + 1e-12)
        t_eval = np.clip(trace.times[mine] - t_now, 0.0, duration)
        t_eval = np.concatenate([[0.0], t_eval[t_eval > 1e-12]])
        sol = solve_ivp(rotating_rhs(cfg, dim, coupling, z_right), (0.0, duration),
                        block.ravel(), method="DOP853", t_eval=t_eval,
                        rtol=1e-12, atol=1e-14)
        path = lindblad._to_lab(sol.y.T.reshape(-1, dim, dim), cfg.omega, sol.t)
        want.extend(path if idx == 0 else path[1:])
        block = gate(path[-1]) if flip else path[-1]
        t_now += duration
    return np.array(want)


@pytest.mark.parametrize("protocol", ["basic", "boosted", "spin_echo"])
def test_kept_rho00_matches_a_solve_of_its_block(protocol):
    # the closed-form rho00 of kept states against the rho00 block's own
    # master equation (z_right = +1), integrated tightly; measured at most
    # 6.3e-10 (at the engine's RTOL/ATOL this solve is 1.6e-7 off it)
    cfg = ProtocolConfig(g=0.2, g_prime=0.1 if protocol == "boosted" else 0.0, nbar=2.0,
                         gamma_m=0.05, gamma_a=0.01, protocol=protocol,
                         t_max=4.0 * math.pi if protocol == "boosted" else None,
                         samples_per_period=24)
    trace = run_protocol(cfg, keep_states=True)
    dim = trace.stats["dim"]
    want = _tight_block_path(cfg, trace, 1.0)
    assert np.max(np.abs(trace.states[:, :dim, :dim] - want)) < 1e-9


@pytest.mark.parametrize("point", [
    dict(g=0.2, nbar=2.0, gamma_m=0.05, gamma_a=0.01),
    dict(g=0.2, g_prime=0.1, nbar=2.0, gamma_m=0.05, gamma_a=0.01, protocol="boosted",
         t_max=4.0 * math.pi),
    dict(g=0.2, nbar=2.0, gamma_m=0.05, gamma_a=0.01, protocol="spin_echo"),
    dict(g=0.1, nbar=0.5, gamma_m=0.1, gamma_a=0.01),  # Q = 10
    dict(g=0.2, nbar=2.0, gamma_a=0.01, protocol="spin_echo"),  # the exact propagator
], ids=["basic", "boosted", "spin_echo", "basic_q10", "spin_echo_undamped"])
def test_real_form_matches_a_solve_of_the_complex_rho01_block(point):
    # the engine's R = Re M + Im M, M = rho01 P, against the complex rho01
    # block (z_right = -1) integrated tightly: the kept rho01 = M P and
    # V = 2 |Tr rho01|; measured at most 1.7e-11 and 2.9e-10 (undamped:
    # 1.3e-13 and 3.1e-12)
    cfg = ProtocolConfig(samples_per_period=24, **point)
    trace = run_protocol(cfg, keep_states=True)
    dim = trace.stats["dim"]
    want = _tight_block_path(cfg, trace, -1.0)
    assert np.max(np.abs(trace.states[:, :dim, dim:] - want)) < 1e-9
    visibility = 2.0 * np.abs(np.trace(want, axis1=1, axis2=2))
    assert np.max(np.abs(trace.visibility - visibility)) < 1e-9


@pytest.mark.parametrize("protocol", ["basic", "boosted", "spin_echo"])
def test_exact_propagator_matches_expm_segment_by_segment(protocol):
    # undamped, rho01(t) = e^{-2 gamma_a t} U_0(t) rho01(0) U_1(t)^dag in the
    # Fock basis, U_s = expm(-i H_s t) with H_s = omega ad a + z_s coupling
    # (a + ad) on the run's levels, from each segment's start through the
    # echo gate's rho01 -> rho01^dag: the boost's change of coupling and the
    # echo's flips against the engine's mode-basis carry, on sigma_minus and
    # the kept rho01; measured at most 8.8e-15 and 4.6e-15
    cfg = ProtocolConfig(g=0.2, g_prime=0.1 if protocol == "boosted" else 0.0, nbar=2.0,
                         gamma_a=0.01, protocol=protocol, n_pi=2,
                         t_max=4.0 * math.pi if protocol != "spin_echo" else None,
                         samples_per_period=24)
    trace = run_protocol(cfg, keep_states=True)
    dim = trace.stats["dim"]
    a = annihilation(dim)
    number, quadrature = a.conj().T @ a, a + a.conj().T
    block = 0.5 * thermal_density(cfg.nbar, dim)
    want, t_now = [], 0.0
    for idx, (duration, coupling, flip) in enumerate(_segments(cfg)):
        def propagate(t):
            u0 = expm(-1j * t * (cfg.omega * number + coupling * quadrature))
            u1 = expm(-1j * t * (cfg.omega * number - coupling * quadrature))
            return math.exp(-2.0 * cfg.gamma_a * t) * u0 @ block @ u1.conj().T

        local = trace.times - t_now  # a later segment's t = 0 is the last one's end
        mine = (local <= duration + 1e-12) & ((local > 1e-12) if idx else (local >= 0.0))
        want.extend(propagate(t) for t in local[mine])
        block = propagate(duration)
        block = block.conj().T if flip else block
        t_now += duration
    want = np.array(want)
    assert len(want) == len(trace.times)
    assert np.max(np.abs(trace.sigma_minus - np.trace(want, axis1=1, axis2=2))) < 1e-13
    assert np.max(np.abs(trace.states[:, :dim, dim:] - want)) < 1e-13


def test_stats_record_dim_segments_and_worst_diagnostics():
    cfg = ProtocolConfig(g=0.05, gamma_m=0.01, protocol="spin_echo", n_pi=2,
                         samples_per_period=20)
    trace = run_protocol(cfg)
    stats = trace.stats
    assert (stats["dim"], stats["dim_rule"]) == (cfg.resolved_dim(), "displaced_thermal_tail")
    assert stats["dim_tail_mass"] <= stats["dim_tail_bound"] == 1e-9
    assert len(stats["segments"]) == 8
    # one evaluation at t = 0 and one to choose the first step, 12 per
    # DOP853 trial, 3 per dense output
    for s in stats["segments"]:
        assert set(s) == {"duration", "coupling", "nfev", "steps", "rejected",
                          "dense_outputs", "wall_s"}
        assert s["nfev"] > 0 and s["wall_s"] > 0
        assert s["steps"] > 0 and s["rejected"] >= 0
        assert 0 < s["dense_outputs"] <= s["steps"]
        assert s["nfev"] == 2 + 12 * (s["steps"] + s["rejected"]) + 3 * s["dense_outputs"]
    assert sum(s["duration"] for s in stats["segments"]) == pytest.approx(8 * math.pi)
    assert stats["worst_exact_error"] == trace.exact_error.max()
    assert stats["worst_tail_mass"] == trace.tail_mass.max()
    assert stats["exact_error_bound"] == 1e-7 and stats["tail_mass_bound"] == 1e-6
    assert "worst_trace_error" not in stats and trace.trace_error is None
    forced = run_protocol(ProtocolConfig(g=0.05, nbar=1.0, dim=30, samples_per_period=20))
    assert (forced.stats["dim"], forced.stats["dim_rule"]) == (30, "config")
    # a configured dim records its margin too: P(n >= 28) at |alpha| = 0.1
    assert forced.stats["dim_tail_mass"] == pytest.approx(_padded_tails(1.0, 0.1)[28],
                                                          rel=1e-6)


@pytest.mark.parametrize("protocol", ["basic", "boosted", "spin_echo"])
def test_each_segment_is_one_rho01_solve(protocol, monkeypatch):
    # only rho01 is integrated, once per segment, and the segment record is
    # that solve's record with the segment's coupling added
    cfg = ProtocolConfig(g=0.1, g_prime=0.05 if protocol == "boosted" else 0.0,
                         nbar=1.4, gamma_m=0.01, protocol=protocol)
    solves = []

    def spy(rhs, blocks0, *args, **kwargs):
        solves.append(blocks0.shape)
        return integrate_blocks(rhs, blocks0, *args, **kwargs)

    monkeypatch.setattr(lindblad, "integrate_blocks", spy)
    segments = run_protocol(cfg).stats["segments"]
    dim = cfg.resolved_dim()
    assert solves == [(dim, dim)] * len(segments) == [(dim, dim)] * {
        "basic": 1, "boosted": 2, "spin_echo": 4}[protocol]
    for s in segments:
        assert s["nfev"] == 2 + 12 * (s["steps"] + s["rejected"]) + 3 * s["dense_outputs"]


@pytest.mark.parametrize("protocol", ["basic", "boosted", "spin_echo"])
def test_undamped_segments_take_one_eigh_per_coupling(protocol, monkeypatch):
    # gamma_m = 0: nothing steps, H is diagonalized once per distinct
    # coupling, and each segment records the exact propagator
    cfg = ProtocolConfig(g=0.1, g_prime=0.05 if protocol == "boosted" else 0.0,
                         nbar=1.4, gamma_a=0.002, protocol=protocol)
    couplings = []

    def spy(cfg, dim, coupling):
        couplings.append(coupling)
        return eigensystem(cfg, dim, coupling)

    eigensystem = lindblad._eigensystem
    monkeypatch.setattr(lindblad, "_eigensystem", spy)
    monkeypatch.setattr(lindblad, "integrate_blocks", lambda *a, **k: pytest.fail("stepped"))
    segments = run_protocol(cfg).stats["segments"]
    assert sorted(couplings) == sorted({s["coupling"] for s in segments})
    assert len(segments) == {"basic": 1, "boosted": 2, "spin_echo": 4}[protocol]
    for s in segments:
        assert set(s) == {"duration", "coupling", "propagator", "wall_s"}
        assert s["propagator"] == "exact_eigh" and s["wall_s"] > 0


def test_dop853_meets_the_exact_propagator_undamped():
    # undamped runs no longer step, so this keeps DOP853 on the real-form
    # generator covered there: at the envelope's worst corner (lam 0.3,
    # nbar 5, dim 122) its samples against the exact path's; measured 1.0e-9
    cfg = ProtocolConfig(g=0.3, nbar=5.0, samples_per_period=100)
    trace = run_protocol(cfg)
    dim = trace.stats["dim"]
    assert dim == 122
    probs = thermal_density(cfg.nbar, dim).diagonal().real
    parity = 1.0 - 2.0 * (np.arange(dim) % 2)
    chunks = []
    integrate_blocks(_real_rhs(cfg, dim, cfg.g), np.diag(0.5 * probs * parity), trace.times,
                     lambda t, values: chunks.append(values @ parity),
                     read=np.arange(dim) * (dim + 1))
    assert np.max(np.abs(np.concatenate(chunks) - trace.sigma_minus)) < 2e-9


def test_diagnostics_stay_small_on_clean_run():
    cfg = ProtocolConfig(g=0.25, nbar=0.5, t_max=2.0 * math.pi, samples_per_period=50)
    trace = run_protocol(cfg)
    assert trace.exact_error.max() < 1e-9
    assert trace.tail_mass.max() < 1e-8


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------


def test_negativity_product_state_is_zero():
    cfg = ProtocolConfig(g=0.1, nbar=1.0, dim=32)
    rho = initial_state(cfg, 32)
    assert negativity(rho) < 1e-12


def test_negativity_of_branch_superposition():
    # (|0>|a> + |1>|-a>)/sqrt(2): negativity = sqrt(1 - |<a|-a>|^2)/2
    alpha, dim = 0.5, 30
    amps = np.array(  # Fock amplitudes of |a>: exp(-a^2/2) a^n / sqrt(n!)
        [math.exp(-0.5 * alpha**2) * alpha**n / math.sqrt(math.factorial(n))
         for n in range(dim)]
    )
    up = np.zeros(2 * dim, dtype=complex)
    up[:dim] = amps
    down = np.zeros(2 * dim, dtype=complex)
    down[dim:] = amps * (-1.0) ** np.arange(dim)
    psi = (up + down) / math.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    s = math.exp(-2.0 * alpha**2)
    assert negativity(rho) == pytest.approx(math.sqrt(1.0 - s * s) / 2.0, abs=1e-10)


def test_negativity_peaks_at_half_period():
    cfg = ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=50)
    trace = run_protocol(cfg, keep_states=True)
    k = int(np.argmin(np.abs(trace.times - math.pi)))
    assert negativity(trace.states[k]) == pytest.approx(0.39753004881032505, abs=1e-6)
    # entanglement vanishes again at the revival
    assert negativity(trace.states[-1]) < 1e-6


def test_negativity_rejects_odd_dimension():
    with pytest.raises(ValueError):
        negativity(np.eye(5) / 5.0)


# ---------------------------------------------------------------------------
# config validation and dimension logic
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(omega=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(gamma_m=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(nbar=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="ramsey")
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="spin_echo", n_pi=0)
    with pytest.raises(ValueError):
        ProtocolConfig(samples_per_period=2)
    with pytest.raises(ValueError):
        ProtocolConfig(t_max=-1.0).resolved_t_max()
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="boosted", t_max=2.0).resolved_t_max()
    # non-integral counts: dim used to truncate to 40, n_pi to fail in range()
    # and samples_per_period to give 11 samples
    for name, bad in (("dim", 40.7), ("n_pi", 2.5), ("samples_per_period", 10.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ProtocolConfig(protocol="spin_echo", g=0.01, **{name: bad})
    assert ProtocolConfig(dim=np.int64(40), n_pi=np.int32(2)).resolved_dim() == 40


@pytest.mark.parametrize("name", ["omega", "g", "g_prime", "gamma_m", "gamma_a",
                                  "nbar", "t_max"])
def test_nonfinite_fields_raise_at_construction(name):
    # nbar = nan used to fail inside math.ceil, gamma_m = nan only once the
    # solver gave up
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ProtocolConfig(**{name: bad})


def test_sample_count_is_capped_at_construction():
    # samples_per_period x t_max / period: two periods at 500,000 per period
    # is the cap itself
    ProtocolConfig(samples_per_period=MAX_RUN_SAMPLES // 2)
    for kwargs in (dict(samples_per_period=MAX_RUN_SAMPLES // 2 + 1),
                   dict(t_max=1e300), dict(protocol="spin_echo", n_pi=10**6)):
        with pytest.raises(ValueError, match="MAX_RUN_SAMPLES"):
            ProtocolConfig(**kwargs)


def test_max_displacement_per_protocol():
    assert ProtocolConfig(g=0.1).max_displacement() == pytest.approx(0.2)
    boosted = ProtocolConfig(g=0.1, g_prime=0.4, protocol="boosted")
    assert boosted.max_displacement() == pytest.approx(1.0)
    echo = ProtocolConfig(g=0.1, protocol="spin_echo", n_pi=3)
    assert echo.max_displacement() == pytest.approx(1.2)


def test_spin_echo_duration_ignores_t_max():
    cfg = ProtocolConfig(g=0.05, protocol="spin_echo", n_pi=3, t_max=1.0)
    assert cfg.resolved_t_max() == pytest.approx(3 * 2.0 * (2.0 * math.pi))


def test_resolved_dim_floor_guard():
    # dim 10 is refused by the run's own tail check, not before it: P(n >= 8)
    # of thermal(5) displaced by 1 is 0.36
    cfg = ProtocolConfig(g=0.5, nbar=5.0, dim=10, samples_per_period=8)
    assert cfg.resolved_dim() == 10
    with pytest.raises(TruncationError, match="Fock tail mass"):
        run_protocol(cfg)


def _padded_tails(nbar, displacement):
    """P(n >= k) for k = 0..199 in D(alpha) thermal D(alpha)^dag, alpha real,
    each summed over its own tail in a space padded far beyond the levels read."""
    a = annihilation(200)
    probs = thermal_density(nbar, 200).diagonal() if nbar else np.eye(200)[0]
    disp = expm(displacement * (a.conj().T - a))
    pops = np.einsum("mk,k,mk->m", disp, probs, disp.conj()).real
    return np.cumsum(pops[::-1])[::-1]


@pytest.mark.parametrize("protocol", ["basic", "boosted", "spin_echo"])
def test_dim_floor_uses_the_protocol_displacement(protocol):
    # the default dim reads the displaced thermal tail at the protocol's own
    # max_displacement(); basic and spin_echo ignore g_prime, and a rule
    # that counted it gave them the boosted protocol's dim
    cfg = ProtocolConfig(g=0.5, g_prime=2.0, nbar=0.5, protocol=protocol,
                         t_max=4.0 * math.pi)
    tails = _padded_tails(cfg.nbar, cfg.max_displacement())
    want = 2 + int(np.argmax(tails <= lindblad.DIM_TAIL_BOUND))
    assert cfg.resolved_dim() == want == {"basic": 29, "boosted": 87,
                                          "spin_echo": 41}[protocol]
    if protocol != "boosted":
        assert want == dataclasses.replace(cfg, g_prime=0.0).resolved_dim()


def test_default_dims_are_pinned():
    # the demo configs, the benchmark's fixed points and two corners; a change
    # to the dim rule shows here first
    demos = {name: _protocol_config_from_file(
        parse_config_file(CONFIGS / f"demo_{name}.cfg"), None)
        for name in ("basic", "boosted", "spin_echo")}
    assert {name: cfg.resolved_dim() for name, cfg in demos.items()} == {
        "basic": 44, "boosted": 45, "spin_echo": 9}
    probes = {"probe_small": ProtocolConfig(g=0.01, nbar=1.5),
              "probe_worst": ProtocolConfig(g=0.3, nbar=5.0),
              "echo_corner": ProtocolConfig(g=0.15, nbar=5.0, protocol="spin_echo"),
              "mid_basic": ProtocolConfig(g=0.1, nbar=1.4),
              "mid_boosted": ProtocolConfig(g=0.05, g_prime=0.15, nbar=2.5,
                                            protocol="boosted"),
              "mid_echo": ProtocolConfig(g=0.1, nbar=1.6, protocol="spin_echo"),
              "boost_corner": ProtocolConfig(g=0.5, g_prime=2.0, protocol="boosted"),
              "hot": ProtocolConfig(g=0.1, nbar=12.0)}
    assert {name: cfg.resolved_dim() for name, cfg in probes.items()} == {
        "probe_small": 43, "probe_worst": 122, "echo_corner": 122, "mid_basic": 42,
        "mid_boosted": 67, "mid_echo": 48, "boost_corner": 63, "hot": 262}


@pytest.mark.parametrize("point", [
    dict(g=0.5), dict(g=0.5, gamma_m=0.01, gamma_a=0.001),
    dict(g=0.3, nbar=2.0, gamma_m=0.01), dict(g=0.3, nbar=5.0), dict(g=0.5, nbar=1.0),
    dict(g=0.5, g_prime=2.0, protocol="boosted"),
    dict(g=0.1, g_prime=0.2, nbar=3.0, gamma_m=0.005, protocol="boosted"),
    dict(g=0.15, nbar=1.0, gamma_a=0.002, protocol="spin_echo")])
def test_default_dims_meet_the_exact_visibility(point):
    # the oracle for the dim rule: at its default dim every run of a small
    # envelope grid (nbar 0 to 5, lambda to 0.5, the lambda' = 2 boost)
    # stays within 1e-8 of the model's exact visibility
    cfg = ProtocolConfig(samples_per_period=40, **point)
    trace = run_protocol(cfg)
    exact = visibility_exact(cfg.omega, cfg.gamma_m, cfg.gamma_a, cfg.nbar,
                             _segments(cfg), trace.times)
    assert np.max(np.abs(trace.visibility - exact)) < 1e-8


def test_boost_corner_meets_the_exact_visibility_at_a_configured_dim():
    # lambda 0.5, lambda' 2: the default is 63; a configured 110 runs too
    cfg = ProtocolConfig(g=0.5, g_prime=2.0, protocol="boosted", dim=110,
                         samples_per_period=40)
    trace = run_protocol(cfg)
    exact = visibility_exact(cfg.omega, cfg.gamma_m, cfg.gamma_a, cfg.nbar,
                             _segments(cfg), trace.times)
    assert np.max(np.abs(trace.visibility - exact)) < 1e-8


def test_resolved_dim_refuses_dims_above_cap():
    # only the dim is computed here: nothing of that size is allocated
    assert ProtocolConfig(dim=MAX_DIM).resolved_dim() == MAX_DIM
    for cfg in (ProtocolConfig(dim=MAX_DIM + 1), ProtocolConfig(g=1e6),
                ProtocolConfig(nbar=1e9)):
        with pytest.raises(TruncationError, match="MAX_DIM"):
            cfg.resolved_dim()


def test_thermal_tail_guard_on_forced_dim():
    # a configured dim 30 passes resolved_dim, but thermal(3) displaced by
    # up to 1.2 fills its top two levels beyond the run's tail bound
    cfg = ProtocolConfig(g=0.6, nbar=3.0, dim=30, t_max=1.0)
    with pytest.raises(TruncationError, match="Fock tail mass"):
        run_protocol(cfg)


def _simulate_trace(tmp_path, fmt):
    """Run the trace writer `simulate` uses on the config g=0.2, t_max=pi."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"units = natural\ng = 0.2\nt_max = {math.pi!r}\nsamples_per_period = 20\n"
    )
    out = tmp_path / f"trace.{fmt}"
    assert main(["simulate", "--config", str(cfg_file), "--format", fmt,
                 "--out", str(out)]) == 0
    trace = run_protocol(ProtocolConfig(g=0.2, t_max=math.pi, samples_per_period=20))
    return out, trace


def test_csv_roundtrip(tmp_path):
    out, trace = _simulate_trace(tmp_path, "csv")
    content = out.read_bytes().decode()
    assert "\r" not in content
    lines = content.strip().split("\n")
    assert lines[0] == "t,visibility,re_sigma_minus,im_sigma_minus,exact_error,tail_mass"
    assert len(lines) == 1 + len(trace.times)
    fields = lines[-1].split(",")
    assert float(fields[0]) == trace.times[-1]  # %.17g round-trips exactly
    assert float(fields[1]) == trace.visibility[-1]


def test_json_export_sorted_and_complete(tmp_path):
    out, trace = _simulate_trace(tmp_path, "json")
    doc = json.loads(out.read_text())
    assert list(doc) == sorted(doc)
    assert doc["config"]["g"] == 0.2
    assert len(doc["visibility"]) == len(trace.times)
    assert doc["visibility"][-1] == trace.visibility[-1]


def test_initial_state_structure():
    # the first kept state of a run is |+><+| (x) thermal(nbar)
    for nbar, target in ((0.0, np.outer(*2 * [np.eye(12)[0]])),
                         (1.5, thermal_density(1.5, 60))):
        dim = len(target)
        cfg = ProtocolConfig(g=0.1, nbar=nbar, dim=dim, samples_per_period=8)
        rho = run_protocol(cfg, keep_states=True).states[0]
        assert np.max(np.abs(rho - np.kron(PLUS_STATE, target))) < 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
