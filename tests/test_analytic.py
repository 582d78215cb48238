"""Tests for the closed-form visibility engine.

The formulas are simple enough to hand-evaluate at special phases
(half period, full period), which is what most of these checks do;
hypothesis covers the structural invariants (bounds, periodicity,
monotonic thermal degradation).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boosted_swing, optimal_boost_coupling, visibility_many_atom_gaussian
from revivalsim import analytic
from revivalsim.analytic import (
    CHUNK,
    CouplingParams,
    spin_echo_overlap,
    visibility_boosted,
    visibility_damped,
    visibility_exact,
    visibility_ground,
    visibility_many_atom,
    visibility_thermal,
)

lam_strategy = st.floats(min_value=0.0, max_value=0.5)
nbar_strategy = st.floats(min_value=0.0, max_value=12.0)
phase_strategy = st.floats(min_value=0.0, max_value=4.0 * math.pi)


# ---------------------------------------------------------------------------
# ground / thermal
# ---------------------------------------------------------------------------


def test_ground_zero_coupling_is_flat():
    x = np.linspace(0.0, 20.0, 101)
    assert np.all(visibility_ground(0.0, x) == 1.0)


def test_ground_half_period_value():
    lam = 0.25
    assert visibility_ground(lam, math.pi) == pytest.approx(
        math.exp(-8.0 * lam**2), rel=1e-14
    )


def test_ground_rejects_nonfinite_coupling():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            visibility_ground(bad, 1.0)


def test_thermal_spec_point():
    # lam = 0.1, nbar = 12 at the half period: 8*0.01*25 = 2
    p = CouplingParams(coupling=0.1, nbar=12.0)
    assert visibility_thermal(p, math.pi) == pytest.approx(
        0.1353352832366127, rel=1e-14
    )


def test_thermal_reduces_to_ground():
    x = np.linspace(0.0, 10.0, 50)
    p = CouplingParams(coupling=0.3, nbar=0.0)
    assert np.allclose(visibility_thermal(p, x), visibility_ground(0.3, x), atol=1e-15)


def test_scalar_in_scalar_out():
    assert isinstance(visibility_ground(0.1, 1.0), float)
    assert isinstance(visibility_thermal(CouplingParams(0.1), 1.0), float)
    out = visibility_ground(0.1, np.array([1.0, 2.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


@given(lam=lam_strategy, nbar=nbar_strategy, x=phase_strategy)
def test_thermal_bounded_and_periodic(lam, nbar, x):
    p = CouplingParams(coupling=lam, nbar=nbar)
    v = visibility_thermal(p, x)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert visibility_thermal(p, x + 2.0 * math.pi) == pytest.approx(v, abs=1e-9)


@given(lam=lam_strategy, x=phase_strategy)
def test_ground_reflection_symmetry(lam, x):
    assert visibility_ground(lam, 2.0 * math.pi - x) == pytest.approx(
        visibility_ground(lam, x), abs=1e-12
    )


@given(lam=st.floats(min_value=0.01, max_value=0.5), nbar=nbar_strategy)
def test_hotter_oscillator_lowers_half_period_contrast(lam, nbar):
    p_cold = CouplingParams(coupling=lam, nbar=nbar)
    p_hot = CouplingParams(coupling=lam, nbar=nbar + 0.5)
    assert visibility_thermal(p_hot, math.pi) < visibility_thermal(p_cold, math.pi)


# ---------------------------------------------------------------------------
# damped
# ---------------------------------------------------------------------------


def test_damped_zero_coupling_is_flat():
    p = CouplingParams(coupling=0.0, q_factor=100.0)
    x = np.linspace(0.0, 4.0 * math.pi, 40)
    assert np.allclose(visibility_damped(p, x), 1.0, atol=1e-15)


def test_damped_high_q_full_period_near_unity():
    p = CouplingParams(coupling=0.1, nbar=3.0, q_factor=1e6)
    assert visibility_damped(p, 2.0 * math.pi) == pytest.approx(1.0, abs=1e-4)


def test_damped_converges_to_thermal():
    p = CouplingParams(coupling=0.2, nbar=4.0, q_factor=1e12)
    x = np.linspace(0.0, 4.0 * math.pi, 101)
    assert np.max(np.abs(visibility_damped(p, x) - visibility_thermal(p, x))) < 1e-9


def test_damped_half_period_leading_order():
    lam, nbar, q = 0.05, 2.0, 1e8
    p = CouplingParams(coupling=lam, nbar=nbar, q_factor=q, qubit_decay=0.01)
    target = math.exp(-math.pi * 0.01) * math.exp(-8.0 * lam**2 * (2.0 * nbar + 1.0))
    assert visibility_damped(p, math.pi) == pytest.approx(target, rel=1e-6)


def test_damped_qubit_dephasing_factor():
    p0 = CouplingParams(coupling=0.1, nbar=1.0, q_factor=1e4)
    p1 = CouplingParams(coupling=0.1, nbar=1.0, q_factor=1e4, qubit_decay=0.2)
    x = 3.0
    ratio = visibility_damped(p1, x) / visibility_damped(p0, x)
    assert ratio == pytest.approx(math.exp(-0.2 * x), rel=1e-12)


def test_damped_low_q_warns():
    p = CouplingParams(coupling=0.1, q_factor=5.0)
    with pytest.warns(UserWarning, match="below 10"):
        visibility_damped(p, 1.0)


def test_damped_long_time_warns():
    p = CouplingParams(coupling=0.1, q_factor=50.0)
    with pytest.warns(UserWarning, match="damping expansion"):
        visibility_damped(p, 80.0)


def test_nonpositive_q_rejected():
    with pytest.raises(ValueError):
        CouplingParams(coupling=0.1, q_factor=0.0)
    with pytest.raises(ValueError):
        CouplingParams(coupling=0.1, q_factor=-3.0)


# ---------------------------------------------------------------------------
# exact (the engine's model, unexpanded)
# ---------------------------------------------------------------------------

X_GRID = np.linspace(0.0, 4.0 * math.pi, 401)


@pytest.mark.parametrize("lam, nbar", [(0.3, 5.0), (0.1, 0.0), (0.05, 2.0)])
def test_exact_undamped_is_thermal(lam, nbar):
    exact = visibility_exact(1.0, 0.0, 0.0, nbar, [(4.0 * math.pi, lam, False)], X_GRID)
    assert np.max(np.abs(exact - visibility_thermal(CouplingParams(lam, nbar=nbar),
                                                    X_GRID))) < 1e-12


def test_exact_undamped_boosted_is_boosted():
    lam, lamp, nbar = 0.01, 0.1, 1.5
    segments = [(math.pi, lam + lamp, False), (3.0 * math.pi, lam, False)]
    exact = visibility_exact(1.0, 0.0, 0.0, nbar, segments, X_GRID)
    want = visibility_boosted(CouplingParams(lam, lamp, nbar=nbar), X_GRID)
    assert np.max(np.abs(exact - want)) < 1e-12


@pytest.mark.parametrize("n_pi", [1, 3])
def test_exact_spin_echo_closes(n_pi):
    lam, nbar = 0.05, 1.0
    segments = [(math.pi, lam, j not in (2 * n_pi, 4 * n_pi)) for j in range(1, 4 * n_pi + 1)]
    t_end = 4.0 * n_pi * math.pi
    exact = visibility_exact(1.0, 0.0, 0.0, nbar, segments, [0.5 * t_end, t_end])
    # before the closing half, the branches are 8 n_pi lam apart
    assert exact[0] == pytest.approx(spin_echo_overlap(n_pi, lam) ** (2.0 * nbar + 1.0),
                                     abs=1e-12)
    assert abs(exact[1] - 1.0) < 1e-12


@pytest.mark.parametrize("q_factor", [100.0, 1000.0])
def test_exact_departs_from_damped_expansion_at_second_order(q_factor):
    # the expansion is exact to O(1/Q): Q^2 max|dV| measured 0.1834 and 0.1839
    p = CouplingParams(coupling=0.2, nbar=3.0, q_factor=q_factor)
    exact = visibility_exact(1.0, 1.0 / q_factor, 0.0, 3.0, [(4.0 * math.pi, 0.2, False)],
                             X_GRID)
    assert 0.17 < q_factor**2 * np.max(np.abs(exact - visibility_damped(p, X_GRID))) < 0.19


def test_exact_dephasing_is_twice_the_jump_rate():
    exact = visibility_exact(1.0, 0.0, 0.05, 2.0, [(4.0 * math.pi, 0.0, False)], X_GRID)
    assert np.max(np.abs(exact - np.exp(-0.1 * X_GRID))) < 1e-15


@pytest.mark.parametrize("segments", [
    [(4.0 * math.pi, 0.2, False)],
    [(math.pi, 0.1, j not in (4, 8)) for j in range(1, 9)],  # spin echo, n_pi = 2
], ids=["basic", "spin_echo"])
def test_exact_whole_grid_equals_chunked(segments, monkeypatch):
    # the walk takes CHUNK times at a time, and a value does not depend on
    # which times come with it: the whole grid equals its pieces and a
    # single walk over all of it bit for bit, across each chunk boundary
    def exact(times):
        return visibility_exact(1.0, 0.01, 0.002, 3.0, segments, times)

    t_end = sum(duration for duration, _, _ in segments)
    times = np.linspace(0.0, t_end, 2 * CHUNK + 5)
    whole = exact(times)
    cuts = [0, 1000, CHUNK - 1, CHUNK + 1, 2 * CHUNK, len(times)]
    assert np.array_equal(whole, np.concatenate([exact(times[lo:hi])
                                                 for lo, hi in zip(cuts, cuts[1:])]))
    edges = [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK]
    assert np.array_equal(whole[edges], [exact(times[i:i + 1])[0] for i in edges])
    monkeypatch.setattr(analytic, "CHUNK", len(times))
    assert np.array_equal(whole, exact(times))


# ---------------------------------------------------------------------------
# boosted
# ---------------------------------------------------------------------------


def test_boosted_branch_continuity():
    p = CouplingParams(coupling=0.01, boost_coupling=0.1, nbar=1.5)
    left = visibility_boosted(p, math.pi)
    right = visibility_boosted(p, np.nextafter(math.pi, 4.0))
    assert abs(left - right) < 1e-14


def test_boosted_endpoints_match_swing():
    p = CouplingParams(coupling=0.01, boost_coupling=0.1, nbar=1.5414940825367982)
    swing = visibility_boosted(p, 2.0 * math.pi) - visibility_boosted(p, math.pi)
    assert swing == pytest.approx(boosted_swing(p), rel=1e-12)
    assert boosted_swing(p) == pytest.approx(0.047821144115100744, rel=1e-14)


def test_boosted_first_stage_uses_summed_coupling():
    p = CouplingParams(coupling=0.02, boost_coupling=0.08, nbar=2.0)
    x = 0.7 * math.pi
    combined = CouplingParams(coupling=0.1, nbar=2.0)
    assert visibility_boosted(p, x) == pytest.approx(
        visibility_thermal(combined, x), rel=1e-12
    )


def test_boosted_zero_boost_reduces_to_thermal():
    p = CouplingParams(coupling=0.15, nbar=3.0)
    x = np.linspace(0.0, 4.0 * math.pi, 81)
    assert np.allclose(visibility_boosted(p, x), visibility_thermal(p, x), atol=1e-15)


def test_optimal_boost_maximizes_snr_objective():
    # lam' is chosen to maximize swing / sqrt(revival level); exactly
    # stationary for the leading-order-in-lam objective b*exp(-4(2nbar+1)b^2)
    nbar = 1.5414940825367982
    best = optimal_boost_coupling(nbar)
    assert best == pytest.approx(0.17497094844705977, rel=1e-14)
    grid = np.linspace(0.5 * best, 1.5 * best, 2001)
    objective = grid * np.exp(-4.0 * (2.0 * nbar + 1.0) * grid**2)
    assert abs(grid[int(np.argmax(objective))] - best) < 2.0 * (grid[1] - grid[0])

    # full-expression check: at small lam the argmax of
    # swing / sqrt(revival) converges to the closed-form optimum
    lam = 1e-4
    ratios = [
        boosted_swing(CouplingParams(coupling=lam, boost_coupling=b, nbar=nbar))
        / math.sqrt(
            visibility_boosted(
                CouplingParams(coupling=lam, boost_coupling=b, nbar=nbar),
                2.0 * math.pi,
            )
        )
        for b in grid
    ]
    assert abs(grid[int(np.argmax(ratios))] - best) / best < 0.01


# ---------------------------------------------------------------------------
# many-atom
# ---------------------------------------------------------------------------


def test_many_atom_single_atom_reduction():
    p = CouplingParams(coupling=0.01, nbar=2.0)
    x = np.linspace(0.0, 2.0 * math.pi, 64)
    exact = visibility_many_atom(1, p, x)
    assert np.max(np.abs(exact - visibility_thermal(p, x))) < 1e-12


def test_many_atom_exact_vs_gaussian():
    x = np.linspace(0.0, 2.0 * math.pi, 64)
    for n_atoms in (10, 1000, 10000):
        p = CouplingParams(coupling=0.01, nbar=1.0)
        exact = visibility_many_atom(n_atoms, p, x)
        approx = visibility_many_atom_gaussian(n_atoms, p, x)
        rel = np.max(np.abs(approx / exact - 1.0))
        assert rel < 1e-3


def test_many_atom_noise_only_depends_on_count():
    # the collective factor at fixed phase shrinks monotonically with N
    p = CouplingParams(coupling=0.01, nbar=0.0)
    x = 2.0 * math.pi
    vs = [visibility_many_atom(n, p, x) for n in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(vs, vs[1:]))


def test_many_atom_phase_window_guard():
    p = CouplingParams(coupling=0.1)
    with pytest.raises(ValueError, match="pi/4"):
        visibility_many_atom(100, p, 40.0)


def test_many_atom_argument_validation():
    p = CouplingParams(coupling=0.01)
    with pytest.raises(ValueError):
        visibility_many_atom(0, p, 1.0)


# ---------------------------------------------------------------------------
# spin echo
# ---------------------------------------------------------------------------


def test_spin_echo_overlap_values():
    assert spin_echo_overlap(3, 0.05) == pytest.approx(
        0.48675225595997157, rel=1e-14
    )
    assert spin_echo_overlap(1, 0.0) == 1.0


def test_spin_echo_overlap_validation():
    with pytest.raises(ValueError):
        spin_echo_overlap(0, 0.05)
    with pytest.raises(ValueError, match="got 0"):
        spin_echo_overlap(np.arange(0, 5), 0.05)


@pytest.mark.parametrize("lam", [0.01, 0.0123, 0.037, 0.1, 0.2, 0.3])
def test_spin_echo_overlap_array_is_its_scalar_calls(lam):
    # the CLI's column is one array call; the benchmark checks it against
    # one call per iteration, bit for bit
    n_pi = np.arange(1, 20001)
    column = spin_echo_overlap(n_pi, lam)
    scalars = np.array([spin_echo_overlap(k, lam) for k in n_pi.tolist()])
    assert isinstance(spin_echo_overlap(7, lam), float)
    assert column.tobytes() == scalars.tobytes()
    # math.exp of the same argument rounds apart in a few values, by one ulp
    loop = np.array([math.exp(-32.0 * k**2 * lam**2) for k in n_pi.tolist()])
    assert np.all(np.abs(column - loop) <= np.spacing(loop))


@given(n_pi=st.integers(min_value=1, max_value=6), lam=lam_strategy)
def test_spin_echo_overlap_decreasing_in_iterations(n_pi, lam):
    a = spin_echo_overlap(n_pi, lam)
    b = spin_echo_overlap(n_pi + 1, lam)
    assert b <= a


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_coupling_params_validation():
    with pytest.raises(ValueError):
        CouplingParams(coupling=float("nan"))
    with pytest.raises(ValueError):
        CouplingParams(coupling=0.1, nbar=-1.0)
    with pytest.raises(ValueError):
        CouplingParams(coupling=0.1, qubit_decay=-0.5)


def test_closed_forms_import_without_scipy():
    # nor does the CLI, an engine run or a separable-channel run
    import revivalsim

    src = str(Path(revivalsim.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import revivalsim.analytic, revivalsim.design, revivalsim.cli\n"
            "from revivalsim import lindblad, witness\n"
            "lindblad.run_protocol(lindblad.ProtocolConfig(g=0.05, nbar=0.5, gamma_m=0.01,\n"
            "                                              gamma_a=0.01, t_max=1.0))\n"
            "witness.simulate_separable(witness.random_separable_spec(1, 4),\n"
            "                           witness.random_product_state(1, 4), 1.0, samples=4)\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_analytic_and_design_run_without_the_engine(tmp_path):
    # the CLI loads the engine, lindblad, dop853 and witness, only to simulate and verify
    import revivalsim

    src = str(Path(revivalsim.__file__).resolve().parents[1])
    (tmp_path / "run.cfg").write_text("units = natural\ng = 0.05\nt_max_periods = 1\n"
                                      "samples_per_period = 8\n")
    code = ("import sys\n"
            "from revivalsim import cli\n"
            "out = sys.argv[1] + '/'\n"
            "engine = ('revivalsim.lindblad', 'revivalsim.dop853', 'revivalsim.witness')\n"
            "runs = (['analytic', '--formula', 'thermal', '--lambda', '0.1', '--nbar', '2'],\n"
            "        ['analytic', '--formula', 'damped-exact', '--lambda', '0.05',\n"
            "         '--nbar', '1.5', '--q', '200', '--gamma-a', '0.001'],\n"
            "        ['design', '--point'],\n"
            "        ['design', '--sweep', '--tau-range', '10,100,3', '--temp-range', '10,300,2'])\n"
            "for i, argv in enumerate(runs):\n"
            "    assert cli.main(argv + ['--out', f'{out}{i}.out']) == 0, argv\n"
            "loaded = [sorted(name for name in engine if name in sys.modules)]\n"
            "assert cli.main(['simulate', '--config', out + 'run.cfg',\n"
            "                 '--out', out + 'simulate.csv']) == 0\n"
            "loaded.append(sorted(name for name in engine if name in sys.modules))\n"
            "assert cli.main(['verify', '--seeds', '1', '--dim', '4', '--samples', '8']) == 0\n"
            "loaded.append(sorted(name for name in engine if name in sys.modules))\n"
            "print(loaded)")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip().splitlines()[-1] == (
        "[[], ['revivalsim.dop853', 'revivalsim.lindblad'], "
        "['revivalsim.dop853', 'revivalsim.lindblad', 'revivalsim.witness']]")
