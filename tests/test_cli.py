"""End-to-end tests of the batch CLI (in-process via main(argv))."""

import dataclasses
import errno
import hashlib
import json
import math
import tempfile
import time
from dataclasses import fields
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import boosted_swing
from revivalsim import __version__, analytic, cli, design, lindblad, witness
from revivalsim.cli import CSV_CHUNK_ROWS, MAX_N_PI, MAX_SAMPLES, main, write_csv
from revivalsim.config import ConfigError, DomainError
from revivalsim.constants import ATOMIC_MASS
from revivalsim.lindblad import MAX_DIM, ProtocolConfig, TruncationError, run_protocol
from revivalsim.analytic import (CouplingParams, spin_echo_overlap, visibility_exact,
                                  visibility_thermal)
from revivalsim.witness import WitnessReport, coupled_contrast_case, run_property_suite
from test_refusals import MOVED, refused

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _read_manifest(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------


def _oracle_lines(header, columns):
    """The CSV lines of the columns, one value at a time: floats as
    f"{v:.17g}", booleans as true/false, anything else through str."""
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return f"{v:.17g}" if isinstance(v, float) else str(v)
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return [",".join(header)] + [",".join(map(fmt, row)) for row in rows]


def _write_and_read(path, header, columns):
    """The rows write_csv wrote to the file path, counted, and its lines."""
    with open(path, "wb") as fh:
        write_csv(fh, header, columns)
    text = path.read_text()
    assert text.endswith("\n")
    return text.count("\n") - 1, text.splitlines()


def test_write_csv_float_extremes_round_trip(tmp_path):
    # the smallest and largest magnitudes first, then each %g layout
    # boundary, doubles just below a power of ten that round up to it, exact
    # ties (round half even, down and up), three-digit exponents and both
    # edges of the float kernel's power table
    lo, hi = 10.0 ** (17 - cli._POW_MAX), 10.0 ** (15 + cli._POW_MAX)
    edges = [1e-4, math.nextafter(1e-4, 0), 1e16, 1e17, 9.99999999999999999e-5, 1e-14, 1e98,
             2.0**-25, 3 * 2.0**-26, 3 * 2.0**-25, 1e-100, 2.5e250, 1e-310,
             lo, math.nextafter(lo, 0), hi, math.nextafter(hi, 0), 10 * hi]
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 2.0, -3.0, 0.1, 1e22, 1e-7]
                      + edges + [-v for v in edges])
    n_rows, lines = _write_and_read(tmp_path / "x.csv", ["x"], [values])
    assert n_rows == values.size
    assert lines == _oracle_lines(["x"], [values])
    assert lines[1:5] == ["-0", "4.9406564584124654e-324", "1.7976931348623157e+308", "2"]
    assert lines[9:13] == ["0.0001", "9.9999999999999991e-05", "10000000000000000", "1e+17"]
    assert lines[13:20] == ["0.0001", "1e-14", "1e+98", "2.9802322387695312e-08",
                            "4.4703483581542969e-08", "8.9406967163085938e-08", "1e-100"]
    written = np.array([float(line) for line in lines[1:]])
    assert written.tobytes() == values.tobytes()  # bit for bit, the sign of -0 too


def test_write_csv_bool_int_and_str_columns(tmp_path):
    columns = [("random", "contrast"), (0, -1), (True, False), (0.5, 2.0)]
    n_rows, lines = _write_and_read(tmp_path / "x.csv", ["kind", "seed", "ok", "v"], columns)
    assert n_rows == 2
    assert lines == ["kind,seed,ok,v", "random,0,true,0.5", "contrast,-1,false,2"]
    assert lines == _oracle_lines(["kind", "seed", "ok", "v"], columns)


def test_write_csv_zero_rows_is_the_header(tmp_path):
    n_rows, lines = _write_and_read(tmp_path / "x.csv", ["a", "b"], [np.array([]), []])
    assert (n_rows, lines) == (0, ["a,b"])


def test_write_csv_one_chunk_plus_one(tmp_path):
    # one chunk mixes what the float kernel writes, the values outside its
    # power table and the exact ties it leaves to '%.17g' % v, and zeros
    rng = np.random.default_rng(16)
    floats = (rng.standard_normal(CSV_CHUNK_ROWS + 1)
              * 10.0 ** rng.integers(-300, 300, CSV_CHUNK_ROWS + 1))
    floats[rng.integers(0, CSV_CHUNK_ROWS, 40)] = [2.0**-25, -3 * 2.0**-25, 0.0, -0.0] * 10
    columns = [floats, np.arange(CSV_CHUNK_ROWS + 1), rng.random(CSV_CHUNK_ROWS + 1) < 0.5]
    n_rows, lines = _write_and_read(tmp_path / "x.csv", ["x", "k", "b"], columns)
    assert n_rows == CSV_CHUNK_ROWS + 1
    assert lines == _oracle_lines(["x", "k", "b"], columns)


# five chunks, the last one short
_FIVE_CHUNKS = 5 * CSV_CHUNK_ROWS - 7


def test_write_csv_five_chunks_match_the_oracle(tmp_path):
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(_FIVE_CHUNKS) * 10.0 ** rng.integers(-20, 20, _FIVE_CHUNKS)
    columns = [np.arange(_FIVE_CHUNKS), floats, floats > 0]
    path = tmp_path / "x.csv"
    with open(path, "wb") as fh:
        write_csv(fh, ["k", "x", "b"], columns)
    assert path.read_text().splitlines() == _oracle_lines(["k", "x", "b"], columns)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, CSV_CHUNK_ROWS + 3, 2 * CSV_CHUNK_ROWS + 100,
                                 4 * CSV_CHUNK_ROWS - 1, _FIVE_CHUNKS - 1],
                         ids=["first_chunk", "later_chunk", "third_chunk", "fourth_chunk",
                              "last_chunk"])
def test_write_csv_refuses_a_non_finite_value(bad, row, tmp_path):
    # the writer is the one check: a NaN used to reach verify's CSV with exit 0
    values = np.linspace(0.0, 1.0, _FIVE_CHUNKS)
    values[row] = bad
    path = tmp_path / "x.csv"
    with open(path, "wb") as fh, pytest.raises(OverflowError, match="not finite"):
        write_csv(fh, ["k", "x"], [np.arange(values.size), values])
    # exactly the chunks before the refused one are written, and none of it
    written = row // CSV_CHUNK_ROWS * CSV_CHUNK_ROWS
    assert path.read_text().splitlines() == _oracle_lines(
        ["k", "x"], [np.arange(written), values[:written]])


# every finite float64 bit pattern: sign, biased exponent 0..2046, mantissa
_FINITE_BITS = st.builds(lambda sign, exponent, mantissa: float(np.uint64(
    sign << 63 | exponent << 52 | mantissa).view(np.float64)),
    st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 3)),
                   elements=st.floats(allow_nan=False, allow_infinity=False) | _FINITE_BITS))
def test_write_csv_matches_the_oracle_on_float64(table):
    header = [f"c{j}" for j in range(table.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        n_rows, lines = _write_and_read(Path(tmp) / "x.csv", header, table.T)
    assert n_rows == table.shape[0]
    assert lines == _oracle_lines(header, table.T)


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


def test_analytic_thermal_grid_hits_half_period(tmp_path):
    out = tmp_path / "thermal.csv"
    code = main(
        [
            "analytic", "--formula", "thermal", "--lambda", "0.1",
            "--nbar", "12", "--t-max", "1", "--samples", "200",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["omega_t", "visibility"]
    assert len(rows) == 200
    # half-open grid omega_t = 2*pi*k/200: row 100 sits exactly at pi
    assert float(rows[100][0]) == pytest.approx(math.pi, abs=1e-15)
    assert float(rows[100][1]) == pytest.approx(math.exp(-2.0), abs=1e-9)
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 1.0


def test_analytic_ground_zero_coupling_all_ones(tmp_path):
    out = tmp_path / "ground.csv"
    assert main(["analytic", "--formula", "ground", "--lambda", "0",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 400  # default samples
    assert all(float(r[1]) == 1.0 for r in rows)


def test_analytic_boosted_swing_matches_closed_form(tmp_path):
    out = tmp_path / "boosted.csv"
    assert main(
        ["analytic", "--formula", "boosted", "--lambda", "0.01",
         "--lambda-prime", "0.1", "--nbar", "0", "--out", str(out)]
    ) == 0
    _, rows = _read_csv(out)
    # default grid: 2 periods over 400 samples; pi at row 100, 2*pi at row 200
    v_half = float(rows[100][1])
    v_full = float(rows[200][1])
    p = CouplingParams(coupling=0.01, boost_coupling=0.1)
    assert v_full - v_half == pytest.approx(boosted_swing(p), abs=1e-12)


def test_analytic_spin_echo_rows(tmp_path):
    out = tmp_path / "echo.csv"
    assert main(
        ["analytic", "--formula", "spin-echo", "--lambda", "0.05",
         "--n-pi", "3", "--out", str(out)]
    ) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 3
    for k, row in enumerate(rows, start=1):
        assert float(row[0]) == pytest.approx(2.0 * math.pi * k, rel=1e-15)
        assert float(row[1]) == pytest.approx(spin_echo_overlap(k, 0.05), rel=1e-15)


def test_analytic_damped_exact_rows_and_manifest(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["analytic", "--formula", "damped-exact", "--lambda", "0.2", "--nbar", "3",
                 "--q", "100", "--gamma-a", "0.02", "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 400
    x = np.array([float(r[0]) for r in rows])
    # --gamma-a is the coherence decay over omega, twice the engine's jump rate
    want = visibility_exact(1.0, 0.01, 0.01, 3.0, [(4.0 * math.pi, 0.2, False)], x)
    assert [float(r[1]) for r in rows] == want.tolist()
    assert _read_manifest(out)["config"]["formula"] == "damped-exact"


def test_analytic_gamma_a_means_one_thing(tmp_path):
    # at zero coupling both damped formulas are the pure coherence decay
    curves = {}
    for formula in ("damped", "damped-exact"):
        out = tmp_path / f"{formula}.csv"
        assert main(["analytic", "--formula", formula, "--lambda", "0", "--q", "100",
                     "--gamma-a", "0.03", "--samples", "40", "--out", str(out)]) == 0
        curves[formula] = np.array([[float(v) for v in r] for r in _read_csv(out)[1]])
    x, v = curves["damped-exact"].T
    assert np.max(np.abs(v - np.exp(-0.03 * x))) < 1e-15
    assert np.max(np.abs(curves["damped"][:, 1] - v)) < 1e-15


def test_analytic_deterministic_output_and_manifest(tmp_path):
    args = ["analytic", "--formula", "damped", "--lambda", "0.05",
            "--nbar", "1.5", "--q", "200", "--samples", "50"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    manifest = _read_manifest(out1)
    assert manifest["command"] == "analytic"
    assert manifest["tool_version"] == __version__
    assert manifest["config"]["formula"] == "damped"
    entry = manifest["outputs"][0]
    assert entry["sha256"] == hashlib.sha256(out1.read_bytes()).hexdigest()
    assert entry["bytes"] == out1.stat().st_size


def test_analytic_grid_longer_than_one_chunk_is_the_library_call(tmp_path):
    samples = 2 * CSV_CHUNK_ROWS + 5
    out = tmp_path / "thermal.csv"
    assert main(["analytic", "--formula", "thermal", "--lambda", "0.1", "--nbar", "2",
                 "--samples", str(samples), "--out", str(out)]) == 0
    grid = 2.0 * math.pi * 2.0 * np.arange(samples) / samples
    direct = visibility_thermal(CouplingParams(coupling=0.1, nbar=2.0), grid)
    assert out.read_text().splitlines() == _oracle_lines(["omega_t", "visibility"],
                                                         [grid, direct])


def test_damped_exact_grid_longer_than_one_chunk_is_the_library_call(tmp_path):
    # the file, written a chunk at a time, is the formula's whole-grid value
    samples = 2 * CSV_CHUNK_ROWS + 5
    out = tmp_path / "exact.csv"
    assert main(["analytic", "--formula", "damped-exact", "--lambda", "0.2", "--nbar", "3",
                 "--q", "50", "--gamma-a", "0.002", "--t-max", "1.5",
                 "--samples", str(samples), "--out", str(out)]) == 0
    grid = 2.0 * math.pi * 1.5 * np.arange(samples) / samples
    direct = visibility_exact(1.0, 1.0 / 50, 0.001, 3.0, [(2.0 * math.pi * 1.5, 0.2, False)], grid)
    assert out.read_text().splitlines() == _oracle_lines(["omega_t", "visibility"],
                                                         [grid, direct])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_basic_revival(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "units = natural\ng = 0.25\nt_max_periods = 1\nsamples_per_period = 50\n"
    )
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["t", "visibility", "re_sigma_minus", "im_sigma_minus",
                      "exact_error", "tail_mass"]
    times = np.array([float(r[0]) for r in rows])
    vis = np.array([float(r[1]) for r in rows])
    k = int(np.argmin(np.abs(times - math.pi)))
    assert vis[k] == pytest.approx(math.exp(-0.5), abs=1e-6)
    assert vis[-1] == pytest.approx(1.0, abs=1e-8)
    assert "\r" not in out.read_bytes().decode()
    trace = run_protocol(
        ProtocolConfig(g=0.25, t_max=2.0 * math.pi, samples_per_period=50)
    )
    assert len(rows) == len(trace.times)
    last = [float(v) for v in rows[-1]]  # %.17g round-trips exactly
    assert last[:4] == [trace.times[-1], trace.visibility[-1],
                        trace.sigma_minus[-1].real, trace.sigma_minus[-1].imag]
    manifest = _read_manifest(out)
    assert manifest["config"]["g"] == 0.25
    assert manifest["config"]["protocol"] == "basic"


def test_simulate_manifest_records_solver_stats(tmp_path):
    out = tmp_path / "basic.csv"
    assert main(["simulate", "--config", f"{CONFIGS}/demo_basic.cfg",
                 "--out", str(out)]) == 0
    stats = _read_manifest(out)["stats"]
    assert (stats["dim"], stats["dim_rule"]) == (44, "displaced_thermal_tail")
    assert stats["dim_tail_mass"] <= stats["dim_tail_bound"] == 1e-9
    assert len(stats["segments"]) == 1
    segment = stats["segments"][0]
    assert segment["nfev"] > 0 and segment["steps"] > 0
    assert segment["wall_s"] > 0.0
    _, rows = _read_csv(out)
    assert stats["worst_exact_error"] == max(float(r[4]) for r in rows)
    assert stats["worst_tail_mass"] == max(float(r[5]) for r in rows)
    assert stats["exact_error_bound"] == 1e-7
    assert stats["tail_mass_bound"] == 1e-6


def test_manifest_started_at_precedes_the_work(tmp_path):
    out = tmp_path / "echo.csv"
    assert main(["simulate", "--config", f"{CONFIGS}/demo_spin_echo.cfg",
                 "--out", str(out)]) == 0
    manifest = _read_manifest(out)
    started, finished = (datetime.fromisoformat(manifest[k])
                         for k in ("started_at", "finished_at"))
    work = sum(s["wall_s"] for s in manifest["stats"]["segments"])
    assert (finished - started).total_seconds() >= work > 0.0


def test_simulate_manifest_names_configured_dim(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("units = natural\ng = 0.1\ndim = 40\nprotocol = boosted\n"
                   "g_prime = 0.05\nt_max_periods = 1\nsamples_per_period = 20\n")
    out = tmp_path / "boosted.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    stats = _read_manifest(out)["stats"]
    assert (stats["dim"], stats["dim_rule"]) == (40, "config")
    assert stats["dim_tail_mass"] < stats["dim_tail_bound"] == 1e-9
    assert [s["coupling"] for s in stats["segments"]] == pytest.approx([0.15, 0.1])


@pytest.mark.parametrize("dim", [24, 25])
def test_simulate_names_a_configured_dim_the_exact_check_refuses(dim, tmp_path, capsys):
    # P(n >= dim - 2) is 3.5e-7 at dim 24 and 1.8e-7 at 25, under
    # TAIL_MASS_BOUND, yet the truncated run is 2.3e-7 off its exact value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"units = natural\ng = 0.1\nnbar = 1\nsamples_per_period = 20\ndim = {dim}\n")
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    tail = ProtocolConfig(g=0.1, nbar=1.0, dim=dim)._dim_and_tail()[1]
    assert 1e-7 < tail < 1e-6
    assert "off its exact value" in err
    assert f"dim {dim} is configured, with Fock tail mass {tail:.3e}" in err
    assert err.rstrip().endswith("increase dim")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("name", ["basic", "boosted", "spin_echo"])
def test_simulate_im_sigma_minus_is_zero(name, tmp_path):
    # Tr rho01 = Tr M P is real for the Hermitian M = rho01 P the engine solves
    out = tmp_path / f"{name}.csv"
    assert main(["simulate", "--config", f"{CONFIGS}/demo_{name}.cfg",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    column = header.index("im_sigma_minus")
    assert rows and all(float(row[column]) == 0.0 for row in rows)
    stats = _read_manifest(out)["stats"]
    segments = stats["segments"]
    if name == "spin_echo":
        # undamped: propagated exactly, 7.5e-13 off the exact visibility
        assert segments and all(s["propagator"] == "exact_eigh" for s in segments), segments
        assert stats["worst_exact_error"] <= 1e-10
    elif name == "basic":
        # damped: stepped by DOP853, which starts as solve_ivp does, with f at
        # t = 0 and one evaluation to choose the first step, then takes 12 per
        # trial and 3 per dense output; 7.9e-11 off the exact visibility
        assert segments and all(
            "propagator" not in s
            and s["nfev"] == 2 + 12 * (s["steps"] + s["rejected"]) + 3 * s["dense_outputs"]
            for s in segments), segments
        assert stats["worst_exact_error"] <= 1e-9


def test_simulate_spin_echo_config(tmp_path):
    out = tmp_path / "echo.csv"
    assert main(["simulate", "--config", f"{CONFIGS}/demo_spin_echo.cfg",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    times = np.array([float(r[0]) for r in rows])
    vis = np.array([float(r[1]) for r in rows])
    k = int(np.argmin(np.abs(times - 2 * 2.0 * math.pi)))
    assert vis[k] == pytest.approx(spin_echo_overlap(2, 0.05), abs=1e-6)
    assert vis[-1] == pytest.approx(1.0, abs=1e-6)


def test_simulate_json_format(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("units = natural\ng = 0.1\nt_max = 1.0\nsamples_per_period = 40\n")
    out = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(cfg), "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["config", "exact_error", "im_sigma_minus", "re_sigma_minus", "t",
                         "tail_mass", "visibility"]
    assert doc["config"]["g"] == 0.1
    trace = run_protocol(ProtocolConfig(g=0.1, t_max=1.0, samples_per_period=40))
    assert doc["t"] == trace.times.tolist()
    assert doc["visibility"] == trace.visibility.tolist()


def test_write_json_streams_what_json_dumps_writes(tmp_path):
    # array values are written a chunk at a time, each float by its repr
    rng = np.random.default_rng(7)
    columns = {"t": np.linspace(0.0, 1.0, 2 * CSV_CHUNK_ROWS + 3),
               "x": rng.standard_normal(CSV_CHUNK_ROWS) * 10.0 ** rng.integers(-300, 300,
                                                                              CSV_CHUNK_ROWS),
               "empty": np.array([]),
               "re": (np.array([1.0, -0.0, 5e-324]) + 0j).real}  # a strided view
    payload = dict(columns, config={"g": 0.1, "name": "a\nb", "dim": None, "list": [1, 2.5]},
                   count=3, text="x")
    path = tmp_path / "x.json"
    with open(path, "wb") as fh:
        cli.write_json(fh, payload)
    oracle = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    assert path.read_text() == json.dumps(oracle, sort_keys=True, indent=2,
                                          allow_nan=False) + "\n"
    with open(path, "wb") as fh:
        cli.write_json(fh, {})
    assert path.read_text() == "{}\n"


@pytest.mark.parametrize("row", [0, CSV_CHUNK_ROWS + 3], ids=["first_chunk", "later_chunk"])
def test_simulate_json_refuses_a_non_finite_value(row, tmp_path, capsys, monkeypatch):
    trace = run_protocol(ProtocolConfig(g=0.1, t_max=2.0 * math.pi, samples_per_period=40))
    times = np.linspace(0.0, 1.0, 2 * CSV_CHUNK_ROWS)
    times[row] = math.nan
    monkeypatch.setattr(lindblad, "run_protocol", lambda cfg: dataclasses.replace(
        trace, times=times, visibility=np.ones_like(times), sigma_minus=np.ones_like(times) + 0j,
        exact_error=np.zeros_like(times), tail_mass=np.zeros_like(times)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("units = natural\ng = 0.1\n")
    assert main(["simulate", "--config", str(cfg), "--format", "json",
                 "--out", str(tmp_path / "trace.json")]) == 3
    assert "not finite" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_simulate_protocol_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("units = natural\ng = 0.05\nn_pi = 1\nsamples_per_period = 40\n")
    out = tmp_path / "echo.csv"
    assert main(["simulate", "--config", str(cfg), "--protocol", "spin_echo",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert float(rows[-1][0]) == pytest.approx(2 * 2.0 * math.pi, rel=1e-12)


def test_simulate_protocol_flag_takes_both_spin_echo_spellings(tmp_path):
    # the flag refused spin-echo (exit 2), which a config's protocol takes
    for spelling in ("spin-echo", "spin_echo"):
        assert main(["simulate", "--config", f"{CONFIGS}/demo_spin_echo.cfg", "--protocol",
                     spelling, "--out", str(tmp_path / f"{spelling}.csv")]) == 0
    assert (tmp_path / "spin-echo.csv").read_bytes() == (tmp_path / "spin_echo.csv").read_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_suite(tmp_path, capsys):
    out = tmp_path / "witness.csv"
    code = main(["verify", "--seeds", "3", "--dim", "8", "--t-max", "4",
                 "--samples", "120", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "3/3 monotonic" in stdout
    assert "monotonic=False" in stdout  # the coupled contrast line
    header, rows = _read_csv(out)
    assert header == ["kind", "seed", "monotonic", "max_violation",
                      "negativity_peak", "decay_rate_fit"]
    assert len(rows) == 4
    words = {"random", "contrast", "true", "false"}
    assert all(len(row) == len(header) for row in rows)
    assert all(cell in words or math.isfinite(float(cell)) for row in rows for cell in row)
    assert rows[-1][0] == "contrast"
    assert rows[-1][1] == "-1"
    assert rows[-1][2] == "false"
    assert float(rows[-1][3]) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-3)
    manifest = _read_manifest(out)
    assert manifest["command"] == "verify"
    assert manifest["config"]["seeds"] == 3


def test_verify_tiny_t_max_fits_its_decay_rate(tmp_path, capfd):
    # polyfit squared sample times near 1e-300: LAPACK printed its own
    # complaints and the fit failed, exit 4
    out = tmp_path / "witness.csv"
    assert main(["verify", "--seeds", "1", "--dim", "2", "--samples", "1",
                 "--t-max", "1e-300", "--out", str(out)]) == 0
    assert capfd.readouterr().err == ""
    assert all(math.isfinite(float(row[-1])) for row in _read_csv(out)[1])


def test_verify_rows_are_the_witness_reports(tmp_path):
    out = tmp_path / "witness.csv"
    assert main(["verify", "--seeds", "3", "--dim", "8", "--t-max", "4",
                 "--samples", "120", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["kind", "seed"] + [f.name for f in fields(WitnessReport)]
    reports = run_property_suite(3, 8, tol=1e-6, t_max=4.0, samples=120)
    expected = [("random", seed, r) for seed, r in enumerate(reports)]
    expected.append(("contrast", -1, coupled_contrast_case(0.25, tol=1e-6)))
    assert len(rows) == len(expected)
    for row, (kind, seed, report) in zip(rows, expected):
        assert row[:2] == [kind, str(seed)]
        for name, text in zip(header[2:], row[2:]):
            want = getattr(report, name)
            got = text == "true" if isinstance(want, bool) else float(text)
            assert got == want, (kind, seed, name)


def test_verify_refuses_a_non_finite_report(tmp_path, capsys, monkeypatch):
    # verify's CSV had no finiteness check: a NaN field was written with exit 0
    monkeypatch.setattr(witness, "run_property_suite", lambda *args, **kwargs: [
        WitnessReport(True, 0.0, 0.0, math.nan)])
    out = tmp_path / "witness.csv"
    assert main(["verify", "--seeds", "1", "--dim", "4", "--samples", "8",
                 "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("coupling, dim", [(5.0, 169), (8.0, 361)])
def test_verify_rejects_contrast_states_over_budget(coupling, dim, tmp_path, capsys,
                                                    monkeypatch):
    # the contrast case keeps 201 joint states at its own default dim:
    # 1.0e8 values (1.7 GB) at 8.0.  The engine refuses it before any
    # integration, so reaching the suite (now None) fails the test.
    monkeypatch.setattr(witness, "run_property_suite", None)
    out = tmp_path / "witness.csv"
    assert main(["verify", "--seeds", "1", "--dim", "4", "--contrast-coupling",
                 str(coupling), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"201 kept joint states at dim {dim} hold {201 * (2 * dim) ** 2} values" in err
    assert not out.exists()


def test_verify_trace_drift_is_a_numerics_error(tmp_path, capsys, monkeypatch):
    # a separable right-hand side that leaks trace at rate 1e-6: over
    # --t-max 8 the trace falls about 8e-6, past TRACE_ERROR_BOUND (1e-7)
    def leaky_rhs(spec):
        rhs = block_rhs(spec)
        return lambda t, y: rhs(t, y) - 1e-6 * y

    block_rhs = witness._block_rhs
    monkeypatch.setattr(witness, "_block_rhs", leaky_rhs)
    out = tmp_path / "witness.csv"
    assert main(["verify", "--seeds", "1", "--dim", "4", "--samples", "8",
                 "--out", str(out)]) == 4
    assert "trace" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_linalg_failure_is_a_numerics_error(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, so an eigvalsh failure in the
    # negativities used to be reported as a domain error (exit 3)
    def fail(states):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(witness, "negativities", fail)
    out = tmp_path / "witness.csv"
    assert main(["verify", "--seeds", "1", "--dim", "4", "--samples", "8",
                 "--out", str(out)]) == 4
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.iterdir())


def test_verify_echoes_valid_tolerances(tmp_path):
    out = tmp_path / "witness.csv"
    assert main(["verify", "--seeds", "1", "--dim", "4", "--t-max", "2", "--samples", "20",
                 "--tol", "1e-5", "--negativity-tol", "1e-7", "--out", str(out)]) == 0
    config = _read_manifest(out)["config"]
    assert config["tol"] == 1e-5 and config["negativity_tol"] == 1e-7


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def test_design_point_defaults(capsys):
    assert main(["design", "--point"]) == 0
    printed = capsys.readouterr().out
    assert main(["design", "--point", "--sigma-level", "5"]) == 0
    assert capsys.readouterr().out == printed
    doc = json.loads(printed)
    assert doc["k_squared"] == pytest.approx(1.0384262601011322e-10, rel=1e-12)
    assert doc["delta_v_boosted"] == pytest.approx(6.9965622524194218e-06, rel=1e-12)
    assert doc["atoms_required"] == pytest.approx(510705580421.52692, rel=1e-12)
    assert doc["sigma_level"] == 5.0
    assert doc["low_temperature_flag"] is False


def test_design_point_with_config_and_output(tmp_path, capsys):
    out = tmp_path / "design.json"
    assert main(["design", "--config", f"{CONFIGS}/reference_lab.cfg",
                 "--point", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    printed = json.loads(capsys.readouterr().out)
    assert doc == printed
    assert doc["delta_v"] == pytest.approx(7.689343855898295e-11, rel=1e-12)
    assert _read_manifest(out)["command"] == "design"


def test_design_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["design", "--sweep", "--tau-range", "10,100,3",
                 "--temp-range", "10,300,2", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["tau_s", "temperature_K", "log10_delta_v",
                      "log10_delta_v_boosted"]
    assert len(rows) == 6
    assert float(rows[1][2]) == pytest.approx(-14.114110717665413, rel=1e-12)
    assert float(rows[-1][3]) == pytest.approx(-5.1551152973478063, rel=1e-12)
    # a 100 x 100 grid, written a chunk at a time, is the library's cells byte for byte
    assert main(["design", "--sweep", "--tau-range", "1,500,100",
                 "--temp-range", "0.05,400,100", "--out", str(out)]) == 0
    cells = design.sweep_grid(design.PhysicalConfig(), (1.0, 500.0, 100), (0.05, 400.0, 100))
    lines = [",".join(cells[0])] + [",".join("%.17g" % v for v in c.values()) for c in cells]
    assert out.read_bytes() == "".join(line + "\n" for line in lines).encode()


def test_design_sweep_requires_ranges_and_out(tmp_path, capsys):
    assert main(["design", "--sweep", "--tau-range", "10,100,3",
                 "--temp-range", "10,300,2"]) == 2
    assert capsys.readouterr().err == "error: --sweep requires --out\n"


def test_config_the_os_will_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def refuse(self, encoding=None):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    cfg = tmp_path / "run.cfg"
    cfg.write_text("units = natural\ng = 0.05\n")
    monkeypatch.setattr(Path, "read_text", refuse)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read config file {cfg}: Permission denied"]
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_design_atom_mass_in_kg_or_amu(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("atom_mass_amu = 87\n")
    assert main(["design", "--config", str(cfg), "--point"]) == 0
    by_amu = capsys.readouterr().out
    cfg.write_text(f"atom_mass_kg = {87 * ATOMIC_MASS!r}\n")
    assert main(["design", "--config", str(cfg), "--point"]) == 0
    assert capsys.readouterr().out == by_amu


def test_design_low_temperature_warning(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("temperature = 4e-15\n")
    assert main(["design", "--config", str(cfg), "--point"]) == 0
    assert "validity" in capsys.readouterr().err


@pytest.mark.parametrize("flags, match", [
    (["--q", "5", "--t-max", "0.5"], "below 10"),
    (["--q", "20", "--t-max", "8"], "damping expansion"),
], ids=["low_q", "long_time"])
def test_damped_warnings_go_to_the_manifest(flags, match, tmp_path, capsys):
    out = tmp_path / "damped.csv"
    assert main(["analytic", "--formula", "damped", "--lambda", "0.1", *flags,
                 "--out", str(out)]) == 0
    warned = _read_manifest(out)["warnings"]
    assert len(warned) == 1 and match in warned[0]
    assert f"warning: {warned[0]}" in capsys.readouterr().err.splitlines()


def test_design_low_temperature_flag_goes_to_the_manifest(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("temperature = 4e-15\n")
    out = tmp_path / "design.json"
    assert main(["design", "--config", str(cfg), "--point", "--out", str(out)]) == 0
    warned = _read_manifest(out)["warnings"]
    assert len(warned) == 1 and "validity" in warned[0]
    assert f"warning: {warned[0]}" in capsys.readouterr().err.splitlines()
    thermal = tmp_path / "thermal.csv"
    assert main(["analytic", "--formula", "thermal", "--lambda", "0.1",
                 "--out", str(thermal)]) == 0
    assert _read_manifest(thermal)["warnings"] == []


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_failed_manifest_leaves_no_output(command, tmp_path, monkeypatch):
    # the manifest is written half and then fails: neither file, nor a temp
    # file, may be left behind (write_json writes only the manifest here)
    def broken(fh, payload):
        fh.write(b"{")
        raise RuntimeError("manifest write failed")

    monkeypatch.setattr(cli, "write_json", broken)
    argv = {"analytic": ["analytic", "--formula", "thermal", "--lambda", "0.1"],
            "simulate": ["simulate", "--config", str(CONFIGS / "demo_basic.cfg")]}[command]
    with pytest.raises(RuntimeError, match="manifest write failed"):
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert list(tmp_path.iterdir()) == []


def test_manifest_lands_before_its_output(tmp_path, monkeypatch):
    moved = []

    def replace(src, dst):
        moved.append(Path(dst).name)
        assert not Path(dst).name.endswith(".csv") or Path(f"{dst}.manifest.json").exists()
        real_replace(src, dst)

    real_replace = cli.os.replace
    monkeypatch.setattr(cli.os, "replace", replace)
    out = tmp_path / "thermal.csv"
    assert main(["analytic", "--formula", "thermal", "--lambda", "0.1",
                 "--out", str(out)]) == 0
    assert moved == ["thermal.csv.manifest.json", "thermal.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == moved[::-1]


@pytest.mark.parametrize("argv", [
    ["analytic", "--formula", "thermal", "--lambda", "0.1"],
    ["simulate", "--config", str(CONFIGS / "demo_basic.cfg")],
    ["simulate", "--config", str(CONFIGS / "demo_basic.cfg"), "--format", "json"],
    ["verify", "--seeds", "1", "--dim", "4", "--samples", "20"],
    ["design", "--point"],
    ["design", "--sweep", "--tau-range", "10,100,3", "--temp-range", "10,300,2"],
], ids=["analytic", "simulate", "simulate-json", "verify", "design-point", "design-sweep"])
def test_manifest_records_write_time(argv, tmp_path, capsys):
    # every writer's manifest: its write time, and the sha256 and size of
    # the bytes as written, which must be those of the file on disk
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = _read_manifest(out)
    write_s = manifest["write_s"]
    assert isinstance(write_s, float) and write_s >= 0.0
    data = out.read_bytes()
    assert manifest["outputs"] == [{"path": str(out), "sha256": hashlib.sha256(data).hexdigest(),
                                    "bytes": len(data)}]


def test_manifest_records_the_blas_thread_counts(tmp_path, monkeypatch, capsys):
    # as the environment gives them, so a timing can be read with its threads
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out.csv"
    assert main(["analytic", "--formula", "thermal", "--lambda", "0.1", "--out", str(out)]) == 0
    assert _read_manifest(out)["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once per process; a refusal leaves nothing
    # behind, and each call gets its own namespace and warnings
    damped = ["analytic", "--formula", "damped", "--lambda", "0.1", "--q", "5",
              "--samples", "8"]
    calls = [(["analytic", "--formula", "thermal", "--samples", "1"], "a.csv", 2),
             (damped, "b.csv", 0), (["design", "--point"], "c.json", 0), (damped, "d.csv", 0)]
    runs = {}
    for mode in ("fresh", "cached"):
        (tmp_path / mode).mkdir()
        cli.build_parser.cache_clear()
        for argv, name, code in calls:
            if mode == "fresh":
                cli.build_parser.cache_clear()
            out = tmp_path / mode / name
            assert main([*argv, "--out", str(out)]) == code
            run = [capsys.readouterr().err]
            if code == 0:
                run += [out.read_bytes(), _read_manifest(out)["warnings"]]
            runs.setdefault(mode, []).append(run)
    assert cli.build_parser.cache_info()[:2] == (3, 1)  # the cached run's hits, misses
    assert runs["cached"] == runs["fresh"]
    assert runs["cached"][1][2] and runs["cached"][1][2] == runs["cached"][3][2]


def test_version_flag():
    assert main(["--version"]) == 0


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_an_internal_value_error_is_no_domain_error(tmp_path, monkeypatch):
    # main mapped every ValueError to exit 3, so a bug read as a domain error;
    # now only DomainError and OverflowError exit 3, and the rest propagate
    def broken(params, omega_t):
        raise ValueError("boom")

    monkeypatch.setattr(analytic, "visibility_thermal", broken)
    with pytest.raises(ValueError, match="boom"):
        main(["analytic", "--formula", "thermal", "--lambda", "0.1",
              "--out", str(tmp_path / "x.csv")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rates", ["gamma_m = 0.01, gamma_a = 1e155", "gamma_m = 1e12"])
def test_stiff_simulate_is_refused_before_integrating(rates, tmp_path, capsys):
    # gamma_a = 1e155 stepped past a 60 s timeout: explicit steps shrink to
    # the decay time and nothing bounded their number.  Only a damped run
    # steps; an undamped one is propagated exactly and never refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text("units = natural\ng = 0.05\n" + "\n".join(rates.split(", ")) + "\n")
    started = time.perf_counter()
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    assert code == 4 and time.perf_counter() - started < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: stiff run")
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_undamped_simulate_is_never_refused_as_stiff(tmp_path):
    # the dephasing that makes a damped run stiff only fades an undamped one,
    # which is propagated exactly: V = 1 at t = 0 and 0 after
    cfg = tmp_path / "run.cfg"
    cfg.write_text("units = natural\ng = 0.05\ngamma_a = 1e155\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    visibility = [float(row[header.index("visibility")]) for row in rows]
    assert visibility[0] == pytest.approx(1.0, abs=1e-15) and set(visibility[1:]) == {0.0}
    segments = _read_manifest(out)["stats"]["segments"]
    assert [s["propagator"] for s in segments] == ["exact_eigh"]


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_unwritable_out_is_a_usage_error(command, tmp_path, capsys, monkeypatch):
    # a missing directory and a directory ended in an OSError traceback
    # (exit 1), simulate's only after the whole integration
    monkeypatch.setattr(lindblad, "run_protocol", lambda cfg: pytest.fail("integrated"))
    (tmp_path / "dir").mkdir()
    argv = {"analytic": ["analytic", "--formula", "thermal", "--lambda", "0.1",
                         "--out", str(tmp_path / "missing" / "x.csv")],
            "simulate": ["simulate", "--config", str(CONFIGS / "demo_basic.cfg"),
                         "--out", str(tmp_path / "dir")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out")
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]
    # a 300-byte file name (ENAMETOOLONG) is refused before any work
    long_name = str(tmp_path / ("x" * 300))
    assert main(argv[:-1] + [long_name]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out {long_name}: File name too long"]
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_out_whose_temp_names_are_too_long_is_refused_before_the_run(tmp_path, capsys,
                                                                     monkeypatch):
    # a 240-byte name passes its own lookup, but its manifest's temp name
    # does not fit: simulate integrated the whole run before refusing it
    monkeypatch.setattr(lindblad, "run_protocol", lambda cfg: pytest.fail("integrated"))
    out = str(tmp_path / ("x" * 240))
    assert main(["simulate", "--config", str(CONFIGS / "demo_basic.cfg"), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --out {out}: File name too long"]
    assert list(tmp_path.iterdir()) == []


def _replace_refused(src, dst):
    raise OSError(errno.EROFS, "Read-only file system", str(dst))


@pytest.mark.parametrize("name, patch", [("x" * 250, None), ("x.csv", _replace_refused)],
                         ids=["temp_name_too_long", "read_only"])
def test_out_the_os_refuses_while_writing_is_a_usage_error(name, patch, tmp_path, capsys,
                                                           monkeypatch):
    # --out's 250-byte name leaves its temp names too long to create, which
    # main looks up before any work, or moving them into place fails: exit 2,
    # one stderr line and no temp file left
    if patch:
        monkeypatch.setattr(cli.os, "replace", patch)
    out = str(tmp_path / name)
    assert main(["analytic", "--formula", "thermal", "--lambda", "0.1", "--out", out]) == 2
    strerror = "Read-only file system" if patch else "File name too long"
    assert capsys.readouterr().err.splitlines() == [f"error: --out {out}: {strerror}"]
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# refusals: each test of test_refusals.MOVED runs its rows of tests/refusals.txt
# ---------------------------------------------------------------------------


def _moved(cases):
    """The test of a MOVED entry: one row per id."""
    @pytest.mark.parametrize("name", [pytest.param(name, id=case)
                                      for case, name in cases.items()])
    def test(name, tmp_path, capsys):
        refused(tmp_path, capsys, name)
    return test


for _test, _cases in MOVED.items():
    globals()[_test] = _moved(_cases)


_ANALYTIC = ["analytic", "--lambda", "0.1", "--formula"]
# every int flag of analytic and verify: the command line that reads it, and
# its bounds (None: no bound above)
_COUNT_FLAGS = [
    ([*_ANALYTIC, "many-atom"], "--n-atoms", 1, None),
    ([*_ANALYTIC, "spin-echo"], "--n-pi", 1, MAX_N_PI),
    ([*_ANALYTIC, "thermal"], "--samples", 2, MAX_SAMPLES),
    (["verify"], "--seeds", 1, None),
    (["verify", "--seeds", "1"], "--dim", 2, MAX_DIM),
    (["verify", "--seeds", "1"], "--samples", 1, None),
]


@pytest.mark.parametrize("argv", [
    pytest.param([*argv, f"{flag}={value}"], id=f"{argv[0]}{flag}={value}")
    for argv, flag, lo, hi in _COUNT_FLAGS for value in ((lo,) if hi is None else (lo, hi))])
def test_analytic_rejects_out_of_range_counts(argv, tmp_path):
    # --n-atoms 0 was a domain error (exit 3), and --samples 1e9 asked numpy
    # for a 7.45 GiB grid (exit 1); the parser applies the bounds, before
    # anything is built (the refusal rows of tests/refusals.txt), and lets a
    # value within them through
    flag, value = argv[-1][2:].split("=")
    args = cli.build_parser().parse_args([*argv, "--out", str(tmp_path / "x.csv")])
    assert getattr(args, flag.replace("-", "_")) == int(value)


# values that once broke a command: zero, negatives, the float extremes
EDGE_VALUES = [0.0, -1.0, 1e-300, -1e-300, 1e308, -1e308, 0.1, 3.0, 300.0]
_edge = st.sampled_from(EDGE_VALUES)


def _assert_outputs_sound(code, out_dir):
    """Exit code in the documented set; on success, each output has its
    manifest and holds only finite numbers; on failure, nothing is written."""
    assert code in (0, 2, 3, 4, 5)
    files = sorted(out_dir.iterdir())
    if code != 0:
        assert files == []
        return
    outputs = [f for f in files if not f.name.endswith(".manifest.json")]
    assert outputs
    for path in outputs:
        assert path.with_name(path.name + ".manifest.json").exists()
        if path.suffix == ".csv":
            _, *rows = path.read_text().splitlines()
            assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
        else:
            numbers = [v for v in json.loads(path.read_text()).values()
                       if isinstance(v, float)]
            assert numbers and all(map(math.isfinite, numbers))


def _run(argv, config=None):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        if config is not None:
            (Path(tmp) / "run.cfg").write_text(
                "".join(f"{key} = {value}\n" for key, value in config.items()))
            argv = argv + ["--config", str(Path(tmp) / "run.cfg")]
        name = "x.json" if argv[0] == "design" and "--sweep" not in argv else "x.csv"
        _assert_outputs_sound(main(argv + ["--out", str(out_dir / name)]), out_dir)


_counts = st.sampled_from([-1, 0, 1, 2, 7, MAX_SAMPLES + 1])


@st.composite
def _analytic_argv(draw):
    """An analytic command line with a few of its formula's own flags."""
    formula = draw(st.sampled_from(sorted(cli._FORMULA_FLAGS)))
    flags = [cli._FLAGS[key][0] for key in sorted(cli._FORMULA_FLAGS[formula])]
    argv = ["analytic", "--formula", formula]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        value = draw(_counts if flag in ("--samples", "--n-pi", "--n-atoms") else _edge)
        argv.append(f"{flag}={value!r}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_analytic_argv())
def test_fuzz_analytic_flags(argv):
    _run(argv)


_DESIGN_KEYS = ["atom_mass_amu", "density", "splitting", "distance", "sphere_radius",
                "kappa", "hold_time", "temperature", "oscillator_mass"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=st.dictionaries(st.sampled_from(_DESIGN_KEYS), _edge, max_size=2),
       geometry=st.sampled_from([None, "single_sphere", "four_sphere", "custom"]),
       sweep=st.none() | st.tuples(_edge, _edge, st.sampled_from([0, 1, 2]),
                                   _edge, _edge, st.sampled_from([1, 3])),
       sigma_level=st.none() | _edge)
def test_fuzz_design_config(config, geometry, sweep, sigma_level):
    if geometry is not None:
        config["geometry"] = geometry
    argv = ["design"]
    if sigma_level is not None:
        argv.append(f"--sigma-level={sigma_level!r}")
    if sweep is not None:
        tau_lo, tau_hi, n_tau, t_lo, t_hi, n_temp = sweep
        argv += ["--sweep", f"--tau-range={tau_lo!r},{tau_hi!r},{n_tau}",
                 f"--temp-range={t_lo!r},{t_hi!r},{n_temp}"]
    _run(argv, config)


# a simulate config's keys but t_max and the counts, drawn on their own
_SIMULATE_KEYS = ["omega", "g", "g_prime", "gamma_m", "gamma_a", "nbar", "temperature", "tau"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(config=st.dictionaries(st.sampled_from(_SIMULATE_KEYS), _edge, max_size=3),
       units=st.sampled_from(["natural", "natural", "si"]),
       protocol=st.sampled_from(["basic", "boosted", "spin_echo"]),
       dim=st.sampled_from([None, None, -1, 0, 3, 12, 24, MAX_DIM + 1]),
       counts=st.fixed_dictionaries({}, optional={
           "n_pi": st.sampled_from([-1, 0, 1]),
           "samples_per_period": st.sampled_from([-1, 0, 4, 40, MAX_DIM + 1]),
           "t_max_periods": st.sampled_from([-1.0, 0.0, 1e-300, 0.75, 2.0, 1e308]),
           # at any edge omega or tau, 1e-300 and 1e308 come to one period at
           # most or to far more samples than MAX_RUN_SAMPLES
           "t_max": st.sampled_from([-1.0, 0.0, 1e-300, 1e308])}))
def test_fuzz_simulate_config_and_dim(config, units, dim, protocol, counts):
    config = {**config, **counts, "units": units, "protocol": protocol}
    if dim is not None:  # a whole run, at dim 24 and 2 periods at most
        _run(["simulate"], {**config, "dim": dim})
        return
    # the default dim rule alone: the dim it picks may be too large to run here
    try:
        cli._protocol_config_from_file(config, None).resolved_dim()
    except (ConfigError, DomainError, OverflowError, TruncationError):
        pass  # exit 2, 3 or 4 from main


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seeds=st.integers(1, 2), dim=st.integers(2, 6), samples=st.integers(1, 40),
       coupling=st.floats(-1.0, 1.0))
def test_fuzz_verify(seeds, dim, samples, coupling):
    # small suites only: a witness failure (exit 5) still writes its CSV
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "x.csv"
        code = main(["verify", f"--seeds={seeds}", f"--dim={dim}", f"--samples={samples}",
                     f"--contrast-coupling={coupling!r}", "--out", str(out)])
        assert code in (0, 2, 3, 4, 5)
        assert out.exists() == (code in (0, 5))
        assert sorted(p.name for p in Path(tmp).iterdir()) == (
            ["x.csv", "x.csv.manifest.json"] if out.exists() else [])
