"""Every refusal of tests/refusals.txt, checked as its header says: in-process
through cli.main, where a Python warning fails a row too, or, run as a script,
against the installed package, each row in a process of its own."""

import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from revivalsim.cli import main

TABLE = Path(__file__).resolve().with_name("refusals.txt")
# an underscore-prefixed name, such as a private type function's in argparse's
# "invalid <type> value"
PRIVATE_NAME = re.compile(r"\b_\w")


def _rows() -> dict:
    """The table's rows by name: (line number, exit code, config, argv, substring)."""
    rows = {}
    for lineno, line in enumerate(TABLE.read_text().splitlines(), 1):
        if line and not line.startswith("#"):
            name, code, config, argv, substring = line.split("|", 4)
            assert name not in rows, f"{name} names two rows"
            rows[name] = (lineno, int(code), config, argv.split(), substring)
    return rows


ROWS = _rows()

# The parametrized refusal tests of test_cli.py whose cases became rows keep
# their ids, one row per id; test_refusal runs every other row, so that each
# row runs once, under one id.
MOVED = {
    "test_analytic_rejects_n_pi_below_one": {"0": "echo0.csv", "-2": "echo_n_pi_neg.csv"},
    "test_simulate_refuses_sample_counts_over_the_cap": {
        "t_max_periods = 1e9": "long.csv",
        "samples_per_period = 1000000000000": "samples_per_period_huge.csv"},
    "test_simulate_rejects_removed_solver_keys": {
        key: f"{key}.csv" for key in ("rtol", "atol", "dt_initial")},
    "test_simulate_bad_t_max_is_a_config_error": {
        "t_max = -1-t_max must be positive, got -1.0": "negative_t_max.csv",
        "protocol = boosted\ng_prime = 0.1\nt_max_periods = 0.25-first half period":
            "boosted_half_period.csv"},
    "test_simulate_negative_occupation_or_temperature_is_a_config_error": {
        f"{key}-{units}": f"{units}_{key}_negative.csv"
        for key in ("nbar", "temperature") for units in ("natural", "si")},
    "test_simulate_spin_echo_refuses_a_run_length": {
        "t_max": "echo_t_max.csv", "t_max_periods": "echo_t_max_periods.csv",
        "protocol_override": "echo_override_t_max.csv"},
    "test_simulate_refuses_a_key_its_protocol_does_not_read": {
        "g_prime_basic": "stray_g_prime.csv", "n_pi_basic": "stray_n_pi_basic.csv",
        "n_pi_boosted": "stray_n_pi.csv", "g_prime_override": "stray_g_prime_override.csv",
        "g_prime_echo": "stray_g_prime_echo.csv"},
    "test_verify_rejects_kept_states_over_budget": {
        "4-1000000000": "huge_witness.csv", "16-16384": "witness_budget.csv"},
    "test_verify_rejects_bad_float_flags": {
        "--tol=nan": "tol_nan.csv", "--tol=-1e-6": "tol_negative.csv", "--tol=abc": "tol_abc.csv",
        "--negativity-tol=nan": "negativity_tol_nan.csv",
        "--negativity-tol=-1": "negativity_tol_negative.csv",
        "--negativity-tol=abc": "negativity_tol_abc.csv", "--t-max=nan": "verify_t_max_nan.csv",
        "--t-max=0": "verify_t_max_zero.csv", "--t-max=abc": "verify_t_max_abc.csv",
        "--contrast-coupling=nan": "contrast_nan.csv",
        "--contrast-coupling=inf": "contrast_inf.csv",
        "--contrast-coupling=abc": "contrast_abc.csv"},
    "test_design_rejects_bad_flags": {
        "--tau-range-nan,100,3": "tau_nan.csv", "--tau-range-10,inf,3": "tau_inf.csv",
        "--tau-range-0,100,3": "tau_zero.csv", "--tau-range--10,100,3": "tau_negative.csv",
        "--tau-range-10,100,0": "tau_n_zero.csv", "--tau-range-100,10,3": "inverted.csv",
        "--tau-range-1,2,x": "tau_n_abc.csv", "--temp-range-10,nan,2": "temp_nan.csv",
        "--temp-range-inf,300,2": "temp_inf.csv", "--temp-range-10,0,2": "temp_zero.csv",
        "--temp-range-10,-300,2": "temp_negative.csv", "--temp-range-10,300,0": "temp_n_zero.csv",
        "--temp-range-300,10,2": "temp_inverted.csv", "--temp-range-1,x,2": "temp_abc.csv",
        "--sigma-level-nan": "sigma_nan.json", "--sigma-level-inf": "sigma_inf.json",
        "--sigma-level-0": "sigma_zero.json", "--sigma-level--5": "sigma_negative.json",
        "--sigma-level-abc": "sigma_abc.json"},
    "test_design_refuses_flags_its_mode_does_not_read": {
        "point_tau_range": "point_tau_range.json", "default_temp_range": "default_temp_range.json",
        "sweep_sigma_level": "sweep_sigma_level.csv"},
    "test_design_refuses_a_nonpositive_oscillator_mass": {
        "point--1": "mass_negative.json", "point-0": "mass_zero_point.json",
        "sweep--1": "mass_negative_sweep.csv", "sweep-0": "mass_zero.csv"},
    "test_integer_beyond_the_float_range_is_a_config_error": {
        **{f"simulate-{key}": f"int_{key}.csv"
           for key in ("omega", "g", "n_pi", "samples_per_period", "dim")},
        "design-density": "int_density.json"},
    "test_config_that_is_not_utf8_is_a_usage_error": {
        "simulate": "not_utf8.csv", "design": "design_not_utf8.json"},
    "test_overflow_is_a_domain_error": {
        "ground": "ground_1e200.csv", "thermal": "thermal_1e200.csv",
        "boosted": "boosted_1e200.csv", "spin-echo": "echo_1e200.csv",
        "design": "sigma_1e200.json"},
    "test_out_of_range_values_write_nothing": {case: f"{case}.csv" for case in (
        "thermal_nbar", "damped_nbar", "thermal_lambda", "damped_lambda", "t_max_1e308",
        "t_max_1e307", "design_density", "design_temperature", "sweep_temperature",
        "design_hold_time", "sweep_tau", "design_splitting", "simulate_nbar",
        "simulate_temperature", "simulate_g", "simulate_nbar_1e200", "simulate_dim_g")},
}
_MOVED_ROWS = [name for cases in MOVED.values() for name in cases.values()]
assert len(set(_MOVED_ROWS)) == len(_MOVED_ROWS) and set(_MOVED_ROWS) <= set(ROWS)


def _command(base: Path, name: str) -> tuple[list, Path]:
    """The row's command line, its config written and its --out in a directory
    of its own under base, and that directory."""
    lineno, _, config, argv, _ = ROWS[name]
    row_dir = base / f"row{lineno}"
    (row_dir / "out").mkdir(parents=True)
    if config != "-":
        # its escapes \n, \t, \\ and \xHH, as printf %b reads them
        (row_dir / "row.cfg").write_bytes(config.encode().decode("unicode_escape")
                                          .encode("latin-1"))
        argv = argv + ["--config", str(row_dir / "row.cfg")]
    return argv + ["--out", str(row_dir / "out" / name)], row_dir


def check(name: str, row_dir: Path, code: int, out: str, err: str) -> None:
    """Assert that the run of a row's command refused it as the row says."""
    lineno, want, _, _, substring = ROWS[name]
    row = f"tests/refusals.txt line {lineno} ({name})"
    assert code == want, (row, f"exit {code}, want {want}", err)
    err = err.replace(str(row_dir / "out" / name), "<out>").replace(
        str(row_dir / "row.cfg"), "<config>")
    lines = err.splitlines()
    errors = [line for line in lines if "error:" in line]
    assert len(errors) == 1 and substring in errors[0], (row, lines)
    # main's own refusal is its only line; argparse's follows its usage
    assert lines == errors or (lines[0].startswith("usage:") and lines[-1] == errors[0]), (
        row, lines)
    assert not PRIVATE_NAME.search(err), (row, err)
    assert out == "", (row, out)
    assert list((row_dir / "out").iterdir()) == [], row


def refused(tmp_path, capsys, name) -> None:
    """Run a row through cli.main and check its refusal."""
    argv, row_dir = _command(tmp_path, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a line of its own
        code = main(argv)
    printed = capsys.readouterr()
    check(name, row_dir, code, printed.out, printed.err)


@pytest.mark.parametrize("name", [pytest.param(name, id=f"{row[0]}-{name[:40]}")
                                  for name, row in ROWS.items() if name not in _MOVED_ROWS])
def test_refusal(name, tmp_path, capsys):
    refused(tmp_path, capsys, name)


if __name__ == "__main__":
    failed = 0  # each row within 30 s: the stiff config once stepped past 60 s
    with tempfile.TemporaryDirectory() as tmp:
        for name in ROWS:
            argv, row_dir = _command(Path(tmp), name)
            try:
                run = subprocess.run([sys.executable, "-m", "revivalsim", *argv], timeout=30,
                                     capture_output=True, encoding="utf-8", errors="replace")
                check(name, row_dir, run.returncode, run.stdout, run.stderr)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                print(f"FAILED: {exc}", file=sys.stderr)
                failed += 1
    sys.exit(f"{failed} of {len(ROWS)} rows of {TABLE} failed" if failed else 0)
