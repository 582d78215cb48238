"""Batch command-line interface.

Subcommands: ``analytic`` (closed-form curves), ``simulate`` (master
equation protocols), ``verify`` (separable-channel monotonicity suite),
``design`` (lab feasibility numbers).  Every file-writing run also emits a
``<out>.manifest.json`` with the config echo, tool version, timestamps,
sha256 of each output, the time spent writing it and the run's validity
warnings (also printed to stderr); the manifest lands before its output, so
an output never exists without one.  Outputs themselves are deterministic
for identical inputs.
Exit codes: 0 success, 2 usage/config error (an unwritable --out too), 3
domain error or value out of range (a non-finite output value too), 4
solver, truncation, exact-visibility check or linalg failure, 5 witness-suite
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytic, design, witness
from .algebra import thermal_occupation
from .config import ConfigError, get_int, get_number, parse_config_file, require_keys
from .constants import ATOMIC_MASS
from .design import GeometryError, PhysicalConfig
from .lindblad import MAX_DIM, IntegrationError, ProtocolConfig, TruncationError, run_protocol

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICS = 4
EXIT_WITNESS = 5

# `analytic` row limits, checked before the grid is built.  Rows are written,
# and damped-exact evaluated, a chunk at a time, so the peak is the formula's
# own arrays: above import, 10^6 rows took 20 MB for damped-exact, 25 MB for
# thermal, 41 MB for many-atom and 48 MB for damped and boosted (186 MB at
# 4 x 10^6), so 10^7 rows take at most about 0.5 GB, and the benchmark's
# largest grid is 50,000.  MAX_SAMPLES also caps the cells of a
# `design --sweep`, whose row dicts cost about 360 B a cell.
MAX_SAMPLES = 10**7
MAX_N_PI = 10**6
# `verify` keeps (samples + 1) joint (2 dim, 2 dim) states per channel, and
# its peak memory is about four times those (430 MB above import for the
# 105 MB kept at --dim 64 --samples 400): 2^24 complex values are 256 MiB.
# The same budget bounds the contrast case's kept states.
MAX_STATE_VALUES = 2**24


# ---------------------------------------------------------------- helpers

CSV_CHUNK_ROWS = 8192  # rows formatted and written at a time
_CSV_BOOLS = np.array(["false", "true"])


def write_csv(path, header: list[str], columns) -> int:
    """Write the header and the rows of the equal-length columns, one chunk
    of rows at a time; return the row count.  Each column's format comes
    from its dtype: floats as %.17g, which round-trips exactly, booleans as
    true/false, and ints and strings through str."""
    columns = [np.asarray(column) for column in columns]
    columns = [_CSV_BOOLS[c.astype(np.intp)] if c.dtype.kind == "b" else c for c in columns]
    template = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in columns) + "\n"
    n_rows = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = [c[start:start + CSV_CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join(map(template.format, *chunk)))
    return n_rows


def _require_finite(*columns) -> None:
    """Refuse an output that holds a non-finite number, before it is opened."""
    if not all(np.isfinite(np.asarray(column, dtype=float)).all() for column in columns):
        raise OverflowError("a computed output value is not finite")


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a non-finite number
        raise OverflowError("a computed output value is not finite") from exc


def write_json(path, payload: dict) -> None:
    text = _json_text(payload)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _warn(args, message: str) -> None:
    """Print a validity warning and keep it for the run's manifest."""
    print(f"warning: {message}", file=sys.stderr)
    args.warnings.append(message)


def write_manifest(path, args, config: dict, output: Path, **extra) -> None:
    """Write to path the manifest of the output ``args.out``, whose contents
    are in the file output: the command, its config echo, the tool version,
    when the command started and finished, the output's sha256 and size, the
    run's warnings and any extra fields.  The output is hashed 1 MiB at a
    time, never read whole."""
    digest = hashlib.sha256()
    with open(output, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
        size = fh.tell()
    write_json(path, {
        "command": args.command,
        "config": config,
        "tool_version": __version__,
        "started_at": args.started_at,
        "finished_at": _now(),
        "outputs": [{"path": str(args.out), "sha256": digest.hexdigest(), "bytes": size}],
        "warnings": args.warnings,
        **extra,
    })


def write_outputs(args, write, config: dict, **extra):
    """Write ``args.out`` through write(path) and then ``<args.out>.manifest.json``,
    each to a temp file beside it, and move the manifest into place first:
    an output never exists without its manifest, which records ``write_s``,
    the wall time write took.  On any error both temp files are removed.
    Returns what write returned."""
    out = Path(args.out)
    temps = [Path(f"{path}.{os.getpid()}.tmp") for path in (out, f"{out}.manifest.json")]
    try:
        start = time.perf_counter()
        result = write(temps[0])
        write_s = time.perf_counter() - start
        write_manifest(temps[1], args, config, temps[0], write_s=write_s, **extra)
        os.replace(temps[1], f"{out}.manifest.json")
        os.replace(temps[0], out)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return result


def _config_kwargs(values: dict, cls) -> dict:
    """The fields of dataclass cls that the config file gives, typed by the
    field's annotation: strings as read, integers through `get_int`, the
    rest through `get_number`.  Absent fields keep the dataclass default."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in values:
            kind = str(f.type)
            if "str" in kind:
                kwargs[f.name] = values[f.name]
            else:
                kwargs[f.name] = (get_int if "int" in kind else get_number)(values, f.name)
    return kwargs


# ---------------------------------------------------------------- analytic

_FORMULA_FLAGS = {
    "ground": {"lam"},
    "thermal": {"lam", "nbar"},
    "damped": {"lam", "nbar", "q", "gamma_a"},
    "damped-exact": {"lam", "nbar", "q", "gamma_a"},
    "boosted": {"lam", "lam_prime", "nbar"},
    "many-atom": {"lam", "nbar", "n_atoms"},
    "spin-echo": {"lam", "n_pi"},
}
# each formula flag's option string and the `CouplingParams` field it sets
# (None: read by cmd_analytic itself); absent flags keep the field's default
_FLAGS = {
    "lam": ("--lambda", None),
    "lam_prime": ("--lambda-prime", "boost_coupling"),
    "nbar": ("--nbar", "nbar"),
    "q": ("--q", "q_factor"),
    "gamma_a": ("--gamma-a", "qubit_decay"),
    "n_atoms": ("--n-atoms", None),
    "n_pi": ("--n-pi", None),
}


def cmd_analytic(args) -> int:
    formula = args.formula
    allowed = _FORMULA_FLAGS[formula]
    passed = {k for k in _FLAGS if getattr(args, k) is not None}
    stray = passed - allowed
    if stray:
        names = ", ".join(sorted(_FLAGS[k][0] for k in stray))
        raise ConfigError(f"{names} not applicable to --formula {formula}")
    if formula == "spin-echo" and (args.t_max is not None or args.samples is not None):
        raise ConfigError("--t-max/--samples conflict with --formula spin-echo "
                          "(rows are echo iterations)")

    lam = args.lam if args.lam is not None else 0.0
    t_max = args.t_max if args.t_max is not None else 2.0
    samples = args.samples if args.samples is not None else 400
    if samples < 2:
        raise ConfigError("--samples must be >= 2")
    if samples > MAX_SAMPLES:
        raise ConfigError(f"--samples must be <= {MAX_SAMPLES}, got {samples}")
    if args.n_atoms is not None and args.n_atoms < 1:
        raise ConfigError(f"--n-atoms must be >= 1, got {args.n_atoms}")

    if formula == "spin-echo":
        n_pi = args.n_pi if args.n_pi is not None else 1
        if n_pi < 1:
            raise ConfigError(f"--n-pi must be >= 1, got {n_pi}")
        if n_pi > MAX_N_PI:
            raise ConfigError(f"--n-pi must be <= {MAX_N_PI}, got {n_pi}")
        # columns first, so an overflowing lambda fails before the file opens
        overlaps = (analytic.spin_echo_overlap(k, lam) for k in range(1, n_pi + 1))
        columns = (2.0 * math.pi * np.arange(1, n_pi + 1), np.fromiter(overlaps, float, n_pi))
    else:
        given = {field: getattr(args, k) for k, (_, field) in _FLAGS.items()
                 if field and getattr(args, k) is not None}
        params = analytic.CouplingParams(coupling=lam, **given)
        # an overflow leaves a non-finite value, which _require_finite refuses
        with np.errstate(over="ignore", invalid="ignore"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = 2.0 * math.pi * t_max * np.arange(samples) / samples
            if formula in ("ground", "thermal"):  # ground is thermal at nbar = 0
                vis = analytic.visibility_thermal(params, grid)
            elif formula == "damped":
                vis = analytic.visibility_damped(params, grid)
            elif formula == "damped-exact":
                # the basic protocol at omega = 1; --gamma-a is the coherence
                # decay over omega, twice the engine's sigma_z jump rate
                segments = [(2.0 * math.pi * t_max, params.coupling, False)]
                vis = analytic.visibility_exact(
                    1.0, 1.0 / params.q_factor, 0.5 * params.qubit_decay, params.nbar,
                    segments, grid)
            elif formula == "boosted":
                vis = analytic.visibility_boosted(params, grid)
            else:  # many-atom
                n_atoms = args.n_atoms if args.n_atoms is not None else 1
                vis = analytic.visibility_many_atom(n_atoms, params, grid)
        for warning in caught:
            _warn(args, str(warning.message))
        columns = (grid, vis)

    _require_finite(*columns)
    echo = {k: getattr(args, k) for k in _FLAGS}
    echo.update({"formula": formula, "t_max": t_max, "samples": samples})
    n_rows = write_outputs(args, lambda path: write_csv(path, ["omega_t", "visibility"], columns),
                           echo)
    print(f"wrote {args.out} ({n_rows} rows)")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

_SIMULATE_KEYS = {f.name for f in dataclasses.fields(ProtocolConfig)} | {
    "units", "tau", "temperature", "t_max_periods"}


def _protocol_config_from_file(values: dict, protocol_override: str | None) -> ProtocolConfig:
    require_keys(values, _SIMULATE_KEYS, "simulate")
    units = values.get("units", "si")
    if units not in ("si", "natural"):
        raise ConfigError(f"units must be 'si' or 'natural', got {units!r}")
    kwargs = _config_kwargs(values, ProtocolConfig)

    if units == "natural":
        if "tau" in values:
            raise ConfigError("tau is an SI key; natural units take omega directly")
    elif "tau" in values:
        tau = get_number(values, "tau")
        if tau <= 0:
            raise ConfigError(f"tau must be positive, got {tau!r}")
        kwargs["omega"] = 2.0 * math.pi / tau
    elif "omega" not in values:
        raise ConfigError("SI units need tau (seconds) or omega (rad/s)")
    omega = kwargs.get("omega", ProtocolConfig.omega)

    if "nbar" in values and "temperature" in values:
        raise ConfigError("give either nbar or temperature, not both")
    if "temperature" in values:
        temp = get_number(values, "temperature")
        if units == "natural":
            kwargs["nbar"] = thermal_occupation(omega, temp, hbar=1.0, k_boltzmann=1.0)
        else:
            kwargs["nbar"] = thermal_occupation(omega, temp)

    if "t_max" in values and "t_max_periods" in values:
        raise ConfigError("give either t_max or t_max_periods, not both")
    if "t_max_periods" in values:
        kwargs["t_max"] = get_number(values, "t_max_periods") * 2.0 * math.pi / omega

    if protocol_override:
        kwargs["protocol"] = protocol_override
    if kwargs.get("protocol") == "spin-echo":
        kwargs["protocol"] = "spin_echo"

    try:
        return ProtocolConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_simulate(args) -> int:
    values = parse_config_file(args.config)
    cfg = _protocol_config_from_file(values, args.protocol)
    trace = run_protocol(cfg)
    columns = {
        "t": trace.times,
        "visibility": trace.visibility,
        "re_sigma_minus": trace.sigma_minus.real,
        "im_sigma_minus": trace.sigma_minus.imag,
        "exact_error": trace.exact_error,
        "tail_mass": trace.tail_mass,
    }
    _require_finite(*columns.values())
    echo = dataclasses.asdict(cfg)

    def write(path):
        if args.format == "csv":
            write_csv(path, list(columns), columns.values())
        else:
            write_json(path, dict({k: c.tolist() for k, c in columns.items()}, config=echo))

    write_outputs(args, write, echo, stats=trace.stats)
    print(
        f"wrote {args.out} ({len(trace.times)} samples, "
        f"final V = {trace.visibility[-1]:.6f})"
    )
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1 (empty suite rejected)")
    if not 2 <= args.dim <= MAX_DIM:
        raise ConfigError(f"--dim must be between 2 and MAX_DIM={MAX_DIM}")
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    kept = (args.samples + 1) * (2 * args.dim) ** 2
    if kept > MAX_STATE_VALUES:
        raise ConfigError(
            f"--samples {args.samples} at --dim {args.dim} keeps {kept} state values "
            f"per channel, more than MAX_STATE_VALUES={MAX_STATE_VALUES}")
    contrast_cfg = witness.contrast_config(args.contrast_coupling)
    dim = contrast_cfg.resolved_dim()
    # the contrast run keeps one period of samples_per_period + 1 joint states
    kept = (contrast_cfg.samples_per_period + 1) * (2 * dim) ** 2
    if kept > MAX_STATE_VALUES:
        raise ConfigError(
            f"--contrast-coupling {args.contrast_coupling} needs dim {dim} and keeps "
            f"{kept} state values, more than MAX_STATE_VALUES={MAX_STATE_VALUES}")

    reports = witness.run_property_suite(
        args.seeds, args.dim, tol=args.tol, t_max=args.t_max, samples=args.samples
    )
    contrast = witness.coupled_contrast_case(args.contrast_coupling, tol=args.tol)

    separable_ok = all(r.monotonic for r in reports) and all(
        r.negativity_peak <= args.negativity_tol for r in reports
    )
    contrast_ok = (not contrast.monotonic) and contrast.negativity_peak > 0.01

    if args.out:
        header = ["kind", "seed"] + [f.name for f in dataclasses.fields(witness.WitnessReport)]
        rows = [("random", seed, *dataclasses.astuple(r)) for seed, r in enumerate(reports)]
        rows.append(("contrast", -1, *dataclasses.astuple(contrast)))
        write_outputs(args, lambda path: write_csv(path, header, zip(*rows)), {
            "seeds": args.seeds,
            "dim": args.dim,
            "tol": args.tol,
            "t_max": args.t_max,
            "samples": args.samples,
            "negativity_tol": args.negativity_tol,
            "contrast_coupling": args.contrast_coupling,
        })

    n_bad = sum(1 for r in reports if not r.monotonic)
    print(
        f"separable channels: {args.seeds - n_bad}/{args.seeds} monotonic, "
        f"max negativity {max(r.negativity_peak for r in reports):.2e}"
    )
    print(
        f"coupled contrast: monotonic={contrast.monotonic}, "
        f"revival={contrast.max_violation:.4f}, "
        f"negativity_peak={contrast.negativity_peak:.4f}"
    )
    if not (separable_ok and contrast_ok):
        print("error: witness suite failed", file=sys.stderr)
        return EXIT_WITNESS
    return EXIT_OK


# ---------------------------------------------------------------- design

_DESIGN_KEYS = {f.name for f in dataclasses.fields(PhysicalConfig)} - {"atom_mass"} | {
    "atom_mass_amu", "atom_mass_kg"}


def _physical_config_from_file(values: dict) -> PhysicalConfig:
    require_keys(values, _DESIGN_KEYS, "design")
    if "atom_mass_amu" in values and "atom_mass_kg" in values:
        raise ConfigError("give either atom_mass_amu or atom_mass_kg, not both")
    kwargs = _config_kwargs(values, PhysicalConfig)
    if "atom_mass_amu" in values:
        kwargs["atom_mass"] = get_number(values, "atom_mass_amu") * ATOMIC_MASS
    if "atom_mass_kg" in values:
        kwargs["atom_mass"] = get_number(values, "atom_mass_kg")
    try:
        return PhysicalConfig(**kwargs)
    except GeometryError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_design(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    cfg = _physical_config_from_file(values)

    if args.sweep:
        if args.tau_range is None or args.temp_range is None:
            raise ConfigError("--sweep requires --tau-range and --temp-range")
        if not args.out:
            raise ConfigError("--sweep requires --out")
        cells = args.tau_range[2] * args.temp_range[2]
        if cells > MAX_SAMPLES:
            raise ConfigError(f"--tau-range and --temp-range give {cells} grid cells, "
                              f"more than {MAX_SAMPLES}")
        rows = design.sweep_grid(cfg, args.tau_range, args.temp_range)
        table = np.fromiter((v for r in rows for v in r.values()), float).reshape(len(rows), -1)
        _require_finite(table)
        write_outputs(args, lambda path: write_csv(path, list(rows[0]), table.T), {
            "config": dataclasses.asdict(cfg),
            "tau_range": list(args.tau_range),
            "temp_range": list(args.temp_range),
        })
        print(f"wrote {args.out} ({len(rows)} grid cells)")
        return EXIT_OK

    derived = design.derive(cfg)
    payload = dataclasses.asdict(derived)
    payload["atoms_required"] = design.atoms_required(
        derived.delta_v_boosted, args.sigma_level
    )
    payload["sigma_level"] = args.sigma_level
    if derived.low_temperature_flag:
        _warn(args, "k_B*T/(hbar*omega) < 10; thermal contrast forms are outside "
                    "their validity range")
    if args.out:
        write_outputs(args, lambda path: write_json(path, payload), dataclasses.asdict(cfg))
    print(_json_text(payload), end="")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {raw!r}")
    return value


def _positive_float(raw: str) -> float:
    value = _finite_float(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {raw!r}")
    return value


def _nonnegative_float(raw: str) -> float:
    value = _finite_float(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {raw!r}")
    return value


def _range_triple(raw: str) -> tuple[float, float, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo,hi,n — got {raw!r}")
    lo, hi, n = _positive_float(parts[0]), _positive_float(parts[1]), int(parts[2])
    if hi < lo:
        raise argparse.ArgumentTypeError(f"hi must be >= lo, got {raw!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"n must be >= 1, got {raw!r}")
    return lo, hi, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revivalsim",
        description="Collapse-and-revival visibility toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form visibility curves")
    p.add_argument(
        "--formula",
        required=True,
        choices=sorted(_FORMULA_FLAGS),
    )
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None,
                   help="dimensionless coupling g/omega")
    p.add_argument("--lambda-prime", dest="lam_prime", type=_finite_float,
                   default=None, help="boost-stage coupling g'/omega")
    p.add_argument("--nbar", type=_finite_float, default=None)
    p.add_argument("--q", type=_finite_float, default=None,
                   help="quality factor omega/gamma_m")
    p.add_argument("--gamma-a", dest="gamma_a", type=_finite_float, default=None,
                   help="qubit coherence decay rate over omega; the simulate "
                        "engine's gamma_a (sigma_z jump rate) decays coherence "
                        "at 2*gamma_a")
    p.add_argument("--n-atoms", dest="n_atoms", type=int, default=None)
    p.add_argument("--n-pi", dest="n_pi", type=int, default=None)
    p.add_argument("--t-max", dest="t_max", type=_positive_float, default=None,
                   help="grid length in oscillator periods (default 2)")
    p.add_argument("--samples", type=int, default=None,
                   help="rows in the half-open omega*t grid (default 400)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="run a master-equation protocol")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--protocol", choices=("basic", "boosted", "spin_echo"),
                   default=None, help="override the config's protocol")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="separable-channel monotonicity suite")
    p.add_argument("--seeds", type=int, required=True,
                   help="number of random channels (seeds 0..N-1)")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--tol", type=_nonnegative_float, default=1e-6)
    p.add_argument("--t-max", dest="t_max", type=_positive_float, default=8.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--negativity-tol", dest="negativity_tol",
                   type=_nonnegative_float, default=1e-8)
    p.add_argument("--contrast-coupling", dest="contrast_coupling",
                   type=_finite_float, default=0.25)
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("design", help="lab feasibility estimates")
    p.add_argument("--config", default=None, help="key = value config file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--point", action="store_true", default=True)
    mode.add_argument("--sweep", action="store_true", default=False)
    p.add_argument("--tau-range", dest="tau_range", type=_range_triple,
                   default=None, help="lo,hi,n (seconds, log-spaced)")
    p.add_argument("--temp-range", dest="temp_range", type=_range_triple,
                   default=None, help="lo,hi,n (kelvin, log-spaced)")
    p.add_argument("--sigma-level", dest="sigma_level", type=_positive_float,
                   default=5.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_design)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.started_at, args.warnings = _now(), []
    try:
        out = None if args.out is None else Path(args.out)
        if out and (out.is_dir() or not out.parent.is_dir()):
            raise ConfigError(f"--out {args.out}: not a file path in an existing directory")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationError, IntegrationError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OverflowError as exc:
        print(f"error: a value is out of range: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
