"""Batch command-line interface.

Subcommands: ``analytic`` (closed-form curves), ``simulate`` (master
equation protocols), ``verify`` (separable-channel monotonicity suite),
``design`` (lab feasibility numbers).  Every file-writing run also emits a
``<out>.manifest.json`` with the config echo, tool version, timestamps and
sha256 of each output; outputs themselves are deterministic for identical
inputs.  Exit codes: 0 success, 2 usage/config error, 3 domain error,
4 integration/truncation failure, 5 witness-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analytic, design, witness
from .algebra import TruncationError, thermal_occupation
from .config import ConfigError, get_int, get_number, parse_config_file, require_keys
from .design import GeometryError, PhysicalConfig
from .lindblad import IntegrationError, ProtocolConfig, run_protocol

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICS = 4
EXIT_WITNESS = 5


# ---------------------------------------------------------------- helpers

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class ManifestWriter:
    """Collects output files and writes the run manifest last."""

    def __init__(self, command: str, config_echo: dict):
        self.command = command
        self.config_echo = config_echo
        self.started_at = datetime.now(timezone.utc).isoformat()
        self.outputs: list[dict] = []

    def add(self, path) -> None:
        path = Path(path)
        self.outputs.append(
            {
                "path": str(path),
                "sha256": _sha256(path),
                "bytes": path.stat().st_size,
            }
        )

    def write(self, out_path, **extra) -> None:
        payload = {
            "command": self.command,
            "config": self.config_echo,
            "tool_version": __version__,
            "started_at": self.started_at,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "outputs": self.outputs,
            **extra,
        }
        write_json(str(out_path) + ".manifest.json", payload)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------- analytic

_FORMULA_FLAGS = {
    "ground": {"lam"},
    "thermal": {"lam", "nbar"},
    "damped": {"lam", "nbar", "q", "gamma_a"},
    "boosted": {"lam", "lam_prime", "nbar"},
    "many-atom": {"lam", "nbar", "n_atoms"},
    "spin-echo": {"lam", "n_pi"},
}
_FLAG_NAMES = {
    "lam": "--lambda",
    "lam_prime": "--lambda-prime",
    "nbar": "--nbar",
    "q": "--q",
    "gamma_a": "--gamma-a",
    "n_atoms": "--n-atoms",
    "n_pi": "--n-pi",
}


def cmd_analytic(args) -> int:
    formula = args.formula
    allowed = _FORMULA_FLAGS[formula]
    passed = {k for k in _FLAG_NAMES if getattr(args, k) is not None}
    stray = passed - allowed
    if stray:
        names = ", ".join(sorted(_FLAG_NAMES[k] for k in stray))
        print(
            f"error: {names} not applicable to --formula {formula}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if formula == "spin-echo" and (args.t_max is not None or args.samples is not None):
        print(
            "error: --t-max/--samples conflict with --formula spin-echo "
            "(rows are echo iterations)",
            file=sys.stderr,
        )
        return EXIT_USAGE

    lam = args.lam if args.lam is not None else 0.0
    nbar = args.nbar if args.nbar is not None else 0.0
    t_max = args.t_max if args.t_max is not None else 2.0
    samples = args.samples if args.samples is not None else 400
    if samples < 2:
        print("error: --samples must be >= 2", file=sys.stderr)
        return EXIT_USAGE

    if formula == "spin-echo":
        n_pi = args.n_pi if args.n_pi is not None else 1
        rows = [
            (2.0 * math.pi * k, analytic.spin_echo_overlap(k, lam))
            for k in range(1, n_pi + 1)
        ]
    else:
        grid = 2.0 * math.pi * t_max * np.arange(samples) / samples
        if formula == "ground":
            vis = analytic.visibility_ground(lam, grid)
        else:
            params = analytic.CouplingParams(
                coupling=lam,
                boost_coupling=args.lam_prime if args.lam_prime is not None else 0.0,
                nbar=nbar,
                q_factor=args.q if args.q is not None else math.inf,
                qubit_decay=args.gamma_a if args.gamma_a is not None else 0.0,
            )
            if formula == "thermal":
                vis = analytic.visibility_thermal(params, grid)
            elif formula == "damped":
                vis = analytic.visibility_damped(params, grid)
            elif formula == "boosted":
                vis = analytic.visibility_boosted(params, grid)
            else:  # many-atom
                n_atoms = args.n_atoms if args.n_atoms is not None else 1
                vis = analytic.visibility_many_atom(n_atoms, params, grid)
        rows = list(zip(grid.tolist(), np.asarray(vis).tolist()))

    echo = {k: getattr(args, k) for k in _FLAG_NAMES}
    echo.update({"formula": formula, "t_max": t_max, "samples": samples})
    manifest = ManifestWriter("analytic", _json_safe(echo))
    write_csv(args.out, ["omega_t", "visibility"], rows)
    manifest.add(args.out)
    manifest.write(args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

_SIMULATE_KEYS = {
    "units",
    "omega",
    "tau",
    "g",
    "g_prime",
    "gamma_m",
    "gamma_a",
    "nbar",
    "temperature",
    "dim",
    "t_max",
    "t_max_periods",
    "protocol",
    "n_pi",
    "samples_per_period",
    "dt_initial",
    "rtol",
    "atol",
}


def _protocol_config_from_file(values: dict, protocol_override: str | None) -> ProtocolConfig:
    require_keys(values, _SIMULATE_KEYS, "simulate")
    units = values.get("units", "si")
    if units not in ("si", "natural"):
        raise ConfigError(f"units must be 'si' or 'natural', got {units!r}")

    if units == "natural":
        omega = get_number(values, "omega", 1.0)
        if "tau" in values:
            raise ConfigError("tau is an SI key; natural units take omega directly")
    else:
        if "tau" in values:
            omega = 2.0 * math.pi / get_number(values, "tau")
        elif "omega" in values:
            omega = get_number(values, "omega")
        else:
            raise ConfigError("SI units need tau (seconds) or omega (rad/s)")

    if "nbar" in values and "temperature" in values:
        raise ConfigError("give either nbar or temperature, not both")
    if "nbar" in values:
        nbar = get_number(values, "nbar")
    elif "temperature" in values:
        temp = get_number(values, "temperature")
        if units == "natural":
            nbar = thermal_occupation(omega, temp, hbar=1.0, k_boltzmann=1.0)
        else:
            nbar = thermal_occupation(omega, temp)
    else:
        nbar = 0.0

    if "t_max" in values and "t_max_periods" in values:
        raise ConfigError("give either t_max or t_max_periods, not both")
    t_max = get_number(values, "t_max")
    if "t_max_periods" in values:
        t_max = get_number(values, "t_max_periods") * 2.0 * math.pi / omega

    protocol = protocol_override or values.get("protocol", "basic")
    if protocol == "spin-echo":
        protocol = "spin_echo"

    try:
        return ProtocolConfig(
            omega=omega,
            g=get_number(values, "g", 0.0),
            g_prime=get_number(values, "g_prime", 0.0),
            gamma_m=get_number(values, "gamma_m", 0.0),
            gamma_a=get_number(values, "gamma_a", 0.0),
            nbar=nbar,
            dim=get_int(values, "dim"),
            t_max=t_max,
            dt_initial=get_number(values, "dt_initial", 1e-3),
            protocol=protocol,
            n_pi=get_int(values, "n_pi", 1),
            samples_per_period=get_int(values, "samples_per_period", 200),
            rtol=get_number(values, "rtol", 1e-10),
            atol=get_number(values, "atol", 1e-12),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_simulate(args) -> int:
    values = parse_config_file(args.config)
    cfg = _protocol_config_from_file(values, args.protocol)
    trace = run_protocol(cfg)
    manifest = ManifestWriter("simulate", _json_safe(dataclasses.asdict(cfg)))
    columns = {
        "t": trace.times,
        "visibility": trace.visibility,
        "re_sigma_minus": trace.sigma_minus.real,
        "im_sigma_minus": trace.sigma_minus.imag,
        "trace_error": trace.trace_error,
        "tail_mass": trace.tail_mass,
    }
    values = [c.tolist() for c in columns.values()]
    if args.format == "csv":
        write_csv(args.out, list(columns), list(zip(*values)))
    else:
        write_json(args.out, dict(zip(columns, values), config=_json_safe(trace.config)))
    manifest.add(args.out)
    manifest.write(args.out, stats=_json_safe(trace.stats))
    print(
        f"wrote {args.out} ({len(trace.times)} samples, "
        f"final V = {trace.visibility[-1]:.6f})"
    )
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if args.seeds < 1:
        print("error: --seeds must be >= 1 (empty suite rejected)", file=sys.stderr)
        return EXIT_USAGE
    if args.dim < 2:
        print("error: --dim must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    rows = witness.run_property_suite(
        args.seeds, args.dim, tol=args.tol, t_max=args.t_max, samples=args.samples
    )
    contrast = witness.coupled_contrast_case(args.contrast_coupling, tol=args.tol)

    table = [
        (
            "random",
            r["seed"],
            r["monotonic"],
            r["max_violation"],
            r["negativity_peak"],
            r["decay_rate_fit"],
        )
        for r in rows
    ]
    table.append(
        (
            "contrast",
            -1,
            contrast.monotonic,
            contrast.max_violation,
            contrast.negativity_peak,
            contrast.decay_rate_fit,
        )
    )

    separable_ok = all(r["monotonic"] for r in rows) and all(
        r["negativity_peak"] <= args.negativity_tol for r in rows
    )
    contrast_ok = (not contrast.monotonic) and contrast.negativity_peak > 0.01

    if args.out:
        manifest = ManifestWriter(
            "verify",
            {
                "seeds": args.seeds,
                "dim": args.dim,
                "tol": args.tol,
                "t_max": args.t_max,
                "samples": args.samples,
                "negativity_tol": args.negativity_tol,
                "contrast_coupling": args.contrast_coupling,
            },
        )
        write_csv(
            args.out,
            ["kind", "seed", "monotonic", "max_violation", "negativity_peak",
             "decay_rate_fit"],
            table,
        )
        manifest.add(args.out)
        manifest.write(args.out)

    n_bad = sum(1 for r in rows if not r["monotonic"])
    print(
        f"separable channels: {args.seeds - n_bad}/{args.seeds} monotonic, "
        f"max negativity {max(r['negativity_peak'] for r in rows):.2e}"
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

_DESIGN_KEYS = {
    "atom_mass_amu",
    "atom_mass_kg",
    "density",
    "splitting",
    "distance",
    "sphere_radius",
    "kappa",
    "hold_time",
    "temperature",
    "oscillator_mass",
    "geometry",
}


def _physical_config_from_file(values: dict) -> PhysicalConfig:
    require_keys(values, _DESIGN_KEYS, "design")
    if "atom_mass_amu" in values and "atom_mass_kg" in values:
        raise ConfigError("give either atom_mass_amu or atom_mass_kg, not both")
    kwargs = {}
    if "atom_mass_amu" in values:
        from .constants import ATOMIC_MASS

        kwargs["atom_mass"] = get_number(values, "atom_mass_amu") * ATOMIC_MASS
    if "atom_mass_kg" in values:
        kwargs["atom_mass"] = get_number(values, "atom_mass_kg")
    for key in ("density", "splitting", "distance", "sphere_radius", "kappa",
                "hold_time", "temperature", "oscillator_mass"):
        if key in values:
            kwargs[key] = get_number(values, key)
    if "geometry" in values:
        kwargs["geometry"] = values["geometry"]
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
            print(
                "error: --sweep requires --tau-range and --temp-range",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if not args.out:
            print("error: --sweep requires --out", file=sys.stderr)
            return EXIT_USAGE
        rows = design.sweep_grid(cfg, args.tau_range, args.temp_range)
        manifest = ManifestWriter(
            "design",
            _json_safe(
                {
                    "config": dataclasses.asdict(cfg),
                    "tau_range": list(args.tau_range),
                    "temp_range": list(args.temp_range),
                }
            ),
        )
        write_csv(
            args.out,
            ["tau_s", "temperature_K", "log10_delta_v", "log10_delta_v_boosted"],
            [tuple(r.values()) for r in rows],
        )
        manifest.add(args.out)
        manifest.write(args.out)
        print(f"wrote {args.out} ({len(rows)} grid cells)")
        return EXIT_OK

    derived = design.derive(cfg)
    payload = dataclasses.asdict(derived)
    payload["atoms_required"] = design.atoms_required(
        derived.delta_v_boosted, args.sigma_level
    )
    payload["sigma_level"] = args.sigma_level
    if derived.low_temperature_flag:
        print(
            "warning: k_B*T/(hbar*omega) < 10; thermal contrast forms are "
            "outside their validity range",
            file=sys.stderr,
        )
    text = json.dumps(_json_safe(payload), sort_keys=True, indent=2)
    if args.out:
        manifest = ManifestWriter("design", _json_safe(dataclasses.asdict(cfg)))
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
        manifest.add(args.out)
        manifest.write(args.out)
    print(text)
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
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
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
    p.add_argument("--sigma-level", dest="sigma_level", type=float, default=5.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_design)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (TruncationError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
