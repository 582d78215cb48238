"""closed_form_cli: in-process ``cli.main`` calls on the closed forms.

A round is eight commands, each writing its output and manifest to the
benchmark's scratch directory inside the checkout:

* ``analytic`` for every formula: five on a 50,000-sample grid and
  ``spin-echo`` over 20,000 echo iterations, with seeded parameters;
* ``design --point --config configs/reference_lab.cfg``;
* ``design --sweep`` on a seeded 100 x 100 (hold time, temperature) grid.

It is the bypass workload for engine changes, where the prediction is no
change; here output writing and import cost dominate.

Checks: exit code 0; the row count the command asked for; a manifest whose
sha256 and size match the file; and every written value equal, bit for bit,
to the matching direct library call, which is what ``analytic.busy_s`` and
``design.*.busy_s`` time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from revivalsim import analytic, cli, design
from revivalsim.config import parse_config_file
from revivalsim.constants import ATOMIC_MASS

SAMPLES = 50_000
ECHO_ITERATIONS = 20_000
SWEEP_POINTS = 100
SIGMA_LEVEL = 5.0  # the CLI's --sigma-level default
REFERENCE_LAB = Path(__file__).resolve().parent.parent / "configs" / "reference_lab.cfg"
# a 30 s run holds 9 to 14 rounds of 8 ops, so ten or more ops lie beyond p80
TAIL_QUANTILE = 0.8
TRACED_OPS = 32  # four rounds


def _run_cli(argv: list[str], tr) -> int:
    with tr.span("cli.main"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)


def _manifest_problems(path: Path) -> list[str]:
    manifest = Path(str(path) + ".manifest.json")
    if not manifest.exists():
        return [f"{path.name}: no manifest"]
    entries = [o for o in json.loads(manifest.read_text())["outputs"]
               if o["path"] == str(path)]
    data = path.read_bytes()
    if len(entries) != 1:
        return [f"{path.name}: manifest lists it {len(entries)} times"]
    if entries[0]["sha256"] != hashlib.sha256(data).hexdigest():
        return [f"{path.name}: manifest sha256 does not match the file"]
    if entries[0]["bytes"] != len(data):
        return [f"{path.name}: manifest size does not match the file"]
    return []


def _read_csv(path: Path, header: str) -> np.ndarray | None:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        return None
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _same_bits(written: np.ndarray, direct: np.ndarray) -> bool:
    return written.shape == direct.shape and bool(np.all(written == direct))


def _outputs(path: Path) -> list[Path]:
    return [path, Path(str(path) + ".manifest.json")]


class CliOp:
    """One ``cli.main`` call; subclasses say how to call the library directly."""

    def __init__(self, kind: str, argv: list[str], path: Path):
        self.kind = kind
        self.argv = argv + ["--out", str(path)]
        self.path = path

    def execute(self, tr):
        return self.path, _run_cli(self.argv, tr)

    def check(self, out, tr) -> list[str]:
        path, code = out
        try:
            if code != 0:
                return [f"{self.kind}: exit code {code}"]
            if not path.exists():
                return [f"{self.kind}: {path.name} not written"]
            tr.count("cli.files_written", 2)
            tr.count("cli.bytes_written", sum(p.stat().st_size for p in _outputs(path)))
            problems = _manifest_problems(path) + self.check_values(path, tr)
            return [f"{self.kind}: {p}" for p in problems]
        finally:
            for p in _outputs(path):
                p.unlink(missing_ok=True)


class AnalyticOp(CliOp):
    def __init__(self, formula: str, flags: dict, path: Path):
        argv = ["analytic", "--formula", formula]
        for flag, value in flags.items():
            argv += [flag, repr(value)]
        super().__init__(f"analytic.{formula}", argv, path)
        self.formula = formula
        self.flags = flags

    def _direct(self):
        f = self.flags
        lam = f["--lambda"]
        if self.formula == "spin-echo":
            n = f["--n-pi"]
            grid = np.array([2.0 * math.pi * k for k in range(1, n + 1)])
            return grid, np.array([analytic.spin_echo_overlap(k, lam)
                                   for k in range(1, n + 1)])
        # the CLI's half-open grid, computed with the same expression
        t_max, samples = f["--t-max"], f["--samples"]
        grid = 2.0 * math.pi * t_max * np.arange(samples) / samples
        if self.formula == "ground":
            return grid, analytic.visibility_ground(lam, grid)
        params = analytic.CouplingParams(
            coupling=lam,
            boost_coupling=f.get("--lambda-prime", 0.0),
            nbar=f.get("--nbar", 0.0),
            q_factor=f.get("--q", math.inf),
            qubit_decay=f.get("--gamma-a", 0.0),
        )
        if self.formula == "many-atom":
            return grid, analytic.visibility_many_atom(f["--n-atoms"], params, grid)
        fn = {"thermal": analytic.visibility_thermal,
              "damped": analytic.visibility_damped,
              "boosted": analytic.visibility_boosted}[self.formula]
        return grid, fn(params, grid)

    def check_values(self, path: Path, tr) -> list[str]:
        rows = _read_csv(path, "omega_t,visibility")
        with tr.span("analytic"):
            grid, vis = self._direct()
        if rows is None or rows.shape != (grid.size, 2):
            return [f"expected {grid.size} rows of omega_t,visibility"]
        if not _same_bits(rows[:, 0], grid):
            return ["omega_t column differs from the requested grid"]
        if not _same_bits(rows[:, 1], np.asarray(vis, dtype=float)):
            return ["visibility differs from the direct library call"]
        return []


def lab_config() -> design.PhysicalConfig:
    """configs/reference_lab.cfg as ``design --config`` reads it."""
    values = parse_config_file(REFERENCE_LAB)
    kwargs = {k: v for k, v in values.items() if k != "atom_mass_amu"}
    if "atom_mass_amu" in values:
        kwargs["atom_mass"] = values["atom_mass_amu"] * ATOMIC_MASS
    return design.PhysicalConfig(**kwargs)


class DesignPointOp(CliOp):
    def __init__(self, path: Path):
        super().__init__("design.point",
                         ["design", "--point", "--config", str(REFERENCE_LAB)], path)

    def check_values(self, path: Path, tr) -> list[str]:
        written = json.loads(path.read_text())
        cfg = lab_config()
        with tr.span("design.derive"):
            derived = design.derive(cfg)
            atoms = design.atoms_required(derived.delta_v_boosted, SIGMA_LEVEL)
        direct = dataclasses.asdict(derived)
        direct.update(atoms_required=atoms, sigma_level=SIGMA_LEVEL)
        wrong = sorted(k for k in direct.keys() | written.keys()
                       if written.get(k) != direct.get(k))
        return [f"{k}: wrote {written.get(k)!r}, library gives {direct.get(k)!r}"
                for k in wrong]


class DesignSweepOp(CliOp):
    def __init__(self, tau_range: tuple, temp_range: tuple, path: Path):
        argv = ["design", "--sweep",
                "--tau-range", ",".join(repr(x) for x in tau_range),
                "--temp-range", ",".join(repr(x) for x in temp_range)]
        super().__init__("design.sweep", argv, path)
        self.tau_range = tau_range
        self.temp_range = temp_range

    def check_values(self, path: Path, tr) -> list[str]:
        rows = _read_csv(path, "tau_s,temperature_K,log10_delta_v,log10_delta_v_boosted")
        with tr.span("design.sweep_grid"):
            direct = design.sweep_grid(design.PhysicalConfig(), self.tau_range,
                                       self.temp_range)
        expected = np.array([list(r.values()) for r in direct])
        if rows is None or rows.shape != (self.tau_range[2] * self.temp_range[2], 4):
            return ["row count differs from the requested grid"]
        if not _same_bits(rows, expected):
            return ["values differ from the direct library call"]
        return []


def make_round(seed: int, index: int, workdir: Path) -> list[CliOp]:
    rng = np.random.default_rng([seed, index])

    def u(lo, hi):
        return float(lo + (hi - lo) * rng.random())

    def path(name):
        return workdir / f"r{index}-{name}"

    grid = {"--t-max": u(1.0, 2.0), "--samples": SAMPLES}
    lam, nbar = u(0.01, 0.3), u(0.0, 5.0)
    ops = [
        AnalyticOp("ground", {"--lambda": lam, **grid}, path("ground.csv")),
        AnalyticOp("thermal", {"--lambda": lam, "--nbar": nbar, **grid},
                   path("thermal.csv")),
        # Q >= 20 keeps gamma_m t <= 1 on a grid of at most two periods
        AnalyticOp("damped", {"--lambda": lam, "--nbar": nbar, "--q": u(20.0, 200.0),
                              "--gamma-a": u(0.0, 0.01), **grid}, path("damped.csv")),
        AnalyticOp("boosted", {"--lambda": lam, "--lambda-prime": u(0.01, 0.3),
                               "--nbar": nbar, **grid}, path("boosted.csv")),
        # lambda <= 0.15 keeps |2 lambda^2 omega t| < pi/4 over two periods
        AnalyticOp("many-atom", {"--lambda": u(0.01, 0.15), "--nbar": nbar,
                                 "--n-atoms": int(rng.integers(1, 1001)), **grid},
                   path("many-atom.csv")),
        AnalyticOp("spin-echo", {"--lambda": lam, "--n-pi": ECHO_ITERATIONS},
                   path("spin-echo.csv")),
        DesignPointOp(path("point.json")),
        DesignSweepOp((u(1.0, 10.0), u(50.0, 500.0), SWEEP_POINTS),
                      (u(0.05, 1.0), u(100.0, 400.0), SWEEP_POINTS),
                      path("sweep.csv")),
    ]
    return ops


def probe_ops(workdir: Path) -> list[CliOp]:
    """Fixed inputs that reach every layer this workload times."""
    return make_round(0, 0, workdir)


def warmup_op(workdir: Path) -> AnalyticOp:
    return AnalyticOp("thermal", {"--lambda": 0.1, "--nbar": 2.0, "--t-max": 2.0,
                                  "--samples": SAMPLES}, workdir / "warmup.csv")


def corrupt(op, out):
    """Copy the output with one value changed in its last digit and a manifest
    that matches the copy, so only the value comparison can catch it."""
    path, code = out
    bad = path.with_name("corrupt-" + path.name)
    lines = path.read_text().splitlines(keepends=True)
    head, sep, last = lines[1].rstrip("\n").rpartition(",")
    value = float(last)
    lines[1] = f"{head}{sep}{math.nextafter(value, math.inf)!r}\n"
    bad.write_text("".join(lines))
    data = bad.read_bytes()
    manifest = {"outputs": [{"path": str(bad), "bytes": len(data),
                             "sha256": hashlib.sha256(data).hexdigest()}]}
    Path(str(bad) + ".manifest.json").write_text(json.dumps(manifest))
    return bad, code
