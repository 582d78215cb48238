"""revivalsim benchmark: three closed-loop workloads, timed end to end and,
in a separate traced run, per module.

    python3 perfbench/run.py --workload revival_scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports ``revivalsim`` from the
checkout's ``src/`` and nowhere else, and exits non-zero without a result
when that package is missing. Each workload runs in one process, one op at a
time. Inputs come from ``--seed`` alone; every op's output is checked.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
name every metric with its unit and record the run's metadata. See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread count is set before numpy loads, here and in every child.
# One thread leaves the other cores to the rest of the machine. On a shared
# 2-vCPU host it gave steadier op times than two: run_protocol ran about as
# fast, the witness's dense path about 1.7x slower.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("revival_scan", "witness_suite", "closed_form_cli")
LAYER_MODULES = ("algebra", "config", "analytic", "design", "lindblad", "witness", "cli")
IMPORT_PROBES = ("analytic", "design", "cli", "lindblad", "witness")
SETUP_REPEATS = 6  # half before the loop, half after it
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------- source

def use_checkout_source() -> None:
    """Put this checkout's src/ first on the path, or stop with an error."""
    if not (SRC / "revivalsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no revivalsim package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


def check_source() -> None:
    """Stop if revivalsim was imported from anywhere but this checkout."""
    import revivalsim

    package = SRC / "revivalsim"
    if Path(revivalsim.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported revivalsim from {revivalsim.__file__}, "
                 f"not from {package}")


# ---------------------------------------------------------------- fresh interpreters

def probe_child(probe: str, workload: str, seed: int) -> None:
    """Body of a fresh interpreter that times one import or one set-up."""
    t0 = time.perf_counter()
    if probe == "setup":
        module = importlib.import_module(workload)
        module.make_round(seed, 0, SCRATCH / "setup-probe")
        print(json.dumps({"seconds": time.perf_counter() - t0}))
        return
    importlib.import_module("revivalsim." + probe)
    print(json.dumps({"seconds": time.perf_counter() - t0,
                      "scipy_loaded": "scipy" in sys.modules}))


def fresh_interpreter(probe: str, workload: str = "", seed: int = 0) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--probe", probe,
            "--workload", workload or WORKLOADS[0], "--seed", str(seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"probe {probe} failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    return [fresh_interpreter("setup", workload, seed)["seconds"]
            for _ in range(repeats)]


# ---------------------------------------------------------------- metadata

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_files() -> list[Path]:
    return sorted((SRC / "revivalsim").glob("*.py"))


def metadata(args) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
        "commit": _commit(), "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- self-test

def self_test(workload, workdir: Path) -> dict:
    """Run the warm-up op, then check a copy with one value corrupted: the
    checker must pass the first and reject the second."""
    op = workload.warmup_op(workdir)
    null = common.NullTracer()
    out = op.execute(null)
    bad = workload.corrupt(op, out)
    good_problems = op.check(out, null)
    bad_problems = op.check(bad, null)
    return {"passed": not good_problems and bool(bad_problems),
            "clean_output_problems": good_problems,
            "corrupted_output_caught": bad_problems[:1]}


# ---------------------------------------------------------------- end to end

def end_to_end(results, setup: list[float], tail_q: float) -> tuple[dict, dict]:
    latencies = [r.latency for r in results]
    passed = sum(1 for r in results if not r.problems)
    tail = common.quantile(latencies, tail_q)
    beyond = sum(1 for x in latencies if x > tail)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (passed / sum(latencies), "1/s"),
        "latency_p50_s": (common.quantile(latencies, 0.5), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_rate": (passed / len(results), "fraction"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"{passed} passed / {sum(latencies):.3f} s inside ops",
        "latency_p50_s": f"Harrell-Davis median of {len(latencies)} ops",
        "latency_tail_s": f"Harrell-Davis p{100 * tail_q:.1f} of {len(latencies)} ops, "
                          f"{beyond} beyond",
        "peak_rss_mb": "peak resident set of the workload process",
        "pass_rate": f"error_rate {1 - passed / len(results):.6g} "
                     f"({len(results) - passed} of {len(results)} ops failed)",
    }
    return metrics, notes


# ---------------------------------------------------------------- per layer

def _timed(fn, *args, repeats: int, **kwargs):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def lindblad_probes(details: list) -> dict:
    """run_protocol's fixed and per-period cost and negativity's cost at the
    two probe points, and negativity's cost on a witness state."""
    import revival_scan as scan
    import witness_suite
    from revivalsim import lindblad, witness

    out = {}
    for label, name, period_repeats in (("small", "probe_small", 3),
                                        ("worst", "probe_worst", 1)):
        point = scan.FIXED_POINTS[name]
        two_samples = scan.protocol_config(
            point, t_max=2 * scan.PERIOD / scan.SAMPLES_PER_PERIOD)
        fixed, _ = _timed(lindblad.run_protocol, two_samples, repeats=3)
        period, trace = _timed(lindblad.run_protocol, scan.protocol_config(point),
                               repeats=period_repeats, keep_states=True)
        details.append(scan.ScanOp(name, point).details(trace))
        rho = trace.states[len(trace.states) // 2]
        negativity, _ = _timed(lindblad.negativity, rho, repeats=5)
        out[f"lindblad.fixed_s.{label}"] = (fixed, "s")
        out[f"lindblad.period_s.{label}"] = (period - fixed, "s")
        out[f"lindblad.negativity_s.{label}"] = (negativity, "s")
        del trace, rho
    op = witness_suite.SeparableOp(0)
    trace = witness.simulate_separable(op.spec, op.rho0, witness_suite.T_MAX,
                                       samples=witness_suite.SAMPLES)
    negativity, _ = _timed(lindblad.negativity, trace.states[len(trace.states) // 2],
                           repeats=21)
    out["lindblad.negativity_s.witness"] = (negativity, "s")
    return out


def import_probes() -> dict:
    out = {}
    for name in IMPORT_PROBES:
        runs = [fresh_interpreter(name) for _ in range(IMPORT_REPEATS)]
        out[f"import.{name}_s"] = (statistics.median([r["seconds"] for r in runs]), "s")
        if name == "analytic":
            out["import.analytic_loads_scipy"] = (int(runs[0]["scipy_loaded"]), "count")
    return out


def scan_input_properties(seed: int) -> dict:
    """Properties of revival_scan's first round for this seed."""
    import revival_scan as scan

    def state_bytes(op):
        periods = 2 * op.cfg.n_pi if op.kind == "spin_echo" else 1
        return (periods * scan.SAMPLES_PER_PERIOD + 1) * (2 * op.dim) ** 2 * 16

    ops = scan.make_round(seed, 0)
    return {
        "lindblad.ops_dim_ge_100_frac": (sum(op.dim >= 100 for op in ops) / len(ops),
                                         "fraction"),
        "lindblad.peak_state_mb": (max(map(state_bytes, ops)) / 1e6, "MB_computed"),
    }


LAYER_SPANS = ("lindblad.run_protocol", "witness.simulate_separable",
               "witness.check_monotonic", "witness.coupled_contrast_case",
               "analytic", "design.sweep_grid", "design.derive", "cli.main")
LIBRARY_SPANS = ("analytic", "design.sweep_grid", "design.derive")


def per_layer(tracer, probes: dict, details: list, traced_wall: float,
              untraced_wall: float) -> dict:
    metrics = dict(probes)
    for name in LAYER_SPANS:
        metrics[f"{name}.busy_s"] = (tracer.busy(name), "s")
    metrics["lindblad.run_protocol.calls"] = (tracer.calls("lindblad.run_protocol"),
                                              "count")
    metrics["lindblad.samples"] = (tracer.counts.get("lindblad.samples", 0), "count")
    devs = [d["damped_oracle_dev"] for d in details if d and d["gamma_a"] == 0]
    metrics["lindblad.damped_oracle_dev"] = (max(devs), "visibility")
    metrics["cli.self_s"] = (tracer.busy("cli.main")
                             - sum(tracer.busy(n) for n in LIBRARY_SPANS), "s")
    metrics["cli.bytes_written"] = (tracer.counts.get("cli.bytes_written", 0), "count")
    metrics["cli.files_written"] = (tracer.counts.get("cli.files_written", 0), "count")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "fraction")
    coverage, worst = tracer.op_coverage()
    metrics["trace.op_coverage_frac"] = (coverage, "fraction")
    metrics["trace.op_coverage_min"] = (worst, "fraction")
    total = 0
    for path in source_files():
        lines = len(path.read_text().splitlines())
        total += lines
        if path.stem in LAYER_MODULES:
            metrics[f"{path.stem}.src_lines"] = (lines, "lines")
    metrics["src.total_lines"] = (total, "lines")
    return metrics


# ---------------------------------------------------------------- runs

def print_metrics(title: str, metrics: dict, notes: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:<14.6g} {unit:12s} {notes.get(name, '')}")


def run_workload(args) -> dict:
    check_source()
    workload = importlib.import_module(args.workload)
    # Set-up is timed on both sides of the loop: the host's speed drifts over
    # a minute, and the median of both halves follows it less than one burst.
    setup = [] if args.trace else setup_seconds(args.workload, args.seed,
                                                SETUP_REPEATS // 2)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        check = self_test(workload, workdir)
        gc.collect()
        tracer = common.Tracer() if args.trace else None
        details: list = []
        probes: dict = {}
        probe_results: list = []
        if tracer is not None:
            probes.update(import_probes())
            probes.update(lindblad_probes(details))
            probes.update(scan_input_properties(args.seed))
            for name in WORKLOADS:
                for op in importlib.import_module(name).probe_ops(workdir):
                    probe_results.append(common.run_op(op, tracer))
        rounds = common.rounds(workload, args.seed, workdir)
        if tracer is None:
            loop_results, loop_wall = common.closed_loop(rounds, args.seconds)
        else:
            t0 = time.perf_counter()
            loop_results, traced_wall, untraced_wall = common.traced_loop(
                rounds, workload.TRACED_OPS, tracer)
            loop_wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still has its directory there
            pass
    if not args.trace:
        setup += setup_seconds(args.workload, args.seed, SETUP_REPEATS - len(setup))
    results = probe_results + loop_results
    details += [r.details for r in results if r.details]

    if tracer is None:
        metrics, notes = end_to_end(loop_results, setup, workload.TAIL_QUANTILE)
    else:
        metrics, notes = per_layer(tracer, probes, details, traced_wall,
                                   untraced_wall), {}
    failures = [p for r in results for p in r.problems]
    report = {
        "metadata": metadata(args),
        "loop_wall_s": loop_wall,
        "ops_by_kind": {k: sum(r.kind == k for r in results)
                        for k in sorted({r.kind for r in results})},
        "self_test": check,
        "failures": failures[:20],
        "op_latencies_s": [(r.label, round(r.latency, 4)) for r in loop_results],
        "damped_ops": [d for d in details if d],
    }
    if setup:
        report["setup_samples_s"] = setup
    print_metrics(f"perfbench {args.workload} seed={args.seed} "
                  f"seconds={args.seconds} trace={args.trace}", metrics, notes)
    print("report " + json.dumps(report, sort_keys=True))
    return {
        "correct": not failures and check["passed"],
        "attempted": len(results),
        "failed": sum(1 for r in results if r.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; metric names gain the workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} failed: {done.stderr.strip()[-2000:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    use_checkout_source()
    if args.probe:
        probe_child(args.probe, args.workload, args.seed)  # times the first import
        check_source()
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
