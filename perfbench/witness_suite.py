"""witness_suite: the separable-channel monotonicity witness, one op per seed.

An op simulates ``random_separable_spec(s, 16)`` from
``random_product_state(s, 16)`` and runs ``check_monotonic`` on the trace; the
channel seeds s come from the run seed. Each round of five such ops also runs
``coupled_contrast_case(0.25)``.

It uses the same engine as revival_scan differently: the joint dim is 32, so
(2*16)^2 = 1024 <= ``_DENSE_VEC_LIMIT`` puts it on the dense generator path,
and it keeps 401 states and takes the negativity of every one. An engine
change tuned for large sparse generators must not slow it down.

Checks use the acceptance-5 bounds: every separable op is monotonic at tol
1e-6 (by the package's verdict and by an independent look at the trace) with
negativity_peak <= 1e-8; the contrast op is not monotonic, its revival is
within 1e-3 of 1 - exp(-1/2), and its negativity exceeds 0.01.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from revivalsim import witness

DIM = 16
T_MAX = 8.0
SAMPLES = 400
TOL = 1e-6
NEGATIVITY_TOL = 1e-8
SEPARABLE_PER_ROUND = 5
CONTRAST_COUPLING = 0.25
CONTRAST_REVIVAL = 1.0 - math.exp(-8.0 * CONTRAST_COUPLING**2)
REVIVAL_TOL = 1e-3
CONTRAST_NEGATIVITY_MIN = 0.01
# a 30 s run holds 5 or more rounds of 6 ops, so ten or more ops lie beyond p60
TAIL_QUANTILE = 0.6
TRACED_OPS = 12  # two rounds


class SeparableOp:
    kind = "separable"

    def __init__(self, channel_seed: int):
        self.channel_seed = channel_seed
        self.spec = witness.random_separable_spec(channel_seed, DIM)
        self.rho0 = witness.random_product_state(channel_seed, DIM)

    def execute(self, tr):
        with tr.span("witness.simulate_separable"):
            trace = witness.simulate_separable(self.spec, self.rho0, T_MAX,
                                               samples=SAMPLES)
        with tr.span("witness.check_monotonic"):
            report = witness.check_monotonic(trace, TOL)
        return trace, report

    def check(self, out, tr) -> list[str]:
        trace, report = out
        v = np.asarray(trace.visibility)
        problems = []
        if v.size != SAMPLES + 1:
            problems.append(f"{v.size} samples")
        if not report.monotonic:
            problems.append(f"verdict non-monotonic (rise {report.max_violation:.3e})")
        rise = float(np.max(np.diff(v)))
        if not rise <= TOL:
            problems.append(f"visibility rises by {rise:.3e} > {TOL:g}")
        if not report.negativity_peak <= NEGATIVITY_TOL:
            problems.append(f"negativity {report.negativity_peak:.3e} > {NEGATIVITY_TOL:g}")
        return [f"channel seed {self.channel_seed}: {p}" for p in problems]


class ContrastOp:
    kind = "contrast"

    def execute(self, tr):
        with tr.span("witness.coupled_contrast_case"):
            return witness.coupled_contrast_case(CONTRAST_COUPLING, tol=TOL)

    def check(self, report, tr) -> list[str]:
        problems = []
        if report.monotonic:
            problems.append("coupled case reported monotonic")
        if not abs(report.max_violation - CONTRAST_REVIVAL) <= REVIVAL_TOL:
            problems.append(f"revival {report.max_violation:.6f}, "
                            f"expected {CONTRAST_REVIVAL:.6f} +- {REVIVAL_TOL:g}")
        if not report.negativity_peak > CONTRAST_NEGATIVITY_MIN:
            problems.append(f"negativity {report.negativity_peak:.3e} <= "
                            f"{CONTRAST_NEGATIVITY_MIN:g}")
        return [f"contrast: {p}" for p in problems]


def make_round(seed: int, index: int, workdir=None) -> list:
    rng = np.random.default_rng([seed, index])
    seeds = rng.integers(0, 2**31 - 1, size=SEPARABLE_PER_ROUND)
    ops = [SeparableOp(int(s)) for s in seeds]
    ops.insert(SEPARABLE_PER_ROUND // 2, ContrastOp())
    return ops


def probe_ops(workdir=None) -> list:
    """Fixed inputs that reach every layer this workload times."""
    return [SeparableOp(0), ContrastOp()]


def warmup_op(workdir=None) -> SeparableOp:
    return SeparableOp(0)


def corrupt(op, out):
    """One sample lifted 1e-4 above its predecessor: a revival 100x the tol."""
    trace, report = out
    bad = copy.copy(trace)
    bad.visibility = trace.visibility.copy()
    k = len(bad.visibility) // 2
    bad.visibility[k] = bad.visibility[k - 1] + 1e-4
    return bad, report
