"""revival_scan: repeated ``lindblad.run_protocol`` calls.

This is the engine's main job. Fock dims run from 31 to 129 over the
supported envelope, so both of its regimes show: small ops dominated by
fixed per-call cost, and large ops dominated by sparse-supermatrix
integration. Natural units throughout (omega = 1, one period = 2 pi).

A round holds 15 undamped draws and a fixed set of 9 points:

* Undamped draws, five per protocol, stratified over (nbar, coupling). The
  nbar range is cut into 15 equal strata and each draw takes one of them,
  so every stratum holds one draw per round; a protocol's five draws sit
  every third stratum, and a seeded rotation moves them round by round. The
  coupling range is cut into five strata per protocol, paired with the nbar
  strata by a seeded permutation. Each draw lies uniformly within its
  strata, so every draw is uniform over the whole envelope, yet a round
  always holds the same spread of cheap and costly ops. Op cost grows
  steeply with nbar, so this keeps a round's cost, median and tail far
  steadier across seeds than independent uniform draws would.
  - basic: nbar in [0, 5], lambda in [0.01, 0.3], one period;
  - boosted: lambda + lambda' in [0.02, 0.3], split uniformly with both
    parts >= 0.01, one period;
  - spin_echo: n_pi = 1, lambda in [0.01, 0.15].
* The fixed set: the three ``configs/demo_*.cfg`` points, the two probe
  points (lambda = 0.01, nbar ~ 1.5; lambda = 0.3, nbar = 5), one damped
  point per protocol in the middle of the envelope (the boosted and spin
  echo ones dephased too), and ``echo_corner``, a damped spin echo at the
  envelope's corner (lambda = 0.15, nbar = 5). That is the largest op in
  memory that the envelope allows, so it sets every run's peak RSS.

Every op uses 100 samples per period and the default tolerances. Undamped
basic and boosted ops are checked against ``visibility_thermal`` and
``visibility_boosted`` over the whole trace, undamped spin echo by its
closure V(end) = 1; fixed-set ops against the traces stored in
``reference_traces.json``. All at 1e-8.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from pathlib import Path

import numpy as np

from revivalsim import analytic, lindblad
from revivalsim.algebra import thermal_occupation

PERIOD = 2.0 * math.pi
SAMPLES_PER_PERIOD = 100
CHECK_TOL = 1e-8
DRAWS_PER_PROTOCOL = 5  # per round
NBAR_MAX = 5.0
REFERENCE_FILE = Path(__file__).with_name("reference_traces.json")

# temperature = 2 in natural units, as in configs/demo_basic.cfg
_NBAR_DEMO = thermal_occupation(1.0, 2.0, hbar=1.0, k_boltzmann=1.0)

FIXED_POINTS = {
    "demo_basic": dict(protocol="basic", g=0.01, gamma_m=0.005, nbar=_NBAR_DEMO),
    "demo_boosted": dict(protocol="boosted", g=0.01, g_prime=0.1, gamma_m=0.005,
                         nbar=_NBAR_DEMO),
    "demo_spin_echo": dict(protocol="spin_echo", g=0.05, n_pi=2),
    "probe_small": dict(protocol="basic", g=0.01, nbar=1.5, gamma_m=0.005,
                        gamma_a=0.001),
    "probe_worst": dict(protocol="basic", g=0.3, nbar=5.0, gamma_m=0.005),
    "mid_basic": dict(protocol="basic", g=0.1, nbar=1.4, gamma_m=0.01),
    "mid_boosted_dephased": dict(protocol="boosted", g=0.05, g_prime=0.15, nbar=2.5,
                                 gamma_m=0.01, gamma_a=0.001),
    "mid_echo_dephased": dict(protocol="spin_echo", g=0.1, nbar=1.6, gamma_m=0.005,
                              gamma_a=0.001),
    # dim 129 with 201 samples: no op of the envelope holds more states, so
    # this one alone sets every run's peak RSS, whatever the seed draws
    "echo_corner": dict(protocol="spin_echo", g=0.15, nbar=5.0, gamma_m=0.005),
}


def protocol_config(point: dict, **overrides) -> lindblad.ProtocolConfig:
    kwargs = dict(t_max=PERIOD, samples_per_period=SAMPLES_PER_PERIOD)
    kwargs.update(point)
    kwargs.update(overrides)
    return lindblad.ProtocolConfig(**kwargs)


@functools.cache
def references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class ScanOp:
    def __init__(self, name: str, point: dict, reference: dict | None = None):
        self.kind = point["protocol"]
        self.name = name
        self.point = point
        self.cfg = protocol_config(point)
        self.dim = self.cfg.resolved_dim()
        self.reference = reference
        self.label = f"{name} dim={self.dim}"

    def execute(self, tr):
        with tr.span("lindblad.run_protocol"):
            trace = lindblad.run_protocol(self.cfg)
        tr.count("lindblad.samples", len(trace.times))
        return trace

    def _closed_form(self, times):
        params = analytic.CouplingParams(
            coupling=self.cfg.g, boost_coupling=self.cfg.g_prime, nbar=self.cfg.nbar
        )
        if self.kind == "basic":
            return analytic.visibility_thermal(params, times)
        return analytic.visibility_boosted(params, times)

    def check(self, trace, tr) -> list[str]:
        v = np.asarray(trace.visibility)
        if self.reference is not None:
            if self.reference["point"] != self.point:
                return [f"{self.name}: reference_traces.json holds another point"]
            ref = np.asarray(self.reference["visibility"])
            if ref.shape != v.shape:
                return [f"{self.name}: {v.size} samples, reference has {ref.size}"]
            dev = float(np.max(np.abs(v - ref)))
            if not dev <= CHECK_TOL:
                return [f"{self.name}: |V - reference| = {dev:.3e} > {CHECK_TOL:g}"]
            return []
        periods = 2 * self.cfg.n_pi if self.kind == "spin_echo" else 1
        if v.size != periods * SAMPLES_PER_PERIOD + 1:
            return [f"{self.name}: {v.size} samples"]
        if self.kind == "spin_echo":
            dev = abs(float(v[-1]) - 1.0)
            what = "|V(end) - 1|"
        else:
            dev = float(np.max(np.abs(v - self._closed_form(trace.times))))
            what = "|V - closed form|"
        if not dev <= CHECK_TOL:
            return [f"{self.name} {self.point}: {what} = {dev:.3e} > {CHECK_TOL:g}"]
        return []

    def details(self, trace) -> dict:
        """Deviation of damped basic ops from the O(1/Q) ``visibility_damped``.

        The engine's sqrt(gamma_a) sigma_z jump dephases as exp(-2 gamma_a t);
        ``visibility_damped`` applies exp(-gamma_a omega t). With gamma_a > 0
        both readings are reported, and neither is a gate.
        """
        cfg = self.cfg
        if self.kind != "basic" or cfg.gamma_m == 0:
            return {}

        def dev(qubit_decay):
            params = analytic.CouplingParams(
                coupling=cfg.g, nbar=cfg.nbar, q_factor=cfg.omega / cfg.gamma_m,
                qubit_decay=qubit_decay,
            )
            oracle = analytic.visibility_damped(params, cfg.omega * trace.times)
            return float(np.max(np.abs(trace.visibility - oracle)))

        out = {"op": self.name, "dim": self.dim, "gamma_a": cfg.gamma_a,
               "damped_oracle_dev": dev(cfg.gamma_a / cfg.omega)}
        if cfg.gamma_a > 0:
            out["dev_at_engine_dephasing_rate"] = dev(2.0 * cfg.gamma_a / cfg.omega)
        return out


def _point(proto: str, u: float, v: float, split: float) -> dict:
    """The draw at fractions (u, v) of the nbar and coupling ranges; ``split``
    divides a boosted coupling between its stages."""
    nbar = NBAR_MAX * u
    if proto == "basic":
        return dict(protocol="basic", g=0.01 + 0.29 * v, nbar=nbar)
    if proto == "boosted":
        total = 0.02 + 0.28 * v
        g = 0.01 + (total - 0.02) * split
        return dict(protocol="boosted", g=g, g_prime=total - g, nbar=nbar)
    return dict(protocol="spin_echo", g=0.01 + 0.14 * v, n_pi=1, nbar=nbar)


PROTOCOLS = ("basic", "boosted", "spin_echo")
DRAWS = len(PROTOCOLS) * DRAWS_PER_PROTOCOL  # also the number of nbar strata
ROUND_SIZE = DRAWS + len(FIXED_POINTS)
# A run measures one round at this commit, so its highest percentile with
# ten ops beyond it is p58; that quantile stays fixed whatever a run holds.
TAIL_QUANTILE = 1.0 - 10 / ROUND_SIZE
TRACED_OPS = DRAWS  # the traced run measures the first round's draws


def make_round(seed: int, index: int, workdir=None) -> list[ScanOp]:
    rng = np.random.default_rng([seed, index])
    turn = int(rng.integers(DRAWS))
    pairing = [rng.permutation(DRAWS_PER_PROTOCOL) for _ in PROTOCOLS]
    ops = []
    for i in range(DRAWS_PER_PROTOCOL):
        for p, proto in enumerate(PROTOCOLS):
            # 3 and 5 are coprime, so 3i + 5p takes each residue mod 15 once
            stratum = (len(PROTOCOLS) * i + DRAWS_PER_PROTOCOL * p + turn) % DRAWS
            u = (stratum + rng.random()) / DRAWS
            v = (pairing[p][i] + rng.random()) / DRAWS_PER_PROTOCOL
            split = float(rng.random()) if proto == "boosted" else 0.5
            ops.append(ScanOp(f"{proto}[{i}]", _point(proto, u, v, split)))
    return ops + [ScanOp(name, point, references()[name])
                  for name, point in FIXED_POINTS.items()]


def probe_ops(workdir=None) -> list[ScanOp]:
    """Fixed inputs that reach every layer this workload times."""
    return [warmup_op()]


def warmup_op(workdir=None) -> ScanOp:
    return ScanOp("warmup", dict(protocol="basic", g=0.05, nbar=0.5))


def corrupt(op, trace):
    bad = copy.copy(trace)
    bad.visibility = trace.visibility.copy()
    bad.visibility[len(bad.visibility) // 2] += 1e-6
    return bad
