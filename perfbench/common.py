"""Span recording, the closed loop and result statistics shared by
the benchmark's workloads.

Ops come in rounds; a round is the unit over which a workload's seeded
inputs are spread, so whole rounds have the same mix whatever the seed.

A workload module exposes:

    TAIL_QUANTILE      the quantile that ``latency_tail_s`` reports; fixed per
                       workload, so every commit reports the same percentile
    TRACED_OPS         how many ops, from the first round on, the traced run
                       measures; fixed, so its per-layer totals cover the
                       same ops on every commit

    make_round(seed, index, workdir)
                       the ops of one round, made from the seed alone;
                       ``workdir`` is where ops may write files
    warmup_op(workdir) one op on fixed inputs, run untimed before the loop
    probe_ops(workdir) ops on fixed inputs that reach every layer the
                       workload times (the traced run's layer probe)
    corrupt(op, out)   a copy of the op's output with one value changed; the
                       checker must reject it (the self-test)

An op has ``kind`` (a label), ``execute(tr)`` (the calls into the package,
each inside a span) and ``check(out, tr)`` (a list of problems, empty when
the output is correct); ``details(out)`` optionally adds report fields.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager, nullcontext

import numpy as np


class Tracer:
    """In-memory spans ``[name, start, end, parent, root]``; the root is the
    index of the op span that every span of one op shares."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = index if parent is None else self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, root]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def busy(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def op_coverage(self) -> tuple[float, float]:
        """(total, worst) share of op-span wall covered by direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        shares, wall, covered = [], 0.0, 0.0
        for i, s in enumerate(self.spans):
            if s[3] is None:
                dur = s[2] - s[1]
                wall += dur
                covered += child[i]
                shares.append(child[i] / dur)
        return covered / wall, min(shares)


class NullTracer:
    """Tracing off: spans and counts cost one call each and record nothing."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int) -> None:
        pass


class OpResult:
    __slots__ = ("kind", "label", "latency", "wall", "problems", "details")

    def __init__(self, op, latency, wall, problems, details):
        self.kind = op.kind
        self.label = getattr(op, "label", op.kind)
        self.latency = latency
        self.wall = wall
        self.problems = problems
        self.details = details


def rounds(workload, seed: int, workdir):
    """Endless rounds of ``workload``'s ops."""
    index = 0
    while True:
        yield workload.make_round(seed, index, workdir)
        index += 1


def run_op(op, tr) -> OpResult:
    """Execute one op, then check it. ``latency`` covers only the calls into
    the package; ``wall`` adds the check."""
    t0 = time.perf_counter()
    with tr.span("op"):
        try:
            out = op.execute(tr)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            t1 = time.perf_counter()
            return OpResult(op, t1 - t0, t1 - t0,
                            [f"raised {type(exc).__name__}: {exc}"], {})
        latency = time.perf_counter() - t0
        with tr.span("check"):
            problems = op.check(out, tr)
    wall = time.perf_counter() - t0
    details = op.details(out) if hasattr(op, "details") else {}
    return OpResult(op, latency, wall, problems, details)


def closed_loop(rounds, seconds: float):
    """One caller, one op at a time, round after round.

    The loop stops at the end of the first round that ends after ``seconds``
    of loop wall, so every run measures whole rounds: a round is the unit
    over which a workload's inputs are spread. Returns (results, loop wall).

    A full garbage collection follows every op, outside its time. Ops leave
    reference cycles through scipy's ODE solver that keep their largest
    arrays alive until the collector runs, so without it a process's peak
    RSS depends on when collections happen to fall rather than on the ops.
    """
    null = NullTracer()
    results: list[OpResult] = []
    start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            results.append(run_op(op, null))
            gc.collect()
        if time.perf_counter() - start >= seconds:
            break
    return results, time.perf_counter() - start


def traced_loop(rounds, count: int, tracer: Tracer):
    """The traced run's fixed op list: the first ``count`` ops, each op
    twice, untraced and traced in alternating order, so each pair measures
    the tracing overhead on identical inputs. No time limit cuts the list,
    so per-layer totals cover the same ops on every commit.
    Returns (results, traced op wall, untraced op wall)."""
    null = NullTracer()
    results: list[OpResult] = []
    walls = {null: 0.0, tracer: 0.0}
    stream = (op for ops in rounds for op in ops)
    for i, op in zip(range(count), stream):
        for tr in ((null, tracer) if i % 2 == 0 else (tracer, null)):
            res = run_op(op, tr)
            gc.collect()
            results.append(res)
            walls[tr] += res.wall
    return results, walls[tracer], walls[null]


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics, centred on rank q(n+1). A single order statistic jumps
    from one op to its neighbour as op times shift a little; these weights
    move smoothly, so the estimate follows the ops around the rank."""
    from scipy.special import betainc  # loaded already: revivalsim imports scipy

    ordered = np.sort(values)
    n = len(ordered)
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)
