"""The master-equation engine's input contract: `ProtocolConfig`, the one
Fock-dim rule (`ProtocolConfig.resolved_dim`), the caps a run is checked
against before anything is allocated (`MAX_DIM`, `MAX_RUN_SAMPLES`, and
`MAX_STATE_VALUES` in `kept_states`) and the errors the engine raises.  It
needs only numpy and `config`, so the CLI checks a `simulate` config, and runs
`analytic` and `design`, without loading the engine (`lindblad`, `dop853`,
`witness`); `lindblad` imports these names from here, so
`lindblad.ProtocolConfig` and the rest are the same objects.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import ConfigError

DIM_TAIL_BOUND = 1e-9      # max displaced thermal mass at levels >= dim - 2 of a default dim

# Largest Fock dim a run may use.  One (d, d) real protocol block takes
# 8 d^2 bytes (2.1 MB at 512) and a run peaks at about 50 of them, 16 of
# them the solver's stages (tracemalloc at dim 122: 6.0 MB); a run that keeps
# its states adds a complex (2d, 2d) joint state per sample (`kept_states`).
# So a dim far beyond the supported envelope (122 at lambda = 0.3, nbar = 5;
# 268 at lambda = 0.3, nbar = 12) asks for gigabytes or more and is refused
# before anything is built.
MAX_DIM = 512

# Most samples (samples_per_period x t_max / period) a run may take: `simulate`
# peaks at about 0.1 kB per sample above import with CSV or JSON output (2 x
# 10^5 undamped samples: 18 MB at dim 54, 20 MB at dim 122), so 10^6 take
# about 100 MB; the benchmark's 401.
MAX_RUN_SAMPLES = 10**6

# Most values a kept (n, 2d, 2d) joint-state stack may hold: 2^24 complex values
# are 256 MiB, and a `verify` peak is its stacks and slab temporaries (121 MB
# above import for the 105 MB kept at --dim 64 --samples 400).
MAX_STATE_VALUES = 2**24

PROTOCOLS = ("basic", "boosted", "spin_echo")


def kept_states(n: int, dim: int) -> np.ndarray:
    """The empty complex (n, 2 dim, 2 dim) stack of n kept joint states, or
    ConfigError, before allocating, if it would hold over `MAX_STATE_VALUES` values."""
    values = n * (2 * dim) ** 2
    if values > MAX_STATE_VALUES:
        raise ConfigError(f"{n} kept joint states at dim {dim} hold {values} values, more "
                          f"than MAX_STATE_VALUES={MAX_STATE_VALUES}")
    return np.empty((n, 2 * dim, 2 * dim), complex)


class IntegrationError(RuntimeError):
    """Master-equation integration failed or its diagnostics exceeded bounds."""


class TruncationError(RuntimeError):
    """A Fock dim refused by `ProtocolConfig.resolved_dim`, or outgrown by a run."""


@dataclass
class ProtocolConfig:
    """Parameters of a numerical protocol run.

    omega      oscillator frequency (rad/s, or 1 in natural units)
    g          qubit-oscillator coupling; only g^2 affects visibility
    g_prime    extra coupling during the first half period (boosted only)
    gamma_m    oscillator damping rate
    gamma_a    qubit dephasing rate
    nbar       thermal occupation of the oscillator and its bath
    dim        Fock truncation, 3 to `MAX_DIM`; None selects the
               `resolved_dim` default
    t_max      evolution time for basic/boosted, positive and, boosted,
               beyond the first half period; spin_echo derives its own
               duration 2*n_pi*(2*pi/omega) and ignores t_max

    n_pi       echo iterations per block (spin_echo only)

    Non-finite floats, non-integral counts and runs over `MAX_RUN_SAMPLES` raise ValueError.
    """

    omega: float = 1.0
    g: float = 0.0
    g_prime: float = 0.0
    gamma_m: float = 0.0
    gamma_a: float = 0.0
    nbar: float = 0.0
    dim: int | None = None
    t_max: float | None = None
    protocol: str = "basic"
    n_pi: int = 1
    samples_per_period: int = 200

    def __post_init__(self):
        for name in ("omega", "g", "g_prime", "gamma_m", "gamma_a", "nbar", "t_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("dim", "n_pi", "samples_per_period"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be >= 0, got {self.nbar}")
        if self.gamma_m < 0 or self.gamma_a < 0:
            raise ValueError("damping rates must be >= 0")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}"
            )
        if self.protocol == "spin_echo" and self.n_pi < 1:
            raise ValueError(f"n_pi must be >= 1, got {self.n_pi}")
        if self.samples_per_period < 4:
            raise ValueError("samples_per_period must be >= 4")
        t_max = self.resolved_t_max()
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        if self.protocol == "boosted" and t_max <= math.pi / self.omega:
            raise ValueError(
                "boosted protocol needs t_max beyond the first half period"
            )
        samples = self.samples_per_period * t_max * self.omega / (2.0 * math.pi)
        if not samples <= MAX_RUN_SAMPLES:
            raise ValueError(f"the run takes {samples:.3g} samples (samples_per_period x "
                             f"t_max / period), more than MAX_RUN_SAMPLES={MAX_RUN_SAMPLES}")

    def max_displacement(self) -> float:
        """Largest conditional displacement the protocol can reach."""
        lam = abs(self.g) / self.omega
        lamp = abs(self.g_prime) / self.omega
        if self.protocol == "boosted":
            return 2.0 * (lam + lamp)
        if self.protocol == "spin_echo":
            return 4.0 * self.n_pi * lam
        return 2.0 * lam

    def _dim_and_tail(self) -> tuple[int, float]:
        """`resolved_dim` and the displaced thermal mass P(n >= dim - 2) at it,
        from one walk of the populations in Python floats."""
        dim = self.dim
        if dim is None or 3 <= dim <= MAX_DIM:
            reach, scale = self.max_displacement(), self.nbar + 1.0  # squared in the walk
            if math.isinf(reach * reach) or math.isinf(scale * scale):  # where ** would raise
                raise TruncationError("|alpha|^2 or (nbar + 1)^2 overflows a float: the coupling "
                                      f"or nbar is too large for any dim up to MAX_DIM={MAX_DIM}")
            mass = 1.0  # P(n >= d - 2) at d = 2, 3, ...
            for d, p in enumerate(_populations(self.nbar, reach ** 2), 2):
                if d == dim or (dim is None and (mass <= DIM_TAIL_BOUND or d > MAX_DIM)):
                    break
                mass -= p
            dim = d
        if not 3 <= dim <= MAX_DIM:
            raise TruncationError(f"dim={dim} is outside [3, MAX_DIM={MAX_DIM}]; a default dim "
                                  "beyond MAX_DIM means the coupling or nbar is too large")
        return int(dim), mass

    def resolved_dim(self) -> int:
        """The run's Fock dim: the configured one, or the smallest d at which
        D(alpha) thermal(nbar) D(alpha)^dag, |alpha| = `max_displacement()`,
        holds at most `DIM_TAIL_BOUND` at levels >= d - 2, the two levels the
        run's tail-mass check reads.
        A dim outside [3, `MAX_DIM`], or an |alpha|^2 or (nbar + 1)^2 beyond a
        float, raises TruncationError before anything is allocated; a
        configured dim is then judged by the run's own checks."""
        return self._dim_and_tail()[0]

    def resolved_t_max(self) -> float:
        period = 2.0 * math.pi / self.omega
        if self.protocol == "spin_echo":
            return 2.0 * self.n_pi * period
        return 2.0 * period if self.t_max is None else float(self.t_max)


def _populations(nbar: float, mean: float):
    """Yield p_0, p_1, ... of D(alpha) thermal(nbar) D(alpha)^dag at |alpha|^2 =
    mean (Bose, Jacobs & Knight, PRA 59, 3204 (1999)), as Python floats,
    p_n = r^n L_n(-|alpha|^2/(nbar (nbar+1))) e^{-|alpha|^2/(nbar+1)}/(nbar+1) with
    r = nbar/(nbar+1), by the Laguerre recurrence: Poisson at nbar = 0, and
    free of cancellation, as the argument is negative."""
    r, s = nbar / (nbar + 1.0), mean / (nbar + 1.0) ** 2
    prev, p, n = 0.0, float(np.exp(-mean / (nbar + 1.0))) / (nbar + 1.0), 0
    while True:
        yield p
        prev, p, n = p, ((s + r * (2 * n + 1)) * p - r * r * n * prev) / (n + 1), n + 1
