"""Batch command-line interface.

Subcommands: ``analytic`` (closed-form curves), ``simulate`` (master
equation protocols), ``verify`` (separable-channel monotonicity suite),
``design`` (lab feasibility numbers).  Every file-writing run also emits a
``<out>.manifest.json`` with the config echo, tool version, timestamps, the
sha256 and size of the output's bytes, hashed as they are written (no output
is read back), the time spent writing and hashing it, the BLAS thread counts
the environment sets and the run's validity warnings (also printed to
stderr); the manifest lands before its output, so an output never exists
without one.  Outputs themselves are deterministic for identical inputs.
Exit codes: 0 success, 2 usage/config error (an unwritable --out too), 3
domain error or value out of range (a non-finite output value too), 4
solver, truncation, exact-visibility or separable-trace check or linalg
failure, 5 witness-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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

from . import __version__, analytic, design
from .algebra import thermal_occupation
from .config import ConfigError, get_number, parse_config_file, require_keys
from .constants import ATOMIC_MASS
from .design import GeometryError, PhysicalConfig
from .protocol import MAX_DIM, PROTOCOLS, IntegrationError, ProtocolConfig, TruncationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICS = 4
EXIT_WITNESS = 5

# `analytic` row limits, checked by the parser before any grid is built.  Rows
# are written, and damped-exact evaluated, a chunk at a time, so the peak is
# the formula's own arrays: above import, 10^6 rows took 20 MB for
# damped-exact, 25 MB for thermal, 39 MB for many-atom and 48 MB for damped and
# boosted (185 MB at 4 x 10^6), so 10^7 rows take at most about 0.5 GB, and the
# benchmark's largest grid is 50,000.  MAX_SAMPLES also caps the cells of a
# `design --sweep`, whose row dicts cost about 360 B a cell.
MAX_SAMPLES = 10**7
MAX_N_PI = 10**6


# ---------------------------------------------------------------- helpers

CSV_CHUNK_ROWS = 8192  # rows formatted and written at a time
_CSV_BOOLS = np.array([b"false", b"true"])
# The float kernel scales |x| by the double-double 10^e, |e| <= _POW_MAX, so it
# decides the x with floor(log10 |x|) from 17 - _POW_MAX to 15 + _POW_MAX,
# about 1e-263 <= |x| < 1e296, where 10^e split by Veltkamp's 2^27 + 1 and its
# low part stay normal doubles.  A scaled value is off by a few 1e-15 at most,
# so one whose fraction is within _TIE_MARGIN of one half is left undecided.
_POW_MAX = 280
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1
_FLOAT_WIDTH = 24  # len("-1.2345678901234567e-308")
_K_MIN, _K_MAX = -324, 308  # the decimal exponents of the doubles
# A value's 32 source bytes, eight 4-byte words: its leading digit as "000d",
# its other 16 digits, ".-0e", the exponent's 4 digits, and the exponent's
# sign followed by NULs.  Digit i is source byte 3 + i.  A chunk's source
# rows hold word w of every value in row w, CSV_CHUNK_ROWS words a row.
_DOT, _MINUS, _ZERO, _E, _EXP, _EXP_SIGN, _NUL = 20, 21, 22, 23, 24, 28, 29


@functools.cache
def _float_tables():
    """The kernel's tables, built on first use, not at import:
    - the powers 10^e, -_POW_MAX <= e <= _POW_MAX, as rows hi_hi, hi_lo and
      lo, where hi + lo is 10^e to about 2^-106, hi and lo each correctly
      rounded from Python ints, and hi_hi + hi_lo is hi's Veltkamp split;
    - the ASCII of 0..9999 as 4-byte words;
    - the digits each nonzero 4-digit group keeps once its trailing zeros
      go, and -16 for 0000, which never raises a count of digits kept;
    - for each decimal exponent k from _K_MIN to _K_MAX, the ASCII of |k|
      and of its sign, as 4-byte words, and its layout's key: the layout
      table's row of (layout, digits kept, sign) is key + 2 kept + sign;
    - for each (layout, digits kept, sign), where a value's 24 %.17g bytes,
      NUL-padded, lie in the source rows of the chunk's first value:
      layouts 0..20 are fixed notation with decimal exponent layout - 4, 21
      and 22 exponent notation with two and three exponent digits."""
    powers = []
    for e in range(-_POW_MAX, _POW_MAX + 1):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den  # int true division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        split = hi * _SPLIT
        hi_hi = split - (split - hi)
        powers.append((hi_hi, hi - hi_hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    ints = np.arange(10**4)
    ascii4 = (ints[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    ascii4 = ascii4.view(np.uint32).ravel()
    kept4 = np.full(10**4, 4, np.int16)
    for place in (10, 100, 1000, 10**4):
        kept4 -= ints % place == 0
    kept4[0] = -16
    exps = np.arange(_K_MIN, _K_MAX + 1)
    exp_signs = np.where(exps < 0, ord("-"), ord("+")).astype(np.uint32)  # little-endian
    layout_of = np.where((exps >= -4) & (exps <= 16), exps + 4, np.where(abs(exps) < 100, 21, 22))
    layouts = np.full((23, 17, 2, _FLOAT_WIDTH), _NUL, np.intp)
    for layout in range(23):
        for kept in range(1, 18):
            if layout > 20:
                exp = [_EXP + 1, _EXP + 2, _EXP + 3][22 - layout:]
                body = [3] + [_DOT] * (kept > 1) + list(range(4, 3 + kept)) + [_E, _EXP_SIGN] + exp
            elif layout >= 4:  # digits 0..layout - 4 before the point
                point = layout - 3
                body = list(range(3, 3 + max(point, kept)))
                body[point:point] = [_DOT] * (kept > point)
            else:  # "0.", 3 - layout zeros, the digits
                body = [_ZERO, _DOT] + [_ZERO] * (3 - layout) + list(range(3, 3 + kept))
            for sign in (0, 1):
                row = [_MINUS] * sign + body
                layouts[layout, kept - 1, sign, :len(row)] = row
    layouts = layouts // 4 * 4 * CSV_CHUNK_ROWS + layouts % 4  # word p // 4, byte p % 4
    return (np.array(powers).T.copy(), ascii4, kept4, ascii4.take(abs(exps)), exp_signs,
            layout_of * 34 - 2, layouts.reshape(-1, _FLOAT_WIDTH))


def _scaled(x, powers, k):
    """x 10^(16 - k), 10^(16 - k) from the power table, as a normalized
    double-double (hi, lo): Dekker's exact product of x and the power's hi
    part, x split by Veltkamp, plus x times the power's lo part."""
    hi_hi, hi_lo, lo = powers.take(_POW_MAX + 16 - k, axis=1)
    product = x * (hi_hi + hi_lo)
    x_hi = x * _SPLIT
    x_hi -= x_hi - x
    tail = x_hi * hi_hi  # the product's rounding error, then its sum with x lo
    tail -= product
    tail += x_hi * hi_lo
    x_hi -= x  # -x_lo
    tail -= x_hi * hi_hi
    tail -= x_hi * hi_lo
    tail += x * lo
    total = product + tail
    product -= total
    tail += product
    return total, tail


def _decimal(x, powers):
    """(D, k, undecided) of positive finite floats x: the 17-digit integers
    D in [10^16, 10^17] and decimal exponents k with x = D 10^(k - 16) to
    nearest, a carry to 10^17 moving k up.  undecided marks an x outside the
    power table (D = 10^16, k = 0) or within _TIE_MARGIN of a tie."""
    k = np.floor(np.log10(x)).astype(np.intp)
    undecided = (k <= 16 - _POW_MAX) | (k >= 16 + _POW_MAX)
    x = np.where(undecided, 1.0, x)
    k[undecided] = 0
    high, low = _scaled(x, powers, k)
    # log10 is one off for some x near a power of ten
    off = (((high > 1e17) | ((high == 1e17) & (low >= 0))).astype(np.intp)
           - ((high < 1e16) | ((high == 1e16) & (low < 0))))
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] += off[redo]
        high[redo], low[redo] = _scaled(x[redo], powers, k[redo])
    whole = np.floor(low)
    low -= whole  # the fraction
    undecided |= np.abs(low - 0.5) < _TIE_MARGIN
    digits = high.astype(np.int64)
    digits += whole.astype(np.int64)
    digits += low > 0.5
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    return digits, k, undecided


def _source_rows(digits, zero, ascii4, kept4, src):
    """Write the 17-digit integers' ASCII into their source rows src, and
    return the count of each one's digits kept once trailing zeros are
    dropped (1 for zero)."""
    n = len(digits)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    lead[zero] = 0
    ascii4.take(lead, out=src[0, :n])
    kept = np.ones(n, np.int16)
    upper = rest // 10**8
    for i, half in enumerate((upper, rest - upper * 10**8)):
        half = half.astype(np.uint32)  # divides faster than int64
        high = half // 10**4
        for j, group in enumerate((high, half - high * 10**4)):
            ascii4.take(group, out=src[1 + 2 * i + j, :n])
            np.maximum(kept, kept4.take(group) + (8 * i + 4 * j + 1), out=kept)
    return kept


def _float_work():
    """The buffers `_float_bytes` formats a table's chunks in, so a chunk
    maps no fresh pages for them: the source rows, with ".-0e" in place,
    the gather index and the gathered bytes."""
    src = np.empty((8, CSV_CHUNK_ROWS), np.uint32)
    src[5] = np.frombuffer(b".-0e", np.uint32)[0]
    return (src, np.empty((CSV_CHUNK_ROWS, _FLOAT_WIDTH), np.intp),
            np.empty((CSV_CHUNK_ROWS, _FLOAT_WIDTH), np.uint8))


def _float_bytes(values: np.ndarray, work) -> np.ndarray:
    """The %.17g bytes of at most CSV_CHUNK_ROWS finite float64s, NUL-padded
    to 24 bytes a row, in work's buffers (`_float_work`), which the next
    call overwrites: `_decimal` gives each |x|'s 17 digits and exponent k,
    `_source_rows` their ASCII, and the row of the layout table keyed by
    (layout, digits kept, sign) gathers the value's bytes.  What `_decimal`
    leaves undecided is formatted as '%.17g' % x."""
    powers, ascii4, kept4, exp_digits, exp_signs, layout_keys, layouts = _float_tables()
    n = len(values)
    src, index, out = work[0], work[1][:n], work[2][:n]
    zero = values == 0
    digits, k, undecided = _decimal(np.where(zero, 1.0, np.abs(values)), powers)
    kept = _source_rows(digits, zero, ascii4, kept4, src)
    k -= _K_MIN
    exp_digits.take(k, out=src[6, :n])
    exp_signs.take(k, out=src[7, :n])
    key = layout_keys.take(k)
    key += 2 * kept
    key += np.signbit(values)
    layouts.take(key, axis=0, out=index, mode="clip")  # "clip" takes straight into out
    index += np.arange(0, 4 * n, 4)[:, None]  # each value's first source byte
    src.view(np.uint8).ravel().take(index, out=out, mode="clip")
    for i in np.flatnonzero(undecided):
        text = ("%.17g" % values[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _text_bytes(column: np.ndarray) -> np.ndarray:
    """A column's CSV text, one NUL-padded row of bytes a value: booleans as
    true/false, and ints and strings as numpy casts them to bytes, which is
    how str writes them."""
    text = _CSV_BOOLS[column.astype(np.intp)] if column.dtype.kind == "b" else column.astype("S")
    return text.view(np.uint8).reshape(len(column), -1)


def write_csv(fh, header: list[str], columns) -> None:
    """Write to the binary file fh the header and the rows of the
    equal-length columns, one chunk of rows at a time.  Floats are written
    as %.17g, which round-trips exactly, booleans as true/false, and ints
    and strings as str writes them (`_text_bytes`).

    A chunk's floats are formatted together by a numpy kernel
    (`_float_bytes`): it scales each |v| to its 17 significant digits in
    double-double arithmetic, rounds them, and gathers their ASCII and the
    exponent's into each value's %g layout, the same bytes as '%.17g' % v.
    A value the kernel cannot decide is formatted as '%.17g' % v itself:
    |v| outside its power table (below about 1e-263 or from 1e296 on), or
    a scaled value within 1e-9 of a rounding tie, such as 2**-25.  Its
    larger buffers are allocated once per table (`_float_work`).  The
    chunk's columns are joined by commas into a NUL-padded row matrix,
    written with its NULs removed in one call.  A chunk that holds a NaN or
    an infinity raises OverflowError before it is written."""
    columns = [np.asarray(column) for column in columns]
    fh.write((",".join(header) + "\n").encode())
    work = _float_work()
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        chunk = [c[start:start + CSV_CHUNK_ROWS] for c in columns]
        if not all(np.isfinite(c).all() for c in chunk if c.dtype.kind == "f"):
            raise OverflowError("a computed output value is not finite")
        texts = [None if c.dtype.kind == "f" else _text_bytes(c) for c in chunk]
        widths = [_FLOAT_WIDTH if text is None else text.shape[1] for text in texts]
        rows = np.empty((len(chunk[0]), sum(widths) + len(widths)), np.uint8)
        end = 0
        for column, text, width in zip(chunk, texts, widths):
            if text is None:
                text = _float_bytes(column.astype(np.float64, copy=False), work)
            rows[:, end:end + width] = text
            end += width + 1
            rows[:, end - 1] = ord(",")
        rows[:, -1] = ord("\n")
        fh.write(rows[rows != 0])


def _json_text(value) -> str:
    try:
        return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a non-finite number
        raise OverflowError("a computed output value is not finite") from exc


def write_json(fh, payload: dict) -> None:
    """Write to the binary file fh the payload as json.dumps(payload,
    sort_keys=True, indent=2, allow_nan=False) does, and a newline; that text
    is ASCII, so its bytes are its characters.  A value that is a 1-d float
    array is written CSV_CHUNK_ROWS numbers at a time, each as float.__repr__
    as json writes it; a chunk that holds a NaN or an infinity raises
    OverflowError before it is written."""
    fh.write(b"{")
    for i, key in enumerate(sorted(payload)):
        fh.write((("," if i else "") + "\n  " + json.dumps(key) + ": ").encode())
        value = payload[key]
        if not isinstance(value, np.ndarray):
            fh.write(_json_text(value)[:-1].replace("\n", "\n  ").encode())
        elif not value.size:
            fh.write(b"[]")
        else:
            for start in range(0, len(value), CSV_CHUNK_ROWS):
                chunk = value[start:start + CSV_CHUNK_ROWS]
                if not np.isfinite(chunk).all():
                    raise OverflowError("a computed output value is not finite")
                fh.write((("," if start else "[") + "\n    "
                          + ",\n    ".join(map(float.__repr__, chunk.tolist()))).encode())
            fh.write(b"\n  ]")
    fh.write(b"\n}\n" if payload else b"}\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _warn(args, message: str) -> None:
    """Print a validity warning and keep it for the run's manifest."""
    print(f"warning: {message}", file=sys.stderr)
    args.warnings.append(message)


# the environment variables that set the BLAS libraries' thread counts
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Hashed:
    """The binary file fh, each write also fed to a sha256 and counted."""

    def __init__(self, fh):
        self.fh, self.sha256, self.bytes = fh, hashlib.sha256(), 0

    def write(self, data) -> None:
        self.sha256.update(data)
        self.bytes += self.fh.write(data)


def write_outputs(args, write, config: dict, **extra) -> None:
    """Write ``args.out`` through write(fh), fh a binary file, and then its
    manifest ``<args.out>.manifest.json``: the command, its config echo, the
    tool version, when the command started and finished, the sha256 and size
    of the bytes write wrote, hashed as they were written, the wall time
    ``write_s`` write and the hashing took, the run's warnings, the BLAS
    thread counts the environment sets (``blas_threads``, each null when
    unset) and any extra fields.  Each file goes to a temp file beside it,
    and the manifest is moved into place first, so an output never exists
    without its manifest.  On any error both temp files are removed."""
    out = Path(args.out)
    temps = [Path(f"{path}.{os.getpid()}.tmp") for path in (out, f"{out}.manifest.json")]
    try:
        start = time.perf_counter()
        with open(temps[0], "wb") as fh:
            hashed = _Hashed(fh)
            write(hashed)
        write_s = time.perf_counter() - start
        with open(temps[1], "wb") as fh:
            write_json(fh, {
                "command": args.command,
                "config": config,
                "tool_version": __version__,
                "started_at": args.started_at,
                "finished_at": _now(),
                "outputs": [{"path": str(args.out), "sha256": hashed.sha256.hexdigest(),
                             "bytes": hashed.bytes}],
                "warnings": args.warnings,
                "write_s": write_s,
                "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
                **extra,
            })
        os.replace(temps[1], f"{out}.manifest.json")
        os.replace(temps[0], out)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _config_kwargs(values: dict, cls) -> dict:
    """The fields of dataclass cls that the config file gives: strings as
    read, the rest through `get_number`; cls itself judges an integer field.
    Absent fields keep the dataclass default."""
    return {f.name: values[f.name] if "str" in str(f.type) else get_number(values, f.name)
            for f in dataclasses.fields(cls) if f.name in values}


def _refuse_stray(args, flags: dict, allowed, where: str) -> None:
    """The stray-flag rule: refuse, naming each, the flags of the table flags
    (dest -> row, the option string first) passed to a mode that does not
    read them; an absent flag is None."""
    stray = sorted(row[0] for key, row in flags.items()
                   if key not in allowed and getattr(args, key) is not None)
    if stray:
        raise ConfigError(f"{', '.join(stray)} not applicable to {where}")


def _float(bound: str = ""):
    """The type of a finite float flag, also "positive" or ">= 0" if bound says so."""
    def real(raw: str) -> float:
        value = float(raw)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {raw!r}")
        if bound and (value <= 0 if bound == "positive" else value < 0):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {raw!r}")
        return value
    real.__name__ = "float"  # argparse names it in "invalid float value"
    return real


def _count(lo: int, hi: float = math.inf, note: str = ""):
    """The type of an int flag from lo to hi; note follows the bounds in a refusal."""
    def count(raw: str) -> int:
        value = int(raw)
        if not lo <= value <= hi:
            bounds = f"between {lo} and {hi}" if hi < math.inf else f">= {lo}"
            raise argparse.ArgumentTypeError(f"must be {bounds}{note}, got {raw!r}")
        return value
    count.__name__ = "int"  # argparse names it in "invalid int value"
    return count


def _range(raw: str) -> tuple[float, float, int]:
    """The type of a lo,hi,n flag: positive floats lo <= hi, and n >= 1."""
    parts = raw.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo,hi,n — got {raw!r}")
    positive = _float("positive")
    lo, hi, n = positive(parts[0]), positive(parts[1]), _count(1)(parts[2])
    if hi < lo:
        raise argparse.ArgumentTypeError(f"hi must be >= lo, got {raw!r}")
    return lo, hi, n


_range.__name__ = "lo,hi,n"  # argparse names it in "invalid lo,hi,n value"

# ---------------------------------------------------------------- analytic

# each formula flag's option string, the `CouplingParams` field it sets
# (None: read by cmd_analytic itself), its type and its help; a flag not
# passed is None, and its field keeps the default
_FLAGS = {
    "lam": ("--lambda", None, _float(), "dimensionless coupling g/omega"),
    "lam_prime": ("--lambda-prime", "boost_coupling", _float(),
                  "boost-stage coupling g'/omega"),
    "nbar": ("--nbar", "nbar", _float(), None),
    "q": ("--q", "q_factor", _float(), "quality factor omega/gamma_m"),
    "gamma_a": ("--gamma-a", "qubit_decay", _float(),
                "qubit coherence decay rate over omega; the simulate engine's gamma_a "
                "(sigma_z jump rate) decays coherence at 2*gamma_a"),
    "n_atoms": ("--n-atoms", None, _count(1), None),
    "n_pi": ("--n-pi", None, _count(1, MAX_N_PI), None),
    "t_max": ("--t-max", None, _float("positive"),
              "grid length in oscillator periods (default 2)"),
    "samples": ("--samples", None, _count(2, MAX_SAMPLES),
                "rows in the half-open omega*t grid (default 400)"),
}
_GRID = {"t_max", "samples"}  # spin echo's rows are echo iterations, not a grid
_FORMULA_FLAGS = {
    "ground": {"lam"} | _GRID,
    "thermal": {"lam", "nbar"} | _GRID,
    "damped": {"lam", "nbar", "q", "gamma_a"} | _GRID,
    "damped-exact": {"lam", "nbar", "q", "gamma_a"} | _GRID,
    "boosted": {"lam", "lam_prime", "nbar"} | _GRID,
    "many-atom": {"lam", "nbar", "n_atoms"} | _GRID,
    "spin-echo": {"lam", "n_pi"},
}


def cmd_analytic(args) -> int:
    formula = args.formula
    _refuse_stray(args, _FLAGS, _FORMULA_FLAGS[formula], f"--formula {formula}")

    lam = args.lam if args.lam is not None else 0.0
    t_max = args.t_max if args.t_max is not None else 2.0
    samples = args.samples if args.samples is not None else 400

    # columns first, so an overflowing lambda fails before the file opens; an
    # overflow that leaves a non-finite value is refused by write_csv
    with np.errstate(over="ignore", invalid="ignore"), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if formula == "spin-echo":  # rows are echo iterations, not a time grid
            iterations = np.arange(1, (args.n_pi if args.n_pi is not None else 1) + 1)
            grid, vis = 2.0 * math.pi * iterations, analytic.spin_echo_overlap(iterations, lam)
        else:
            given = {field: getattr(args, k) for k, (_, field, _, _) in _FLAGS.items()
                     if field and getattr(args, k) is not None}
            params = analytic.CouplingParams(coupling=lam, **given)
            grid = 2.0 * math.pi * t_max * np.arange(samples) / samples
            if formula == "ground":
                vis = analytic.visibility_ground(lam, grid)
            elif formula == "thermal":
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

    echo = {k: getattr(args, k) for k in _FLAGS}
    echo.update({"formula": formula, "t_max": t_max, "samples": samples})
    write_outputs(args, lambda fh: write_csv(fh, ["omega_t", "visibility"], (grid, vis)), echo)
    print(f"wrote {args.out} ({len(grid)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

_SIMULATE_KEYS = {f.name for f in dataclasses.fields(ProtocolConfig)} | {
    "units", "tau", "temperature", "t_max_periods"}
# the keys only some protocols read, and those protocols: spin echo's length
# is 2 n_pi periods, so it reads no t_max
_PROTOCOL_KEYS = {"g_prime": {"boosted"}, "n_pi": {"spin_echo"},
                  "t_max": {"basic", "boosted"}, "t_max_periods": {"basic", "boosted"}}


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
        if "omega" in values:
            raise ConfigError("give either tau or omega, not both")
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
        natural = {"hbar": 1.0, "k_boltzmann": 1.0} if units == "natural" else {}
        try:
            kwargs["nbar"] = thermal_occupation(omega, temp, **natural)
        except ValueError as exc:  # a negative temperature or omega
            raise ConfigError(str(exc)) from exc

    if "t_max" in values and "t_max_periods" in values:
        raise ConfigError("give either t_max or t_max_periods, not both")
    if "t_max_periods" in values:
        kwargs["t_max"] = get_number(values, "t_max_periods") * 2.0 * math.pi / omega

    if protocol_override:
        kwargs["protocol"] = protocol_override
    if kwargs.get("protocol") == "spin-echo":
        kwargs["protocol"] = "spin_echo"

    try:
        cfg = ProtocolConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # ProtocolConfig takes, and ignores, a key its protocol does not read
    stray = sorted(key for key, readers in _PROTOCOL_KEYS.items()
                   if key in values and cfg.protocol not in readers)
    if stray:
        raise ConfigError(f"{', '.join(stray)} not applicable to protocol {cfg.protocol}")
    return cfg


def cmd_simulate(args) -> int:
    values = parse_config_file(args.config)
    cfg = _protocol_config_from_file(values, args.protocol)
    from . import lindblad  # the engine, which analytic and design never load

    trace = lindblad.run_protocol(cfg)
    columns = {
        "t": trace.times,
        "visibility": trace.visibility,
        "re_sigma_minus": trace.sigma_minus.real,
        "im_sigma_minus": trace.sigma_minus.imag,
        "exact_error": trace.exact_error,
        "tail_mass": trace.tail_mass,
    }
    echo = dataclasses.asdict(cfg)

    def write(fh):
        if args.format == "csv":
            write_csv(fh, list(columns), columns.values())
        else:
            write_json(fh, dict(columns, config=echo))

    write_outputs(args, write, echo, stats=trace.stats)
    print(
        f"wrote {args.out} ({len(trace.times)} samples, "
        f"final V = {trace.visibility[-1]:.6f})"
    )
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    from . import witness  # loads the engine

    # the contrast first: the engine refuses its over-budget stack before any channel runs
    contrast = witness.coupled_contrast_case(args.contrast_coupling, tol=args.tol)
    reports = witness.run_property_suite(
        args.seeds, args.dim, tol=args.tol, t_max=args.t_max, samples=args.samples
    )

    separable_ok = all(r.monotonic and r.negativity_peak <= args.negativity_tol for r in reports)
    contrast_ok = (not contrast.monotonic) and contrast.negativity_peak > 0.01

    if args.out:
        header = ["kind", "seed"] + [f.name for f in dataclasses.fields(witness.WitnessReport)]
        rows = [("random", seed, *dataclasses.astuple(r)) for seed, r in enumerate(reports)]
        rows.append(("contrast", -1, *dataclasses.astuple(contrast)))
        flags = ("seeds", "dim", "tol", "t_max", "samples", "negativity_tol", "contrast_coupling")
        write_outputs(args, lambda fh: write_csv(fh, header, zip(*rows)),
                      {key: getattr(args, key) for key in flags})

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
# each mode flag's option string, type and help, and the flags each mode reads
_DESIGN_FLAGS = {
    "tau_range": ("--tau-range", _range, "lo,hi,n (seconds, log-spaced)"),
    "temp_range": ("--temp-range", _range, "lo,hi,n (kelvin, log-spaced)"),
    "sigma_level": ("--sigma-level", _float("positive"), None),
}
_MODE_FLAGS = {"--point": {"sigma_level"}, "--sweep": {"tau_range", "temp_range"}}


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
    mode = "--sweep" if args.sweep else "--point"
    _refuse_stray(args, _DESIGN_FLAGS, _MODE_FLAGS[mode], mode)
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
        columns = {key: [row[key] for row in rows] for key in rows[0]}
        write_outputs(args, lambda fh: write_csv(fh, list(columns), columns.values()), {
            "config": dataclasses.asdict(cfg),
            "tau_range": list(args.tau_range),
            "temp_range": list(args.temp_range),
        })
        print(f"wrote {args.out} ({len(rows)} grid cells)")
        return EXIT_OK

    sigma_level = args.sigma_level if args.sigma_level is not None else 5.0
    derived = design.derive(cfg)
    payload = dataclasses.asdict(derived)
    payload["atoms_required"] = design.atoms_required(derived.delta_v_boosted, sigma_level)
    payload["sigma_level"] = sigma_level
    if derived.low_temperature_flag:
        _warn(args, "k_B*T/(hbar*omega) < 10; thermal contrast forms are outside "
                    "their validity range")
    if args.out:
        write_outputs(args, lambda fh: write_json(fh, payload), dataclasses.asdict(cfg))
    print(_json_text(payload), end="")
    return EXIT_OK


# ---------------------------------------------------------------- parser

@functools.cache  # built on the first main call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revivalsim",
        description="Collapse-and-revival visibility toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form visibility curves")
    p.add_argument("--formula", required=True, choices=sorted(_FORMULA_FLAGS))
    for key, (option, _, kind, text) in _FLAGS.items():
        p.add_argument(option, dest=key, type=kind, help=text)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="run a master-equation protocol")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--protocol", choices=PROTOCOLS + ("spin-echo",),
                   default=None, help="override the config's protocol")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="separable-channel monotonicity suite")
    p.add_argument("--seeds", type=_count(1, note=" (empty suite rejected)"), required=True,
                   help="number of random channels (seeds 0..N-1)")
    p.add_argument("--dim", type=_count(2, MAX_DIM), default=16)
    p.add_argument("--tol", type=_float(">= 0"), default=1e-6)
    p.add_argument("--t-max", dest="t_max", type=_float("positive"), default=8.0)
    p.add_argument("--samples", type=_count(1), default=400)
    p.add_argument("--negativity-tol", dest="negativity_tol",
                   type=_float(">= 0"), default=1e-8)
    p.add_argument("--contrast-coupling", dest="contrast_coupling",
                   type=_float(), default=0.25)
    p.add_argument("--out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("design", help="lab feasibility estimates")
    p.add_argument("--config", default=None, help="key = value config file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--point", action="store_true", default=True)
    mode.add_argument("--sweep", action="store_true", default=False)
    for key, (option, kind, text) in _DESIGN_FLAGS.items():
        p.add_argument(option, dest=key, type=kind, help=text)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_design)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
