"""Flat ``key = value`` run-configuration files.

UTF-8 text, one assignment per line; ``#`` starts a comment; blank lines are ignored.
Values are auto-typed (int, then float, then bare string).  Unknown keys
are rejected by the consuming command so typos fail loudly.
"""

from __future__ import annotations

import math
from pathlib import Path


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


class DomainError(ValueError):
    """Valid input outside the domain where a formula or model holds."""


def _auto_type(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config_file(path) -> dict:
    path = Path(path)
    try:
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except OSError as exc:  # a name too long, a file the OS refuses to read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ConfigError(f"{path}:{lineno}: empty key or value in {line!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _auto_type(raw)
    return values


def require_keys(values: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(values) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} config keys: {', '.join(unknown)}")


def get_number(values: dict, key: str):
    v = values[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config key {key!r} must be numeric, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"config key {key!r} must be finite, got {v!r}")
    try:
        float(v)
    except OverflowError:  # an int, as a float is finite here
        raise ConfigError(f"config key {key!r} is an integer beyond the float range") from None
    return v
