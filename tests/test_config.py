"""Tests for the flat key = value configuration reader, and for the
ConfigError each validator raises."""

import errno
import re
from pathlib import Path

import pytest

from revivalsim.algebra import thermal_occupation
from revivalsim.config import (
    ConfigError,
    get_number,
    parse_config_file,
    require_keys,
)
from revivalsim.design import GeometryError, PhysicalConfig
from revivalsim.protocol import ProtocolConfig


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_parse_basic_types(tmp_path):
    p = _write(
        tmp_path,
        """
        # a comment line
        omega = 1.0
        dim = 64            # trailing comment
        protocol = boosted

        g = 1e-2
        """,
    )
    values = parse_config_file(p)
    assert values == {"omega": 1.0, "dim": 64, "protocol": "boosted", "g": 0.01}
    assert isinstance(values["dim"], int)
    assert isinstance(values["omega"], float)


def test_parse_rejects_duplicates(tmp_path):
    p = _write(tmp_path, "a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(p)


def test_parse_rejects_malformed_lines(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(_write(tmp_path, "just some words\n"))
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_file(_write(tmp_path, "omega =\n"))
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_file(_write(tmp_path, "= 3\n"))


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file(tmp_path / "nope.cfg")


def test_parse_refuses_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_bytes(b"omega = 1.0\n# caf\xff\n")
    with pytest.raises(ConfigError, match=f"config file {re.escape(str(p))} is not UTF-8: .*0xff"):
        parse_config_file(p)


def test_parse_refuses_a_file_the_os_will_not_read(tmp_path, monkeypatch):
    def refuse(self, encoding=None):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    p = _write(tmp_path, "omega = 1.0\n")
    monkeypatch.setattr(Path, "read_text", refuse)
    message = f"cannot read config file {re.escape(str(p))}: Permission denied"
    with pytest.raises(ConfigError, match=message):
        parse_config_file(p)


@pytest.mark.parametrize("refused", [
    lambda: ProtocolConfig(nbar=-1),
    lambda: PhysicalConfig(density=0),
    lambda: thermal_occupation(1.0, -1.0),
], ids=["ProtocolConfig", "PhysicalConfig", "thermal_occupation"])
def test_validators_raise_config_error(refused):
    # the error the CLI reports (exit 2), still a ValueError to library callers
    with pytest.raises(ConfigError):
        refused()
    with pytest.raises(ValueError):
        refused()


def test_geometry_error_is_not_a_config_error():
    # a four-sphere misfit is a domain error (exit 3), not a config error
    with pytest.raises(GeometryError) as info:
        PhysicalConfig(geometry="four_sphere", sphere_radius=0.6e-3)
    assert not isinstance(info.value, ConfigError)


def test_require_keys_names_the_stranger():
    with pytest.raises(ConfigError, match="gamma_x"):
        require_keys({"omega": 1.0, "gamma_x": 2.0}, {"omega"}, "simulate")
    require_keys({"omega": 1.0}, {"omega", "g"}, "simulate")


def test_get_number_refuses_an_int_beyond_the_float_range():
    # such an int was passed on, to fail as a domain error where first used
    for big in (10 ** 400, -(10 ** 400), 2 ** 1024):
        with pytest.raises(ConfigError, match="'a' is an integer beyond the float range"):
            get_number({"a": big}, "a")
    assert get_number({"a": 10 ** 308}, "a") == 10 ** 308


def test_get_number_behaviour():
    values = {"a": 3, "b": 2.5, "c": "text", "d": float("inf")}
    assert get_number(values, "a") == 3
    assert get_number(values, "b") == 2.5
    with pytest.raises(ConfigError, match="numeric"):
        get_number(values, "c")
    with pytest.raises(ConfigError, match="finite"):
        get_number(values, "d")
