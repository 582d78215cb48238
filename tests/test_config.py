"""Tests for the flat key = value configuration reader."""

import pytest

from revivalsim.config import (
    ConfigError,
    get_number,
    parse_config_file,
    require_keys,
)


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


def test_require_keys_names_the_stranger():
    with pytest.raises(ConfigError, match="gamma_x"):
        require_keys({"omega": 1.0, "gamma_x": 2.0}, {"omega"}, "simulate")
    require_keys({"omega": 1.0}, {"omega", "g"}, "simulate")


def test_get_number_behaviour():
    values = {"a": 3, "b": 2.5, "c": "text", "d": float("inf")}
    assert get_number(values, "a") == 3
    assert get_number(values, "b") == 2.5
    with pytest.raises(ConfigError, match="numeric"):
        get_number(values, "c")
    with pytest.raises(ConfigError, match="finite"):
        get_number(values, "d")
