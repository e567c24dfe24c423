"""Config checks through ``pdsr project``: every field of the desk configs
set to each value of a grid, and configs that are not objects or have an
unknown or missing key, end in exit 0 or in an ``error:`` naming the
field, never in a traceback."""

import dataclasses
import json
import math
import re

import pytest

from pdsr.adn import AdnConfig, EsUnit
from pdsr.cli import main
from pdsr.uc import Generator, UcConfig

VALUES = {"null": None, "string": "x", "list": [], "object": {},
          "pair": [1, 2], "true": True, "minus_one": -1, "fraction": 1.5,
          "inf": math.inf, "nan": math.nan}

# each top-level field, each field of line 0 and each field of the first
# storage unit or generator, with the names the error may give it (a list
# field's error may name its first entry) and the record it names
LINE_FIELDS = {"adn": ("start", "end", "r", "x"),
               "uc": ("start", "end", "susceptance")}
RECORDS = {"adn": ("es_units", EsUnit, "es unit 0"),
           "uc": ("generators", Generator, "generator 0")}
ENTRIES = {"lines": "line 0", "es_units": "es unit 0",
           "generators": "generator 0"}
FIELDS = [(problem, (f.name,), f"{f.name}|{ENTRIES.get(f.name, f.name)}",
           None)
          for problem, cls in (("adn", AdnConfig), ("uc", UcConfig))
          for f in dataclasses.fields(cls)]
FIELDS += [(problem, ("lines", 0, k), name, "line")
           for problem, names in LINE_FIELDS.items()
           for k, name in enumerate(names)]
FIELDS += [(problem, (key, 0, f.name), f.name, label)
           for problem, (key, cls, label) in RECORDS.items()
           for f in dataclasses.fields(cls)]

_COSTS = [f"generators.0.{name}" for name in (
    "cost_power", "cost_no_load", "cost_start", "cost_stop", "cost_reg_up",
    "cost_reg_down")]
# the edits that leave a valid config, which the command then runs on
LOADS = {
    *(f"adn-{path}-fraction" for path in (
        "dt_hours", "p_trade_max", "v_max_sq", "buy_mult", "penalty_shed",
        "penalty_curtail", "reactive_ratio", "lines.0.2", "lines.0.3",
        "es_units.0.p_max", "es_units.0.e_max", "es_units.0.price")),
    *(f"uc-{path}-fraction" for path in (
        "dt_hours", "penalty_shed", "penalty_curtail", "angle_bound",
        "lines.0.2", *_COSTS, "generators.0.p_max", "generators.0.ramp_up",
        "generators.0.ramp_down", "generators.0.p0")),
    # series compensation, capacitive loads, capacity the operator is paid
    # to hold, a negative susceptance or generator cost
    *(f"adn-{path}-minus_one" for path in (
        "reactive_ratio", "lines.0.3", "es_units.0.price")),
    *(f"uc-{path}-minus_one" for path in ("lines.0.2", *_COSTS)),
    # no storage unit, generator, UC line or fixed load
    "adn-es_units-list", "adn-fixed_loads-object", "uc-generators-list",
    "uc-lines-list", "uc-fixed_loads-object",
}


def _case_id(problem, path, value_name):
    return f"{problem}-{'.'.join(map(str, path))}-{value_name}"


CASES = [pytest.param(problem, path, name, label, value_name,
                      id=_case_id(problem, path, value_name))
         for problem, path, name, label in FIELDS for value_name in VALUES]


@pytest.fixture(scope="module")
def desks(tmp_path_factory):
    base = tmp_path_factory.mktemp("desks")
    for problem in ("adn", "uc"):
        assert main(["make-desk", "--problem", problem, "--N", "3", "--T",
                     "8", "--seed", "0", "--out", str(base / problem)]) == 0
    return base


def _project(desks, tmp_path, capsys, problem, config):
    """Exit code and stderr of ``pdsr project`` on ``config``."""
    (tmp_path / "config.json").write_text(json.dumps(config))
    desk = desks / problem
    capsys.readouterr()
    rc = main(["project", "--problem", problem,
               "--config", str(tmp_path / "config.json"),
               "--scenarios", str(desk / "scenarios.csv"),
               "--probabilities", str(desk / "probabilities.csv"),
               "--out", str(tmp_path / "run")])
    return rc, capsys.readouterr().err


def test_grid_cases():
    assert len(CASES) == 600
    assert LOADS <= {c.id for c in CASES}
    assert len(LOADS) == 42


@pytest.mark.parametrize("problem, path, name, label, value_name", CASES)
def test_every_field_is_checked(desks, tmp_path, capsys, problem, path, name,
                                label, value_name):
    config = json.loads((desks / problem / "config.json").read_text())
    entry = config
    for step in path[:-1]:
        entry = entry[step]
    entry[path[-1]] = VALUES[value_name]
    rc, err = _project(desks, tmp_path, capsys, problem, config)
    if _case_id(problem, path, value_name) in LOADS:
        assert rc == 0, err
        return
    assert rc == 1
    assert err.startswith("error: ")
    assert re.search(rf"\b({name})\b", err), err
    assert label is None or label in err, err
    assert not (tmp_path / "run" / "F.csv").exists()


def _delete(*path):
    def edit(config):
        for step in path[:-1]:
            config = config[step]
        del config[path[-1]]
    return edit


def _add(*path):
    def edit(config):
        for step in path:
            config = config[step]
        config["colour"] = "blue"
    return edit


def _set(*path_value):
    *path, key, value = path_value

    def edit(config):
        for step in path:
            config = config[step]
        config[key] = value
    return edit


@pytest.mark.parametrize("problem, edit, message", [
    ("adn", lambda config: [config], "config must be an object, got [{"),
    ("uc", lambda config: [config], "config must be an object, got [{"),
    ("adn", _add(), "config: unknown key 'colour'"),
    ("uc", _add(), "config: unknown key 'colour'"),
    ("adn", _delete("t_steps"), "config: missing key 't_steps'"),
    ("uc", _delete("generators"), "config: missing key 'generators'"),
    ("adn", _add("es_units", 0), "es unit 0: unknown key 'colour'"),
    ("uc", _add("generators", 0), "generator 0: unknown key 'colour'"),
    ("adn", _delete("es_units", 0, "node"), "es unit 0: missing key 'node'"),
    ("uc", _delete("generators", 0, "bus"), "generator 0: missing key 'bus'"),
    ("adn", _set("es_units", 0, 5), "es unit 0 must be an object, got 5"),
    ("uc", _set("generators", 1, "p0", 5.0),
     "generator 1: p0 must be 0 when u0 is 0, got 5.0"),
    ("uc", _set("angle_bound", 0.0), "angle_bound must be finite and > 0"),
    ("adn", _set("dt_hours", 10 ** 400), "dt_hours must be finite and > 0"),
    ("uc", _set("t_steps", 10 ** 400), "t_steps must be finite and >= 1"),
], ids=["adn_list", "uc_list", "adn_unknown", "uc_unknown", "adn_missing",
        "uc_missing", "es_unit_unknown", "generator_unknown",
        "es_unit_missing", "generator_missing", "es_unit_number",
        "uc_p0_off", "uc_zero_angle_bound", "adn_integer_beyond_floats",
        "uc_integer_beyond_floats"])
def test_malformed_config_rejected(desks, tmp_path, capsys, problem, edit,
                                   message):
    config = json.loads((desks / problem / "config.json").read_text())
    config = edit(config) or config
    rc, err = _project(desks, tmp_path, capsys, problem, config)
    assert rc == 1
    assert err.startswith(f"error: {message}"), err
