import copy
import json
import math
from pathlib import Path

import pytest

from lpgreeks import ConfigError
from lpgreeks.config import (
    ScenarioConfig,
    dumps_config,
    load_config,
    loads_config,
    scenario_from_dict,
)

SCHEMA = json.loads((Path(__file__).resolve().parents[1]
                     / "src" / "lpgreeks" / "schema" / "scenario.schema.json").read_text())

FULL = {
    "market": {"r_x": 0.05, "r_y": 0.02, "sigma": 0.7, "phi": 0.1},
    "position": {"v0": 10000, "s0": 1000, "t": 0.25, "T": 0.5, "locked": True},
    "spot": 1000,
    "ig": {"k": 1000, "T": 0.5},
    "mc": {"n_paths": 1000, "seed": 42, "antithetic": True, "workers": 2},
    "quadrature": {"target_tol": 1e-5},
}


def test_full_config_parses():
    scenario = scenario_from_dict(FULL)
    assert scenario.market.r_f == pytest.approx(0.03)
    assert scenario.position.locked is True
    assert scenario.spot == 1000.0
    assert scenario.ig.strike == 1000.0
    assert scenario.mc.seed == 42
    assert scenario.quad_tol == 1e-5


def test_rate_differential_form():
    data = dict(FULL, market={"r_f": 0.03, "sigma": 0.7, "phi": 0.1})
    scenario = scenario_from_dict(data)
    assert scenario.market.r_x == 0.03
    assert scenario.market.r_y == 0.0


def test_day_count_suffix():
    data = dict(FULL)
    data["position"] = {"v0": 10000, "s0": 1000, "t": 0, "T_days": 7, "locked": True}
    data["ig"] = {"k": 1000, "T_days": 7}
    scenario = scenario_from_dict(data)
    assert scenario.position.maturity == pytest.approx(7.0 / 365.0)
    assert scenario.ig.maturity == pytest.approx(7.0 / 365.0)


def test_optional_blocks_default_to_none():
    data = {"market": {"r_f": 0.0, "sigma": 0.2, "phi": 0.0},
            "position": {"v0": 1, "s0": 1}, "spot": 1}
    scenario = scenario_from_dict(data)
    assert scenario.ig is None and scenario.mc is None and scenario.quad_tol is None
    assert scenario.position.t == 0.0
    assert scenario.position.locked is False
    assert scenario.position.maturity == 0.0


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d["market"].update(r_f=0.01), "exactly one"),
    (lambda d: d["market"].pop("r_x"), "together"),
    (lambda d: d.update(market={"sigma": 0.7, "phi": 0.1}), "exactly one"),
    (lambda d: d["market"].update(sigma=-0.1), "sigma"),
    (lambda d: d["market"].update(phi=-0.1), "phi"),
    (lambda d: d["position"].update(v0=-5), "position.v0"),
    (lambda d: d["position"].update(t=0.9), "position.T"),
    (lambda d: d["position"].update(t_days=10), "not both"),
    (lambda d: d.update(spot=0), "spot"),
    (lambda d: d["ig"].update(k=0), "ig.k"),
    (lambda d: d["ig"].pop("k"), "ig.k"),
    (lambda d: d["mc"].update(n_paths=0), "n_paths"),
    (lambda d: d["mc"].update(seed=1.5), "seed"),
    (lambda d: d["mc"].update(antithetic="yes"), "antithetic"),
    (lambda d: d["quadrature"].update(target_tol=0.5), "target_tol"),
    (lambda d: d.update(extra=1), "unknown"),
    (lambda d: d["market"].update(mu=0.1), "unknown"),
])
def test_field_diagnostics(mutate, fragment):
    data = json.loads(json.dumps(FULL))
    mutate(data)
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(data)
    assert fragment in str(excinfo.value)


def test_invalid_json_reports_line():
    with pytest.raises(ConfigError) as excinfo:
        loads_config('{\n  "market": oops\n}')
    assert "line 2" in str(excinfo.value)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_round_trip_identity():
    scenario = scenario_from_dict(FULL)
    again = loads_config(dumps_config(scenario))
    assert again == scenario
    assert dumps_config(again) == dumps_config(scenario)


def test_round_trip_from_days_and_differential_forms():
    data = {
        "market": {"r_f": 0.03, "sigma": 0.7, "phi": 0.0},
        "position": {"v0": 10000, "s0": 1000, "T_days": 7, "locked": True},
        "spot": 1000,
        "ig": {"k": 1000, "T_days": 7},
    }
    scenario = scenario_from_dict(data)
    assert loads_config(dumps_config(scenario)) == scenario


def test_domain_objects_constructed():
    scenario = scenario_from_dict(FULL)
    state = scenario.lp_state()
    assert state.locked and state.tau == pytest.approx(0.25)
    contract = scenario.ig_contract()
    assert contract.notional_v0 == 10000.0
    assert contract.tau == pytest.approx(0.25)


def test_shipped_configs_parse_and_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).resolve().parents[1]
         / "src" / "lpgreeks" / "schema" / "scenario.schema.json").read_text())
    config_dir = Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(config_dir.glob("*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text())
        jsonschema.validate(data, schema)
        scenario = load_config(path)
        assert isinstance(scenario, ScenarioConfig)
        jsonschema.validate(scenario.to_dict(), schema)


def _fields(node=SCHEMA, path=""):
    """(path, schema node) of every non-object field in the schema."""
    for key, prop in node["properties"].items():
        field_path = f"{path}.{key}" if path else key
        if prop["type"] == "object":
            yield from _fields(prop, field_path)
        else:
            yield field_path, prop


def _with_field(path, value):
    """FULL with the field at path set to value, dropping any key it may not
    appear with (r_x/r_y for r_f, t for t_days, T for T_days)."""
    data = copy.deepcopy(FULL)
    *sections, key = path.split(".")
    target = data[sections[0]] if sections else data
    if key == "r_f":
        del target["r_x"], target["r_y"]
    elif key.endswith("_days"):
        target.pop(key.removesuffix("_days"), None)
    target[key] = value
    return data


# schema bound keyword -> (direction of the values past it, its symbol)
BOUND_KEYWORDS = {"minimum": (-math.inf, ">="), "exclusiveMinimum": (None, ">"),
                  "maximum": (math.inf, "<=")}
# (path, bound keyword, value just past the bound, the bound when it is inclusive)
BOUND_CASES = []
for _path, _prop in _fields():
    for _keyword, (_direction, _) in BOUND_KEYWORDS.items():
        if _keyword not in _prop:
            continue
        _bound = _prop[_keyword]
        if _direction is None:  # exclusive: the bound itself is past it
            _past, _inclusive = _bound, None
        elif _prop["type"] == "integer":
            _past, _inclusive = _bound + (1 if _direction > 0 else -1), _bound
        else:
            _past, _inclusive = math.nextafter(_bound, _direction), _bound
        BOUND_CASES.append(pytest.param(_path, _keyword, _past, _inclusive,
                                        id=f"{_path}-{_keyword}"))
NUMBER_FIELDS = [path for path, prop in _fields() if prop["type"] == "number"]


def test_every_bounded_field_has_a_case():
    assert len(BOUND_CASES) == 14
    assert {case.values[0] for case in BOUND_CASES} >= {
        "market.sigma", "position.v0", "spot", "ig.k", "mc.seed", "quadrature.target_tol"}


@pytest.mark.parametrize("path,keyword,past,inclusive", BOUND_CASES)
def test_schema_bounds_name_the_field(path, keyword, past, inclusive):
    prop = dict(_fields())[path]
    typed = float(past) if prop["type"] == "number" else past
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(_with_field(path, past))
    symbol = BOUND_KEYWORDS[keyword][1]
    assert str(excinfo.value) == f"{path}: must be {symbol} {prop[keyword]}, got {typed!r}"
    if inclusive is not None:
        scenario_from_dict(_with_field(path, inclusive))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", NUMBER_FIELDS)
def test_non_finite_literal_names_the_field(path, literal):
    text = json.dumps(_with_field(path, float(literal.replace("Infinity", "inf"))))
    assert literal in text
    with pytest.raises(ConfigError) as excinfo:
        loads_config(text)
    assert str(excinfo.value).startswith(f"{path}: must be a finite number")


@pytest.mark.parametrize("path", [path for path, _ in _fields()])
def test_type_errors_name_the_field(path):
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(_with_field(path, "x"))
    assert str(excinfo.value).startswith(f"{path}: expected ")
