"""Scenario files: JSON layout, strict validation, canonical serialization.

A scenario file is a single JSON object with sections market, position, spot and
the optional ig, mc and quadrature blocks. Rates, vols and fee yields are
decimals per year; times are year fractions, or days via a *_days key (divided
by 365). The shipped JSON Schema (schema/scenario.schema.json) is the layout:
each section's fields, types, required keys and per-field bounds are read from
it, and every error names the field's path. The cross-field rules are in code,
and loading re-validates every domain constraint of the underlying types.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigError, DomainError
from .mc import McConfig
from .pool import pool_from_deposit
from .pricing import IgContract, LpState, MarketParams

DAYS_PER_YEAR = 365.0

# JSON type -> Python types it admits; a bool is a JSON boolean, never a number
_PY_TYPES = {"number": (int, float), "integer": int, "boolean": bool}
# schema bound keyword -> (test the value must pass against the bound, its symbol)
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "maximum": (operator.le, "<=")}


# the position and ig blocks, each field named after its canonical file key for to_dict's asdict
@dataclass(frozen=True)
class PositionConfig:
    v0: float
    s0: float
    t: float
    T: float
    locked: bool


@dataclass(frozen=True)
class IgTerms:
    k: float
    T: float


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully validated pricing scenario."""

    market: MarketParams
    position: PositionConfig
    spot: float
    ig: Optional[IgTerms] = None
    mc: Optional[McConfig] = None
    quad_tol: Optional[float] = None

    def lp_state(self) -> LpState:
        return LpState(
            position=pool_from_deposit(self.position.v0, self.position.s0),
            market=self.market,
            s_t=self.spot,
            t=self.position.t,
            maturity_T=self.position.T,
            locked=self.position.locked,
        )

    def ig_contract(self) -> IgContract:
        if self.ig is None:
            raise ConfigError("ig: block is required for this command")
        return IgContract(
            notional_v0=self.position.v0,
            strike_k=self.ig.k,
            maturity_T=self.ig.T,
            t=self.position.t,
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical form: rates as the (r_x, r_y) pair, all times in years."""
        out: dict[str, Any] = {"market": asdict(self.market), "position": asdict(self.position),
                               "spot": self.spot}
        if self.ig is not None:
            out["ig"] = asdict(self.ig)
        if self.mc is not None:
            out["mc"] = asdict(self.mc)
        if self.quad_tol is not None:
            out["quadrature"] = {"target_tol": self.quad_tol}
        return out


@functools.cache
def _schema() -> dict[str, Any]:
    """The shipped scenario schema, read once, on first use."""
    return json.loads((Path(__file__).parent / "schema" / "scenario.schema.json").read_text())


def _section(value: Any, node: dict, path: str = "") -> dict[str, Any]:
    """Check a section against its schema node and return its values as typed:
    numbers as floats, nested sections checked in turn. path is "" at the root."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'scenario'}: expected an object, "
                          f"got {type(value).__name__}")
    fields = node["properties"]
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise ConfigError(f"{path or 'scenario'}: unknown field(s) {', '.join(unknown)}")
    for key in node["required"]:
        if key not in value:
            raise ConfigError(f"{key}: required section is missing" if not path
                              else f"{path}.{key}: required field is missing")
    return {key: (_section if fields[key]["type"] == "object" else _typed)(
                item, fields[key], f"{path}.{key}" if path else key)
            for key, item in value.items()}


def _typed(value: Any, field: dict, path: str) -> Any:
    kind = field["type"]
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _PY_TYPES[kind]):
        raise ConfigError(f"{path}: expected {'an' if kind == 'integer' else 'a'} {kind}, "
                          f"got {value!r}")
    if kind == "number":
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer is too large for a float") from None
        if not math.isfinite(value):  # json.loads accepts NaN and Infinity literals
            raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    for keyword, (holds, symbol) in _BOUNDS.items():
        if keyword in field and not holds(value, field[keyword]):
            raise ConfigError(f"{path}: must be {symbol} {field[keyword]}, got {value!r}")
    return value


def _years(fields: dict, key: str, path: str,
           default: Optional[float] = None) -> tuple[float, str]:
    """A year-fraction field, or its <key>_days variant divided by DAYS_PER_YEAR,
    with the path of the key it was read from."""
    days_key = f"{key}_days"
    if key in fields and days_key in fields:
        raise ConfigError(f"{path}: give {key} or {days_key}, not both")
    if days_key in fields:
        return fields[days_key] / DAYS_PER_YEAR, f"{path}.{days_key}"
    if key not in fields and default is None:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return fields.get(key, default), f"{path}.{key}"


def _maturity(fields: dict, path: str, start: tuple[float, str],
              default: Optional[float] = None) -> float:
    """A block's T or T_days in years; start is the position's t and its path."""
    maturity, maturity_path = _years(fields, "T", path, default)
    if maturity < start[0]:
        raise ConfigError(f"{maturity_path}: must be >= {start[1]}")
    return maturity


def _parse_market(market: dict) -> MarketParams:
    has_pair = "r_x" in market or "r_y" in market
    if has_pair == ("r_f" in market):
        raise ConfigError("market: give exactly one of (r_x, r_y) or r_f")
    if has_pair and not ("r_x" in market and "r_y" in market):
        raise ConfigError("market: r_x and r_y must be given together")
    if has_pair:
        return MarketParams(**market)
    return MarketParams.from_rate_differential(**market)


def scenario_from_dict(data: Any) -> ScenarioConfig:
    """The validated scenario of a parsed file. The schema bounds reject every
    value the market and mc types reject, so a DomainError from the types is
    a cross-field one, such as the pool invariant of v0 and s0."""
    root = _section(data, _schema())
    try:
        market = _parse_market(root["market"])
        position = root["position"]
        start = _years(position, "t", "position", default=0.0)
        scenario = ScenarioConfig(
            market=market,
            position=PositionConfig(v0=position["v0"], s0=position["s0"], t=start[0],
                                    T=_maturity(position, "position", start, start[0]),
                                    locked=position.get("locked", False)),
            spot=root["spot"],
            ig=IgTerms(k=root["ig"]["k"], T=_maturity(root["ig"], "ig", start))
            if "ig" in root else None,
            mc=McConfig(**root["mc"]) if "mc" in root else None,
            quad_tol=root["quadrature"]["target_tol"] if "quadrature" in root else None,
        )
        scenario.lp_state()
        if scenario.ig is not None:
            scenario.ig_contract()
    except DomainError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    return scenario


def loads_config(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's int-string digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data)


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return loads_config(text)


def dumps_config(scenario: ScenarioConfig) -> str:
    return json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n"

