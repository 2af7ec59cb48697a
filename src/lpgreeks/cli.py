"""Command-line surface: pricing, greeks, hedge aggregation, figure CSVs and
the verification suite.

Exit codes: 0 success, 1 verification failure, 2 config or usage error,
3 domain error (an input outside a formula's domain, an overflow, or a
non-finite result).
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

import click
import numpy as np

from .config import DAYS_PER_YEAR, ScenarioConfig, load_config
from .errors import ConfigError, DomainError, HedgeMismatchError
from .greeks import (
    GreeksReport,
    greeks_ig,
    greeks_locked_lp,
    greeks_table,
    greeks_unlocked_lp,
    hedge_report,
)
from .payoff import impermanent_loss
from .pricing import decay_factors, price_ig, price_locked_lp, price_unlocked_lp
from .verify import _g17, run_verification, write_report

_FIGURE_POINTS = 201

STRATEGIES = ("unlocked-lp", "locked-lp", "ig")


def _map_errors(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except HedgeMismatchError as exc:
            click.echo(f"hedge precondition violated: {exc}", err=True)
            sys.exit(2)
        except (DomainError, OverflowError) as exc:
            click.echo(f"domain error: {exc}", err=True)
            sys.exit(3)
        except ArithmeticError as exc:
            click.echo(f"internal consistency failure: {exc}", err=True)
            sys.exit(1)
    return wrapper


@click.group()
@click.version_option(package_name="lpgreeks")
def cli() -> None:
    """Analytics for constant-product AMM liquidity positions and the
    Impermanent Gain contract."""


def _strategy_tau(scenario: ScenarioConfig, strategy: str) -> float:
    if strategy == "ig":
        return scenario.ig_contract().tau
    return scenario.lp_state().tau


def _price_record(scenario: ScenarioConfig, strategy: str) -> dict:
    if strategy == "unlocked-lp":
        price = price_unlocked_lp(scenario.lp_state())
    elif strategy == "locked-lp":
        price = price_locked_lp(scenario.lp_state())
    else:
        price = price_ig(scenario.ig_contract(), scenario.spot, scenario.market)
    d = decay_factors(scenario.market, _strategy_tau(scenario, strategy))
    return {
        "strategy": strategy,
        "price": price,
        "beta": d.beta,
        "gamma_disc": d.gamma_disc,
        "inputs": scenario.to_dict(),
    }


@cli.command("price")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Scenario JSON file.")
@click.option("--strategy", required=True, type=click.Choice(STRATEGIES))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the machine-readable record to this path.")
@_map_errors
def cmd_price(config_path: str, strategy: str, out_path: Optional[str]) -> None:
    """Price one strategy, echoing the decay factors and all inputs."""
    scenario = load_config(config_path)
    record = _price_record(scenario, strategy)
    click.echo(f"strategy:   {record['strategy']}")
    click.echo(f"price:      {_g17(record['price'])}")
    click.echo(f"beta:       {_g17(record['beta'])}")
    click.echo(f"gamma_disc: {_g17(record['gamma_disc'])}")
    click.echo("inputs:     " + json.dumps(record["inputs"], sort_keys=True))
    if out_path:
        Path(out_path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _greeks_for(scenario: ScenarioConfig, strategy: str) -> GreeksReport:
    if strategy == "unlocked-lp":
        return greeks_unlocked_lp(scenario.lp_state())
    if strategy == "locked-lp":
        return greeks_locked_lp(scenario.lp_state())
    return greeks_ig(scenario.ig_contract(), scenario.spot, scenario.market)


def _greeks_record(report: GreeksReport) -> dict:
    return {
        "delta": report.delta,
        "delta_pct": report.delta_pct,
        "gamma": report.gamma,
        "gamma_pct": report.gamma_pct,
        "vega": report.vega,
        "vega_per_vol_point": report.vega / 100.0,
        "theta": report.theta,
        "theta_daily": report.theta / DAYS_PER_YEAR,
        "rho": report.rho,
        "rho_per_rate_point": report.rho / 100.0,
    }


@cli.command("greeks")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--strategy", required=True, type=click.Choice(STRATEGIES))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_map_errors
def cmd_greeks(config_path: str, strategy: str, out_path: Optional[str]) -> None:
    """Print the seven greeks, raw and display-scaled."""
    scenario = load_config(config_path)
    report = _greeks_for(scenario, strategy)
    rows = (
        ("Delta", report.delta, ""),
        ("Delta 1%", report.delta_pct, ""),
        ("Gamma", report.gamma, ""),
        ("Gamma 1%", report.gamma_pct, ""),
        ("Vega", report.vega, f"per 1% vol: {_g17(report.vega / 100.0)}"),
        ("Theta", report.theta, f"per day: {_g17(report.theta / DAYS_PER_YEAR)}"),
        ("Rho", report.rho, f"per 1% rate: {_g17(report.rho / 100.0)}"),
    )
    click.echo(f"strategy: {strategy}")
    for label, value, scaled in rows:
        suffix = f"   ({scaled})" if scaled else ""
        click.echo(f"{label:<10} {_g17(value)}{suffix}")
    if out_path:
        record = {"strategy": strategy, "greeks": _greeks_record(report),
                  "inputs": scenario.to_dict()}
        Path(out_path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


@cli.command("table")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the table as CSV to this path.")
@_map_errors
def cmd_table(config_path: str, out_path: Optional[str]) -> None:
    """Side-by-side greeks of the unlocked LP, locked LP and gain contract."""
    scenario = load_config(config_path)
    locked_state = scenario.lp_state()
    if not locked_state.locked:
        raise DomainError("the comparison table needs a locked position in the config")
    table = greeks_table(
        replace(locked_state, locked=False),
        locked_state,
        scenario.ig_contract(),
        scenario.market,
        scenario.spot,
    )
    click.echo(table.as_text())
    if out_path:
        Path(out_path).write_text(table.as_csv())


@cli.command("hedge")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_map_errors
def cmd_hedge(config_path: str, out_path: Optional[str]) -> None:
    """Greeks of the locked position hedged with the gain contract."""
    scenario = load_config(config_path)
    hedged = hedge_report(scenario.lp_state(), scenario.ig_contract(),
                          scenario.market, scenario.spot)
    click.echo(f"{'greek':<10}{'locked_lp':>22}{'ig':>22}{'sum':>22}")
    for name in ("delta", "delta_pct", "gamma", "gamma_pct", "vega", "theta", "rho"):
        click.echo(f"{name:<10}{getattr(hedged.lp, name):>22.12g}"
                   f"{getattr(hedged.ig, name):>22.12g}"
                   f"{getattr(hedged.total, name):>22.12g}")
    click.echo(f"predicted delta sum: {_g17(hedged.delta_pred)}")
    click.echo(f"predicted theta sum: {_g17(hedged.theta_pred)}")
    click.echo(f"predicted rho sum:   {_g17(hedged.rho_pred)}")
    if out_path:
        record = {
            "lp": _greeks_record(hedged.lp),
            "ig": _greeks_record(hedged.ig),
            "total": _greeks_record(hedged.total),
            "delta_pred": hedged.delta_pred,
            "theta_pred": hedged.theta_pred,
            "rho_pred": hedged.rho_pred,
            "inputs": scenario.to_dict(),
        }
        Path(out_path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _lp_figure(scenario: ScenarioConfig, field: Optional[str]):
    state = scenario.lp_state()
    s0 = scenario.position.s0
    xs = np.linspace(0.1 * s0, 4.0 * s0, _FIGURE_POINTS)
    price_fn = price_locked_lp if state.locked else price_unlocked_lp
    greeks_fn = greeks_locked_lp if state.locked else greeks_unlocked_lp

    def value_at(s: float) -> float:
        at_spot = replace(state, s_t=float(s))
        if field is None:
            return price_fn(at_spot)
        return getattr(greeks_fn(at_spot), field)

    return "s_t", xs, value_at


def _ig_figure(scenario: ScenarioConfig, field: Optional[str]):
    contract = scenario.ig_contract()
    strike = contract.strike_k
    xs = np.linspace(0.1 * strike, 4.0 * strike, _FIGURE_POINTS)

    def value_at(s: float) -> float:
        if field is None:
            return price_ig(contract, float(s), scenario.market)
        return getattr(greeks_ig(contract, float(s), scenario.market), field)

    return "s_t", xs, value_at


def _il_figure(scenario: ScenarioConfig, field: Optional[str]):
    xs = np.linspace(-1.0, 3.0, _FIGURE_POINTS)
    return "r", xs, lambda r: impermanent_loss(float(r))


_GREEK_FIELDS = {
    "delta": "delta", "delta-pct": "delta_pct",
    "gamma": "gamma", "gamma-pct": "gamma_pct",
    "vega": "vega", "theta": "theta", "rho": "rho",
}

FIGURES: dict[str, tuple[Callable, Optional[str]]] = {"il-curve": (_il_figure, None)}
for _name, _field in [("price", None)] + list(_GREEK_FIELDS.items()):
    FIGURES[f"lp-{_name}"] = (_lp_figure, _field)
    FIGURES[f"ig-{_name}"] = (_ig_figure, _field)


@cli.command("figure")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--figure", "figure_id", required=True,
              type=click.Choice(sorted(FIGURES)))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_map_errors
def cmd_figure(config_path: str, figure_id: str, out_path: str) -> None:
    """Write one figure as a two-column CSV (abscissa, closed-form value)."""
    scenario = load_config(config_path)
    builder, field = FIGURES[figure_id]
    x_label, xs, value_at = builder(scenario, field)
    lines = [f"{x_label},value"]
    for x in xs:
        lines.append(f"{_g17(float(x))},{_g17(value_at(float(x)))}")
    Path(out_path).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {figure_id} ({len(xs)} points) to {out_path}")


@cli.command("verify")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the report CSV to this path.")
@click.option("--seed", type=int, default=None, help="Override mc.seed.")
@click.option("--paths", type=int, default=None, help="Override mc.n_paths.")
@_map_errors
def cmd_verify(config_path: str, out_path: Optional[str],
               seed: Optional[int], paths: Optional[int]) -> None:
    """Run the full oracle suite; exit 1 if any check fails."""
    scenario = load_config(config_path)
    if scenario.mc is not None and (seed is not None or paths is not None):
        mc = scenario.mc
        if seed is not None:
            mc = replace(mc, seed=seed)
        if paths is not None:
            mc = replace(mc, n_paths=paths)
        scenario = replace(scenario, mc=mc)
    results = run_verification(scenario)
    for row in results:
        status = "PASS" if row.passed else "FAIL"
        click.echo(f"{status} {row.name}: closed={_g17(row.closed_form)} "
                   f"est={_g17(row.estimate)} z={row.z_score:.3g}")
    n_passed = sum(row.passed for row in results)
    click.echo(f"{n_passed}/{len(results)} checks passed")
    if out_path:
        write_report(results, out_path)
    if n_passed != len(results):
        sys.exit(1)


def main() -> None:
    cli(prog_name="lpgreeks")


if __name__ == "__main__":
    main()
