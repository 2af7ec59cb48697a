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

from . import __version__
from .config import DAYS_PER_YEAR, ScenarioConfig, load_config
from .errors import ConfigError, DomainError, HedgeMismatchError
from .greeks import (
    GREEK_LABELS,
    GreeksReport,
    greeks_ig,
    greeks_locked_lp,
    greeks_table,
    greeks_unlocked_lp,
    hedge_report,
)
from .payoff import _evenly_spaced, il_curve
from .pricing import decay_factors, price_ig, price_locked_lp, price_unlocked_lp
from .verify import _g17, run_verification, write_report

_FIGURE_POINTS = 201


def _locked_state(scenario: ScenarioConfig, user: str):
    if not scenario.position.locked:
        raise ConfigError(f"{user} needs a locked position: position.locked is false")
    return scenario.lp_state()


# every command's --config PATH, passed on as the parsed scenario; the callback looks
# load_config up at call time, so a wrapper installed over it (a tracer) still sees each load
_config_option = click.option("--config", "scenario", required=True,
                              callback=lambda ctx, param, path: load_config(path),
                              type=click.Path(exists=True, dir_okay=False),
                              help="Scenario JSON file.")


def _write_json(out_path: Optional[str], record: dict) -> None:
    if out_path:
        Path(out_path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


# strategy -> (price, greeks, tau of the decay factors its price uses), each read off a
# scenario at its spot; unlocked-lp values the position as redeemable (tau 0), even if locked
STRATEGIES: dict[str, tuple[Callable, Callable, Callable]] = {
    "unlocked-lp": (lambda s: price_unlocked_lp(replace(s.lp_state(), locked=False)),
                    lambda s: greeks_unlocked_lp(replace(s.lp_state(), locked=False)),
                    lambda s: 0.0),
    "locked-lp": (lambda s: price_locked_lp(_locked_state(s, "--strategy locked-lp")),
                  lambda s: greeks_locked_lp(_locked_state(s, "--strategy locked-lp")),
                  lambda s: s.lp_state().tau),
    "ig": (lambda s: price_ig(s.ig_contract(), s.spot, s.market),
           lambda s: greeks_ig(s.ig_contract(), s.spot, s.market),
           lambda s: s.ig_contract().tau),
}

# greek -> (record key, text label, divisor) of its display scaling
_DISPLAY_SCALES = {
    "vega": ("vega_per_vol_point", "per 1% vol", 100.0),
    "theta": ("theta_daily", "per day", DAYS_PER_YEAR),
    "rho": ("rho_per_rate_point", "per 1% rate", 100.0),
}


class _Cli(click.Group):
    """The command group; it maps every subcommand's errors to exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
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


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def cli() -> None:
    """Analytics for constant-product AMM liquidity positions and the
    Impermanent Gain contract."""


@cli.command("price")
@_config_option
@click.option("--strategy", required=True, type=click.Choice(tuple(STRATEGIES)))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the machine-readable record to this path.")
def cmd_price(scenario: ScenarioConfig, strategy: str, out_path: Optional[str]) -> None:
    """Price one strategy, echoing the decay factors and all inputs."""
    price, _, tau = STRATEGIES[strategy]
    value = price(scenario)
    d = decay_factors(scenario.market, tau(scenario))
    record = {"strategy": strategy, "price": value, "beta": d.beta,
              "gamma_disc": d.gamma_disc, "inputs": scenario.to_dict()}
    click.echo(f"strategy:   {strategy}")
    click.echo(f"price:      {_g17(value)}")
    click.echo(f"beta:       {_g17(d.beta)}")
    click.echo(f"gamma_disc: {_g17(d.gamma_disc)}")
    click.echo("inputs:     " + json.dumps(record["inputs"], sort_keys=True))
    _write_json(out_path, record)


def _greeks_record(report: GreeksReport) -> dict:
    record = report._asdict()
    for name, (key, _, divisor) in _DISPLAY_SCALES.items():
        record[key] = record[name] / divisor
    return record


@cli.command("greeks")
@_config_option
@click.option("--strategy", required=True, type=click.Choice(tuple(STRATEGIES)))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_greeks(scenario: ScenarioConfig, strategy: str, out_path: Optional[str]) -> None:
    """Print the seven greeks, raw and display-scaled."""
    _, greeks_of, _ = STRATEGIES[strategy]
    greeks = _greeks_record(greeks_of(scenario))
    click.echo(f"strategy: {strategy}")
    for name, label in GREEK_LABELS.items():
        line = f"{label:<10} {_g17(greeks[name])}"
        if name in _DISPLAY_SCALES:
            key, text, _ = _DISPLAY_SCALES[name]
            line += f"   ({text}: {_g17(greeks[key])})"
        click.echo(line)
    _write_json(out_path, {"strategy": strategy, "greeks": greeks, "inputs": scenario.to_dict()})


@cli.command("table")
@_config_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the table as CSV to this path.")
def cmd_table(scenario: ScenarioConfig, out_path: Optional[str]) -> None:
    """Side-by-side greeks of the unlocked LP, locked LP and gain contract."""
    table = greeks_table(_locked_state(scenario, "table"), scenario.ig_contract(), scenario.spot)
    click.echo(table.as_text())
    if out_path:
        Path(out_path).write_text(table.as_csv())


@cli.command("hedge")
@_config_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_hedge(scenario: ScenarioConfig, out_path: Optional[str]) -> None:
    """Greeks of the locked position hedged with the gain contract."""
    hedged = hedge_report(scenario.lp_state(), scenario.ig_contract(),
                          scenario.market, scenario.spot)
    click.echo(f"{'greek':<10}{'locked_lp':>22}{'ig':>22}{'sum':>22}")
    for name, lp, ig, total in zip(GREEK_LABELS, hedged.lp, hedged.ig, hedged.total):
        click.echo(f"{name:<10}{lp:>22.12g}{ig:>22.12g}{total:>22.12g}")
    click.echo(f"predicted delta sum: {_g17(hedged.delta_pred)}")
    click.echo(f"predicted theta sum: {_g17(hedged.theta_pred)}")
    click.echo(f"predicted rho sum:   {_g17(hedged.rho_pred)}")
    legs = {leg: _greeks_record(getattr(hedged, leg)) for leg in ("lp", "ig", "total")}
    _write_json(out_path, {**legs, "delta_pred": hedged.delta_pred, "theta_pred": hedged.theta_pred,
                           "rho_pred": hedged.rho_pred, "inputs": scenario.to_dict()})


def _spot_figure(scenario: ScenarioConfig, prefix: str, field: Optional[str]):
    """Price (field None) or one greek of the config's LP position (prefix lp)
    or gain contract (prefix ig) over spots from 0.1 to 4 times its reference
    price: the entry price or the strike."""
    if prefix == "lp":
        strategy = "locked-lp" if scenario.position.locked else "unlocked-lp"
        ref = scenario.position.s0
    else:
        strategy, ref = "ig", scenario.ig_contract().strike_k
    price, greeks, _ = STRATEGIES[strategy]
    points = []
    for x in _evenly_spaced(0.1 * ref, 4.0 * ref, _FIGURE_POINTS):
        at_spot = replace(scenario, spot=x)
        points.append((x, price(at_spot) if field is None else getattr(greeks(at_spot), field)))
    return "s_t", points


# figure id -> builder of (abscissa label, [(x, value)]) from a scenario
FIGURES: dict[str, Callable] = {
    "il-curve": lambda scenario: ("r", il_curve(-1.0, 3.0, _FIGURE_POINTS)),
}
for _field in (None, *GREEK_LABELS):
    for _prefix in ("lp", "ig"):
        _name = "price" if _field is None else _field.replace("_", "-")
        FIGURES[f"{_prefix}-{_name}"] = functools.partial(_spot_figure, prefix=_prefix,
                                                          field=_field)


@cli.command("figure")
@_config_option
@click.option("--figure", "figure_id", required=True,
              type=click.Choice(sorted(FIGURES)))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_figure(scenario: ScenarioConfig, figure_id: str, out_path: str) -> None:
    """Write one figure as a two-column CSV (abscissa, closed-form value)."""
    x_label, points = FIGURES[figure_id](scenario)
    lines = [f"{x_label},value"] + [f"{_g17(x)},{_g17(y)}" for x, y in points]
    Path(out_path).write_text("\n".join(lines) + "\n")
    click.echo(f"wrote {figure_id} ({len(points)} points) to {out_path}")


@cli.command("verify")
@_config_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the report CSV to this path.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Override mc.seed.")
@click.option("--paths", type=click.IntRange(min=2), default=None, help="Override mc.n_paths.")
def cmd_verify(scenario: ScenarioConfig, out_path: Optional[str],
               seed: Optional[int], paths: Optional[int]) -> None:
    """Run the full oracle suite; exit 1 if any check fails."""
    overrides = {key: value for key, value in (("seed", seed), ("n_paths", paths))
                 if value is not None}
    if scenario.mc is not None and overrides:
        scenario = replace(scenario, mc=replace(scenario.mc, **overrides))
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
