"""Cross-checking suite behind the verify command.

Each check pits a closed form against an independent route: Monte Carlo for
the terminal moments and the discounted payoffs, central finite differences
for every greek, and the option strip for the gain premium. Every check is one
row of one table and passes through one rule, _check. A Monte Carlo row
reports the signed z = diff / std_error and passes on |z| <= 3; with no
sampling noise it must match to 1e-9 * max(|closed|, 1). A deterministic row
reports z = |diff| / (tol * max(|closed|, 1e-12)) and passes on z <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .config import ScenarioConfig
from .errors import ConfigError
from .greeks import (GREEK_LABELS, GreeksReport, _g17, greeks_ig, greeks_locked_lp,
                     greeks_unlocked_lp)
from .mc import GREEK_NAMES, McScenario, fd_greek, mc_price
from .pricing import expected_sqrt_price, forward_price, price_ig, price_locked_lp
from .replication import DEFAULT_TARGET_TOL, build_strike_grid, price_ig_via_strip, vanilla_price

MC_Z_LIMIT = 3.0
FD_TOL_FIRST_ORDER = 1e-6
FD_TOL_SECOND_ORDER = 1e-5
STRIP_REL_TOL = 1e-2
_SECOND_ORDER = ("gamma", "gamma_pct")  # report fields held to FD_TOL_SECOND_ORDER

# (sigma, r_f, tau) triples spanning the supported vol/rate/time box while
# keeping the sampling noise non-degenerate.
MOMENT_SETS = (
    (0.2, 0.00, 0.50),
    (0.7, 0.03, 0.25),
    (1.5, 0.10, 2.00),
    (0.5, -0.05, 1.00),
    (1.0, 0.05, 0.10),
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification row."""

    name: str
    closed_form: float
    estimate: float
    std_error: float
    z_score: float
    passed: bool


def _check(name: str, closed: float, estimate: float, std_error: float,
           rel_tol: float | None) -> CheckResult:
    """One row's outcome; rel_tol None marks a Monte Carlo row."""
    diff = estimate - closed
    if rel_tol is not None:
        z = abs(diff) / (rel_tol * max(abs(closed), 1e-12))
        return CheckResult(name, closed, estimate, std_error, z, z <= 1.0)
    if std_error > 0.0:
        z = diff / std_error
    elif abs(diff) <= 1e-9 * max(abs(closed), 1.0):
        z = 0.0  # degenerate sampling noise: require near-exact agreement
    else:
        z = math.inf if diff > 0 else -math.inf
    return CheckResult(name, closed, estimate, std_error, z, abs(z) <= MC_Z_LIMIT)


def run_verification(scenario: ScenarioConfig) -> list[CheckResult]:
    """Run every check for a scenario; needs a locked position, an ig block and
    an mc block of at least 2 paths."""
    if scenario.mc is None:
        raise ConfigError("mc: block is required for verification")
    if scenario.mc.n_paths < 2:
        raise ConfigError(f"mc.n_paths: a standard error needs 2 paths, got {scenario.mc.n_paths}")

    market = scenario.market
    state = scenario.locked_state("verify")
    contract = scenario.ig_contract()
    lp_scn = McScenario(market=market, s_t=scenario.spot, tau=state.tau,
                        v0=state.position.notional_v0,
                        entry_price=state.position.entry_price_s0, horizon=state.maturity_T)
    ig_scn = McScenario(market=market, s_t=scenario.spot, tau=contract.tau,
                        v0=contract.notional_v0, strike=contract.strike_k,
                        horizon=contract.maturity_T)
    ig_closed = price_ig(contract, scenario.spot, market)

    # Monte Carlo jobs as (name, closed form, payoff, scenario): the
    # terminal-moment identities on the fixed parameter box, then the
    # discounted payoffs of the scenario itself. One mc_price call prices them
    # all from one pass over the stream.
    jobs = []
    for sigma, r_f, tau in MOMENT_SETS:
        set_market = replace(market, r_x=r_f, r_y=0.0, sigma=sigma)
        moment_scn = McScenario(market=set_market, s_t=scenario.spot, tau=tau)
        label = f"sigma={sigma:g},r_f={r_f:g},tau={tau:g}"
        jobs.append((f"moment/sqrt[{label}]",
                     expected_sqrt_price(scenario.spot, set_market, tau), "sqrt_moment",
                     moment_scn))
        jobs.append((f"moment/forward[{label}]",
                     forward_price(scenario.spot, set_market, tau), "forward", moment_scn))
    jobs.append(("price/locked_lp", price_locked_lp(state), "locked_lp", lp_scn))
    jobs.append(("price/ig", ig_closed, "ig", ig_scn))
    for kind in ("call", "put"):
        quote = vanilla_price(contract.strike_k, scenario.spot, market, contract.tau, kind)
        jobs.append((f"price/vanilla_{kind}", quote.premium, f"vanilla_{kind}", ig_scn))
    names, closed_forms, payoffs, scenarios = zip(*jobs)

    # The row table: (name, closed form, estimate, standard error, relative
    # tolerance), the tolerance None on a Monte Carlo row.
    rows = [(name, closed, est.mean, est.std_error, None) for name, closed, est
            in zip(names, closed_forms, mc_price(payoffs, scenarios, scenario.mc))]

    # Each report field of each closed-form greek against the same field of the
    # report built from central differences of the shipped premium.
    for pricer, closed, scn in (
            ("unlocked_lp", greeks_unlocked_lp(replace(state, locked=False)), lp_scn),
            ("locked_lp", greeks_locked_lp(state), lp_scn),
            ("ig", greeks_ig(contract, scenario.spot, market), ig_scn)):
        fd = GreeksReport.at_spot(scn.s_t, **{
            name: fd_greek(pricer, scn, name) for name in GREEK_NAMES})
        rows.extend((f"fd/{pricer}/{field}", closed_value, fd_value, 0.0,
                     FD_TOL_SECOND_ORDER if field in _SECOND_ORDER else FD_TOL_FIRST_ORDER)
                    for field, closed_value, fd_value in zip(GREEK_LABELS, closed, fd))

    # Strip route for the gain premium.
    grid = build_strike_grid(contract.strike_k, market.sigma, contract.tau,
                             target_tol=scenario.quad_tol or DEFAULT_TARGET_TOL)
    strip = price_ig_via_strip(contract, scenario.spot, market, grid)
    rows.append(("strip/ig", ig_closed, strip, 0.0, STRIP_REL_TOL))
    return [_check(*row) for row in rows]


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = ["check_name,closed_form,mc_mean,std_error,z_score,pass"]
    for row in results:
        lines.append(",".join((
            row.name,
            _g17(row.closed_form),
            _g17(row.estimate),
            _g17(row.std_error),
            _g17(row.z_score),
            "true" if row.passed else "false",
        )))
    return lines


def write_report(results: list[CheckResult], path) -> None:
    Path(path).write_text("\n".join(report_lines(results)) + "\n")
