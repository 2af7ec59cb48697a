"""Acceptance suite: one test per release criterion, each printing a pass/fail
line with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lpgreeks import (
    IgContract,
    LpState,
    MarketParams,
    McConfig,
    McScenario,
    StrikeGrid,
    build_strike_grid,
    expected_sqrt_price,
    fd_greek,
    forward_price,
    greeks_ig,
    greeks_locked_lp,
    greeks_unlocked_lp,
    hedge_report,
    impermanent_gain,
    impermanent_loss,
    mc_price,
    pool_from_deposit,
    price_ig,
    price_ig_via_strip,
    price_locked_lp,
    replicate_il_payoff,
)
from lpgreeks.cli import cli
from lpgreeks.verify import MOMENT_SETS

REPO = Path(__file__).resolve().parents[1]
POOL = pool_from_deposit(10000.0, 1000.0)
WEEK_TAU = 7.0 / 365.0

# Spot values derived from the closed forms and confirmed against the Monte
# Carlo oracle before freezing.
LOCKED_HALF_YEAR_PRICE = 10307.444431899487706
IG_WEEK_PRICE = 11.736715913895504446


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s)")
        if not failed:
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")


def test_criterion_1_exact_payoff_identities():
    with criterion(1, "exact payoff identities", 1.0):
        assert impermanent_loss(0.0) == 0.0
        assert abs(impermanent_loss(3.0) - (-0.5)) <= 1e-15
        assert abs(impermanent_loss(-0.75) - (-0.125)) <= 1e-15
        for r in np.linspace(-1.0, 3.0, 21):
            assert abs(impermanent_gain(float(r)) + impermanent_loss(float(r))) <= 1e-15


def test_criterion_2_hedge_identities():
    with criterion(2, "hedge identities and invariance sweep", 1.0):
        v0, strike = 10000.0, 1000.0
        tau, horizon, phi, r_f = 1.0, 1.0, 0.10, 0.03
        gamma_disc = math.exp(-r_f * tau)
        theta_expected = v0 * r_f * (0.5 + phi * horizon) * gamma_disc
        rho_expected = -v0 * tau * (0.5 + phi * horizon) * gamma_disc

        collected = []
        for s_t in (200.0, 1000.0, 5000.0):
            for sigma in (0.2, 0.7, 1.4):
                market = MarketParams.from_rate_differential(r_f, sigma, phi)
                lp = LpState(POOL, market, s_t=1000.0, t=0.0,
                             maturity_T=horizon, locked=True)
                ig = IgContract(notional_v0=v0, strike_k=strike,
                                maturity_T=horizon, t=0.0)
                hedged = hedge_report(lp, ig, market, s_t)
                assert abs(hedged.total.delta - 5.0) <= 1e-10 * 5.0
                scale_gamma = max(abs(hedged.lp.gamma), abs(hedged.ig.gamma))
                scale_vega = max(abs(hedged.lp.vega), abs(hedged.ig.vega))
                assert abs(hedged.total.gamma) <= 1e-10 * scale_gamma
                assert abs(hedged.total.vega) <= 1e-10 * max(scale_vega, 1e-12)
                assert abs(hedged.total.theta - theta_expected) <= 1e-10 * abs(theta_expected)
                assert abs(hedged.total.rho - rho_expected) <= 1e-10 * abs(rho_expected)
                collected.append((hedged.total.delta, hedged.total.theta, hedged.total.rho))
        first = collected[0]
        for sums in collected[1:]:
            for got, want in zip(sums, first):
                assert abs(got - want) <= 1e-10 * abs(want)


def test_criterion_3_moment_verification():
    with criterion(3, "terminal moments vs Monte Carlo", 30.0):
        cfg = McConfig(n_paths=10**6, seed=42)
        for sigma, r_f, tau in MOMENT_SETS:
            market = MarketParams.from_rate_differential(r_f, sigma, 0.0)
            scn = McScenario(market=market, s_t=1000.0, tau=tau)
            est = mc_price("sqrt_moment", scn, cfg)
            closed = expected_sqrt_price(1000.0, market, tau)
            assert abs(est.mean - closed) <= 3.0 * est.std_error, (sigma, r_f, tau)
            est = mc_price("forward", scn, cfg)
            closed = forward_price(1000.0, market, tau)
            assert abs(est.mean - closed) <= 3.0 * est.std_error, (sigma, r_f, tau)


def test_criterion_4_price_verification():
    with criterion(4, "discounted payoffs vs Monte Carlo", 30.0):
        cfg = McConfig(n_paths=10**6, seed=42)

        market = MarketParams.from_rate_differential(0.03, 0.7, 0.10)
        state = LpState(POOL, market, s_t=1000.0, t=0.25, maturity_T=0.5, locked=True)
        closed = price_locked_lp(state)
        assert closed == pytest.approx(LOCKED_HALF_YEAR_PRICE, rel=1e-12)
        scn = McScenario(market=market, s_t=1000.0, tau=0.25, v0=10000.0,
                         entry_price=1000.0, horizon=0.5)
        est = mc_price("locked_lp", scn, cfg)
        assert abs(est.mean - closed) <= 3.0 * est.std_error

        week_market = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0,
                              maturity_T=WEEK_TAU, t=0.0)
        closed = price_ig(contract, 1000.0, week_market)
        assert closed == pytest.approx(IG_WEEK_PRICE, rel=1e-12)
        scn = McScenario(market=week_market, s_t=1000.0, tau=WEEK_TAU,
                         v0=10000.0, strike=1000.0, horizon=WEEK_TAU)
        est = mc_price("ig", scn, cfg)
        assert abs(est.mean - closed) <= 3.0 * est.std_error


def test_criterion_5_greeks_verification():
    with criterion(5, "21 greeks vs finite differences on the 3x3x3 grid", 5.0):
        horizon = 1.25
        checked = set()
        for s_t in (500.0, 1000.0, 2000.0):
            for sigma in (0.2, 0.7, 1.4):
                for tau in (0.1, 0.5, 1.0):
                    market = MarketParams.from_rate_differential(0.03, sigma, 0.10)
                    t = horizon - tau
                    state = LpState(POOL, market, s_t=s_t, t=t,
                                    maturity_T=horizon, locked=True)
                    contract = IgContract(notional_v0=10000.0, strike_k=1000.0,
                                          maturity_T=horizon, t=t)
                    lp_scn = McScenario(market=market, s_t=s_t, tau=tau, v0=10000.0,
                                        entry_price=1000.0, horizon=horizon)
                    ig_scn = McScenario(market=market, s_t=s_t, tau=tau, v0=10000.0,
                                        strike=1000.0, horizon=horizon)
                    reports = {
                        "unlocked_lp": (greeks_unlocked_lp(
                            LpState(POOL, market, s_t=s_t, t=t,
                                    maturity_T=horizon, locked=False)), lp_scn),
                        "locked_lp": (greeks_locked_lp(state), lp_scn),
                        "ig": (greeks_ig(contract, s_t, market), ig_scn),
                    }
                    move = s_t / 100.0
                    for pricer, (report, scn) in reports.items():
                        fd_delta = fd_greek(pricer, scn, "delta", 1e-5)
                        fd_gamma = fd_greek(pricer, scn, "gamma", 1e-4)
                        cells = (
                            ("delta", report.delta, fd_delta, 1e-6),
                            ("delta_pct", report.delta_pct, fd_delta * move, 1e-6),
                            ("gamma", report.gamma, fd_gamma, 1e-5),
                            ("gamma_pct", report.gamma_pct, fd_gamma * move * move, 1e-5),
                            ("vega", report.vega,
                             fd_greek(pricer, scn, "vega", 1e-5), 1e-6),
                            ("theta", report.theta,
                             fd_greek(pricer, scn, "theta", 1e-5), 1e-6),
                            ("rho", report.rho,
                             fd_greek(pricer, scn, "rho", 1e-5), 1e-6),
                        )
                        for greek, closed, fd, tol in cells:
                            err = abs(fd - closed) / max(abs(closed), 1e-12)
                            assert err < tol, (pricer, greek, s_t, sigma, tau, err)
                            checked.add((pricer, greek))
        assert len(checked) == 21


def test_criterion_6_replication_equivalence():
    with criterion(6, "strip replication equivalence", 10.0):
        # the payoff needs the 1024-node level over strikes from e^-5 to e^5 times the entry
        # price; the price grid at a week spans only e^(+-0.66) and needs 6 nodes per side
        grid = StrikeGrid(entry_price=1000.0, half_width=5.0, n_side=1024, price_tol=0.0)
        for s_terminal in np.geomspace(100.0, 10000.0, 21):
            exact = impermanent_loss(float(s_terminal) / 1000.0 - 1.0)
            assert abs(replicate_il_payoff(grid, float(s_terminal)) - exact) <= 1e-4

        market = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0,
                              maturity_T=WEEK_TAU, t=0.0)
        closed = price_ig(contract, 1000.0, market)
        strip = price_ig_via_strip(contract, 1000.0, market, grid)
        assert abs(strip - closed) / closed <= 1e-2
        default = build_strike_grid(1000.0, 0.7, WEEK_TAU, target_tol=1e-5)
        assert abs(price_ig_via_strip(contract, 1000.0, market, default) - closed) <= 1e-5 * 1e4

        for n in (64, 128, 256, 512, 1024):
            fixed = build_strike_grid(1000.0, 0.7, WEEK_TAU, n_side=n)
            strip = price_ig_via_strip(contract, 1000.0, market, fixed)
            assert abs(strip - closed) <= 1e-10 * closed


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "bit-level determinism", 60.0):
        runner = CliRunner()
        data = json.loads((REPO / "configs" / "locked-half-year.json").read_text())
        data["mc"] = {"n_paths": 100000, "seed": 42, "antithetic": False, "workers": 1}
        config = tmp_path / "verify.json"
        config.write_text(json.dumps(data))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        first = runner.invoke(cli, ["verify", "--config", str(config), "--out", str(out_a)])
        second = runner.invoke(cli, ["verify", "--config", str(config), "--out", str(out_b)])
        assert first.exit_code == 0, first.output
        assert second.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert first.output == second.output

        market = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        scn = McScenario(market=market, s_t=1000.0, tau=WEEK_TAU, v0=10000.0,
                         strike=1000.0, horizon=WEEK_TAU)
        solo = mc_price("ig", scn, McConfig(n_paths=300001, seed=42, workers=1))
        quad = mc_price("ig", scn, McConfig(n_paths=300001, seed=42, workers=4))
        assert solo.mean == quad.mean
        assert solo.std_error == quad.std_error


def test_criterion_8_negative_control():
    with criterion(8, "perturbed decay exponent trips the moment check", 30.0):
        sigma, r_f, tau = 0.7, 0.03, 0.25
        market = MarketParams.from_rate_differential(r_f, sigma, 0.0)
        scn = McScenario(market=market, s_t=1000.0, tau=tau)
        est = mc_price("sqrt_moment", scn, McConfig(n_paths=10**6, seed=42))

        honest = expected_sqrt_price(1000.0, market, tau)
        assert abs((est.mean - honest) / est.std_error) <= 3.0

        # sigma^2/8 corrupted to sigma^2/4 in the decay exponent
        corrupted = math.sqrt(1000.0) * math.exp((0.5 * r_f - sigma**2 / 4.0) * tau)
        z = (est.mean - corrupted) / est.std_error
        assert abs(z) > 3.0
