import math
import random
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from lpgreeks import (
    DecayFactors,
    DomainError,
    HedgeMismatchError,
    IgContract,
    LpState,
    MarketParams,
    McScenario,
    decay_factors,
    fd_greek,
    greeks_ig,
    greeks_locked_lp,
    greeks_table,
    greeks_unlocked_lp,
    hedge_report,
    pool_from_deposit,
    price_ig,
    price_locked_lp,
    price_unlocked_lp,
)
from lpgreeks import greeks, pricing
from lpgreeks.greeks import GREEK_LABELS, GreeksReport

POOL = pool_from_deposit(10000.0, 1000.0)

SPOTS = (500.0, 1000.0, 2000.0)
SIGMAS = (0.2, 0.7, 1.4)
TAUS = (0.1, 0.5, 1.0)
HORIZON = 1.25  # keeps the clock interior for every tau on the grid

FIRST_ORDER_TOL = 1e-6
SECOND_ORDER_TOL = 1e-5


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def lp_scenario(market, s_t, tau, horizon):
    return McScenario(market=market, s_t=s_t, tau=tau, v0=10000.0,
                      entry_price=1000.0, horizon=horizon)


def ig_scenario(market, s_t, tau, horizon):
    return McScenario(market=market, s_t=s_t, tau=tau, v0=10000.0,
                      strike=1000.0, horizon=horizon)


def assert_fd_matches(pricer, scenario, report):
    move = scenario.s_t / 100.0
    fd_delta = fd_greek(pricer, scenario, "delta")
    fd_gamma = fd_greek(pricer, scenario, "gamma")
    assert rel_err(fd_delta, report.delta) < FIRST_ORDER_TOL
    assert rel_err(fd_delta * move, report.delta_pct) < FIRST_ORDER_TOL
    assert rel_err(fd_gamma, report.gamma) < SECOND_ORDER_TOL
    assert rel_err(fd_gamma * move * move, report.gamma_pct) < SECOND_ORDER_TOL
    assert rel_err(fd_greek(pricer, scenario, "vega"), report.vega) < FIRST_ORDER_TOL
    assert rel_err(fd_greek(pricer, scenario, "theta"), report.theta) < FIRST_ORDER_TOL
    assert rel_err(fd_greek(pricer, scenario, "rho"), report.rho) < FIRST_ORDER_TOL


class TestUnlockedGreeks:
    def test_at_entry_values(self, benchmark_pool):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.10)
        state = LpState(benchmark_pool, m, s_t=1000.0, t=0.0, maturity_T=0.0, locked=False)
        report = greeks_unlocked_lp(state)
        assert report.delta == 5.0
        assert report.vega == 0.0
        assert report.rho == 0.0
        assert report.theta == pytest.approx(1000.0, rel=1e-12)

    def test_scaling_definitions_hold_exactly(self, benchmark_pool, half_year_market):
        state = LpState(benchmark_pool, half_year_market,
                        s_t=1700.0, t=0.1, maturity_T=0.1, locked=False)
        report = greeks_unlocked_lp(state)
        assert report.delta_pct == report.delta * 17.0
        assert report.gamma_pct == report.gamma * 17.0 * 17.0

    def test_rejects_locked_state(self, locked_half_year):
        with pytest.raises(DomainError):
            greeks_unlocked_lp(locked_half_year)


class TestLockedGreeks:
    def test_unlocked_state_rejected(self, locked_half_year):
        with pytest.raises(DomainError, match="^state is unlocked; use greeks_unlocked_lp$"):
            greeks_locked_lp(replace(locked_half_year, locked=False))

    def test_flat_market_degenerates_to_unlocked(self, benchmark_pool):
        # with beta = gamma = 1 every spot greek collapses to the unlocked one;
        # rho keeps its -V0*(tau/2)*sqrt(s/s0) term because the factors still
        # move with the rate, so full equality needs tau = 0 as well
        m = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        locked = LpState(benchmark_pool, m, s_t=1300.0, t=0.2, maturity_T=1.0, locked=True)
        unlocked = replace(locked, locked=False)
        lp_g, un_g = greeks_locked_lp(locked), greeks_unlocked_lp(unlocked)
        assert (lp_g.delta, lp_g.delta_pct, lp_g.gamma, lp_g.gamma_pct, lp_g.vega) == (
            un_g.delta, un_g.delta_pct, un_g.gamma, un_g.gamma_pct, un_g.vega)
        assert lp_g.theta == 0.0
        assert lp_g.rho == pytest.approx(
            -10000.0 * (0.8 / 2.0) * math.sqrt(1.3), rel=1e-12)

        expired = LpState(benchmark_pool, m, s_t=1300.0, t=1.0, maturity_T=1.0, locked=True)
        assert greeks_locked_lp(expired) == greeks_unlocked_lp(replace(expired, locked=False))

    def test_fd_agreement_half_year_data(self, locked_half_year, half_year_market):
        scenario = lp_scenario(half_year_market, 1000.0, 0.25, horizon=0.5)
        assert_fd_matches("locked_lp", scenario, greeks_locked_lp(locked_half_year))

    def test_theta_is_negative_tau_sensitivity(self, locked_half_year):
        h = 1e-6
        up = price_locked_lp(replace(locked_half_year, t=0.25 - h))     # tau + h
        down = price_locked_lp(replace(locked_half_year, t=0.25 + h))   # tau - h
        fd_in_tau = (up - down) / (2.0 * h)
        assert rel_err(-fd_in_tau, greeks_locked_lp(locked_half_year).theta) < 1e-6

    def test_signs(self):
        for s_t in SPOTS:
            for sigma in SIGMAS:
                for tau in TAUS:
                    m = MarketParams.from_rate_differential(0.03, sigma, 0.10)
                    state = LpState(POOL, m, s_t=s_t, t=HORIZON - tau,
                                    maturity_T=HORIZON, locked=True)
                    report = greeks_locked_lp(state)
                    assert report.delta > 0.0
                    assert report.gamma < 0.0
                    assert report.vega < 0.0

    def test_gamma_diverges_as_spot_vanishes(self, locked_half_year):
        gammas = [greeks_locked_lp(replace(locked_half_year, s_t=s)).gamma
                  for s in (100.0, 10.0, 1.0, 0.1, 0.01)]
        assert all(g < 0.0 for g in gammas)
        assert all(later < earlier for earlier, later in zip(gammas, gammas[1:]))


class TestIgGreeks:
    def test_positive_delta_at_strike(self, week_contract, week_market):
        report = greeks_ig(week_contract, 1000.0, week_market)
        beta = decay_factors(week_market, week_contract.tau).beta
        assert beta < 1.0
        assert report.delta == pytest.approx(10000.0 * (1.0 - beta) / 2000.0, rel=1e-12)
        assert report.delta > 0.0

    def test_flat_market_forms(self):
        m = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=0.5, t=0.0)
        report = greeks_ig(contract, 2000.0, m)
        assert report.delta == pytest.approx(
            10000.0 * (1.0 / 2000.0 - 1.0 / (2.0 * math.sqrt(1000.0 * 2000.0))), rel=1e-12)
        assert report.gamma == pytest.approx(
            10000.0 / (4.0 * math.sqrt(1000.0) * 2000.0**1.5), rel=1e-12)
        assert report.vega == 0.0
        assert report.theta == 0.0
        assert report.rho == pytest.approx(
            10000.0 * 0.25 * (math.sqrt(2.0) - 1.0), rel=1e-12)

    def test_fd_agreement_week_data(self, week_market):
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0,
                              maturity_T=7.0 / 365.0, t=0.0)
        for s_t in SPOTS:
            scenario = ig_scenario(week_market, s_t, contract.tau, horizon=contract.tau)
            assert_fd_matches("ig", scenario, greeks_ig(contract, s_t, week_market))

    def test_signs(self):
        for s_t in SPOTS:
            for sigma in SIGMAS:
                for tau in TAUS:
                    m = MarketParams.from_rate_differential(0.03, sigma, 0.10)
                    contract = IgContract(notional_v0=10000.0, strike_k=1000.0,
                                          maturity_T=HORIZON, t=HORIZON - tau)
                    report = greeks_ig(contract, s_t, m)
                    assert report.gamma > 0.0
                    assert report.vega >= 0.0


class TestOnePercentScalings:
    def test_bump_pnl_matches_scaled_greeks(self, locked_half_year):
        # price a true 1% move and compare the first/second central differences
        # with the 1%-scaled greeks; residuals are third/fourth order in 1%
        report = greeks_locked_lp(locked_half_year)
        h = 1000.0 / 100.0
        up = price_locked_lp(replace(locked_half_year, s_t=1000.0 + h))
        down = price_locked_lp(replace(locked_half_year, s_t=1000.0 - h))
        base = price_locked_lp(locked_half_year)
        assert (up - down) / 2.0 == pytest.approx(report.delta_pct, rel=1e-4)
        assert up - 2.0 * base + down == pytest.approx(report.gamma_pct, rel=1e-4)


class TestHedgeReport:
    def test_one_year_hedge_identities(self, hedge_year, half_year_market):
        lp, ig = hedge_year
        hedged = hedge_report(lp, ig, half_year_market, 1000.0)
        assert hedged.total.delta == pytest.approx(5.0, rel=1e-10)
        assert hedged.total.delta == pytest.approx(hedged.delta_pred, rel=1e-10)
        assert hedged.total.gamma == 0.0
        assert hedged.total.vega == 0.0
        assert hedged.total.theta == pytest.approx(hedged.theta_pred, rel=1e-10)
        assert hedged.total.rho == pytest.approx(hedged.rho_pred, rel=1e-10)

    def test_prediction_formulas(self, hedge_year, half_year_market):
        lp, ig = hedge_year
        hedged = hedge_report(lp, ig, half_year_market, 1000.0)
        gamma_disc = math.exp(-0.03)
        assert hedged.delta_pred == 5.0
        assert hedged.theta_pred == pytest.approx(
            10000.0 * 0.03 * 0.6 * gamma_disc, rel=1e-12)
        assert hedged.rho_pred == pytest.approx(
            -10000.0 * 1.0 * 0.6 * gamma_disc, rel=1e-12)

    def test_strike_mismatch_rejected(self, hedge_year, half_year_market):
        lp, ig = hedge_year
        bad = replace(ig, strike_k=1100.0)
        with pytest.raises(HedgeMismatchError):
            hedge_report(lp, bad, half_year_market, 1000.0)

    def test_notional_mismatch_rejected(self, hedge_year, half_year_market):
        lp, ig = hedge_year
        bad = replace(ig, notional_v0=5000.0)
        with pytest.raises(HedgeMismatchError):
            hedge_report(lp, bad, half_year_market, 1000.0)

    def test_maturity_mismatch_rejected(self, hedge_year, half_year_market):
        lp, ig = hedge_year
        bad = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=2.0, t=0.0)
        with pytest.raises(HedgeMismatchError):
            hedge_report(lp, bad, half_year_market, 1000.0)

    def test_unlocked_position_rejected(self, hedge_year, half_year_market):
        lp, ig = hedge_year
        with pytest.raises(HedgeMismatchError):
            hedge_report(replace(lp, locked=False), ig, half_year_market, 1000.0)

    def test_the_same_or_an_equal_market_gives_the_same_record(self, hedge_year):
        lp, ig = hedge_year
        equal = replace(lp.market)
        assert equal is not lp.market and equal == lp.market
        assert repr(hedge_report(lp, ig, equal, 1100.0)) == repr(
            hedge_report(lp, ig, lp.market, 1100.0))

    def test_unequal_market_rejected(self, hedge_year, half_year_market):
        lp, ig = hedge_year
        with pytest.raises(HedgeMismatchError, match="market parameters differ"):
            hedge_report(lp, ig, replace(half_year_market, phi=0.2), 1000.0)


class TestGreeksTable:
    def _terms(self, market):
        lp = LpState(POOL, market, s_t=1000.0, t=0.25, maturity_T=0.5, locked=True)
        ig = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=0.5, t=0.25)
        return lp, ig

    def test_flat_market_columns_match(self):
        # rho needs tau = 0 on top of the flat market before the columns align
        m = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        lp = LpState(POOL, m, s_t=1000.0, t=0.5, maturity_T=0.5, locked=True)
        ig = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=0.5, t=0.5)
        table = greeks_table(lp, ig, 1000.0)
        for _, u, l, _ in table.rows():
            assert u == l

    def test_locked_column_is_the_locked_report(self, half_year_market):
        lp, ig = self._terms(half_year_market)
        table = greeks_table(lp, ig, 1234.0)
        assert table.locked == greeks_locked_lp(replace(lp, s_t=1234.0))

    @pytest.mark.parametrize("locked", [True, False])
    @pytest.mark.parametrize("s_t", [20.0, 1000.0, 1234.0])
    def test_columns_are_the_strategy_greeks_at_the_table_spot(self, locked, s_t,
                                                               half_year_market):
        # the position's own spot and lock flag do not matter: both LP columns are derived
        lp, ig = self._terms(half_year_market)
        lp = replace(lp, locked=locked, s_t=777.0)
        table = greeks_table(lp, ig, s_t)
        assert table.unlocked == greeks_unlocked_lp(replace(lp, locked=False, s_t=s_t))
        assert table.locked == greeks_locked_lp(replace(lp, locked=True, s_t=s_t))
        assert table.ig == greeks_ig(ig, s_t, half_year_market)
        factors = decay_factors(half_year_market, lp.tau)
        assert (table.beta, table.gamma_disc, table.s_t) == (factors.beta, factors.gamma_disc,
                                                             s_t)

    def test_gamma_row_negation_when_strike_at_entry(self, half_year_market):
        lp, ig = self._terms(half_year_market)
        table = greeks_table(lp, ig, 777.0)
        rows = dict((label, (u, l, i)) for label, u, l, i in table.rows())
        assert rows["Gamma"][2] == -rows["Gamma"][1]

    def test_renderings(self, half_year_market):
        lp, ig = self._terms(half_year_market)
        table = greeks_table(lp, ig, 1000.0)
        text = table.as_text()
        assert "beta" in text and "Delta 1%" in text
        csv_text = table.as_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "greek,unlocked_lp,locked_lp,impermanent_gain"
        assert len(lines) == 8

    def test_rejects_incoherent_states(self, half_year_market):
        # the contract must share the position's clock and notional: a 5e6 contract at t 0
        # beside a 1e4 position at t 0.25 is another instrument, not the position's hedge
        lp, ig = self._terms(half_year_market)
        with pytest.raises(DomainError, match=r"^clocks differ: contract t=0\.0 vs position "
                                              r"t=0\.25$"):
            greeks_table(replace(lp, locked=False), IgContract(5e6, 20.0, 30.0, 0.0), 1000.0)
        with pytest.raises(DomainError, match=r"^notionals differ: contract 5000000\.0 vs "
                                              r"position 10000\.0$"):
            greeks_table(lp, replace(ig, notional_v0=5e6), 1000.0)
        with pytest.raises(DomainError, match="^clocks differ: "):
            greeks_table(lp, replace(ig, t=0.0), 1000.0)

    def test_a_contract_keeps_its_own_strike_and_maturity(self, half_year_market):
        lp, ig = self._terms(half_year_market)
        other = replace(ig, strike_k=20.0, maturity_T=30.0)
        table = greeks_table(lp, other, 1000.0)
        assert table.ig == greeks_ig(other, 1000.0, half_year_market)
        # both LP columns and the beta/gamma footer are the position's
        assert replace(table, ig=None) == replace(greeks_table(lp, ig, 1000.0), ig=None)

    @pytest.mark.parametrize("s_t", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_spot_off_the_domain(self, s_t, half_year_market):
        lp, ig = self._terms(half_year_market)
        with pytest.raises(DomainError, match="^s_t must be positive and finite, got "):
            greeks_table(lp, ig, s_t)


class TestRecordContract:
    """GreeksReport and HedgedGreeks are immutable NamedTuple records. Their repr is pinned
    to the character, nan and -0.0 included: the non-finite greeks error embeds it."""

    REPORT = GreeksReport(math.nan, -0.0, 1.5, -2.25e-300, math.inf, 0.1, -1e300)
    REPORT_TEXT = ("GreeksReport(delta=nan, delta_pct=-0.0, gamma=1.5, gamma_pct=-2.25e-300, "
                   "vega=inf, theta=0.1, rho=-1e+300)")

    def test_repr_is_pinned(self):
        assert repr(self.REPORT) == str(self.REPORT) == self.REPORT_TEXT
        hedged = greeks.HedgedGreeks(self.REPORT, self.REPORT, self.REPORT, 0.5, -0.0, math.nan)
        assert repr(hedged) == (f"HedgedGreeks(lp={self.REPORT_TEXT}, ig={self.REPORT_TEXT}, "
                                f"total={self.REPORT_TEXT}, delta_pred=0.5, theta_pred=-0.0, "
                                f"rho_pred=nan)")

    def test_non_finite_error_embeds_the_text(self):
        with pytest.raises(DomainError) as excinfo:
            GreeksReport.at_spot(100.0, math.nan, -0.0, 0.0, 1.0, 2.0)
        assert str(excinfo.value) == (
            "non-finite greeks: GreeksReport(delta=nan, delta_pct=nan, gamma=-0.0, "
            "gamma_pct=-0.0, vega=0.0, theta=1.0, rho=2.0)")

    def test_fields_cannot_be_set(self, hedge_year, half_year_market):
        hedged = hedge_report(*hedge_year, half_year_market, 1100.0)
        for record, name in ((self.REPORT, "delta"), (hedged, "total"), (hedged, "rho_pred")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)

    def test_built_records_have_exact_types_and_the_namedtuple_helpers(self, hedge_year,
                                                                       half_year_market):
        report = GreeksReport.at_spot(100.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert report == (1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0)
        hedged = hedge_report(*hedge_year, half_year_market, 1100.0)
        assert type(hedged) is greeks.HedgedGreeks
        assert hedged._asdict()["total"] is hedged.total
        assert type(hedged._replace(rho_pred=0.0)) is greeks.HedgedGreeks
        for record in (report, greeks._sum_reports(report, report), *hedged[:3]):
            assert type(record) is GreeksReport
            assert record._fields == tuple(GREEK_LABELS)
            assert record._asdict() == dict(zip(GREEK_LABELS, record))
            moved = record._replace(delta=7.0)
            assert type(moved) is GreeksReport and moved == (7.0, *record[1:])

    def test_hedged_fields(self):
        assert greeks.HedgedGreeks._fields == (
            "lp", "ig", "total", "delta_pred", "theta_pred", "rho_pred")

    def test_sum_is_fieldwise_to_the_bit(self):
        rng = random.Random(14)

        def value():
            return rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan, rng.uniform(-1.0, 1.0),
                               math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1023))])

        for _ in range(2000):
            a, b = (GreeksReport(*(value() for _ in GREEK_LABELS)) for _ in range(2))
            total = greeks._sum_reports(a, b)
            assert type(total) is GreeksReport
            assert [x.hex() for x in total] == [
                (getattr(a, name) + getattr(b, name)).hex() for name in GREEK_LABELS]


@pytest.mark.parametrize("strategy", ["unlocked-lp", "locked-lp", "ig"])
def test_delta_survives_an_overflowing_root_product(strategy, half_year_market):
    # s0 * s_t = 1e310 overflows to inf, which used to make delta 0 (IG: the
    # wrong sign); sqrt(s0) * sqrt(s_t) = 1e155 is representable
    v0, s0, s_t = 10000.0, 1e300, 1e10
    root = math.sqrt(s0) * math.sqrt(s_t)
    if strategy == "ig":
        contract = IgContract(notional_v0=v0, strike_k=s0, maturity_T=0.5, t=0.25)
        beta = decay_factors(half_year_market, contract.tau).beta
        delta = greeks_ig(contract, s_t, half_year_market).delta
        assert delta == v0 * (1.0 / (2.0 * s0) - beta / (2.0 * root))
        assert delta < 0.0
        return
    locked = strategy == "locked-lp"
    state = LpState(position=pool_from_deposit(v0, s0), market=half_year_market,
                    s_t=s_t, t=0.25, maturity_T=0.5, locked=locked)
    report = (greeks_locked_lp if locked else greeks_unlocked_lp)(state)
    beta = decay_factors(half_year_market, state.tau).beta if locked else 1.0
    assert report.delta == v0 * beta / (2.0 * root)
    assert report.delta > 0.0


@pytest.mark.parametrize("strategy", ["unlocked-lp", "locked-lp", "ig"])
def test_overflowing_gamma_denominator_gives_a_zero_gamma(strategy, half_year_market):
    # 4*sqrt(1e16)*(1e200)**1.5 overflows to inf in the product, not in the
    # power: gamma is then a signed zero, not a domain error
    v0, s0, s_t = 10000.0, 1e16, 1e200
    if strategy == "ig":
        contract = IgContract(notional_v0=v0, strike_k=s0, maturity_T=0.5, t=0.25)
        report, sign = greeks_ig(contract, s_t, half_year_market), 1.0
    else:
        locked = strategy == "locked-lp"
        state = LpState(position=pool_from_deposit(v0, s0), market=half_year_market,
                        s_t=s_t, t=0.25, maturity_T=0.5, locked=locked)
        report = (greeks_locked_lp if locked else greeks_unlocked_lp)(state)
        sign = -1.0
    assert all(math.isfinite(getattr(report, name)) for name in GREEK_LABELS)
    assert report.gamma == 0.0 and math.copysign(1.0, report.gamma) == sign


def _hexes(report: GreeksReport) -> tuple:
    return tuple(getattr(report, name).hex() for name in GREEK_LABELS)


def _outcome(call):
    """call's result, or the text of the DomainError it raised."""
    try:
        return call()
    except DomainError as exc:
        return str(exc)


def _flip_zero(x: float) -> float:
    """x, or the other signed zero: equal under ==, but not the same bits."""
    return -x if x == 0.0 else x


def _hedge_case(rng: random.Random) -> tuple:
    """(lp, ig, market, s_t) with matched terms. The contract clock and the hedge's market
    may differ from the position's in the sign of a zero, rates run from 0 (either sign) to
    overflowing exp, and the spot is lp.s_t, another spot, or one the state rejects."""
    def rate():
        return rng.choice([0.0, -0.0, rng.uniform(-0.2, 0.2), rng.uniform(-800.0, 800.0)])

    sigma = rng.choice([0.0, -0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, 60.0)])
    market = MarketParams(rate(), rate(), sigma, rng.choice([0.0, -0.0, rng.uniform(0.0, 1.0)]))
    t = rng.choice([0.0, -0.0, rng.uniform(0.0, 2.0)])
    maturity = rng.choice([t, t + rng.uniform(0.0, 3.0)])
    v0, s0 = (math.exp(rng.uniform(-20.0, 20.0)) for _ in range(2))
    lp = LpState(pool_from_deposit(v0, s0), market, s0 * math.exp(rng.uniform(-3.0, 3.0)),
                 t, maturity, locked=True)
    ig = IgContract(v0, s0, *(_flip_zero(x) if rng.random() < 0.5 else x for x in (maturity, t)))
    s_t = rng.choice([lp.s_t, s0 * math.exp(rng.uniform(-300.0, 300.0)),
                      rng.choice([0.0, -1.0, math.nan, math.inf])] + [
                      s0 * math.exp(rng.uniform(-3.0, 3.0))] * 3)
    hedge_market = MarketParams(*(_flip_zero(getattr(market, f.name)) for f in fields(market)))
    return lp, ig, hedge_market, s_t


class TestHedgeParity:
    """hedge_report evaluates the decay factors once and revalues the position at s_t without
    rebuilding it; its legs must keep the bits, and its errors the text, of the public greeks
    on the rebuilt state."""

    def test_legs_equal_the_public_greeks_on_the_rebuilt_state(self):
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(3000):
            lp, ig, market, s_t = _hedge_case(rng)
            for m in (lp.market, market):
                assert _outcome(lambda: decay_factors(m, lp.tau)) == _outcome(
                    lambda: DecayFactors(*pricing._factors(m, lp.tau)))
            # both legs and the predictions are valued under lp.market, whose zero signs win
            want = _outcome(lambda: (_hexes(greeks_locked_lp(replace(lp, s_t=s_t))),
                                     _hexes(greeks_ig(ig, s_t, lp.market))))
            try:
                hedged = hedge_report(lp, ig, market, s_t)
            except DomainError as exc:
                got = str(exc)
                if not isinstance(want, str):  # the legs passed; a prediction overflowed
                    assert got.startswith(("theta_pred", "rho_pred")), got
                    got = want
            else:
                got = (_hexes(hedged.lp), _hexes(hedged.ig))
                gamma_disc = decay_factors(lp.market, ig.tau).gamma_disc
                half_plus_fees = 0.5 + lp.market.phi * ig.maturity_T
                assert hedged.theta_pred.hex() == (
                    ig.notional_v0 * lp.market.r_f * half_plus_fees * gamma_disc).hex()
                assert hedged.rho_pred.hex() == (
                    -ig.notional_v0 * ig.tau * half_plus_fees * gamma_disc).hex()
                # the legs cancel exactly under the hedge's terms; compared by ==, since both
                # vega legs are the same signed zero where the contract's tau is -0.0 and the
                # position's +0.0
                for name in ("gamma", "gamma_pct", "vega"):
                    assert getattr(hedged.lp, name) == -getattr(hedged.ig, name), name
                    assert getattr(hedged.total, name) == 0.0, name
            assert got == want
            outcomes.add("error" if isinstance(want, str) else
                         "same spot" if s_t == lp.s_t else "other spot")
        assert outcomes == {"error", "same spot", "other spot"}

    @pytest.mark.parametrize("s_t", [0.0, -1.0, math.nan, math.inf])
    def test_a_rejected_spot_reads_as_the_rebuilt_state_did(self, s_t, hedge_year,
                                                            half_year_market):
        lp, ig = hedge_year
        with pytest.raises(DomainError) as rebuilt:
            replace(lp, s_t=s_t)
        with pytest.raises(DomainError) as hedged:
            hedge_report(lp, ig, half_year_market, s_t)
        assert str(hedged.value) == str(rebuilt.value)

    def test_factors_are_evaluated_once(self, monkeypatch, hedge_year, half_year_market):
        calls = []

        def counting(market, tau):
            calls.append(tau)
            return original(market, tau)

        original = pricing._factors
        monkeypatch.setattr(pricing, "_factors", counting)  # decay_factors looks here
        monkeypatch.setattr(greeks, "_factors", counting)
        lp, ig = hedge_year
        hedge_report(lp, ig, half_year_market, 1100.0)
        assert calls == [lp.tau]


# Python-level calls into lpgreeks of one closed-form revaluation, the seven calls a risk
# sweep makes per book scenario: a perf guard that does not depend on timing. r_f and tau are
# plain attributes; as properties they would add 12 calls.
REVALUATION_CALL_BUDGET = 39


def test_revaluation_call_budget():
    rng = random.Random(25)
    market = MarketParams(rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.05), rng.uniform(0.2, 1.2),
                          rng.uniform(0.0, 0.2))
    t = rng.uniform(0.0, 0.5)
    maturity = t + rng.uniform(0.05, 2.0)
    spot = 1000.0 * rng.uniform(0.6, 1.6)
    locked = LpState(POOL, market, spot, t, maturity, locked=True)
    unlocked = replace(locked, locked=False)
    contract = IgContract(1e4, 1000.0, maturity, t)
    package = str(Path(greeks.__file__).parent)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        price_unlocked_lp(unlocked)
        price_locked_lp(locked)
        price_ig(contract, spot, market)
        greeks_unlocked_lp(unlocked)
        greeks_locked_lp(locked)
        greeks_ig(contract, spot, market)
        hedge_report(locked, contract, market, spot)
    finally:
        sys.setprofile(None)
    assert not {"r_f", "tau"} & set(calls)
    assert len(calls) <= REVALUATION_CALL_BUDGET, sorted(calls)
