"""Closed-form greeks for each strategy, hedge aggregation, and the side-by-side
comparison table.

Theta is the clock sensitivity dP/dt with the maturity held fixed, so it is the
negative of the sensitivity to the remaining time. Vega and rho are reported
per unit of sigma and of the rate differential; the display scalings (per 1%
vol, per day, per 1% rate) are applied at presentation time only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

from .errors import DomainError, HedgeMismatchError, require_finite, require_positive
from .pricing import IgContract, LpState, MarketParams, _factors

# GreeksReport field -> display label, in the order of its fields, which is the
# order every listing of the greeks uses: the greeks, table and hedge commands,
# the figure ids and the fd/* verify rows.
GREEK_LABELS: dict[str, str] = {
    "delta": "Delta",
    "delta_pct": "Delta 1%",
    "gamma": "Gamma",
    "gamma_pct": "Gamma 1%",
    "vega": "Vega",
    "theta": "Theta",
    "rho": "Rho",
}


def _g17(value: float) -> str:
    return format(value, ".17g")


class GreeksReport(NamedTuple):
    """Price sensitivities of one strategy, in token-y units: an immutable record.

    delta_pct and gamma_pct are the P&L responses to a 1% spot move:
    delta * s_t/100 and gamma * (s_t/100)^2.

    A report is a tuple of its seven values in the order of GREEK_LABELS: it
    iterates, unpacks and equals a plain tuple of the same values; _fields,
    _replace and _asdict take the place of the dataclasses helpers. The hot
    paths build reports with tuple.__new__(GreeksReport, values), the same
    record as GreeksReport(*values) without its keyword call.
    """

    delta: float
    delta_pct: float
    gamma: float
    gamma_pct: float
    vega: float
    theta: float
    rho: float

    @classmethod
    def at_spot(cls, s_t: float, delta: float, gamma: float, vega: float,
                theta: float, rho: float) -> "GreeksReport":
        """The report of five sensitivities at spot s_t, adding the 1% move
        columns; DomainError if any value is not finite."""
        move = s_t / 100.0
        values = (delta, delta * move, gamma, gamma * move * move, vega, theta, rho)
        report = tuple.__new__(cls, values)
        if not all(map(math.isfinite, values)):
            raise DomainError(f"non-finite greeks: {report}")
        return report


def _spot_denominators(x: float, s_t: float) -> tuple[float, float]:
    """2*sqrt(x*s_t) and 4*sqrt(x)*s_t**1.5 for x the entry price or the strike;
    a DomainError where s_t**1.5 overflows or either is 0. An inf product stays
    (gamma is then a signed zero), and sqrt(x*s_t) becomes sqrt(x)*sqrt(s_t)
    only where x*s_t overflows, so every finite root keeps its bits."""
    try:
        gamma_den = 4.0 * math.sqrt(x) * s_t**1.5
    except OverflowError:
        raise DomainError(f"s_t**1.5 or a greek denominator overflows at s_t={s_t!r}") from None
    root = math.sqrt(x * s_t)
    delta_den = 2.0 * (root if root != math.inf else math.sqrt(x) * math.sqrt(s_t))
    if delta_den == 0.0 or gamma_den == 0.0:
        raise DomainError(f"s_t**1.5 or a greek denominator underflows to 0 at s_t={s_t!r}")
    return delta_den, gamma_den


def greeks_unlocked_lp(state: LpState) -> GreeksReport:
    """Greeks of a redeemable position.

    delta = V0/(2*sqrt(s0*s_t)) > 0, gamma = -V0/(4*sqrt(s0)*s_t^1.5) < 0,
    theta = phi*V0; no vol or rate exposure.
    """
    if state.locked:
        raise DomainError("state is locked; use greeks_locked_lp")
    v0 = state.position.notional_v0
    delta_den, gamma_den = _spot_denominators(state.position.entry_price_s0, state.s_t)
    return GreeksReport.at_spot(state.s_t, delta=v0 / delta_den, gamma=-v0 / gamma_den,
                                vega=0.0, theta=state.market.phi * v0, rho=0.0)


def greeks_locked_lp(state: LpState) -> GreeksReport:
    """Greeks of a position locked until maturity.

    The spot greeks are the unlocked ones scaled by beta; locking adds a
    strictly negative vega -V0*(sigma*tau/4)*sqrt(s_t/s0)*beta for
    sigma*tau > 0, a theta pulling toward the terminal value, and a rho on
    both the sqrt leg and the discounted fee leg.
    """
    if not state.locked:
        raise DomainError("state is unlocked; use greeks_unlocked_lp")
    return _locked_lp(state, state.s_t, _factors(state.market, state.tau))


def _locked_lp(state: LpState, s: float, factors: tuple) -> GreeksReport:
    """The greeks_locked_lp body at spot s, given the _factors tuple of state.tau."""
    beta, gamma_disc, carry = factors
    v0, s0, tau = state.position.notional_v0, state.position.entry_price_s0, state.tau
    m = state.market
    moneyness = math.sqrt(s / s0)
    fee_leg = m.phi * state.maturity_T * gamma_disc
    delta_den, gamma_den = _spot_denominators(s0, s)
    return GreeksReport.at_spot(
        s,
        delta=v0 * beta / delta_den,
        gamma=-v0 * beta / gamma_den,
        vega=-v0 * (m.sigma * tau / 4.0) * moneyness * beta,
        theta=v0 * (moneyness * carry * beta + m.r_f * fee_leg),
        rho=-v0 * ((tau / 2.0) * moneyness * beta + tau * fee_leg),
    )


def greeks_ig(contract: IgContract, s_t: float, market: MarketParams) -> GreeksReport:
    """Greeks of the Impermanent Gain contract.

    gamma = V0*beta/(4*sqrt(K)*s_t^1.5) > 0 and vega >= 0 are the exact
    opposites of the locked-position values whenever the strike sits at the
    pool entry price. delta at the strike is V0*(1-beta)/(2K) > 0 for beta < 1.
    """
    require_positive("s_t", s_t)
    return _ig(contract, s_t, market, _factors(market, contract.tau))


def _ig(contract: IgContract, s_t: float, market: MarketParams, factors: tuple) -> GreeksReport:
    """The greeks_ig body, given the _factors tuple of contract.tau."""
    beta, gamma_disc, carry = factors
    v0, k, tau = contract.notional_v0, contract.strike_k, contract.tau
    moneyness = math.sqrt(s_t / k)
    delta_den, gamma_den = _spot_denominators(k, s_t)
    return GreeksReport.at_spot(
        s_t,
        delta=v0 * (1.0 / (2.0 * k) - beta / delta_den),
        gamma=v0 * beta / gamma_den,
        vega=v0 * (market.sigma * tau / 4.0) * moneyness * beta,
        theta=v0 * (0.5 * market.r_f * gamma_disc - moneyness * carry * beta),
        rho=(v0 * tau / 2.0) * (moneyness * beta - gamma_disc),
    )


def _sum_reports(a: GreeksReport, b: GreeksReport) -> GreeksReport:
    a0, a1, a2, a3, a4, a5, a6 = a
    b0, b1, b2, b3, b4, b5, b6 = b
    return tuple.__new__(GreeksReport, (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5,
                                        a6 + b6))


class HedgedGreeks(NamedTuple):
    """Greeks of a locked position hedged one-for-one with the gain contract: an
    immutable record, a tuple of its six fields like GreeksReport, and built
    like it with tuple.__new__ in hedge_report.

    total holds the component-wise sums. Its gamma, gamma_pct and vega are exactly
    zero under the hedge's terms: both gamma legs divide V0*beta by the same
    _spot_denominators(s0, s_t), both vega legs form one product with -V0 and V0,
    and negation is exact. The predictions are the closed-form
    collapsed sums, independent of both the spot and the volatility:
    delta_pred = V0/(2K), theta_pred = V0*r_f*(1/2 + phi*T)*gamma_disc,
    rho_pred = -V0*tau*(1/2 + phi*T)*gamma_disc.
    """

    lp: GreeksReport
    ig: GreeksReport
    total: GreeksReport
    delta_pred: float
    theta_pred: float
    rho_pred: float


def hedge_report(lp: LpState, ig: IgContract, market: MarketParams, s_t: float) -> HedgedGreeks:
    """Aggregate greeks of the hedged book, revalued at spot s_t: greeks_locked_lp of lp at
    s_t and greeks_ig, bit for bit, from one evaluation of the position's decay factors.

    Requires matching terms: the contract strike at the pool entry price, equal notionals, equal
    maturities, a shared clock and a market equal to lp.market. Both legs and the predictions are
    valued under lp.market, so its zero signs win.
    """
    if not lp.locked:
        raise HedgeMismatchError("hedge requires a locked position")
    pos = lp.position
    if ig.strike_k != pos.entry_price_s0:
        raise HedgeMismatchError(
            f"contract strike {ig.strike_k!r} must equal the entry price {pos.entry_price_s0!r}")
    if ig.notional_v0 != pos.notional_v0:
        raise HedgeMismatchError(
            f"notionals differ: {ig.notional_v0!r} vs {pos.notional_v0!r}")
    if ig.maturity_T != lp.maturity_T:
        raise HedgeMismatchError(
            f"maturities differ: {ig.maturity_T!r} vs {lp.maturity_T!r}")
    if ig.t != lp.t:
        raise HedgeMismatchError(f"clocks differ: {ig.t!r} vs {lp.t!r}")
    if market is not lp.market and market != lp.market:
        raise HedgeMismatchError("market parameters differ between the legs")

    require_positive("s_t", s_t)
    m = lp.market
    factors = _factors(m, lp.tau)
    lp_g = _locked_lp(lp, s_t, factors)
    ig_g = _ig(ig, s_t, m, factors)
    total = _sum_reports(lp_g, ig_g)
    v0 = ig.notional_v0
    half_plus_fees = 0.5 + m.phi * ig.maturity_T
    delta_pred = v0 / (2.0 * ig.strike_k)
    theta_pred = require_finite("theta_pred", v0 * m.r_f * half_plus_fees * factors[1])
    rho_pred = require_finite("rho_pred", -v0 * ig.tau * half_plus_fees * factors[1])
    return tuple.__new__(HedgedGreeks, (lp_g, ig_g, total, delta_pred, theta_pred, rho_pred))


@dataclass(frozen=True)
class GreeksTable:
    """Seven greeks for the three strategies, evaluated at a shared spot."""

    unlocked: GreeksReport
    locked: GreeksReport
    ig: GreeksReport
    beta: float
    gamma_disc: float
    s_t: float

    def rows(self) -> Iterator[tuple[str, float, float, float]]:
        return zip(GREEK_LABELS.values(), self.unlocked, self.locked, self.ig)

    def as_text(self) -> str:
        header = f"{'Greek':<10}{'Unlocked LP':>20}{'Locked LP':>20}{'Impermanent Gain':>20}"
        lines = [header, "-" * len(header)]
        for label, unlocked, locked, ig in self.rows():
            lines.append(f"{label:<10}{unlocked:>20.10g}{locked:>20.10g}{ig:>20.10g}")
        lines.append("-" * len(header))
        lines.append(f"beta = {self.beta:.10g}, gamma = {self.gamma_disc:.10g}, s_t = {self.s_t:.10g}")
        return "\n".join(lines)

    def as_csv(self) -> str:
        lines = ["greek,unlocked_lp,locked_lp,impermanent_gain"]
        for label, unlocked, locked, ig in self.rows():
            lines.append(f"{label},{_g17(unlocked)},{_g17(locked)},{_g17(ig)}")
        return "\n".join(lines) + "\n"


def greeks_table(lp: LpState, ig: IgContract, s_t: float) -> GreeksTable:
    """Evaluate the three strategies at spot s_t and emit the comparison.

    The Unlocked LP and Locked LP columns are the position lp, redeemable and locked until its
    maturity, whatever lp.locked says; the Impermanent Gain column is the contract ig under
    lp.market. The contract keeps its own strike and maturity, but must share the position's
    clock t and notional, or a DomainError names the term that differs. The beta/gamma footer
    holds the position's decay factors, over its own tau.
    """
    if ig.t != lp.t:
        raise DomainError(f"clocks differ: contract t={ig.t!r} vs position t={lp.t!r}")
    if ig.notional_v0 != lp.position.notional_v0:
        raise DomainError(f"notionals differ: contract {ig.notional_v0!r} "
                          f"vs position {lp.position.notional_v0!r}")
    factors = _factors(lp.market, lp.tau)
    return GreeksTable(unlocked=greeks_unlocked_lp(replace(lp, locked=False, s_t=s_t)),
                       locked=_locked_lp(lp, s_t, factors), ig=greeks_ig(ig, s_t, lp.market),
                       beta=factors[0], gamma_disc=factors[1], s_t=s_t)
