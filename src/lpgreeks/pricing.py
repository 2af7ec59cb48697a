"""Closed-form risk-neutral pricing of LP positions and the Impermanent Gain
product under lognormal price dynamics.

The price of token x in token y follows a geometric Brownian motion whose
risk-neutral drift is the lending-rate differential r_f = r_x - r_y; every
price here depends on the two rates only through that difference. Times are
year fractions throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, require_finite, require_non_negative, require_positive

if TYPE_CHECKING:  # pool imports this module to value a position
    from .pool import PoolPosition


@dataclass(frozen=True)
class MarketParams:
    """Model inputs: lending rates of each token, lognormal vol, pool fee APY. The rate
    differential r_f = r_x - r_y is set once in __post_init__: read-only, not a field."""

    r_x: float
    r_y: float
    sigma: float
    phi: float

    def __post_init__(self) -> None:
        require_finite("r_x", self.r_x)
        require_finite("r_y", self.r_y)
        require_non_negative("sigma", self.sigma)
        require_non_negative("phi", self.phi)
        object.__setattr__(self, "r_f", self.r_x - self.r_y)

    @classmethod
    def from_rate_differential(cls, r_f: float, sigma: float, phi: float) -> "MarketParams":
        """Build from the differential alone, booking it entirely on the x leg."""
        return cls(r_x=r_f, r_y=0.0, sigma=sigma, phi=phi)


class _Clock:
    """The t/maturity_T check of LpState and IgContract, and their tau = maturity_T - t (for an
    LP position, the time to unlock), set once in __post_init__: read-only, not a field. The
    class has no fields: each subclass declares t and maturity_T in its own positional order."""

    def __post_init__(self) -> None:
        require_non_negative("t", self.t)
        require_finite("maturity_T", self.maturity_T)
        if self.maturity_T < self.t:
            raise DomainError(
                f"maturity_T must be >= t, got T={self.maturity_T!r} < t={self.t!r}")
        object.__setattr__(self, "tau", self.maturity_T - self.t)


@dataclass(frozen=True)
class LpState(_Clock):
    """A priced LP scenario: position, market, current spot and clock."""

    position: PoolPosition
    market: MarketParams
    s_t: float
    t: float
    maturity_T: float
    locked: bool

    def __post_init__(self) -> None:
        require_positive("s_t", self.s_t)
        super().__post_init__()


@dataclass(frozen=True)
class IgContract(_Clock):
    """Terms of one Impermanent Gain contract.

    The strike is the reference price from which the payoff return
    s_T/strike_k - 1 is measured; notional_v0 scales the unit payoff.
    """

    notional_v0: float
    strike_k: float
    maturity_T: float
    t: float = 0.0

    def __post_init__(self) -> None:
        require_positive("notional_v0", self.notional_v0)
        require_positive("strike_k", self.strike_k)
        super().__post_init__()


@dataclass(frozen=True)
class DecayFactors:
    """Exponential factors shared by every closed form.

    carry = r_f/2 + sigma^2/8 is the decay rate of the sqrt-payoff leg,
    beta = exp(-carry * tau) decays that leg and gamma_disc = exp(-r_f * tau)
    is the plain discount factor. Both factors are 1 at tau = 0; beta may
    exceed 1 when carry < 0.
    """

    beta: float
    gamma_disc: float
    carry: float


def _exp(scale: float, rate: float, tau: float, formula: str, market: MarketParams) -> float:
    """scale * exp(rate * tau): the guard of the moments and of _factors' failure path. It owns
    the tau = 0 limit: exactly scale, even where rate is inf or nan (inf * 0 is nan). It owns
    the overflow message too: elsewhere a DomainError names the formula, r_f, sigma and tau
    where the value is not below inf: exp overflows, or rate is nan (inf - inf)."""
    if tau == 0.0:
        return scale
    try:
        value = scale * math.exp(rate * tau)
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise DomainError(f"{formula} overflow at r_f={market.r_f!r}, "
                          f"sigma={market.sigma!r}, tau={tau!r}")
    return value


def _factors(market: MarketParams, tau: float) -> tuple[float, float, float]:
    """(beta, gamma_disc, carry) over a remaining time tau: the tuple the closed forms unpack.

    The factors are one guarded block, one exp line each, with the bits of _exp(1.0, rate,
    tau, ...). Only where tau is negative, nan or inf, or a factor is not below inf, does the
    tau check run and each factor go through _exp, which owns the tau = 0 limit (1.0) and the
    overflow message.
    """
    r_f = market.r_f
    carry = 0.5 * r_f + market.sigma * market.sigma / 8.0
    try:
        beta = math.exp(-carry * tau)
        gamma_disc = math.exp(-r_f * tau)
        if beta < math.inf and gamma_disc < math.inf and 0.0 <= tau < math.inf:
            return beta, gamma_disc, carry
    except OverflowError:
        pass
    require_non_negative("tau", tau)
    formula = "decay factors exp(-carry*tau), exp(-r_f*tau)"
    return _exp(1.0, -carry, tau, formula, market), _exp(1.0, -r_f, tau, formula, market), carry


def decay_factors(market: MarketParams, tau: float) -> DecayFactors:
    """Both decay factors over a remaining time tau, with the bits the closed forms use."""
    return DecayFactors(*_factors(market, tau))


def expected_sqrt_price(s_t: float, market: MarketParams, tau: float) -> float:
    """Risk-neutral mean of sqrt(S_T): sqrt(s_t) * exp((r_f/2 - sigma^2/8) * tau)."""
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    return _exp(math.sqrt(s_t), 0.5 * market.r_f - market.sigma * market.sigma / 8.0, tau,
                "sqrt moment exp((r_f/2 - sigma^2/8)*tau)", market)


def forward_price(s_t: float, market: MarketParams, tau: float) -> float:
    """Risk-neutral mean of S_T: s_t * exp(r_f * tau)."""
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    return _exp(s_t, market.r_f, tau, "forward exp(r_f*tau)", market)


def lp_premium(v0: float, s0: float, s_t: float, market: MarketParams,
               tau: float, fee_years: float) -> float:
    """Value of an LP position entered at s0 that unlocks after tau more years,
    crediting fee_years of fee accrual at unlock:
    V0 * (sqrt(s_t/s0) * beta + phi * fee_years * gamma_disc).

    tau = 0 with fee_years = t is the redeemable value V0 * (sqrt(s_t/s0) + phi*t),
    bit for bit, since both factors are then exactly 1.
    """
    beta, gamma_disc, _ = _factors(market, tau)
    return require_finite("LP premium", v0 * (
        math.sqrt(s_t / s0) * beta + market.phi * fee_years * gamma_disc))


def ig_premium(v0: float, k: float, s_t: float, market: MarketParams, tau: float) -> float:
    """Impermanent Gain premium V0 * (gamma_disc/2 + s_t/(2K) - sqrt(s_t/K) * beta)."""
    beta, gamma_disc, _ = _factors(market, tau)
    return require_finite("IG premium", v0 * (
        0.5 * gamma_disc + s_t / (2.0 * k) - math.sqrt(s_t / k) * beta))


def price_unlocked_lp(state: LpState) -> float:
    """Price of a redeemable position: the underlying value plus accrued fees,
    V0 * (sqrt(s_t/s0) + phi*t)."""
    if state.locked:
        raise DomainError("state is locked; use price_locked_lp")
    pos = state.position
    return lp_premium(pos.notional_v0, pos.entry_price_s0, state.s_t, state.market,
                      tau=0.0, fee_years=state.t)


def price_locked_lp(state: LpState) -> float:
    """Fair value of a position locked until maturity.

    The lp_premium over the remaining time tau with the whole-horizon accrual
    phi*T credited as a lump sum at maturity and discounted.
    """
    if not state.locked:
        raise DomainError("state is unlocked; use price_unlocked_lp")
    pos = state.position
    return lp_premium(pos.notional_v0, pos.entry_price_s0, state.s_t, state.market,
                      tau=state.tau, fee_years=state.maturity_T)


def price_ig(contract: IgContract, s_t: float, market: MarketParams) -> float:
    """Premium of the Impermanent Gain contract (see ig_premium).

    Non-negative for any tau >= 0 because sqrt(gamma_disc) >= beta; at tau = 0
    it collapses to the terminal payoff V0 * IG(s_T/K - 1).
    """
    require_positive("s_t", s_t)
    return ig_premium(contract.notional_v0, contract.strike_k, s_t, market, contract.tau)
