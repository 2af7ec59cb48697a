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
    """Model inputs: lending rates of each token, lognormal vol, pool fee APY."""

    r_x: float
    r_y: float
    sigma: float
    phi: float

    def __post_init__(self) -> None:
        require_finite("r_x", self.r_x)
        require_finite("r_y", self.r_y)
        require_non_negative("sigma", self.sigma)
        require_non_negative("phi", self.phi)

    @property
    def r_f(self) -> float:
        """Rate differential r_x - r_y. May be negative."""
        return self.r_x - self.r_y

    @classmethod
    def from_rate_differential(cls, r_f: float, sigma: float, phi: float) -> "MarketParams":
        """Build from the differential alone, booking it entirely on the x leg."""
        return cls(r_x=r_f, r_y=0.0, sigma=sigma, phi=phi)


@dataclass(frozen=True)
class LpState:
    """A priced LP scenario: position, market, current spot and clock."""

    position: PoolPosition
    market: MarketParams
    s_t: float
    t: float
    maturity_T: float
    locked: bool

    def __post_init__(self) -> None:
        require_positive("s_t", self.s_t)
        require_non_negative("t", self.t)
        require_finite("maturity_T", self.maturity_T)
        if self.maturity_T < self.t:
            raise DomainError(
                f"maturity_T must be >= t, got T={self.maturity_T!r} < t={self.t!r}")

    @property
    def tau(self) -> float:
        """Remaining time to unlock."""
        return self.maturity_T - self.t


@dataclass(frozen=True)
class IgContract:
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
        require_non_negative("t", self.t)
        require_finite("maturity_T", self.maturity_T)
        if self.maturity_T < self.t:
            raise DomainError(
                f"maturity_T must be >= t, got T={self.maturity_T!r} < t={self.t!r}")

    @property
    def tau(self) -> float:
        return self.maturity_T - self.t


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


def _exp(scale: float, exponent: float, formula: str, market: MarketParams,
         tau: float) -> float:
    """scale * exp(exponent), or a DomainError naming the formula, r_f, sigma
    and tau where exp overflows or the product is inf (math.exp(inf) is inf)."""
    try:
        value = scale * math.exp(exponent)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"{formula} overflow at r_f={market.r_f!r}, "
                          f"sigma={market.sigma!r}, tau={tau!r}")
    return value


def decay_factors(market: MarketParams, tau: float) -> DecayFactors:
    """Evaluate both decay factors over a remaining time tau."""
    require_non_negative("tau", tau)
    r_f = market.r_f
    carry = 0.5 * r_f + market.sigma * market.sigma / 8.0
    if tau == 0.0:  # exactly 1 even where sigma^2 overflows (inf * 0 is nan)
        return DecayFactors(beta=1.0, gamma_disc=1.0, carry=carry)
    formula = "decay factors exp(-carry*tau), exp(-r_f*tau)"
    return DecayFactors(beta=_exp(1.0, -carry * tau, formula, market, tau),
                        gamma_disc=_exp(1.0, -r_f * tau, formula, market, tau), carry=carry)


def expected_sqrt_price(s_t: float, market: MarketParams, tau: float) -> float:
    """Risk-neutral mean of sqrt(S_T): sqrt(s_t) * exp((r_f/2 - sigma^2/8) * tau)."""
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    if tau == 0.0:  # as in decay_factors: an overflowing sigma^2 times 0 is nan
        return math.sqrt(s_t)
    exponent = (0.5 * market.r_f - market.sigma * market.sigma / 8.0) * tau
    return _exp(math.sqrt(s_t), exponent, "sqrt moment exp((r_f/2 - sigma^2/8)*tau)",
                market, tau)


def forward_price(s_t: float, market: MarketParams, tau: float) -> float:
    """Risk-neutral mean of S_T: s_t * exp(r_f * tau)."""
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    return _exp(s_t, market.r_f * tau, "forward exp(r_f*tau)", market, tau)


def lp_premium(v0: float, s0: float, s_t: float, market: MarketParams,
               tau: float, fee_years: float) -> float:
    """Value of an LP position entered at s0 that unlocks after tau more years,
    crediting fee_years of fee accrual at unlock:
    V0 * (sqrt(s_t/s0) * beta + phi * fee_years * gamma_disc).

    tau = 0 with fee_years = t is the redeemable value V0 * (sqrt(s_t/s0) + phi*t),
    bit for bit, since both factors are then exactly 1.
    """
    d = decay_factors(market, tau)
    return require_finite("LP premium", v0 * (
        math.sqrt(s_t / s0) * d.beta + market.phi * fee_years * d.gamma_disc))


def ig_premium(v0: float, k: float, s_t: float, market: MarketParams, tau: float) -> float:
    """Impermanent Gain premium V0 * (gamma_disc/2 + s_t/(2K) - sqrt(s_t/K) * beta)."""
    d = decay_factors(market, tau)
    return require_finite("IG premium", v0 * (
        0.5 * d.gamma_disc + s_t / (2.0 * k) - math.sqrt(s_t / k) * d.beta))


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
