"""Constant-product pool arithmetic: deposits, reserve evolution, position values.

Everything is denominated in token y. Values are immutable after construction
and all operations are pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_non_negative, require_positive
from .pricing import MarketParams, lp_premium

_REL_TOL = 1e-12


@dataclass(frozen=True)
class PoolPosition:
    """An LP deposit frozen at entry time.

    invariant_l is the pool constant sqrt(x*y). The deposit is the equal-value
    split, so reserve_x0 * entry_price_s0 == reserve_y0 and
    notional_v0 == 2 * invariant_l * sqrt(entry_price_s0).
    """

    invariant_l: float
    entry_price_s0: float
    reserve_x0: float
    reserve_y0: float
    notional_v0: float

    def __post_init__(self) -> None:
        for name in ("invariant_l", "entry_price_s0", "reserve_x0", "reserve_y0", "notional_v0"):
            require_positive(name, getattr(self, name))
        l_sq = self.invariant_l * self.invariant_l
        if not math.isclose(self.reserve_x0 * self.reserve_y0, l_sq, rel_tol=_REL_TOL):
            raise DomainError("reserve product x0*y0 does not equal the pool constant L^2")
        if not math.isclose(self.reserve_x0 * self.entry_price_s0, self.reserve_y0, rel_tol=_REL_TOL):
            raise DomainError("deposit is not an equal-value split (x0*S0 != y0)")
        expected_v0 = 2.0 * self.invariant_l * math.sqrt(self.entry_price_s0)
        if not math.isclose(self.notional_v0, expected_v0, rel_tol=_REL_TOL):
            raise DomainError("notional_v0 does not equal 2*L*sqrt(S0)")


@dataclass(frozen=True)
class Reserves:
    """Token amounts sitting in the pool at one price point."""

    x: float
    y: float
    price: float

    def __post_init__(self) -> None:
        if self.x < 0.0 or self.y < 0.0:
            raise DomainError("reserve amounts must be non-negative")
        if self.x > 0.0 and not math.isclose(self.price, self.y / self.x, rel_tol=_REL_TOL):
            raise DomainError("price must equal y/x")


@dataclass(frozen=True)
class FeeParams:
    """Expected pool fee yield, as a decimal APY."""

    phi: float

    def __post_init__(self) -> None:
        require_non_negative("phi", self.phi)


def pool_from_deposit(v0: float, s0: float) -> PoolPosition:
    """Entry position for a deposit worth v0 token-y at price s0.

    The equal-value split puts v0/2 into each leg: x0 = v0/(2*s0), y0 = v0/2,
    and the pool constant is L = v0 / (2*sqrt(s0)). A DomainError names v0 and
    s0 where a derived value is not a positive float or the split loses its
    invariants to rounding.
    """
    require_positive("v0", v0)
    require_positive("s0", s0)
    try:
        return PoolPosition(
            invariant_l=v0 / (2.0 * math.sqrt(s0)),
            entry_price_s0=s0,
            reserve_x0=v0 / (2.0 * s0),
            reserve_y0=v0 / 2.0,
            notional_v0=v0,
        )
    except DomainError as exc:
        raise DomainError(f"a deposit of v0={v0!r} at s0={s0!r} makes no valid pool position: "
                          f"{exc}") from None


def reserves_at_price(pos: PoolPosition, s_t: float) -> Reserves:
    """Reserves implied by the constant product once the price moves to s_t.

    x_t = x0 * sqrt(s0/s_t) and y_t = y0 * sqrt(s_t/s0); the product stays L^2.
    Assumes no liquidity was added or removed since entry.
    """
    require_positive("s_t", s_t)
    ratio = math.sqrt(pos.entry_price_s0 / s_t)
    return Reserves(x=pos.reserve_x0 * ratio, y=pos.reserve_y0 / ratio, price=s_t)


def lp_value(pos: PoolPosition, s_t: float, t: float, fees: FeeParams) -> float:
    """Redeemable value of the LP position, V0 * (sqrt(s_t/s0) + phi*t): the
    lp_premium with no time left to unlock."""
    require_positive("s_t", s_t)
    require_non_negative("t", t)
    return lp_premium(pos.notional_v0, pos.entry_price_s0, s_t,
                      MarketParams.from_rate_differential(0.0, 0.0, fees.phi), 0.0, t)


def hodl_value(pos: PoolPosition, s_t: float) -> float:
    """Value of holding the entry token amounts unchanged: x0*s_t + y0."""
    require_positive("s_t", s_t)
    return pos.reserve_x0 * s_t + pos.reserve_y0
