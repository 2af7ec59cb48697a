"""Extreme but schema-valid inputs give finite numbers or a DomainError: never
an OverflowError, a ZeroDivisionError or a NaN."""

import dataclasses
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpgreeks import (
    DomainError,
    IgContract,
    LpState,
    MarketParams,
    decay_factors,
    expected_sqrt_price,
    forward_price,
    greeks_ig,
    greeks_locked_lp,
    greeks_unlocked_lp,
    hedge_report,
    pool_from_deposit,
    price_ig,
    price_locked_lp,
    price_unlocked_lp,
    vanilla_price,
)

positive = st.floats(1e-300, 1e300)
# a rate is usually moderate, sometimes anywhere in the float range, so r_f = r_x - r_y
# can overflow to +-inf
rates = st.one_of(st.floats(-1e3, 1e3), st.floats(-1.7e308, 1.7e308))
# (t, T) with T >= t, sometimes expired (t == T, tau = 0)
clocks = st.one_of(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)).map(sorted),
                   st.floats(0.0, 1e3).map(lambda t: (t, t)))


def all_finite(result) -> bool:
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, tuple):  # the NamedTuple records: every field, nested reports too
        return all(map(all_finite, result))
    return all(all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))


@settings(max_examples=300, deadline=None)
@given(spot=positive, spot2=positive, s0=positive, v0=positive, k=positive, r_x=rates, r_y=rates,
       sigma=st.floats(0.0, 1e200), phi=st.floats(0.0, 1e300), clock=clocks)
# the forward at tau = 0 where r_f overflows: inf * 0 in the exponent was nan
@example(spot=1000.0, spot2=1000.0, s0=1000.0, v0=1e4, k=1000.0, r_x=1.7e308, r_y=-1.7e308,
         sigma=0.7, phi=0.1, clock=(0.0, 0.0))
# the sqrt moment where r_f and sigma^2 both overflow: inf - inf in the rate was nan
@example(spot=1000.0, spot2=1000.0, s0=1000.0, v0=1e4, k=1000.0, r_x=1.7e308, r_y=-1.7e308,
         sigma=1e200, phi=0.1, clock=(0.0, 1.0))
# a put whose discounting overflows was inf
@example(spot=1.0, spot2=1.0, s0=1.0, v0=1.0, k=1.2429969603937666e296, r_x=0.0, r_y=2.0,
         sigma=0.0, phi=0.0, clock=(0.0, 14.0))
def test_result_is_finite_or_domain_error(spot, spot2, s0, v0, k, r_x, r_y, sigma, phi, clock):
    t, maturity = clock
    tau = maturity - t
    market = MarketParams(r_x, r_y, sigma, phi)

    def state(locked):
        return LpState(pool_from_deposit(v0, s0), market, spot, t, maturity, locked)

    calls = (
        lambda: forward_price(spot, market, tau),
        lambda: expected_sqrt_price(spot, market, tau),
        lambda: decay_factors(market, tau).beta,
        lambda: decay_factors(market, tau).gamma_disc,
        lambda: vanilla_price(k, spot, market, tau, "call").premium,
        lambda: vanilla_price(k, spot, market, tau, "put").premium,
        lambda: price_unlocked_lp(state(False)),
        lambda: price_locked_lp(state(True)),
        lambda: price_ig(IgContract(v0, k, maturity, t), spot, market),
        lambda: greeks_unlocked_lp(state(False)),
        lambda: greeks_locked_lp(state(True)),
        lambda: greeks_ig(IgContract(v0, k, maturity, t), spot, market),
        # matched terms: strike at the entry price, shared notional, maturity and clock
        lambda: hedge_report(state(True), IgContract(v0, s0, maturity, t), market, spot),
        # the book revalued away from the position's own spot
        lambda: hedge_report(state(True), IgContract(v0, s0, maturity, t), market, spot2),
    )
    for call in calls:
        try:
            result = call()
        except DomainError:
            continue
        assert all_finite(result), result
