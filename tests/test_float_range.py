"""Extreme but schema-valid inputs give finite numbers or a DomainError: never
an OverflowError, a ZeroDivisionError or a NaN."""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from lpgreeks import (
    DomainError,
    IgContract,
    LpState,
    MarketParams,
    greeks_ig,
    greeks_locked_lp,
    greeks_unlocked_lp,
    hedge_report,
    pool_from_deposit,
    price_ig,
    price_locked_lp,
    price_unlocked_lp,
)

positive = st.floats(1e-300, 1e300)
clocks = st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)).map(sorted)


def all_finite(result) -> bool:
    if isinstance(result, float):
        return math.isfinite(result)
    return all(all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))


@settings(max_examples=300, deadline=None)
@given(spot=positive, s0=positive, v0=positive, k=positive, r_f=st.floats(-1e3, 1e3),
       sigma=st.floats(0.0, 1e200), phi=st.floats(0.0, 1e300), clock=clocks)
def test_result_is_finite_or_domain_error(spot, s0, v0, k, r_f, sigma, phi, clock):
    t, maturity = clock
    market = MarketParams.from_rate_differential(r_f, sigma, phi)

    def state(locked):
        return LpState(pool_from_deposit(v0, s0), market, spot, t, maturity, locked)

    calls = (
        lambda: price_unlocked_lp(state(False)),
        lambda: price_locked_lp(state(True)),
        lambda: price_ig(IgContract(v0, k, maturity, t), spot, market),
        lambda: greeks_unlocked_lp(state(False)),
        lambda: greeks_locked_lp(state(True)),
        lambda: greeks_ig(IgContract(v0, k, maturity, t), spot, market),
        # matched terms: strike at the entry price, shared notional, maturity and clock
        lambda: hedge_report(state(True), IgContract(v0, s0, maturity, t), market, spot),
    )
    for call in calls:
        try:
            result = call()
        except DomainError:
            continue
        assert all_finite(result), result
