"""Every revaluation of the closed forms keeps its bits against the plumbing typed out here.

The reference is the plain route to each result: `_factors` as two `_exp`-style guarded calls
(tau checked first, the tau = 0 limit, then exp and its overflow test), every report built as
`GreeksReport(*values)`, and `hedge_report` with its equality test on the markets and a
keyword `HedgedGreeks`. The three prices and the three
greek reports run once as shipped and once with the reference `_factors` and `at_spot`
patched in; `hedge_report`, `decay_factors` and both moments are compared with their typed-out
bodies. Values are compared by `.hex()`, records by their exact type too, and
errors by type and message.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import replace

import pytest

from lpgreeks import (
    DecayFactors,
    DomainError,
    HedgeMismatchError,
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
)
from lpgreeks import greeks, pricing
from lpgreeks.errors import require_finite, require_non_negative, require_positive
from lpgreeks.greeks import GreeksReport, HedgedGreeks

CASES = 20000
CHUNK = 1000


# -- the reference plumbing ----------------------------------------------------------------

def ref_exp(scale, rate, tau, formula, market):
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


def ref_factors(market, tau):
    require_non_negative("tau", tau)
    r_f = market.r_f
    carry = 0.5 * r_f + market.sigma * market.sigma / 8.0
    formula = "decay factors exp(-carry*tau), exp(-r_f*tau)"
    return (ref_exp(1.0, -carry, tau, formula, market), ref_exp(1.0, -r_f, tau, formula, market),
            carry)


def ref_at_spot(cls, s_t, delta, gamma, vega, theta, rho):
    move = s_t / 100.0
    values = (delta, delta * move, gamma, gamma * move * move, vega, theta, rho)
    report = GreeksReport(*values)
    if not all(map(math.isfinite, values)):
        raise DomainError(f"non-finite greeks: {report}")
    return report


def ref_sum_reports(a, b):
    return GreeksReport(*map(operator.add, a, b))


def ref_hedge_report(lp, ig, market, s_t):
    if not lp.locked:
        raise HedgeMismatchError("hedge requires a locked position")
    pos = lp.position
    if ig.strike_k != pos.entry_price_s0:
        raise HedgeMismatchError(
            f"contract strike {ig.strike_k!r} must equal the entry price {pos.entry_price_s0!r}")
    if ig.notional_v0 != pos.notional_v0:
        raise HedgeMismatchError(f"notionals differ: {ig.notional_v0!r} vs {pos.notional_v0!r}")
    if ig.maturity_T != lp.maturity_T:
        raise HedgeMismatchError(f"maturities differ: {ig.maturity_T!r} vs {lp.maturity_T!r}")
    if ig.t != lp.t:
        raise HedgeMismatchError(f"clocks differ: {ig.t!r} vs {lp.t!r}")
    if market != lp.market:
        raise HedgeMismatchError("market parameters differ between the legs")
    require_positive("s_t", s_t)
    tau = lp.tau
    factors = ref_factors(lp.market, tau)
    lp_g = greeks._locked_lp(lp, s_t, factors)
    ig_g = greeks._ig(ig, s_t, market, factors)
    total = ref_sum_reports(lp_g, ig_g)
    v0 = ig.notional_v0
    half_plus_fees = 0.5 + market.phi * ig.maturity_T
    return HedgedGreeks(
        lp=lp_g,
        ig=ig_g,
        total=total,
        delta_pred=v0 / (2.0 * ig.strike_k),
        theta_pred=require_finite("theta_pred", v0 * market.r_f * half_plus_fees * factors[1]),
        rho_pred=require_finite("rho_pred", -v0 * ig.tau * half_plus_fees * factors[1]),
    )


def ref_decay_factors(market, tau):
    return DecayFactors(*ref_factors(market, tau))


def ref_expected_sqrt_price(s_t, market, tau):
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    return ref_exp(math.sqrt(s_t), 0.5 * market.r_f - market.sigma * market.sigma / 8.0, tau,
                   "sqrt moment exp((r_f/2 - sigma^2/8)*tau)", market)


def ref_forward_price(s_t, market, tau):
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    return ref_exp(s_t, market.r_f, tau, "forward exp(r_f*tau)", market)


# -- the cases ------------------------------------------------------------------------------

def _bits(value):
    """The exact content of a result: hex of every float, with the type of every record."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, DecayFactors):
        value = (value.beta, value.gamma_disc, value.carry)
    return type(value).__name__, tuple(_bits(item) for item in value)


def _outcome(call, *args):
    try:
        return _bits(call(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _case(rng: random.Random):
    """A position, its contract, the hedge's market and spot, and a raw tau and spot for the
    factors and moments. Rates and vols run to where exp overflows or r_f and sigma^2 are inf,
    the clock is often at maturity (tau = 0), the spot runs to where s_t**1.5 overflows or
    underflows, and a fifth of the hedges mismatch one term."""
    def rate():
        return rng.choice([0.0, -0.0, rng.uniform(-0.2, 0.2), rng.uniform(-800.0, 800.0),
                           rng.choice([1e308, -1e308])])

    def positive(decades):
        return rng.choice([math.exp(rng.uniform(-20.0, 20.0))] * 4 + [
            10.0 ** rng.uniform(-decades, decades)])

    sigma = rng.choice([0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, 60.0), 1e160])
    market = MarketParams(rate(), rate(), sigma, rng.choice([0.0, rng.uniform(0.0, 1.0), 1e300]))
    t = rng.choice([0.0, -0.0, rng.uniform(0.0, 2.0)])
    maturity = rng.choice([t, t, t + rng.uniform(0.0, 3.0), t + 10.0 ** rng.uniform(-300, 300)])
    v0, s0 = positive(100.0), positive(150.0)  # a valid pool
    spot = rng.choice([s0 * math.exp(rng.uniform(-3.0, 3.0)), 10.0 ** rng.uniform(-300.0, 300.0)])
    lp = LpState(pool_from_deposit(v0, s0), market, spot, t, maturity, locked=True)
    ig = IgContract(v0, s0, maturity, t)
    hedge_market = rng.choice([market, replace(market)])
    s_t = rng.choice([spot] * 3 + [s0 * math.exp(rng.uniform(-3.0, 3.0)),
                                   10.0 ** rng.uniform(-300.0, 300.0),
                                   rng.choice([0.0, -1.0, math.nan, math.inf])])
    mismatch = rng.randrange(30)
    if mismatch == 0:
        lp = replace(lp, locked=False)
    elif mismatch == 1:
        ig = replace(ig, strike_k=s0 * 1.5)
    elif mismatch == 2:
        ig = replace(ig, notional_v0=v0 * 2.0)
    elif mismatch == 3:
        ig = replace(ig, maturity_T=maturity + 1.0)
    elif mismatch == 4:
        ig = replace(ig, t=rng.uniform(0.0, maturity) if maturity > 0.0 else 0.0)
    elif mismatch == 5:
        hedge_market = replace(market, phi=market.phi + 0.5)
    raw_tau = rng.choice([lp.tau, 0.0, -0.0, -1.0, math.nan, math.inf,
                          10.0 ** rng.uniform(-300.0, 300.0)])
    raw_s = rng.choice([spot, 0.0, math.nan, 10.0 ** rng.uniform(-300.0, 300.0)])
    return lp, ig, hedge_market, s_t, raw_tau, raw_s


def _revaluation(case, hedge, factors, sqrt_moment, forward):
    lp, ig, market, s_t, raw_tau, raw_s = case
    unlocked = replace(lp, locked=False)
    return (
        _outcome(price_unlocked_lp, unlocked),
        _outcome(price_locked_lp, lp) if lp.locked else None,
        _outcome(price_ig, ig, s_t, market),
        _outcome(greeks_unlocked_lp, unlocked),
        _outcome(greeks_locked_lp, lp) if lp.locked else None,
        _outcome(greeks_ig, ig, s_t, market),
        _outcome(hedge, lp, ig, market, s_t),
        _outcome(factors, lp.market, raw_tau),
        _outcome(sqrt_moment, raw_s, lp.market, raw_tau),
        _outcome(forward, raw_s, lp.market, raw_tau),
    )


def test_seeded_revaluations_keep_every_bit_and_message():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(CASES // CHUNK):
        cases = [_case(rng) for _ in range(CHUNK)]
        got = [_revaluation(c, hedge_report, decay_factors, expected_sqrt_price, forward_price)
               for c in cases]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pricing, "_factors", ref_factors)
            patch.setattr(greeks, "_factors", ref_factors)
            patch.setattr(GreeksReport, "at_spot", classmethod(ref_at_spot))
            want = [_revaluation(c, ref_hedge_report, ref_decay_factors,
                                 ref_expected_sqrt_price, ref_forward_price) for c in cases]
        for case, g, w in zip(cases, got, want):
            assert g == w, case
            for outcome in w:
                if isinstance(outcome, tuple) and outcome[0].endswith("Error"):
                    seen.add(outcome[1].split(" ")[0] if outcome[0] == "DomainError"
                             else outcome[0])
            if case[0].tau == 0.0 and w[4] is not None and w[4][0] == "GreeksReport":
                seen.add("tau = 0 value")
            if w[6][0] == "HedgedGreeks" and case[2] is not case[0].market:
                seen.add("equal distinct market")
    assert {"decay", "forward", "sqrt", "tau", "s_t**1.5", "non-finite", "s_t", "LP", "IG",
            "HedgeMismatchError", "tau = 0 value", "equal distinct market"} <= seen, seen
