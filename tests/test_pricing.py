import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpgreeks import (
    DomainError,
    IgContract,
    LpState,
    MarketParams,
    decay_factors,
    expected_sqrt_price,
    forward_price,
    impermanent_gain,
    pool_from_deposit,
    price_ig,
    price_locked_lp,
    price_unlocked_lp,
)

# Frozen oracle values, evaluated once at 30 significant digits with mpmath.
BETA_QUARTER = 0.98111804044899184907       # exp(-(0.03/2 + 0.7^2/8) * 0.25)
GAMMA_QUARTER = 0.99252805481913843052      # exp(-0.03 * 0.25)
ESQRT_QUARTER = 31.25924397034180446        # sqrt(1000) * exp((0.015 - 0.06125) * 0.25)
FWD_ONE_YEAR = 1030.4545339535168556        # 1000 * exp(0.03)
LOCKED_HALF_YEAR_PRICE = 10307.444431899487706
IG_WEEK_PRICE = 11.736715913895504446
EXP_HALF_RATE = 1.0151130646157189793       # exp(0.03/2)

POOL = pool_from_deposit(10000.0, 1000.0)

markets = st.builds(
    MarketParams.from_rate_differential,
    st.floats(-0.05, 0.10),
    st.floats(0.0, 1.5),
    st.floats(0.0, 0.5),
)


class TestMarketParams:
    def test_rate_differential(self):
        m = MarketParams(r_x=0.05, r_y=0.02, sigma=0.7, phi=0.1)
        assert m.r_f == pytest.approx(0.03)

    def test_from_differential_books_on_x_leg(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.1)
        assert (m.r_x, m.r_y) == (0.03, 0.0)
        assert m.r_f == 0.03

    def test_negative_differential_allowed(self):
        m = MarketParams.from_rate_differential(-0.04, 0.5, 0.0)
        assert m.r_f == -0.04

    def test_rejects_negative_sigma_or_phi(self):
        with pytest.raises(DomainError):
            MarketParams(0.0, 0.0, -0.1, 0.0)
        with pytest.raises(DomainError):
            MarketParams(0.0, 0.0, 0.1, -0.2)


class TestDerivedAttributes:
    """MarketParams.r_f and the clocks' tau are read-only attributes set once in __post_init__,
    not fields: bit for bit their formula, set afresh by replace, kept by copy and pickle, and
    seen by none of the dataclass machinery."""

    @staticmethod
    def _objects(rng):
        m = MarketParams(rng.uniform(-0.2, 0.2), math.ldexp(rng.random(), rng.randint(-60, 2)),
                         rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.5))
        t = rng.uniform(0.0, 2.0)
        maturity = t + math.ldexp(rng.random(), rng.randint(-60, 3))
        return (m, LpState(POOL, m, rng.uniform(1.0, 5000.0), t, maturity, rng.random() < 0.5),
                IgContract(1e4, rng.uniform(1.0, 5000.0), maturity, t))

    @staticmethod
    def _derived(obj):
        if isinstance(obj, MarketParams):
            return "r_f", (obj.r_x - obj.r_y).hex()
        return "tau", (obj.maturity_T - obj.t).hex()

    def test_bits_and_copies(self):
        rng = random.Random(25)
        for _ in range(300):
            for obj in self._objects(rng):
                name, bits = self._derived(obj)
                for twin in (obj, copy.copy(obj), copy.deepcopy(obj),
                             pickle.loads(pickle.dumps(obj))):
                    assert twin == obj and getattr(twin, name).hex() == bits

    def test_replace_sets_them_afresh(self, locked_half_year, week_contract):
        m = replace(locked_half_year.market, r_y=0.5)
        assert m.r_f == m.r_x - 0.5
        assert replace(locked_half_year, t=0.1).tau == 0.5 - 0.1
        assert replace(week_contract, maturity_T=2.0).tau == 2.0
        assert replace(MarketParams.from_rate_differential(0.03, 0.7, 0.1)).r_f == 0.03

    def test_not_fields(self, locked_half_year, week_contract):
        for obj in (locked_half_year.market, locked_half_year, week_contract):
            name, _ = self._derived(obj)
            assert name not in {f.name for f in fields(obj)}
            assert name not in asdict(obj) and f"{name}=" not in repr(obj)
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0.0)
        assert repr(week_contract) == (
            "IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=0.019178082191780823, "
            "t=0.0)")


class TestDecayFactors:
    def test_flat_market(self):
        d = decay_factors(MarketParams.from_rate_differential(0.0, 0.0, 0.0), 1.0)
        assert (d.beta, d.gamma_disc) == (1.0, 1.0)

    def test_quarter_year_factors(self, half_year_market):
        d = decay_factors(half_year_market, 0.25)
        assert d.beta == pytest.approx(BETA_QUARTER, rel=1e-14)
        assert d.gamma_disc == pytest.approx(GAMMA_QUARTER, rel=1e-14)

    def test_zero_tau_gives_unit_factors(self, half_year_market):
        d = decay_factors(half_year_market, 0.0)
        assert (d.beta, d.gamma_disc) == (1.0, 1.0)

    def test_rejects_negative_tau(self, half_year_market):
        with pytest.raises(DomainError):
            decay_factors(half_year_market, -0.1)

    def test_infinite_exponent_is_domain_error(self):
        # -r_f * tau = 1e310 is inf before exp, and math.exp(inf) returns inf
        m = MarketParams.from_rate_differential(-1e300, 0.5, 0.0)
        with pytest.raises(DomainError) as excinfo:
            decay_factors(m, 1e10)
        assert "decay factors" in str(excinfo.value)
        assert "overflow at r_f=-1e+300, sigma=0.5, tau=10000000000.0" in str(excinfo.value)

    @given(m=markets, tau=st.floats(0.0, 2.0))
    def test_positive_and_bounded(self, m, tau):
        d = decay_factors(m, tau)
        assert d.beta > 0.0
        assert d.gamma_disc > 0.0
        if 0.5 * m.r_f + m.sigma**2 / 8.0 >= 0.0:
            assert d.beta <= 1.0


class TestMoments:
    def test_deterministic_sqrt(self):
        m = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        assert expected_sqrt_price(100.0, m, 5.0) == 10.0

    def test_quarter_year_sqrt_moment(self, half_year_market):
        value = expected_sqrt_price(1000.0, half_year_market, 0.25)
        assert value == pytest.approx(ESQRT_QUARTER, rel=1e-14)

    def test_zero_vol_collapses_to_sqrt_forward(self):
        m = MarketParams.from_rate_differential(0.03, 0.0, 0.0)
        assert expected_sqrt_price(1.0, m, 1.0) == pytest.approx(EXP_HALF_RATE, rel=1e-14)

    def test_forward_flat_rate(self):
        m = MarketParams.from_rate_differential(0.0, 0.7, 0.0)
        assert forward_price(1000.0, m, 3.0) == 1000.0

    def test_forward_one_year(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        assert forward_price(1000.0, m, 1.0) == pytest.approx(FWD_ONE_YEAR, rel=1e-14)

    def test_forward_zero_tau(self, half_year_market):
        assert forward_price(1000.0, half_year_market, 0.0) == 1000.0

    @pytest.mark.parametrize("moment", [forward_price, expected_sqrt_price])
    def test_overflow_names_rate_vol_and_time(self, moment):
        # exp(r_f * tau) = exp(1e6) is past the float range
        m = MarketParams.from_rate_differential(1e3, 0.7, 0.0)
        with pytest.raises(DomainError) as excinfo:
            moment(1000.0, m, 1e3)
        assert "overflow at r_f=1000.0, sigma=0.7, tau=1000.0" in str(excinfo.value)

    @pytest.mark.parametrize("moment", [forward_price, expected_sqrt_price])
    def test_infinite_exponent_is_domain_error(self, moment):
        # r_f * tau = 1e310 is inf before exp, and math.exp(inf) returns inf
        m = MarketParams.from_rate_differential(1e300, 0.5, 0.0)
        with pytest.raises(DomainError) as excinfo:
            moment(1000.0, m, 1e10)
        assert "overflow at r_f=1e+300, sigma=0.5, tau=10000000000.0" in str(excinfo.value)

    @pytest.mark.parametrize("moment, r_f, tau", [
        (forward_price, 1.0, 100.0), (expected_sqrt_price, 5.0, 280.0)])
    def test_product_overflow_names_rate_vol_and_time(self, moment, r_f, tau):
        # exp of the exponent is finite, but its product with s_t = 1e300 is not
        m = MarketParams.from_rate_differential(r_f, 0.5, 0.0)
        with pytest.raises(DomainError) as excinfo:
            moment(1e300, m, tau)
        assert f"overflow at r_f={r_f!r}, sigma=0.5, tau={tau!r}" in str(excinfo.value)

    def test_sqrt_moment_at_zero_tau_ignores_an_overflowing_vol(self):
        # sigma^2 = inf, and (r_f/2 - inf) * 0 would make the exponent nan
        m = MarketParams.from_rate_differential(0.03, 1e200, 0.0)
        assert expected_sqrt_price(1000.0, m, 0.0) == math.sqrt(1000.0)

    def test_sqrt_moment_at_zero_tau_keeps_its_bits(self, half_year_market):
        # the old route, sqrt(s_t) * exp(exponent * 0), gives the same float
        for s_t in (1e-300, 0.37, 1000.0, 7.5e299):
            assert expected_sqrt_price(s_t, half_year_market, 0.0) == math.sqrt(s_t) * 1.0

    @given(m=markets, s_t=st.floats(1e-3, 1e6), tau=st.floats(0.0, 2.0))
    def test_discounted_forward_is_martingale(self, m, s_t, tau):
        d = decay_factors(m, tau)
        assert d.gamma_disc * forward_price(s_t, m, tau) / s_t == pytest.approx(
            1.0, rel=1e-12)


class TestUnlockedPrice:
    def test_at_entry(self, benchmark_pool):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        state = LpState(benchmark_pool, m, s_t=1000.0, t=0.0, maturity_T=0.0, locked=False)
        assert price_unlocked_lp(state) == 10000.0

    def test_quadrupled_price(self, benchmark_pool):
        m = MarketParams.from_rate_differential(0.0, 0.7, 0.0)
        state = LpState(benchmark_pool, m, s_t=4000.0, t=0.0, maturity_T=0.0, locked=False)
        assert price_unlocked_lp(state) == 20000.0

    def test_linear_fee_leg(self, benchmark_pool):
        m = MarketParams.from_rate_differential(0.0, 0.7, 0.10)
        state = LpState(benchmark_pool, m, s_t=1000.0, t=0.5, maturity_T=0.5, locked=False)
        assert price_unlocked_lp(state) == pytest.approx(10500.0, rel=1e-12)

    def test_ignores_an_overflowing_vol(self, benchmark_pool):
        # sigma^2 is inf here; the redeemable value must not turn into inf * 0
        m = MarketParams.from_rate_differential(0.03, 1e200, 0.10)
        state = LpState(benchmark_pool, m, s_t=1000.0, t=0.5, maturity_T=0.5, locked=False)
        assert price_unlocked_lp(state) == price_unlocked_lp(
            replace(state, market=replace(m, sigma=0.7)))

    def test_rejects_locked_state(self, locked_half_year):
        with pytest.raises(DomainError):
            price_unlocked_lp(locked_half_year)


class TestLockedPrice:
    def test_half_year_scenario(self, locked_half_year):
        assert price_locked_lp(locked_half_year) == pytest.approx(
            LOCKED_HALF_YEAR_PRICE, rel=1e-14)

    def test_degenerates_to_unlocked_value(self, benchmark_pool):
        m = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        locked = LpState(benchmark_pool, m, s_t=2500.0, t=0.1, maturity_T=1.4, locked=True)
        unlocked = replace(locked, locked=False)
        assert price_locked_lp(locked) == price_unlocked_lp(unlocked)

    def test_terminal_payoff_at_zero_tau(self, benchmark_pool, half_year_market):
        state = LpState(benchmark_pool, half_year_market,
                        s_t=1000.0, t=0.5, maturity_T=0.5, locked=True)
        assert price_locked_lp(state) == pytest.approx(
            10000.0 * (1.0 + 0.10 * 0.5), rel=1e-12)

    def test_rejects_unlocked_state(self, benchmark_pool, half_year_market):
        state = LpState(benchmark_pool, half_year_market,
                        s_t=1000.0, t=0.25, maturity_T=0.5, locked=False)
        with pytest.raises(DomainError):
            price_locked_lp(state)

    def test_rejects_clock_past_maturity(self, benchmark_pool, half_year_market):
        with pytest.raises(DomainError):
            LpState(benchmark_pool, half_year_market,
                    s_t=1000.0, t=0.6, maturity_T=0.5, locked=True)


class TestIgPrice:
    def test_week_at_the_money(self, week_contract, week_market):
        assert price_ig(week_contract, 1000.0, week_market) == pytest.approx(
            IG_WEEK_PRICE, rel=1e-12)

    def test_flat_market_at_strike_is_zero(self, week_contract):
        m = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        assert price_ig(week_contract, 1000.0, m) == 0.0

    def test_terminal_payoff_at_zero_tau(self):
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=0.5, t=0.5)
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        assert price_ig(contract, 4000.0, m) == 10000.0 * impermanent_gain(3.0)

    def test_rejects_bad_spot(self, week_contract, week_market):
        with pytest.raises(DomainError):
            price_ig(week_contract, -1.0, week_market)

    @given(
        m=markets,
        s_t=st.floats(1.0, 1e5),
        k=st.floats(1.0, 1e5),
        tau=st.floats(0.0, 2.0),
    )
    def test_premium_never_negative(self, m, s_t, k, tau):
        contract = IgContract(notional_v0=10000.0, strike_k=k, maturity_T=tau, t=0.0)
        assert price_ig(contract, s_t, m) >= -1e-9

    def test_contract_validation(self):
        with pytest.raises(DomainError):
            IgContract(notional_v0=-1.0, strike_k=1000.0, maturity_T=1.0)
        with pytest.raises(DomainError):
            IgContract(notional_v0=1.0, strike_k=0.0, maturity_T=1.0)
        with pytest.raises(DomainError):
            IgContract(notional_v0=1.0, strike_k=1.0, maturity_T=0.5, t=0.6)
