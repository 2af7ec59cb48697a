import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpgreeks import (
    DomainError,
    FeeParams,
    PoolPosition,
    hodl_value,
    lp_value,
    pool_from_deposit,
    reserves_at_price,
)

NO_FEES = FeeParams(0.0)
BENCHMARK = pool_from_deposit(10000.0, 1000.0)


class TestPoolFromDeposit:
    def test_benchmark_deposit(self):
        pos = pool_from_deposit(10000.0, 1000.0)
        assert pos.invariant_l == pytest.approx(158.1139, abs=1e-4)
        assert pos.invariant_l == pytest.approx(10000.0 / (2.0 * math.sqrt(1000.0)), rel=1e-15)
        assert pos.reserve_x0 == 5.0
        assert pos.reserve_y0 == 5000.0
        assert pos.notional_v0 == 10000.0

    def test_unit_pool(self):
        pos = pool_from_deposit(2.0, 1.0)
        assert pos.invariant_l == 1.0
        assert pos.reserve_x0 == 1.0
        assert pos.reserve_y0 == 1.0

    def test_reserve_product_is_l_squared(self):
        pos = pool_from_deposit(10000.0, 1000.0)
        assert pos.reserve_x0 * pos.reserve_y0 == pytest.approx(25000.0, rel=1e-12)
        assert pos.reserve_x0 * pos.reserve_y0 == pytest.approx(
            pos.invariant_l**2, rel=1e-12)

    @pytest.mark.parametrize("v0,s0", [
        (0.0, 1000.0), (-1.0, 1000.0), (10000.0, 0.0), (10000.0, -5.0),
        (float("nan"), 1000.0), (float("inf"), 1000.0), (10000.0, float("nan")),
    ])
    def test_rejects_bad_inputs(self, v0, s0):
        with pytest.raises(DomainError):
            pool_from_deposit(v0, s0)

    @pytest.mark.parametrize("v0,s0,reason", [
        (1e4, 1e308, "reserve_x0 must be positive and finite, got 0.0"),
        (1e-300, 1e300, "invariant_l must be positive and finite, got 0.0"),
        (5e-324, 1.0, "invariant_l must be positive and finite, got 0.0"),
        (1.596587376203165e-18, 1.1832310906642742e+299,
         "deposit is not an equal-value split (x0*S0 != y0)"),
    ])
    def test_unrepresentable_deposit_names_its_inputs(self, v0, s0, reason):
        with pytest.raises(DomainError) as excinfo:
            pool_from_deposit(v0, s0)
        assert str(excinfo.value) == (
            f"a deposit of v0={v0!r} at s0={s0!r} makes no valid pool position: {reason}")

    def test_inconsistent_position_rejected(self):
        with pytest.raises(DomainError):
            PoolPosition(invariant_l=1.0, entry_price_s0=1.0,
                         reserve_x0=2.0, reserve_y0=1.0, notional_v0=2.0)

    def test_notional_off_the_pool_constant_rejected(self):
        # reserves 1 and 1 at price 1 make L = 1, so the notional must be 2*L*sqrt(S0) = 2
        with pytest.raises(DomainError, match=r"^notional_v0 does not equal 2\*L\*sqrt\(S0\)$"):
            PoolPosition(invariant_l=1.0, entry_price_s0=1.0,
                         reserve_x0=1.0, reserve_y0=1.0, notional_v0=3.0)

    def test_inconsistent_reserves_rejected(self):
        from lpgreeks import Reserves
        with pytest.raises(DomainError):
            Reserves(x=2.0, y=1.0, price=3.0)
        with pytest.raises(DomainError):
            Reserves(x=-1.0, y=1.0, price=-1.0)

    @given(v0=st.floats(1e-6, 1e12), s0=st.floats(1e-9, 1e9))
    def test_equal_value_split(self, v0, s0):
        pos = pool_from_deposit(v0, s0)
        assert pos.reserve_x0 * pos.entry_price_s0 == pytest.approx(
            pos.reserve_y0, rel=1e-12)


class TestReservesAtPrice:
    def test_quadruple_price_halves_x_doubles_y(self, benchmark_pool):
        res = reserves_at_price(benchmark_pool, 4000.0)
        assert res.x == 2.5
        assert res.y == 10000.0

    def test_identity_at_entry(self, benchmark_pool):
        res = reserves_at_price(benchmark_pool, 1000.0)
        assert res.x == 5.0
        assert res.y == 5000.0

    def test_rejects_non_positive_price(self, benchmark_pool):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                reserves_at_price(benchmark_pool, bad)

    @given(v0=st.floats(1e-3, 1e9), s0=st.floats(1e-6, 1e6), s_t=st.floats(1e-6, 1e6))
    def test_constant_product_preserved(self, v0, s0, s_t):
        pos = pool_from_deposit(v0, s0)
        res = reserves_at_price(pos, s_t)
        assert res.x * res.y == pytest.approx(pos.invariant_l**2, rel=1e-12)

    @given(s_t=st.floats(1e-6, 1e6))
    def test_price_consistency(self, s_t):
        res = reserves_at_price(BENCHMARK, s_t)
        assert res.y / res.x == pytest.approx(s_t, rel=1e-12)


class TestLpValue:
    def test_quadruple_price_doubles_value(self, benchmark_pool):
        assert lp_value(benchmark_pool, 4000.0, 0.0, NO_FEES) == 20000.0

    def test_fees_accrue_linearly(self, benchmark_pool):
        value = lp_value(benchmark_pool, 1000.0, 1.0, FeeParams(0.10))
        assert value == pytest.approx(11000.0, rel=1e-12)

    def test_quarter_price_halves_value(self, benchmark_pool):
        assert lp_value(benchmark_pool, 250.0, 0.0, NO_FEES) == 5000.0

    def test_rejects_negative_time(self, benchmark_pool):
        with pytest.raises(DomainError):
            lp_value(benchmark_pool, 1000.0, -0.1, NO_FEES)

    @given(s_t=st.floats(1e-6, 1e6))
    def test_matches_reserve_valuation(self, s_t):
        res = reserves_at_price(BENCHMARK, s_t)
        direct = res.x * s_t + res.y
        assert lp_value(BENCHMARK, s_t, 0.0, NO_FEES) == pytest.approx(
            direct, rel=1e-12)


class TestHodlValue:
    def test_quadruple_price(self, benchmark_pool):
        assert hodl_value(benchmark_pool, 4000.0) == 25000.0

    def test_entry_price(self, benchmark_pool):
        assert hodl_value(benchmark_pool, 1000.0) == 10000.0

    def test_floor_as_price_vanishes(self, benchmark_pool):
        assert hodl_value(benchmark_pool, 1e-300) == pytest.approx(5000.0, rel=1e-12)

    @given(s_t=st.floats(1e-6, 1e6).filter(lambda s: abs(s / 1000.0 - 1.0) > 1e-5))
    def test_lp_strictly_below_hodl_off_entry(self, s_t):
        # strictness is only numerically resolvable away from the entry price
        assert lp_value(BENCHMARK, s_t, 0.0, NO_FEES) < hodl_value(BENCHMARK, s_t)
