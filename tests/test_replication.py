import csv
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgreeks import (
    DomainError,
    IgContract,
    MarketParams,
    build_strike_grid,
    decay_factors,
    forward_price,
    impermanent_loss,
    price_ig,
    price_ig_via_strip,
    replicate_il_payoff,
    strip_density,
    strip_price_error_bound,
    vanilla_price,
    write_grid_csv,
)
from lpgreeks import replication

WEEK_TAU = 7.0 / 365.0


class TestStripDensity:
    def test_plug_in_values(self):
        assert strip_density(1.0, 1.0) == -0.25
        assert strip_density(4.0, 1.0) == -1.0 / 32.0
        assert strip_density(1000.0, 1000.0) == -2.5e-7

    @given(k=st.floats(1e-3, 1e6), s0=st.floats(1e-3, 1e6))
    def test_always_negative(self, k, s0):
        assert strip_density(k, s0) < 0.0

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            strip_density(0.0, 1.0)
        with pytest.raises(DomainError):
            strip_density(1.0, -1.0)

    @pytest.mark.parametrize("k,s0", [
        (1e250, 1.0),  # K**1.5 overflows
        (1e-300, 1e-300),  # 4*K**1.5*sqrt(s0) underflows to 0
        (1e-206, 1.0),  # the magnitude overflows to inf
        (1e200, 1e100),  # the denominator overflows to inf, the magnitude is 0
    ])
    def test_density_outside_the_float_range_is_domain_error(self, k, s0):
        with pytest.raises(DomainError) as excinfo:
            strip_density(k, s0)
        assert str(excinfo.value) == ("strip density 1/(4*K**1.5*sqrt(s0)) is not a positive "
                                      f"float at k_strike={k!r}, s0={s0!r}")

    def test_extreme_density_inside_the_float_range_keeps_its_bits(self):
        assert strip_density(1.0, 1e-320) == -2.5000139161378407e+159

    def test_payoff_and_slope_vanish_at_entry(self):
        # the replication identity's h(S0) and h'(S0) terms drop out because
        # both are zero at the entry price
        s0 = 1000.0
        h = math.sqrt(s0 / s0) - s0 / (2.0 * s0) - 0.5
        h_prime = 1.0 / (2.0 * math.sqrt(s0 * s0)) - 1.0 / (2.0 * s0)
        assert h == 0.0
        assert h_prime == 0.0


class TestGridConstruction:
    def test_entry_node_on_both_sides(self):
        grid = build_strike_grid(1000.0, 0.7, 1.0, target_tol=1e-4)
        assert grid.put_strikes[-1] == 1000.0
        assert grid.call_strikes[0] == 1000.0

    def test_cuts_and_monotonicity(self):
        grid = build_strike_grid(1000.0, 0.7, 1.0, target_tol=1e-4)
        assert grid.lower_cut < 1000.0 < grid.upper_cut
        assert grid.lower_cut == pytest.approx(1000.0 * math.exp(-5.6), rel=1e-12)
        assert grid.upper_cut == pytest.approx(1000.0 * math.exp(5.6), rel=1e-12)
        assert np.all(np.diff(grid.put_strikes) > 0.0)
        assert np.all(np.diff(grid.call_strikes) > 0.0)
        assert np.all(grid.put_weights > 0.0)
        assert np.all(grid.call_weights > 0.0)

    def test_minimum_half_width(self):
        grid = build_strike_grid(1000.0, 0.1, 0.1, target_tol=1e-3)
        assert grid.upper_cut == pytest.approx(1000.0 * math.exp(5.0), rel=1e-12)

    def test_reported_estimate_meets_tolerance(self):
        grid = build_strike_grid(1000.0, 0.7, 1.0, target_tol=1e-6)
        assert grid.error_estimate <= 1e-6
        for ratio in (0.1, 10.0 ** -0.5, 1.0, 10.0 ** 0.5, 10.0):
            s_terminal = 1000.0 * ratio
            exact = impermanent_loss(s_terminal / 1000.0 - 1.0)
            assert abs(replicate_il_payoff(grid, s_terminal) - exact) <= 1e-6

    def test_doubling_halves_error_at_least(self):
        errors = []
        for n in (64, 128, 256, 512, 1024, 2048):
            grid = build_strike_grid(1000.0, 0.7, 1.0, n_side=n)
            errors.append(abs(replicate_il_payoff(grid, 4000.0) - impermanent_loss(3.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 2.0

    def test_node_cap_is_domain_error_naming_inputs(self, monkeypatch):
        # 1e-12 is out of reach; a lower cap stops the doubling sooner
        monkeypatch.setattr("lpgreeks.replication._N_CAP", 256)
        with pytest.raises(DomainError) as excinfo:
            build_strike_grid(1000.0, 0.7, 0.25, target_tol=1e-12)
        message = str(excinfo.value)
        assert "256 nodes per side" in message
        assert "target_tol=1e-12" in message and "sigma=0.7" in message
        assert "tau=0.25" in message

    @settings(max_examples=40, deadline=None)
    @given(s0=st.floats(1e-3, 1e6), sigma=st.floats(0.05, 2.0), tau=st.floats(1e-3, 10.0),
           target_tol=st.floats(-7.0, -2.0).map(lambda e: 10.0 ** e))
    def test_pinned_node_count_repeats_the_adaptive_grid(self, s0, sigma, tau, target_tol):
        adaptive = build_strike_grid(s0, sigma, tau, target_tol=target_tol)
        pinned = build_strike_grid(s0, sigma, tau, n_side=len(adaptive.put_strikes) - 1)
        for name in ("put_strikes", "put_weights", "call_strikes", "call_weights"):
            assert np.array_equal(getattr(pinned, name), getattr(adaptive, name))
        assert pinned.error_estimate == adaptive.error_estimate
        assert pinned.scheme == adaptive.scheme

    @pytest.mark.parametrize("s0", [1e300, 1e200, 1e-200, 1e-300])
    def test_extreme_entry_price_is_domain_error_naming_s0(self, s0):
        # the density denominator overflows at the upper cut or underflows at the lower one
        with pytest.raises(DomainError) as excinfo:
            build_strike_grid(s0, 0.7, 0.5)
        assert f"s0={s0!r}" in str(excinfo.value)
        assert "1/(4*K**1.5*sqrt(s0))" in str(excinfo.value)

    @pytest.mark.parametrize("s0", [1e-150, 1e152])
    def test_entry_price_inside_the_density_range_builds(self, s0):
        grid = build_strike_grid(s0, 0.7, 0.5)
        assert grid.error_estimate <= 1e-5
        assert grid.put_strikes[-1] == s0 == grid.call_strikes[0]

    def test_rejects_bad_tolerance(self):
        for bad in (0.0, -1e-3, 0.5):
            with pytest.raises(DomainError):
                build_strike_grid(1000.0, 0.7, 1.0, target_tol=bad)


def _fuzz_case(rng: random.Random) -> tuple:
    """(s0, sigma, tau, target_tol, n_side): s0 from e**-300 to e**300, some sigma or
    tau exactly 0, and a third of the cases pinned to an odd or even n_side."""
    s0 = math.exp(rng.uniform(-300.0, 300.0) if rng.random() < 0.3 else rng.uniform(-8.0, 12.0))
    sigma = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 0.4)
    tau = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 1.0)
    n_side = rng.choice([None, None, rng.randrange(2, 600)])
    return s0, sigma, tau, 10.0 ** rng.uniform(-7.0, -2.0), n_side


def _one_price_reconstruction(grid, s_terminal: float) -> float:
    put_leg = float(np.sum(np.maximum(grid.put_strikes - s_terminal, 0.0) * grid.put_weights))
    call_leg = float(np.sum(np.maximum(s_terminal - grid.call_strikes, 0.0) * grid.call_weights))
    return -(put_leg + call_leg)


class TestNestedRefinement:
    """Each doubling reuses the coarse level's nodes; the grid it picks must carry the
    bits of a fresh build at that level, and the one-pass reconstruction the bits of
    one sum per price."""

    def test_fuzzed_grids_equal_a_fresh_build_at_their_level(self, monkeypatch):
        rng = random.Random(20261018)
        built = pinned = 0
        for _ in range(2000):
            s0, sigma, tau, target_tol, n_side = _fuzz_case(rng)
            try:
                grid = build_strike_grid(s0, sigma, tau, target_tol=target_tol, n_side=n_side)
            except DomainError as exc:  # an entry price past the density's float range
                assert f"s0={s0!r}" in str(exc)
                continue
            built += 1
            pinned += n_side is not None
            n = len(grid.put_strikes) - 1
            assert grid.scheme == f"trapezoid-log/{n}+{n}"
            half_width = max(8.0 * sigma * math.sqrt(tau), 5.0)
            fresh = (*replication._side(s0, -half_width, 0.0, n),
                     *replication._side(s0, 0.0, half_width, n))
            ours = (grid.put_strikes, grid.put_weights, grid.call_strikes, grid.call_weights)
            for got, want in zip(ours, fresh):
                assert got.tobytes() == want.tobytes()

            # blocks of one row, of two rows and (for n < 10922) of all six
            monkeypatch.setattr(replication, "_BLOCK", rng.choice([1, 3 * n, 1 << 16]))
            prices = s0 * np.array([0.1, 0.5, 1.0, 2.0, 10.0, rng.uniform(0.01, 20.0)])
            rows = replication._reconstruct(ours[:2], ours[2:], prices)
            for s_terminal, row in zip(prices.tolist(), rows.tolist()):
                assert row.hex() == _one_price_reconstruction(grid, s_terminal).hex()
            single = replicate_il_payoff(grid, prices[-1].item())
            assert type(single) is float and single.hex() == rows[-1].hex()
        assert built >= 1500 and pinned >= 400


@pytest.fixture(scope="module")
def grid():
    return build_strike_grid(1000.0, 0.7, 1.0, target_tol=1e-5)


@pytest.fixture(scope="module")
def week_setup():
    market = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
    contract = IgContract(notional_v0=10000.0, strike_k=1000.0,
                          maturity_T=WEEK_TAU, t=0.0)
    week_grid = build_strike_grid(1000.0, 0.7, WEEK_TAU, target_tol=1e-5)
    return market, contract, week_grid


class TestPayoffReconstruction:
    def test_zero_at_entry(self, grid):
        assert replicate_il_payoff(grid, 1000.0) == 0.0

    def test_exact_surd_points(self, grid):
        assert replicate_il_payoff(grid, 4000.0) == pytest.approx(-0.5, abs=1e-4)
        assert replicate_il_payoff(grid, 250.0) == pytest.approx(-0.125, abs=1e-4)

    def test_21_point_sweep(self, grid):
        for s_terminal in np.geomspace(100.0, 10000.0, 21):
            exact = impermanent_loss(s_terminal / 1000.0 - 1.0)
            assert abs(replicate_il_payoff(grid, s_terminal)
                       - exact) <= max(grid.error_estimate, 1e-5)

    def test_rejects_non_positive_terminal(self, grid):
        with pytest.raises(DomainError):
            replicate_il_payoff(grid, 0.0)


class TestVanillaPrice:
    def test_zero_vol_at_the_money_call_is_worthless(self):
        m = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        assert vanilla_price(1000.0, 1000.0, m, 1.0, "call").premium == 0.0

    def test_put_call_parity(self):
        for strike in (800.0, 1000.0, 1250.0):
            for sigma in (0.2, 0.7, 1.4):
                m = MarketParams.from_rate_differential(0.03, sigma, 0.0)
                tau = 0.5
                call = vanilla_price(strike, 1000.0, m, tau, "call").premium
                put = vanilla_price(strike, 1000.0, m, tau, "put").premium
                forward = 1000.0 * math.exp(0.03 * tau)
                disc = math.exp(-0.03 * tau)
                assert abs((call - put) - disc * (forward - strike)) <= 1e-12 * max(
                    1.0, forward, strike)

    def test_premium_dominates_discounted_intrinsic(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        tau = 0.25
        forward = 1000.0 * math.exp(0.03 * tau)
        disc = math.exp(-0.03 * tau)
        for strike in (500.0, 1000.0, 2000.0):
            call = vanilla_price(strike, 1000.0, m, tau, "call").premium
            put = vanilla_price(strike, 1000.0, m, tau, "put").premium
            assert call >= disc * max(forward - strike, 0.0) - 1e-12
            assert put >= disc * max(strike - forward, 0.0) - 1e-12
            assert call >= 0.0 and put >= 0.0

    def test_zero_tau_is_intrinsic(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        assert vanilla_price(900.0, 1000.0, m, 0.0, "call").premium == 100.0
        assert vanilla_price(900.0, 1000.0, m, 0.0, "put").premium == 0.0

    @given(
        strike=st.floats(1.0, 1e5),
        s_t=st.floats(1.0, 1e5),
        sigma=st.floats(0.0, 1.5),
        r_f=st.floats(-0.05, 0.10),
        tau=st.floats(0.0, 2.0),
    )
    def test_parity_property(self, strike, s_t, sigma, r_f, tau):
        m = MarketParams.from_rate_differential(r_f, sigma, 0.0)
        call = vanilla_price(strike, s_t, m, tau, "call").premium
        put = vanilla_price(strike, s_t, m, tau, "put").premium
        forward = s_t * math.exp(r_f * tau)
        disc = math.exp(-r_f * tau)
        assert abs((call - put) - disc * (forward - strike)) <= 1e-12 * max(
            1.0, forward, strike)

    def test_rejects_unknown_kind(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        with pytest.raises(DomainError):
            vanilla_price(1000.0, 1000.0, m, 1.0, "straddle")


class TestStripPricing:
    def test_matches_closed_form_within_one_percent(self, week_setup):
        market, contract, grid = week_setup
        closed = price_ig(contract, 1000.0, market)
        strip = price_ig_via_strip(contract, 1000.0, market, grid)
        assert abs(strip - closed) / closed <= 1e-2
        assert abs(strip - closed) <= strip_price_error_bound(contract, 1000.0, market, grid)

    def test_flat_market_at_strike_is_zero(self):
        market = MarketParams.from_rate_differential(0.0, 0.0, 0.0)
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=1.0, t=0.0)
        grid = build_strike_grid(1000.0, 0.0, 1.0, target_tol=1e-4)
        assert price_ig_via_strip(contract, 1000.0, market, grid) == 0.0

    def test_tighter_tolerance_never_hurts(self, week_setup):
        market, contract, _ = week_setup
        closed = price_ig(contract, 1000.0, market)
        errors = []
        for tol in (1e-2, 1e-3, 1e-4, 1e-5):
            grid = build_strike_grid(1000.0, 0.7, WEEK_TAU, target_tol=tol)
            errors.append(abs(price_ig_via_strip(contract, 1000.0, market, grid) - closed))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse

    def test_monotone_convergence_in_node_count(self, week_setup):
        market, contract, _ = week_setup
        closed = price_ig(contract, 1000.0, market)
        errors = []
        for n in (64, 128, 256, 512, 1024):
            grid = build_strike_grid(1000.0, 0.7, WEEK_TAU, n_side=n)
            errors.append(abs(price_ig_via_strip(contract, 1000.0, market, grid) - closed))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse

    def test_bound_takes_the_limit_where_the_forward_underflows(self):
        # the forward 1e-300 * exp(-700) underflows to 0, so d -> -inf: the whole put tail
        # counts and no call tail does
        market = MarketParams.from_rate_differential(-700.0, 0.7, 0.0)
        contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=1.0, t=0.0)
        grid = build_strike_grid(1000.0, 0.7, 1.0)
        assert forward_price(1e-300, market, 1.0) == 0.0
        put_tail = (decay_factors(market, 1.0).gamma_disc * math.sqrt(grid.lower_cut)
                    / (2.0 * math.sqrt(1000.0)))
        assert strip_price_error_bound(contract, 1e-300, market, grid) == (
            1e4 * (grid.error_estimate + put_tail))

    def test_rejects_off_center_grid(self, week_setup):
        market, _, grid = week_setup
        shifted = IgContract(notional_v0=10000.0, strike_k=1111.0,
                             maturity_T=WEEK_TAU, t=0.0)
        with pytest.raises(DomainError):
            price_ig_via_strip(shifted, 1000.0, market, grid)


class TestGridCsv:
    def test_dump_round_trips(self, tmp_path):
        grid = build_strike_grid(1000.0, 0.7, 0.5, n_side=32)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == grid.n_strikes
        kinds = {row["kind"] for row in rows}
        assert kinds == {"put", "call"}
        puts = [row for row in rows if row["kind"] == "put"]
        assert len(puts) == len(grid.put_strikes)
        assert float(puts[-1]["strike"]) == 1000.0
        assert float(puts[0]["weight"]) == grid.put_weights[0]
