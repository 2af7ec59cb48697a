import ast
import csv
import dataclasses
import math
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

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
from lpgreeks.config import load_config
from lpgreeks.verify import DEFAULT_TARGET_TOL as VERIFY_DEFAULT_TOL, STRIP_REL_TOL

WEEK_TAU = 7.0 / 365.0
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _rule(target_tol: float) -> tuple[float, int]:
    """(a, n_side) of the sizing rule, typed out: cuts at a*v, and the fewest nodes per side
    whose quadrature term exp(-2*pi**2*(n/a)**2) meets target_tol."""
    log_inverse_tol = math.log(1.0 / target_tol)
    a = math.sqrt(2.0 * log_inverse_tol) + 2.0
    return a, math.ceil(a * math.sqrt(log_inverse_tol / 2.0) / math.pi)


class TestGridConstruction:
    def test_entry_node_on_both_sides(self):
        grid = build_strike_grid(1000.0, 0.7, 1.0, target_tol=1e-4)
        assert grid.put_strikes[-1] == 1000.0
        assert grid.call_strikes[0] == 1000.0

    def test_cuts_and_monotonicity(self):
        grid = build_strike_grid(1000.0, 0.7, 1.0, target_tol=1e-4)
        a, n_side = _rule(1e-4)
        assert grid.half_width == pytest.approx(a * 0.7, rel=1e-15) and grid.n_side == n_side
        assert grid.put_strikes[0] < 1000.0 < grid.call_strikes[-1]
        assert grid.put_strikes[0] == pytest.approx(1000.0 * math.exp(-a * 0.7), rel=1e-14)
        assert grid.call_strikes[-1] == pytest.approx(1000.0 * math.exp(a * 0.7), rel=1e-14)
        for strikes in (grid.put_strikes, grid.call_strikes):
            assert all(low < high for low, high in zip(strikes, strikes[1:]))
        assert all(weight > 0.0 for weight in grid.put_weights + grid.call_weights)

    def test_minimum_half_width(self):
        # where sigma*sqrt(tau) is 0 so is the half width: the strip collapses onto its centre
        for sigma, tau in ((0.0, 1.0), (0.7, 0.0)):
            grid = build_strike_grid(1000.0, sigma, tau, target_tol=1e-3)
            assert grid.half_width == 0.0 and grid.log_step == 0.0
            assert grid.n_side == _rule(1e-3)[1] and grid.n_strikes == 2 * grid.n_side + 1
            side = grid.n_side + 1
            assert grid.put_strikes == grid.call_strikes == (1000.0,) * side
            assert grid.put_weights == grid.call_weights == (0.0,) * side

    def test_reported_estimate_meets_tolerance(self):
        # the payoff-sized level the reconstruction needs for 1e-6; the default grid, sized
        # for the price, is far coarser
        grid = dataclasses.replace(build_strike_grid(1000.0, 0.7, 1.0), n_side=4096)
        assert grid.price_tol == 1e-5  # finer than the rule needs: the default target_tol
        for ratio in (0.1, 10.0 ** -0.5, 1.0, 10.0 ** 0.5, 10.0):
            s_terminal = 1000.0 * ratio
            exact = impermanent_loss(s_terminal / 1000.0 - 1.0)
            assert abs(replicate_il_payoff(grid, s_terminal) - exact) <= 1e-6
        assert _default_grid_price_error(1000.0, 0.7, 1.0, 1e-6) <= 1e-6

    def test_doubling_halves_error_at_least(self):
        errors = []
        for n in (64, 128, 256, 512, 1024, 2048):
            grid = dataclasses.replace(build_strike_grid(1000.0, 0.7, 1.0), n_side=n)
            errors.append(abs(replicate_il_payoff(grid, 4000.0) - impermanent_loss(3.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 2.0

    def test_default_target_tol_has_one_owner(self):
        # build_strike_grid's default and verify's, for a config with no quadrature block
        assert replication.DEFAULT_TARGET_TOL == 1e-5
        assert VERIFY_DEFAULT_TOL is replication.DEFAULT_TARGET_TOL
        assert build_strike_grid(1000.0, 0.7, 1.0).price_tol is replication.DEFAULT_TARGET_TOL

    def test_default_node_count_depends_on_target_tol_only(self):
        # the cuts scale with sigma*sqrt(tau) and so does the step: n_side never does
        rng = random.Random(20261024)
        for target_tol, n_side in ((1e-2, 3), (1e-5, 6), (1e-9, 9), (1e-15, 14)):
            assert _rule(target_tol)[1] == n_side
            for _ in range(50):
                sigma = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-9.0, 1.3)
                tau = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6.0, 2.0)
                s0 = math.exp(rng.uniform(-300.0, 300.0))
                grid = build_strike_grid(s0, sigma, tau, target_tol=target_tol)
                assert grid.n_side == n_side and grid.n_strikes == 2 * n_side + 1
                half_width = _rule(target_tol)[0] * sigma * math.sqrt(tau)
                assert grid.half_width == pytest.approx(half_width, rel=1e-14)

    @pytest.mark.parametrize("s0", [1e300, 1e200, 1e-200, 1e-300])
    def test_extreme_entry_price_prices_within_its_bound(self, s0):
        # the strip is priced at a unit forward and scaled by sqrt(F/K0): no strike or density
        # at the entry price's scale is ever formed, so no entry price is out of its range
        market = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        contract = IgContract(notional_v0=1e4, strike_k=s0, maturity_T=0.5, t=0.0)
        grid = build_strike_grid(s0, 0.7, 0.5)
        for spot in (0.5 * s0, s0, 1.5 * s0):
            miss = abs(price_ig_via_strip(contract, spot, market, grid)
                       - price_ig(contract, spot, market))
            assert miss <= strip_price_error_bound(contract, spot, market, grid)
            assert miss <= 1e-5 * 1e4

    @pytest.mark.parametrize("s0", [1e-150, 1e152])
    def test_entry_price_inside_the_density_range_builds(self, s0):
        grid = dataclasses.replace(build_strike_grid(s0, 0.7, 0.5), n_side=1024)
        assert grid.put_strikes[-1] == s0 == grid.call_strikes[0]
        for ratio in (0.1, 10.0 ** -0.5, 1.0, 10.0 ** 0.5, 10.0):
            exact = impermanent_loss(ratio - 1.0)
            assert abs(replicate_il_payoff(grid, s0 * ratio) - exact) <= 1e-5
        assert _default_grid_price_error(s0, 0.7, 0.5, 1e-5) <= 1e-5

    @pytest.mark.parametrize("fields,message", [
        ({"entry_price": 0.0}, "entry_price must be positive and finite"),
        ({"entry_price": -1000.0}, "entry_price must be positive and finite"),
        ({"entry_price": math.nan}, "entry_price must be positive and finite"),
        ({"entry_price": math.inf}, "entry_price must be positive and finite"),
        ({"entry_price": -math.inf}, "entry_price must be positive and finite"),
        ({"half_width": -1e-300}, "half_width must be >= 0 and finite"),
        ({"half_width": -5.0}, "half_width must be >= 0 and finite"),
        ({"half_width": math.nan}, "half_width must be >= 0 and finite"),
        ({"half_width": math.inf}, "half_width must be >= 0 and finite"),
        ({"n_side": 1}, "n_side must be an int in [2, 2097152], got 1"),
        ({"n_side": 64.0}, "n_side must be an int in [2, 2097152], got 64.0"),
        ({"n_side": (1 << 21) + 1}, "n_side must be an int in [2, 2097152], got 2097153"),
        ({"price_tol": -1e-9}, "price_tol must be finite and >= 0"),
        ({"price_tol": math.nan}, "price_tol must be finite and >= 0"),
        ({"price_tol": math.inf}, "price_tol must be finite and >= 0"),
    ])
    def test_hand_built_grid_is_checked(self, fields, message):
        rule = {"entry_price": 1000.0, "half_width": 5.6, "n_side": 64, "price_tol": 1e-5}
        replication.StrikeGrid(**rule)
        replication.StrikeGrid(**{**rule, "half_width": 0.0})  # the empty strip of v = 0
        with pytest.raises(DomainError, match=re.escape(message)):
            replication.StrikeGrid(**{**rule, **fields})

    def test_pinned_n_side_obeys_the_node_cap(self):
        # a pinned count is held to the 2**21 nodes per side the cached unit nodes may take; the
        # build itself allocates nothing, even at the cap
        rule = build_strike_grid(1000.0, 0.7, 1.0)
        assert dataclasses.replace(rule, n_side=1 << 21).n_strikes == (1 << 22) + 1
        with pytest.raises(DomainError, match=re.escape("n_side must be an int in [2, 2097152]")):
            dataclasses.replace(rule, n_side=(1 << 21) + 1)

    def test_grids_compare_and_hash_by_their_rule(self):
        grid = build_strike_grid(1000.0, 0.7, 1.0)
        same = build_strike_grid(1000.0, 0.7, 1.0)
        assert grid == same and hash(grid) == hash(same) and len({grid, same}) == 1
        a, n_side = _rule(1e-5)
        assert grid == replication.StrikeGrid(1000.0, a * 0.7, n_side, 1e-5)
        for other in (dataclasses.replace(build_strike_grid(1000.0, 0.7, 1.0), n_side=128),
                      build_strike_grid(1000.0, 0.7, 1.0, target_tol=1e-6),
                      build_strike_grid(1001.0, 0.7, 1.0), build_strike_grid(1000.0, 0.8, 1.0)):
            assert grid != other

    def test_grid_arrays_are_read_only(self):
        # a grid holds its four scalars only and shares no mutable sequence: each resolved side
        # is a tuple of floats built on access, which no caller can write to
        grid = build_strike_grid(1000.0, 0.7, 1.0)
        assert [f.name for f in dataclasses.fields(grid)] == ["entry_price", "half_width", "n_side",
                                                  "price_tol"]
        assert [type(value) for value in vars(grid).values()] == [float, float, int, float]
        for name in ("put_strikes", "put_weights", "call_strikes", "call_weights"):
            side = getattr(grid, name)
            assert type(side) is tuple and len(side) == grid.n_side + 1, name
            assert {type(value) for value in side} == {float}, name
            assert side == getattr(grid, name) and side is not getattr(grid, name), name
            with pytest.raises(TypeError):
                side[0] = -1.0
        with pytest.raises(FrozenInstanceError):
            grid.n_side = 128

    def test_a_side_property_builds_its_own_field_alone(self):
        # each side property takes its field from the walk node by node and holds no other copy
        # of the side: at 2**14 nodes per side its tracemalloc peak stays within twice what the
        # tuple it returns keeps, the puts' reversal included
        grid = dataclasses.replace(build_strike_grid(1000.0, 0.7, 1.0), n_side=1 << 14)
        for name in ("put_strikes", "put_weights", "call_strikes", "call_weights"):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                side = getattr(grid, name)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(side) == grid.n_side + 1, name
            assert peak - before <= 2 * (kept - before), (name, peak - before, kept - before)

    def test_a_side_past_the_exp_range_names_its_half_width(self, tmp_path):
        # the call strikes' e^u overflows past half_width 709.78, the put weights' e^(-u/2) past
        # 1419.56; below those cuts a side resolves
        below = replication.StrikeGrid(1000.0, 709.0, 64, 1e-5)
        assert below.call_strikes[-1] == pytest.approx(1000.0 * math.exp(709.0), rel=1e-14)
        for half_width, failing in ((710.0, ("call_strikes", "call_weights")),
                                    (1420.0, ("put_strikes", "put_weights", "call_strikes",
                                              "call_weights"))):
            grid = replication.StrikeGrid(1000.0, half_width, 64, 1e-5)
            named = re.escape(f"half_width={half_width!r}")
            for name in failing:
                with pytest.raises(DomainError, match=named):
                    getattr(grid, name)
            with pytest.raises(DomainError, match=named):
                replicate_il_payoff(grid, 1000.0)
            with pytest.raises(DomainError, match=named):
                write_grid_csv(grid, tmp_path / "grid.csv")
        assert replication.StrikeGrid(1000.0, 710.0, 64, 1e-5).put_strikes[0] == (
            1000.0 * math.exp(-710.0))

    def test_hand_built_grid_of_fewest_nodes_builds(self):
        grid = replication.StrikeGrid(1000.0, 5.0, 2, 0.0)
        assert grid.n_strikes == 5 and grid.put_strikes[-1] == grid.call_strikes[0] == 1000.0
        assert grid.put_strikes[0] == pytest.approx(1000.0 * math.exp(-5.0), rel=1e-14)
        assert grid.call_strikes[-1] == pytest.approx(1000.0 * math.exp(5.0), rel=1e-14)
        assert replicate_il_payoff(grid, 1000.0) == 0.0

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


def _fuzz_grid(s0: float, sigma: float, tau: float, target_tol: float,
               n_side: int | None) -> replication.StrikeGrid:
    """The rule's grid for target_tol, or the same grid with n_side nodes per side."""
    grid = build_strike_grid(s0, sigma, tau, target_tol=target_tol)
    return grid if n_side is None else dataclasses.replace(grid, n_side=n_side)


def _one_price_reconstruction(grid, s_terminal: float) -> float:
    """Minus the fsum of every node's payoff times its weight, read off the grid's four sides."""
    puts = [max(k - s_terminal, 0.0) * w for k, w in zip(grid.put_strikes, grid.put_weights)]
    calls = [max(s_terminal - k, 0.0) * w for k, w in zip(grid.call_strikes, grid.call_weights)]
    return -math.fsum(puts + calls)


class TestNestedRefinement:
    """A grid must resolve at its entry price to the strikes and weights of its rule, and the
    payoff reconstruction must carry the bits of one sum per side."""

    def test_fuzzed_grids_equal_a_fresh_build_at_their_level(self):
        rng = random.Random(20261018)
        pinned = 0
        for _ in range(2000):
            s0, sigma, tau, target_tol, n_side = _fuzz_case(rng)
            grid = _fuzz_grid(s0, sigma, tau, target_tol, n_side)
            pinned += n_side is not None
            n = len(grid.put_strikes) - 1
            assert grid.n_side == n
            assert grid.n_strikes == 2 * n + 1 and grid.log_step == grid.half_width / n
            assert grid.half_width == pytest.approx(_rule(target_tol)[0] * sigma * math.sqrt(tau),
                                                        rel=1e-14)
            # each side typed out: K = s0*e^u, weight coeff*h/(4*sqrt(K*s0)), half at both ends
            for steps, strikes, weights in ((range(-n, 1), grid.put_strikes, grid.put_weights),
                                            (range(n + 1), grid.call_strikes, grid.call_weights)):
                u = [grid.half_width * (i / n) for i in steps]
                assert [k.hex() for k in strikes] == [(s0 * math.exp(x)).hex() for x in u]
                coeff = [grid.log_step] * (n + 1)
                coeff[0] = coeff[-1] = 0.5 * grid.log_step
                want = [c / (4.0 * math.sqrt(math.exp(x)) * s0) for c, x in zip(coeff, u)]
                assert all(abs(w - ref) <= 1e-14 * ref for w, ref in zip(weights, want, strict=True))
                # and by bits, the walk's own expression coeff*h*e^(-u/2)/(4*K0)
                assert [w.hex() for w in weights] == [
                    (c * math.exp(-x / 2.0) / (4.0 * s0)).hex() for c, x in zip(coeff, u)]

            assert grid.price_tol == target_tol

            for ratio in (0.1, 0.5, 1.0, 2.0, 10.0, rng.uniform(0.01, 20.0)):
                s_terminal = s0 * ratio
                single = replicate_il_payoff(grid, s_terminal)
                assert type(single) is float
                assert single.hex() == _one_price_reconstruction(grid, s_terminal).hex()
        assert pinned >= 400

    def test_a_terminal_price_on_or_beside_a_node_keeps_the_full_sums_bits(self):
        # only the nodes in the money are summed; at a node's strike, or one ulp either side of
        # it, each node must still fall on the side the full sum puts it: three sampled nodes and
        # the entry price, where both sides start, on 300 fuzzed grids, and every node of a
        # grid of the fewest nodes
        def check(grid, strikes):
            for k in strikes:
                for s_terminal in (math.nextafter(k, 0.0), k, math.nextafter(k, math.inf)):
                    assert replicate_il_payoff(grid, s_terminal).hex() == (
                        _one_price_reconstruction(grid, s_terminal).hex())

        rng = random.Random(20261020)
        for _ in range(300):
            grid = _fuzz_grid(*_fuzz_case(rng))
            check(grid, rng.sample(grid.put_strikes + grid.call_strikes, 3) + [grid.entry_price])
        fewest = replication.StrikeGrid(1000.0, 5.0, 2, 0.0)
        check(fewest, fewest.put_strikes + fewest.call_strikes)

    def test_fuzzed_grids_take_the_smallest_rule_level(self):
        rng = random.Random(20261019)
        chosen = dict.fromkeys((3, 4, 5, 6, 7), 0)  # target_tol from 1e-2 to 1e-7
        for _ in range(600):
            s0, sigma, tau, target_tol, _ = _fuzz_case(rng)
            grid = build_strike_grid(s0, sigma, tau, target_tol=target_tol)
            n, a = grid.n_side, _rule(target_tol)[0]
            assert math.exp(-2.0 * (math.pi * n / a) ** 2) <= target_tol * (1.0 + 1e-12)
            assert math.exp(-2.0 * (math.pi * (n - 1) / a) ** 2) > target_tol
            assert grid.price_tol == target_tol
            chosen[n] += 1
        assert min(chosen.values()) >= 15, chosen


EPS = 2.0 ** -52
TINY = mpmath.mpf(2) ** -1022  # the smallest normal float


def _black_40_digits(log_moneyness: float, vol: float, f: float, k: float,
                     call: bool) -> tuple:
    """(premium, size) at 40 digits of the undiscounted Black value with forward f, strike k and
    log(f/k) = log_moneyness, each taken as exact: f*N(d1) - k*N(d2) for a call and
    k*N(-d2) - f*N(-d1) for a put, each kind typed out on its own, and the size of its two terms,
    f*N(+-d1) + k*N(+-d2)."""
    with mpmath.workdps(40):
        vol, f, k = mpmath.mpf(vol), mpmath.mpf(f), mpmath.mpf(k)
        d1 = mpmath.mpf(log_moneyness) / vol + vol / 2
        d2 = d1 - vol
        sqrt2 = mpmath.sqrt(2)
        if call:  # N(d) = erfc(-d/sqrt(2))/2
            plus, minus = f * mpmath.erfc(-d1 / sqrt2) / 2, k * mpmath.erfc(-d2 / sqrt2) / 2
        else:
            plus, minus = k * mpmath.erfc(d2 / sqrt2) / 2, f * mpmath.erfc(d1 / sqrt2) / 2
        return plus - minus, plus + minus


class TestOneBlackPass:
    """The one scalar Black value that prices the vanillas and every strip node, against 40
    digits on 1500 seeded cases: each vanilla, each node a strip prices and the strip sum.

    Tolerances, in units of eps = 2**-52 times the size of the terms that are added up:
    - a vanilla, 4096 (2**-40): N's relative error in the far tail is about d**2*eps, from
      rounding d, and a strike e^(+-12) from the entry price puts |d| near 40. Its reference
      takes the logarithm of the rounded F/K at 40 digits;
    - a strip node, 1024 (2**-42): its |d| is at most a + v/2, under 12 on these grids;
    - the strip price, 4 times v0*disc*eps*(sqrt(F/K0)*x*coth(x) + (1 + F/K0)/2), the sums the
      price adds up, and below the rounding term of strip_price_error_bound, which is n_strikes
      times that.
    Where N or a product falls below the smallest normal float its value is off by up to
    2**-1022 times the factor it multiplies, so that much more is allowed. At sigma*sqrt(tau) = 0
    a premium is intrinsic value, bit for bit. A strip of up to 32 nodes a side is checked at
    every node and as a sum; a larger pinned strip at 8 seeded nodes."""

    def test_seeded_cases_match_40_digits(self, monkeypatch):
        nodes = []

        def spy(*args):
            nodes.append((args, black(*args)))
            return nodes[-1][1]

        black = replication._black
        monkeypatch.setattr(replication, "_black", spy)
        rng = random.Random(20261022)
        seen = dict.fromkeys(("sigma*sqrt(tau) = 0", "forward = strike", "+0.0 put",
                              "strip summed"), 0)
        for case in range(1500):
            s0, sigma, tau, target_tol, n_side = _fuzz_case(rng)
            if case % 5 == 0:  # at rate 0 and spot = strike the forward is the strike
                r_f, spot = 0.0, s0
            else:
                r_f, spot = rng.uniform(-0.5, 0.5), s0 * math.exp(rng.uniform(-4.0, 4.0))
            market = MarketParams.from_rate_differential(r_f, sigma, 0.0)
            contract = IgContract(notional_v0=1e4, strike_k=s0, maturity_T=tau, t=0.0)
            forward, disc, vol = replication._lognormal(spot, market, tau)
            seen["sigma*sqrt(tau) = 0"] += vol == 0.0
            seen["forward = strike"] += forward == s0

            for strike in (s0, forward, s0 * math.exp(rng.uniform(-12.0, 12.0))):
                for kind in ("put", "call"):
                    got = vanilla_price(strike, spot, market, tau, kind).premium
                    where = (s0, sigma, tau, r_f, spot, strike, kind)
                    if vol == 0.0:
                        intrinsic = forward - strike if kind == "call" else strike - forward
                        assert got == disc * max(intrinsic, 0.0), where
                    else:
                        with mpmath.workdps(40):
                            want, size = _black_40_digits(mpmath.log(forward / strike), vol,
                                                          forward, strike, kind == "call")
                        slack = TINY * (1 + disc * (1 + mpmath.mpf(forward) + strike))
                        assert abs(got - disc * want) <= 2.0 ** -40 * disc * size + slack, where
                    assert math.copysign(1.0, got) == 1.0, where  # a zero premium is +0.0
                    seen["+0.0 put"] += kind == "put" and got == 0.0

            grid = _fuzz_grid(s0, sigma, tau, target_tol, n_side)
            nodes.clear()
            got = price_ig_via_strip(contract, spot, market, grid)
            n, where = grid.n_side, (s0, sigma, tau, r_f, spot, n_side)
            # one call at each u = h*i >= 0; the put at -u has the same value by symmetry
            assert len(nodes) == n + 1, where
            checked = range(n + 1) if n <= 32 else sorted(rng.sample(range(n + 1), 8))
            weighted = {}
            for i in checked:
                (log_moneyness, node_vol, sign, f, k), value = nodes[i]
                u = grid.half_width * (i / n)
                assert (log_moneyness, node_vol, sign) == (-u, vol, 1.0), where
                if vol == 0.0:
                    assert value == 0.0, where
                    continue
                # at 40 digits, the call at +u at a unit forward weighted by e^(-u/2), and on
                # the rule's own grids the put at -u too
                with mpmath.workdps(40):
                    half = mpmath.mpf(u) / 2
                    call, size = _black_40_digits(-u, vol, mpmath.exp(-half), mpmath.exp(half),
                                                  True)
                    if n_side is None:
                        put, _ = _black_40_digits(u, vol, 1.0, mpmath.exp(-2 * half), False)
                        assert abs(put * mpmath.exp(half) - call) <= 1e-35 * size, where
                assert abs(value - call) <= 2.0 ** -42 * size + TINY * (1 + f + k), (where, i)
                weighted[i] = call
            if len(weighted) == n + 1 and vol > 0.0:
                seen["strip summed"] += 1
                with mpmath.workdps(40):
                    total = 2 * sum(weighted.values()) - (weighted[0] + weighted[n])
                    x = mpmath.mpf(0.25 * grid.log_step)
                    ratio = mpmath.mpf(forward) / mpmath.mpf(s0)
                    root = mpmath.sqrt(ratio)
                    want = 1e4 * disc * ((1 - root) ** 2 / 2 + root * (x * total
                                                                       - (x / mpmath.tanh(x) - 1)))
                    sums = root * x / mpmath.tanh(x) + (1 + ratio) / 2
                    assert abs(got - want) <= 4 * EPS * 1e4 * disc * sums, where
        assert min(seen.values()) >= 100, seen


def _ig_premium_40_digits(v0: float, k: float, spot: float, r_f: float, sigma: float,
                          tau: float) -> float:
    """The gain premium v0*(e^(-r_f*tau)/2 + x/2 - sqrt(x)*e^(-(r_f/2 + sigma**2/8)*tau)),
    x = spot/k, summed at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(spot) / mpmath.mpf(k)
        r_f, sigma, tau = mpmath.mpf(r_f), mpmath.mpf(sigma), mpmath.mpf(tau)
        return float(mpmath.mpf(v0) * (mpmath.exp(-r_f * tau) / 2 + x / 2 - mpmath.sqrt(x)
                                       * mpmath.exp(-(r_f / 2 + sigma ** 2 / 8) * tau)))


def _default_grid_price_error(k: float, sigma: float, tau: float, target_tol: float) -> float:
    """|strip - closed| per unit notional for the gain contract struck at k, priced at the
    money on the default grid for target_tol."""
    market = MarketParams.from_rate_differential(0.03, sigma, 0.0)
    contract = IgContract(notional_v0=1e4, strike_k=k, maturity_T=tau, t=0.0)
    grid = build_strike_grid(k, sigma, tau, target_tol=target_tol)
    return abs(price_ig_via_strip(contract, k, market, grid) - price_ig(contract, k, market)) / 1e4


@pytest.fixture(scope="module")
def grid():
    # the payoff-sized level: reconstruction needs it, the price does not
    return dataclasses.replace(build_strike_grid(1000.0, 0.7, 1.0), n_side=2048)


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
        assert _default_grid_price_error(1000.0, 0.7, 1.0, 1e-5) <= 1e-5

    def test_21_point_sweep(self, grid):
        for s_terminal in np.geomspace(100.0, 10000.0, 21):
            exact = impermanent_loss(s_terminal / 1000.0 - 1.0)
            assert abs(replicate_il_payoff(grid, s_terminal) - exact) <= 1e-5

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

    @pytest.mark.parametrize("r_f,spot", [(0.03, 1000.0), (-0.05, 1000.0), (0.1, 700.0),
                                          (0.0, 1500.0), (0.4, 1000.0)])
    def test_zero_vol_price_meets_the_intrinsic_kink_bound(self, r_f, spot):
        # at sigma*sqrt(tau) = 0 the strip is empty and the price is v0*disc*g(F), the
        # intrinsic value at the forward: to rounding, on every target_tol
        market = MarketParams.from_rate_differential(r_f, 0.0, 0.0)
        contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=1.0, t=0.0)
        scale = decay_factors(market, 1.0).gamma_disc * (
            1.0 + forward_price(spot, market, 1.0) / 1000.0) / 2.0
        exact = _ig_premium_40_digits(1e4, 1000.0, spot, r_f, 0.0, 1.0)
        for target_tol in (1e-3, 1e-5, 1e-7):
            grid = build_strike_grid(1000.0, 0.0, 1.0, target_tol=target_tol)
            strip = price_ig_via_strip(contract, spot, market, grid)
            miss = abs(strip - price_ig(contract, spot, market))
            assert miss <= target_tol * 1e4 * scale
            assert miss <= strip_price_error_bound(contract, spot, market, grid)
            assert abs(strip - exact) <= 1e-13 * 1e4 * scale

    def test_tighter_tolerance_never_hurts(self, week_setup):
        market, contract, _ = week_setup
        closed = price_ig(contract, 1000.0, market)
        errors = []
        for tol in (1e-2, 1e-3, 1e-4, 1e-5):
            grid = build_strike_grid(1000.0, 0.7, WEEK_TAU, target_tol=tol)
            errors.append(abs(price_ig_via_strip(contract, 1000.0, market, grid) - closed))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse

    def test_every_pinned_node_count_prices_to_1e_10(self, week_setup):
        # with the kink term subtracted the error no longer falls as h**2: it is at the
        # rounding floor from 64 nodes on
        market, contract, _ = week_setup
        closed = price_ig(contract, 1000.0, market)
        for n in (64, 128, 256, 512, 1024):
            grid = dataclasses.replace(build_strike_grid(1000.0, 0.7, WEEK_TAU), n_side=n)
            strip = price_ig_via_strip(contract, 1000.0, market, grid)
            assert abs(strip - closed) <= 1e-10 * closed

    def test_bound_takes_the_limit_where_the_forward_underflows(self):
        # the forward 1e-300 * exp(-700) underflows to 0, so sqrt(F/K) is 0: no strip, no tail
        # and no quadrature term count, and what is left is the rounding of g(F) = 1/2
        market = MarketParams.from_rate_differential(-700.0, 0.7, 0.0)
        contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=1.0, t=0.0)
        grid = build_strike_grid(1000.0, 0.7, 1.0)
        assert forward_price(1e-300, market, 1.0) == 0.0 and grid.price_tol == 1e-5
        disc = decay_factors(market, 1.0).gamma_disc
        assert price_ig_via_strip(contract, 1e-300, market, grid) == 1e4 * disc * 0.5
        rounding = grid.n_strikes * math.ulp(1.0) * 0.5
        assert strip_price_error_bound(contract, 1e-300, market, grid) == pytest.approx(
            1e4 * disc * rounding, rel=1e-15)

    def test_bound_holds_on_a_grid_sized_for_another_market(self):
        # the bound takes the step's tolerance from the market it prices under: a grid sized
        # for a higher sigma is too coarse for a lower one, and its target_tol alone, with the
        # tails, falls short of the miss
        rng = random.Random(20261022)
        short = 0
        for _ in range(200):
            grid_sigma, sigma = 10.0 ** rng.uniform(-1.0, 0.3), 10.0 ** rng.uniform(-2.5, 0.3)
            tau, spot = 10.0 ** rng.uniform(-2.0, 0.5), 1000.0 * rng.uniform(0.6, 1.6)
            target_tol = rng.choice([1e-3, 1e-5, 1e-9])
            market = MarketParams.from_rate_differential(rng.uniform(-0.1, 0.1), sigma, 0.0)
            contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=tau, t=0.0)
            grid = build_strike_grid(1000.0, grid_sigma, tau, target_tol=target_tol)
            miss = abs(price_ig_via_strip(contract, spot, market, grid)
                       - price_ig(contract, spot, market))
            assert miss <= strip_price_error_bound(contract, spot, market, grid), (
                grid_sigma, sigma, tau, spot, target_tol)
            forward, disc, vol = replication._lognormal(spot, market, tau)
            scale = disc * math.sqrt(forward / 1000.0)
            tails = math.exp(-0.5 * grid.half_width) * float(
                ndtr(0.5 * vol - grid.half_width / vol))
            short += miss > 1e4 * scale * (target_tol + tails)
        assert short >= 40

    def test_bound_holds_at_a_target_tol_near_machine_precision(self):
        # at target_tol 1e-16 the miss is rounding, which the bound's n*eps term covers;
        # without that term a third of such cases miss by up to 3.1 bounds
        rng = random.Random(20261023)
        for _ in range(100):
            sigma, tau = 10.0 ** rng.uniform(-1.5, 0.3), 10.0 ** rng.uniform(-2.0, 0.7)
            spot = 1000.0 * rng.uniform(0.6, 1.6)
            market = MarketParams.from_rate_differential(rng.uniform(-0.1, 0.1), sigma, 0.0)
            contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=tau, t=0.0)
            grid = build_strike_grid(1000.0, sigma, tau, target_tol=1e-16)
            miss = abs(price_ig_via_strip(contract, spot, market, grid)
                       - price_ig(contract, spot, market))
            assert miss <= strip_price_error_bound(contract, spot, market, grid), (sigma, tau)

    def test_bound_that_overflows_is_a_domain_error(self):
        # spot/K = 1e300 makes v0*disc*g(F) ~ v0*5e299 overflow, and the bound's rounding term,
        # n*eps times it, overflows at v0 = 1e25 too: both raise instead of returning inf
        market = MarketParams.from_rate_differential(0.0, 0.7, 0.0)
        contract = IgContract(notional_v0=1e25, strike_k=1e-150, maturity_T=1.0, t=0.0)
        grid = build_strike_grid(1e-150, 0.7, 1.0)
        with pytest.raises(DomainError, match="strip premium must be finite"):
            price_ig_via_strip(contract, 1e150, market, grid)
        with pytest.raises(DomainError, match="strip error bound must be finite, got inf"):
            strip_price_error_bound(contract, 1e150, market, grid)

    def test_a_bad_spot_gets_the_forwards_message(self, week_setup):
        # the strip price, its bound and vanilla_price check the spot, and vanilla_price the tau,
        # only in forward_price, through _lognormal
        market, contract, grid = week_setup
        pricers = (lambda s: price_ig_via_strip(contract, s, market, grid),
                   lambda s: strip_price_error_bound(contract, s, market, grid),
                   lambda s: vanilla_price(1000.0, s, market, contract.tau, "call"),
                   lambda s: vanilla_price(1000.0, s, market, contract.tau, "put"))
        for spot in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError) as forward:
                forward_price(spot, market, contract.tau)
            assert str(forward.value) == f"s_t must be positive and finite, got {spot!r}"
            for pricer in pricers:
                with pytest.raises(DomainError) as excinfo:
                    pricer(spot)
                assert str(excinfo.value) == str(forward.value)
        with pytest.raises(DomainError) as forward:
            forward_price(1000.0, market, -1.0)
        for kind in ("call", "put"):
            with pytest.raises(DomainError) as excinfo:
                vanilla_price(1000.0, 1000.0, market, -1.0, kind)
            assert str(excinfo.value) == str(forward.value)
        assert str(forward.value) == "tau must be >= 0 and finite, got -1.0"
        # vanilla_price names the first bad argument of strike, s_t, tau and kind; an overflowing
        # forward is reported before an unknown kind
        for args, first in (((0.0, -1.0, market, -1.0, "straddle"), "strike must"),
                            ((1000.0, -1.0, market, -1.0, "straddle"), "s_t must"),
                            ((1000.0, 1000.0, market, -1.0, "straddle"), "tau must"),
                            ((1000.0, 1000.0, market, 1.0, "straddle"), "kind must"),
                            ((1000.0, 1000.0, MarketParams.from_rate_differential(1e3, 0.7, 0.0),
                              1.0, "straddle"), re.escape("forward exp(r_f*tau) overflow"))):
            with pytest.raises(DomainError, match=f"^{first}"):
                vanilla_price(*args)

    def test_grid_built_at_another_strike_gives_the_same_bits(self, week_setup):
        # the strip is spanned at the forward, so the grid's entry price never enters the price
        market, contract, grid = week_setup
        elsewhere = build_strike_grid(1111.0, 0.7, WEEK_TAU, target_tol=1e-5)
        assert elsewhere.entry_price == 1111.0
        for spot in (800.0, 1000.0, 1250.0):
            for route in (price_ig_via_strip, strip_price_error_bound):
                assert route(contract, spot, market, elsewhere) == route(contract, spot, market,
                                                                         grid)

    def test_hand_built_grid_has_one_uniform_log_step(self, week_setup):
        # the kink term takes h = log_step from the rule: both sides must step by it
        market, contract, grid = week_setup
        hand = replication.StrikeGrid(1000.0, grid.half_width, grid.n_side, grid.price_tol)
        for strikes in (hand.put_strikes, hand.call_strikes):
            assert np.allclose(np.diff(np.log(strikes)), hand.log_step, rtol=1e-9, atol=0.0)
        for route in (price_ig_via_strip, strip_price_error_bound):
            assert route(contract, 1000.0, market, hand) == route(contract, 1000.0, market, grid)

    def test_seeded_sweep_prices_within_bound_and_tolerance(self):
        # the cuts follow the forward, so for every sigma*sqrt(tau) from 0 to 20 the price is
        # within target_tol per unit notional of the 40-digit premium, and within its bound
        rng = random.Random(20261019)
        zero_vol = 0
        for case in range(400):
            tau = 10.0 ** rng.uniform(-4.0, 1.7)
            vol = 0.0 if case % 10 == 0 else 10.0 ** rng.uniform(-9.0, math.log10(20.0))
            sigma = vol / math.sqrt(tau)
            k = math.exp(rng.uniform(-300.0, 300.0)) if rng.random() < 0.2 else 1000.0
            spot, target_tol = k * rng.uniform(0.6, 1.6), rng.choice([1e-5, 1e-9])
            r_f = rng.uniform(-0.1, 0.1)
            market = MarketParams.from_rate_differential(r_f, sigma, 0.0)
            contract = IgContract(notional_v0=1e4, strike_k=k, maturity_T=tau, t=0.0)
            grid = build_strike_grid(k, sigma, tau, target_tol=target_tol)
            strip = price_ig_via_strip(contract, spot, market, grid)
            miss = abs(strip - _ig_premium_40_digits(1e4, k, spot, r_f, sigma, tau))
            assert miss <= target_tol * 1e4, (sigma, tau, k, spot, r_f, target_tol)
            assert miss <= strip_price_error_bound(contract, spot, market, grid)
            assert abs(strip - price_ig(contract, spot, market)) <= strip_price_error_bound(
                contract, spot, market, grid)
            zero_vol += sigma == 0.0
        assert zero_vol == 40

    def test_strip_prices_where_its_half_width_passes_the_exp_range(self):
        # half_width = a*v passes 709, where e^u overflows, above v of about 104 at the default
        # target_tol, and 1419, where e^(|u|/2) does, above 209
        rng = random.Random(20261024)
        market = MarketParams.from_rate_differential(0.0, 20.0, 0.0)
        contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=30.0, t=0.0)
        grid = build_strike_grid(1000.0, 20.0, 30.0)
        assert grid.half_width > 709.0
        assert price_ig_via_strip(contract, 1000.0, market, grid) == 10000.0
        for _ in range(200):
            vol, tau = rng.uniform(104.0, 300.0), 10.0 ** rng.uniform(-1.0, 2.0)
            spot = 1000.0 * math.exp(rng.uniform(-3.0, 3.0))
            target_tol = 10.0 ** rng.uniform(-15.0, -2.0)
            market = MarketParams.from_rate_differential(rng.uniform(-0.1, 0.1),
                                                         vol / math.sqrt(tau), 0.0)
            contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=tau, t=0.0)
            grid = build_strike_grid(1000.0, market.sigma, tau, target_tol=target_tol)
            bound = strip_price_error_bound(contract, spot, market, grid)
            assert math.isfinite(bound)
            miss = abs(price_ig_via_strip(contract, spot, market, grid)
                       - price_ig(contract, spot, market))
            assert miss <= bound, (vol, tau, spot, target_tol)

    def test_pinned_grids_price_within_their_own_bound(self):
        # a pinned n_side, odd or even, coarser or finer than the rule, meets the tolerance its
        # step gives
        rng = random.Random(20261020)
        kinds = dict.fromkeys(("sigma = 0", "coarser", "finer", "odd", "even"), 0)
        for _ in range(400):
            sigma = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 0.5)
            tau, spot = 10.0 ** rng.uniform(-2.0, 1.0), 1000.0 * rng.uniform(0.6, 1.6)
            target_tol = rng.choice([1e-3, 1e-5, 1e-9])
            rule_n_side = _rule(target_tol)[1]
            n_side = rng.choice([rng.randrange(2, rule_n_side), rng.randrange(rule_n_side, 4096)])
            market = MarketParams.from_rate_differential(rng.uniform(-0.1, 0.1), sigma, 0.0)
            contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=tau, t=0.0)
            grid = dataclasses.replace(
                build_strike_grid(1000.0, sigma, tau, target_tol=target_tol), n_side=n_side)
            miss = abs(price_ig_via_strip(contract, spot, market, grid)
                       - price_ig(contract, spot, market))
            assert miss <= strip_price_error_bound(contract, spot, market, grid), (
                sigma, tau, spot, target_tol, n_side)
            kinds["sigma = 0"] += sigma == 0.0
            h, vol = grid.log_step, sigma * math.sqrt(tau)
            step_tol = math.exp(-2.0 * (math.pi * vol / h) ** 2) if h > 0.0 else 0.0
            kinds["coarser" if step_tol > target_tol else "finer"] += 1
            kinds["odd" if n_side % 2 else "even"] += 1
        assert min(kinds.values()) >= 80, kinds


class TestForwardSpan:
    """The strip is spanned at the forward: its cuts follow F wherever it sits, and where
    sigma*sqrt(tau) vanishes the strip is empty and the price is v0*disc*g(F)."""

    def test_long_tau_with_the_forward_far_from_the_strike_meets_target_tol(self):
        # F = 1.59*K*e^(0.099*42.5) sits 4.7 log units above the strike; cuts centred on the
        # strike at K*e^(+-8*sigma*sqrt(tau)) left a tail of 7.6e-7 per unit notional here
        market = MarketParams.from_rate_differential(0.099, 0.155, 0.0)
        contract = IgContract(notional_v0=1e4, strike_k=1000.0, maturity_T=42.5, t=0.0)
        grid = build_strike_grid(1000.0, 0.155, 42.5, target_tol=1e-9)
        strip = price_ig_via_strip(contract, 1590.0, market, grid)
        miss = abs(strip - _ig_premium_40_digits(1e4, 1000.0, 1590.0, 0.099, 0.155, 42.5))
        assert miss <= 1e-9 * 1e4
        assert miss <= strip_price_error_bound(contract, 1590.0, market, grid)

    @pytest.mark.parametrize("name", ["hedged-one-year", "ig-seven-day", "locked-half-year"])
    def test_shipped_configs_at_vanishing_vol(self, name):
        # the grid verify builds: at sigma 0 the strip once missed by 0.7 % to 1600 %, and at
        # sigma 1e-9 its node count grew past any cap
        scenario = load_config(CONFIGS / f"{name}.json")
        contract, spot = scenario.ig_contract(), scenario.spot
        for sigma in (0.0, 1e-9):
            market = dataclasses.replace(scenario.market, sigma=sigma)
            grid = build_strike_grid(contract.strike_k, sigma, contract.tau,
                                     target_tol=scenario.quad_tol or 1e-5)
            strip = price_ig_via_strip(contract, spot, market, grid)
            closed = price_ig(contract, spot, market)
            assert abs(strip - closed) <= strip_price_error_bound(contract, spot, market, grid)
            assert abs(strip - closed) <= STRIP_REL_TOL * closed
            exact = _ig_premium_40_digits(contract.notional_v0, contract.strike_k, spot,
                                          market.r_f, sigma, contract.tau)
            assert abs(strip - exact) <= 1e-12 * exact, (name, sigma)
            assert grid.n_strikes == 13


class TestNormalCdf:
    def test_no_worse_than_scipy_against_40_digits(self):
        # relative error in units of 2**-53, on a seeded range from the far lower tail, where
        # rounding x/sqrt(2) costs about 2*x**2/2 units, to where N is 1 in double
        rng = random.Random(20261025)
        worst = {"stdlib": 0.0, "scipy": 0.0}
        for _ in range(2000):
            x = rng.uniform(-37.5, 9.0)
            with mpmath.workdps(40):
                exact = mpmath.ncdf(mpmath.mpf(x))
                for name, value in (("stdlib", replication._ncdf(x)), ("scipy", float(ndtr(x)))):
                    error = float(abs(value - exact) / exact) * 2.0 ** 53
                    worst[name] = max(worst[name], error)
        assert worst["stdlib"] <= worst["scipy"], worst
        assert worst["stdlib"] < 2e3, worst
        assert replication._ncdf(-math.inf) == 0.0 and replication._ncdf(math.inf) == 1.0


def test_replication_imports_nothing_from_scipy():
    # the strip and the vanillas run on the standard library's exp and erfc
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "lpgreeks"
                      / "replication.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "scipy"], imported


class TestKinkTerm:
    def test_closed_form_matches_the_bernoulli_series(self):
        # x*coth(x) - 1 = sum_k B_2k * (2x)**2k / (2k)!, summed at 50 digits
        def series(x: float):
            with mpmath.workdps(50):
                two_x, total, k = 2 * mpmath.mpf(x), mpmath.mpf(0), 1
                while True:
                    term = mpmath.bernoulli(2 * k) * two_x ** (2 * k) / mpmath.factorial(2 * k)
                    total += term
                    if abs(term) < mpmath.mpf(10) ** -30 * abs(total):
                        return total
                    k += 1

        xs = [*np.geomspace(1e-4, 3.0, 41).tolist(), 0.25, math.nextafter(0.25, 1.0)]
        for x in xs:
            reference = series(x)
            assert abs(replication._coth_minus_one(x) - reference) <= 2e-14 * reference, x

    def test_series_keeps_the_bits_of_polyval(self):
        rng = random.Random(20261023)
        xs = [0.25, math.nextafter(0.25, 0.0), 5e-324, 1e-160, 1e-8]
        xs += [0.25 * (1.0 - rng.random()) for _ in range(5000)]
        xs += [0.25 * 10.0 ** -rng.uniform(0.0, 8.0) for _ in range(1000)]
        for x in xs:
            want = x * x * float(np.polyval(replication._COTH_SERIES, x * x))
            assert replication._coth_minus_one(x).hex() == want.hex(), x

    @pytest.mark.parametrize("mutant", [lambda coth: lambda x: 0.0,
                                        lambda coth: lambda x: -coth(x)],
                             ids=["dropped", "sign-flipped"])
    def test_bound_catches_a_broken_kink_term(self, monkeypatch, mutant):
        # risk-sweep-style scenarios on default grids, sized for 1e-5: the strip misses by at
        # most 7.4e-4 of its bound, and by more than it once the kink term is dropped or
        # flipped (36.7 and 73.4 bounds at the least)
        rng = random.Random(20261021)
        scenarios = []
        for _ in range(200):
            market = MarketParams.from_rate_differential(rng.uniform(-0.05, 0.10),
                                                         rng.uniform(0.2, 1.5), 0.0)
            contract = IgContract(notional_v0=1e4, strike_k=1000.0,
                                  maturity_T=rng.uniform(0.1, 2.0), t=0.0)
            grid = build_strike_grid(1000.0, market.sigma, contract.tau)
            scenarios.append((contract, 1000.0 * rng.uniform(0.6, 1.6), market, grid))

        def misses():
            for contract, spot, market, grid in scenarios:
                miss = abs(price_ig_via_strip(contract, spot, market, grid)
                           - price_ig(contract, spot, market))
                yield miss / strip_price_error_bound(contract, spot, market, grid)

        assert max(misses()) <= 1e-3
        monkeypatch.setattr(replication, "_coth_minus_one", mutant(replication._coth_minus_one))
        assert min(misses()) > 1.0


class TestGridCsv:
    def test_dump_round_trips(self, tmp_path):
        grid = dataclasses.replace(build_strike_grid(1000.0, 0.7, 0.5), n_side=32)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * (grid.n_side + 1) == grid.n_strikes + 1  # the entry price twice
        kinds = {row["kind"] for row in rows}
        assert kinds == {"put", "call"}
        puts = [row for row in rows if row["kind"] == "put"]
        assert len(puts) == len(grid.put_strikes)
        assert float(puts[-1]["strike"]) == 1000.0
        assert float(puts[0]["weight"]) == grid.put_weights[0]
