import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lpgreeks import (
    DomainError,
    IgContract,
    MarketParams,
    McConfig,
    McEstimate,
    McScenario,
    StepCollapseError,
    expected_sqrt_price,
    fd_greek,
    greeks_locked_lp,
    greeks_ig,
    mc_price,
    pool_from_deposit,
    price_ig,
    price_locked_lp,
    price_unlocked_lp,
    sample_terminal,
)
import lpgreeks.mc as mc_module
import lpgreeks.verify as verify_module
from lpgreeks.config import load_config
from lpgreeks.mc import _stream_uniforms

POOL = pool_from_deposit(10000.0, 1000.0)
WEEK_TAU = 7.0 / 365.0
MEDIAN_PATH = 782.70453824186816771  # 1000 * exp(-0.7^2/2)
HEDGE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "hedged-one-year.json"


def week_ig_scenario(s_t=1000.0, phi=0.0):
    market = MarketParams.from_rate_differential(0.03, 0.7, phi)
    return McScenario(market=market, s_t=s_t, tau=WEEK_TAU, v0=10000.0,
                      strike=1000.0, horizon=WEEK_TAU)


class TestSampleTerminal:
    def test_median_path(self):
        m = MarketParams.from_rate_differential(0.0, 0.7, 0.0)
        assert sample_terminal(1000.0, m, 1.0, 0.0) == pytest.approx(
            MEDIAN_PATH, rel=1e-14)

    def test_deterministic_when_flat_vol(self):
        m = MarketParams.from_rate_differential(0.03, 0.0, 0.0)
        for z in (-3.0, 0.0, 4.5):
            assert sample_terminal(1000.0, m, 1.0, z) == pytest.approx(
                1000.0 * math.exp(0.03), rel=1e-14)

    def test_zero_tau_returns_spot_exactly(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        assert sample_terminal(1234.5, m, 0.0, 1.7) == 1234.5

    def test_strictly_positive(self):
        m = MarketParams.from_rate_differential(0.0, 1.5, 0.0)
        assert sample_terminal(1000.0, m, 2.0, -8.0) > 0.0

    def test_scalar_overflow_is_domain_error(self):
        m = MarketParams.from_rate_differential(1e4, 0.7, 0.0)
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            sample_terminal(1000.0, m, 1.0, 0.0)

    @pytest.mark.parametrize("sigma, tau", [(0.7, 0.25), (1.5, 2.0), (0.0, 1.0), (0.7, 0.0)])
    def test_array_matches_scalar_calls(self, sigma, tau):
        m = MarketParams.from_rate_differential(0.03, sigma, 0.0)
        draws = np.linspace(-6.0, 6.0, 97)
        sampled = sample_terminal(1000.0, m, tau, draws)
        assert sampled.shape == draws.shape
        assert sampled.tolist() == [sample_terminal(1000.0, m, tau, float(z)) for z in draws]


class TestStreamIndexing:
    def test_chunked_reads_match_one_shot(self):
        whole = _stream_uniforms(42, 0, 1000)
        pieces = np.concatenate([
            _stream_uniforms(42, 0, 256),
            _stream_uniforms(42, 256, 500),
            _stream_uniforms(42, 756, 244),
        ])
        assert np.array_equal(whole, pieces)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(_stream_uniforms(1, 0, 64), _stream_uniforms(2, 0, 64))


class TestMcPrice:
    def test_zero_rate_forward_is_martingale(self):
        m = MarketParams.from_rate_differential(0.0, 0.7, 0.0)
        scn = McScenario(market=m, s_t=1000.0, tau=1.0)
        est = mc_price("forward", scn, McConfig(n_paths=10**6, seed=3))
        assert abs(est.mean - 1000.0) <= 3.0 * est.std_error

    def test_sqrt_moment_matches_closed_form(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        scn = McScenario(market=m, s_t=1000.0, tau=0.25)
        est = mc_price("sqrt_moment", scn, McConfig(n_paths=2 * 10**5, seed=5))
        closed = expected_sqrt_price(1000.0, m, 0.25)
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_ig_price_matches_closed_form(self, week_market, week_contract):
        est = mc_price("ig", week_ig_scenario(), McConfig(n_paths=10**6, seed=42))
        closed = price_ig(week_contract, 1000.0, week_market)
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_locked_lp_price_matches_closed_form(self, locked_half_year, half_year_market):
        scn = McScenario(market=half_year_market, s_t=1000.0, tau=0.25,
                         v0=10000.0, entry_price=1000.0, horizon=0.5)
        est = mc_price("locked_lp", scn, McConfig(n_paths=10**6, seed=42))
        assert abs(est.mean - price_locked_lp(locked_half_year)) <= 3.0 * est.std_error

    def test_vanilla_call_matches_black_formula(self, week_market):
        from lpgreeks import vanilla_price
        scn = week_ig_scenario()
        est = mc_price("vanilla_call", scn, McConfig(n_paths=2 * 10**5, seed=9))
        closed = vanilla_price(1000.0, 1000.0, week_market, WEEK_TAU, "call").premium
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_missing_scenario_fields_rejected(self):
        m = MarketParams.from_rate_differential(0.03, 0.7, 0.0)
        bare = McScenario(market=m, s_t=1000.0, tau=0.5)
        with pytest.raises(DomainError):
            mc_price("locked_lp", bare, McConfig(n_paths=10))
        with pytest.raises(DomainError):
            mc_price("nonsense", bare, McConfig(n_paths=10))

    def test_non_finite_payoff_guarded(self):
        m = MarketParams.from_rate_differential(1e4, 0.7, 0.0)
        scn = McScenario(market=m, s_t=1000.0, tau=1.0)
        with pytest.raises(DomainError):
            mc_price("forward", scn, McConfig(n_paths=100))


class TestDeterminism:
    def test_identical_config_identical_bits(self):
        cfg = McConfig(n_paths=10**5, seed=77)
        a = mc_price("ig", week_ig_scenario(), cfg)
        b = mc_price("ig", week_ig_scenario(), cfg)
        assert a == b

    def test_worker_count_never_changes_bits(self):
        # 300001 paths exercises a partial final chunk as well
        base = mc_price("ig", week_ig_scenario(), McConfig(n_paths=300001, seed=7, workers=1))
        for workers in (2, 4):
            other = mc_price("ig", week_ig_scenario(),
                             McConfig(n_paths=300001, seed=7, workers=workers))
            assert other.mean == base.mean
            assert other.std_error == base.std_error

    def test_seed_independence_of_truth(self):
        a = mc_price("ig", week_ig_scenario(), McConfig(n_paths=2 * 10**5, seed=101))
        b = mc_price("ig", week_ig_scenario(), McConfig(n_paths=2 * 10**5, seed=202))
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 6.0 * combined

    def test_se_scales_like_inverse_sqrt_n(self):
        small = mc_price("ig", week_ig_scenario(), McConfig(n_paths=10**4, seed=13))
        large = mc_price("ig", week_ig_scenario(), McConfig(n_paths=4 * 10**4, seed=13))
        assert 1.6 <= small.std_error / large.std_error <= 2.5

    def test_se_ratio_over_three_decades(self):
        tiny = mc_price("ig", week_ig_scenario(), McConfig(n_paths=10**3, seed=13))
        big = mc_price("ig", week_ig_scenario(), McConfig(n_paths=10**6, seed=13))
        assert 20.0 <= tiny.std_error / big.std_error <= 50.0


class TestAntithetic:
    def test_effective_draws_double(self):
        est = mc_price("ig", week_ig_scenario(), McConfig(n_paths=1000, seed=1, antithetic=True))
        assert est.n_effective == 2000
        plain = mc_price("ig", week_ig_scenario(), McConfig(n_paths=1000, seed=1))
        assert plain.n_effective == 1000

    def test_variance_reduction_at_equal_effective_draws(self):
        # evaluated in-the-money where the payoff is monotone over the draw;
        # at the strike the payoff is nearly even in z and pairing cannot help
        scn = week_ig_scenario(s_t=2000.0)
        plain = mc_price("ig", scn, McConfig(n_paths=2 * 10**5, seed=11))
        anti = mc_price("ig", scn, McConfig(n_paths=10**5, seed=11, antithetic=True))
        assert anti.n_effective == plain.n_effective
        assert anti.std_error <= plain.std_error


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0)
        with pytest.raises(DomainError):
            McConfig(n_paths=10, workers=0)
        with pytest.raises(DomainError):
            McConfig(n_paths=10, seed=-1)
        with pytest.raises(DomainError):
            McConfig(n_paths=10, seed=2**64)

    def test_estimate_fields(self):
        est = mc_price("forward",
                       McScenario(market=MarketParams.from_rate_differential(0.0, 0.3, 0.0),
                                  s_t=100.0, tau=0.5),
                       McConfig(n_paths=4096, seed=0))
        assert isinstance(est, McEstimate)
        assert est.std_error > 0.0
        assert est.n_effective == 4096

    def test_single_path_and_max_seed(self):
        scn = McScenario(market=MarketParams.from_rate_differential(0.0, 0.3, 0.0),
                         s_t=100.0, tau=0.5)
        est = mc_price("forward", scn, McConfig(n_paths=1, seed=2**64 - 1))
        assert math.isfinite(est.mean)
        assert est.std_error == 0.0


class TestFdGreek:
    def test_locked_delta_matches_closed_form(self, locked_half_year, half_year_market):
        scn = McScenario(market=half_year_market, s_t=1000.0, tau=0.25,
                         v0=10000.0, entry_price=1000.0, horizon=0.5)
        fd = fd_greek("locked_lp", scn, "delta", 1e-5)
        closed = greeks_locked_lp(locked_half_year).delta
        assert abs(fd - closed) / abs(closed) < 1e-6

    @pytest.mark.parametrize("pricer", ["unlocked_lp", "locked_lp", "ig"])
    def test_delta_differentiates_shipped_pricer(self, pricer, locked_half_year,
                                                 half_year_market):
        scn = McScenario(market=half_year_market, s_t=1000.0, tau=0.25, v0=10000.0,
                         entry_price=1000.0, strike=1000.0, horizon=0.5)
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=0.5, t=0.25)

        def shipped(s_t):
            if pricer == "ig":
                return price_ig(contract, s_t, half_year_market)
            state = replace(locked_half_year, s_t=s_t, locked=pricer == "locked_lp")
            return (price_locked_lp if state.locked else price_unlocked_lp)(state)

        h = 1e-5 * 1000.0
        central = (shipped(1000.0 + h) - shipped(1000.0 - h)) / (2.0 * h)
        assert fd_greek(pricer, scn, "delta", 1e-5) == central

    def test_ig_gamma_with_coarse_bump(self, week_market, week_contract):
        fd = fd_greek("ig", week_ig_scenario(), "gamma", 1e-4)
        closed = greeks_ig(week_contract, 1000.0, week_market).gamma
        assert abs(fd - closed) / abs(closed) < 1e-5

    def test_unlocked_vega_identically_zero(self, half_year_market):
        scn = McScenario(market=half_year_market, s_t=1234.0, tau=0.25,
                         v0=10000.0, entry_price=1000.0, horizon=0.5)
        assert fd_greek("unlocked_lp", scn, "vega") == 0.0
        assert fd_greek("unlocked_lp", scn, "rho") == 0.0

    def test_theta_at_inception_works(self, week_market):
        # clock sits at zero; the down-bump values the contract pre-inception
        fd = fd_greek("ig", week_ig_scenario(), "theta")
        closed = greeks_ig(IgContract(notional_v0=10000.0, strike_k=1000.0,
                                      maturity_T=WEEK_TAU, t=0.0),
                           1000.0, week_market).theta
        assert abs(fd - closed) / abs(closed) < 1e-6

    def test_theta_at_maturity_matches_closed_form(self, locked_half_year, half_year_market):
        # the central clock step would pass T; the backward stencil stays inside
        expired = McScenario(market=half_year_market, s_t=1000.0, tau=0.0, v0=10000.0,
                             entry_price=1000.0, strike=1000.0, horizon=0.5)
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0, maturity_T=0.5, t=0.5)
        for pricer, closed in (
                ("locked_lp", greeks_locked_lp(replace(locked_half_year, t=0.5)).theta),
                ("ig", greeks_ig(contract, 1000.0, half_year_market).theta)):
            fd = fd_greek(pricer, expired, "theta")
            assert abs(fd - closed) / abs(closed) < verify_module.FD_TOL_FIRST_ORDER

    def test_step_collapse_at_zero_vol(self):
        # sigma 0 has no backward stencil: vega's down step leaves the domain
        scn = McScenario(market=MarketParams.from_rate_differential(0.03, 0.0, 0.1), s_t=1000.0,
                         tau=0.25, v0=10000.0, entry_price=1000.0, horizon=0.5)
        with pytest.raises(StepCollapseError, match="bumped sigma left the domain"):
            fd_greek("locked_lp", scn, "vega")

    def test_bump_bounds_enforced(self, half_year_market):
        scn = McScenario(market=half_year_market, s_t=1000.0, tau=0.25,
                         v0=10000.0, entry_price=1000.0, horizon=0.5)
        with pytest.raises(DomainError):
            fd_greek("locked_lp", scn, "delta", 1e-9)
        with pytest.raises(DomainError):
            fd_greek("locked_lp", scn, "delta", 0.5)
        with pytest.raises(DomainError):
            fd_greek("locked_lp", scn, "vanna")


# Three terminal laws (the first shared by two scenarios) and a zero-vol one.
_LAW_MARKETS = (
    MarketParams.from_rate_differential(0.03, 0.7, 0.1),
    MarketParams.from_rate_differential(-0.05, 0.2, 0.0),
    MarketParams.from_rate_differential(0.1, 1.5, 0.3),
    MarketParams.from_rate_differential(0.02, 0.0, 0.0),
)
BATCH_SCENARIOS = (
    McScenario(market=_LAW_MARKETS[0], s_t=1000.0, tau=0.25, v0=1e4, entry_price=900.0,
               strike=1100.0, horizon=0.5),
    McScenario(market=_LAW_MARKETS[1], s_t=800.0, tau=1.0, v0=5e3, entry_price=1000.0,
               strike=750.0, horizon=1.0),
    McScenario(market=_LAW_MARKETS[0], s_t=1000.0, tau=0.25, v0=2e4, entry_price=1000.0,
               strike=1000.0, horizon=0.25),
    McScenario(market=_LAW_MARKETS[2], s_t=1200.0, tau=2.0, v0=1e4, entry_price=1200.0,
               strike=1300.0, horizon=3.0),
    McScenario(market=_LAW_MARKETS[3], s_t=1000.0, tau=0.5, v0=1e4, entry_price=1000.0,
               strike=1000.0, horizon=0.5),
)
PAYOFF_NAMES = tuple(mc_module.PAYOFFS)


def _bits(est):
    return est.mean.hex(), est.std_error.hex(), est.n_effective


@pytest.fixture
def philox_words(monkeypatch):
    """Counts the Philox words lpgreeks.mc draws, in a one-element list."""
    drawn = [0]

    class CountingPhilox(mc_module.Philox):
        def random_raw(self, size=None, output=True):
            drawn[0] += 1 if size is None else int(size)
            return super().random_raw(size, output)

    monkeypatch.setattr(mc_module, "Philox", CountingPhilox)
    return drawn


class TestBatch:
    @pytest.mark.parametrize("n_paths", [1, 65536, 2 * 65536 + 5])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_equals_single_calls_bit_for_bit(self, n_paths, antithetic, workers):
        cfg = McConfig(n_paths=n_paths, seed=17, antithetic=antithetic, workers=workers)
        # job order interleaves the laws, so grouping must put each row back
        jobs = [(name, scn) for scn in BATCH_SCENARIOS for name in PAYOFF_NAMES]
        jobs = jobs[1::2] + jobs[::2]
        payoffs, scenarios = zip(*jobs)
        batch = mc_price(payoffs, scenarios, cfg)
        assert isinstance(batch, tuple) and len(batch) == len(jobs)
        assert [_bits(est) for est in batch] == [
            _bits(mc_price(name, scn, cfg)) for name, scn in jobs]

    def test_one_job_sequence_gives_one_tuple(self):
        cfg = McConfig(n_paths=1000, seed=3)
        scn = week_ig_scenario()
        assert mc_price(["ig"], [scn], cfg) == (mc_price("ig", scn, cfg),)

    def test_batch_draws_the_stream_once(self, philox_words):
        cfg = McConfig(n_paths=2 * 65536 + 5, seed=5, antithetic=True)
        payoffs = PAYOFF_NAMES * len(BATCH_SCENARIOS)
        scenarios = [scn for scn in BATCH_SCENARIOS for _ in PAYOFF_NAMES]
        mc_price(payoffs, scenarios, cfg)
        assert philox_words[0] == cfg.n_paths

    @pytest.mark.parametrize("payoffs, scenarios, message", [
        (["ig", "nonsense"], BATCH_SCENARIOS[:2], "unknown payoff 'nonsense'"),
        (["ig", "locked_lp"], [BATCH_SCENARIOS[0],
                               McScenario(market=_LAW_MARKETS[0], s_t=1000.0, tau=0.5)],
         "needs scenario field 'v0'"),
        (["ig", "forward"], BATCH_SCENARIOS[:1], "as many payoffs as scenarios"),
        ([], [], "at least one"),
    ])
    def test_bad_jobs_rejected_before_any_draw(self, philox_words, payoffs, scenarios, message):
        with pytest.raises(DomainError, match=message):
            mc_price(payoffs, scenarios, McConfig(n_paths=10**5, seed=1))
        assert philox_words[0] == 0

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_overflowing_sum_of_squares_is_domain_error(self, antithetic):
        # values near 5e203 are finite, but their squares are not
        market = MarketParams.from_rate_differential(0.03, 0.7, 1e200)
        lp = McScenario(market=market, s_t=1000.0, tau=0.25, v0=1e4, entry_price=1000.0,
                        horizon=0.5)
        cfg = McConfig(n_paths=20000, seed=42, antithetic=antithetic)
        with pytest.raises(DomainError, match="'locked_lp'"):
            mc_price("locked_lp", lp, cfg)
        with pytest.raises(DomainError, match="'locked_lp'"):
            mc_price(["forward", "locked_lp"], [lp, lp], cfg)
        assert math.isfinite(mc_price("forward", lp, cfg).std_error)

    def test_verify_prices_every_mc_row_in_one_pass(self, philox_words, monkeypatch):
        # the benchmark's tracer wraps lpgreeks.verify.mc_price by that name
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return mc_price(*args, **kwargs)

        monkeypatch.setattr(verify_module, "mc_price", counted)
        scenario = load_config(HEDGE_CONFIG)
        scenario = replace(scenario, mc=replace(scenario.mc, n_paths=200000))
        results = verify_module.run_verification(scenario)
        assert len(calls) == 1
        assert philox_words[0] == 200000
        assert sum(row.name.startswith(("moment/", "price/")) for row in results) == 14


# (closed, estimate, std_error, rel_tol) -> (z, passed); rel_tol None is a Monte Carlo row
CHECK_CASES = {
    "mc-signed-z": ((10.0, 9.0, 0.25, None), (-4.0, False)),
    "mc-at-limit": ((10.0, 10.75, 0.25, None), (3.0, True)),
    "mc-no-noise-within": ((0.5, 0.5 + 8e-10, 0.0, None), (0.0, True)),
    "mc-no-noise-above": ((1000.0, 1000.01, 0.0, None), (math.inf, False)),
    "mc-no-noise-below": ((1000.0, 999.99, 0.0, None), (-math.inf, False)),
    "mc-nan": ((10.0, math.nan, 0.25, None), (math.nan, False)),
    "mc-no-noise-nan": ((10.0, math.nan, 0.0, None), (-math.inf, False)),
    "tol-within": ((2.0, 2.0 - 1e-6, 0.0, 1e-6), (0.5, True)),
    "tol-below": ((2.0, 2.0 - 4e-6, 0.0, 1e-6), (2.0, False)),
    "tol-floor-within": ((0.0, -1e-19, 0.0, 1e-6), (0.1, True)),
    "tol-floor-above": ((0.0, 1e-17, 0.0, 1e-6), (10.0, False)),
    "tol-nan": ((2.0, math.nan, 0.0, 1e-6), (math.nan, False)),
}


@pytest.mark.parametrize("row, expected", CHECK_CASES.values(), ids=CHECK_CASES.keys())
def test_verify_check_rule(row, expected):
    result = verify_module._check("row", *row)
    z, passed = expected
    assert result.z_score == pytest.approx(z, rel=1e-9, nan_ok=True)
    assert result.passed is passed
    assert (result.name, result.closed_form, result.std_error) == ("row", row[0], row[2])
