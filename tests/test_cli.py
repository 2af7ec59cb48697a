import gc
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lpgreeks import (
    IgContract,
    LpState,
    MarketParams,
    McScenario,
    fd_greek,
    greeks_ig,
    greeks_locked_lp,
    impermanent_loss,
    pool_from_deposit,
    price_ig,
    price_locked_lp,
    price_unlocked_lp,
)
from lpgreeks.cli import cli, main

REPO = Path(__file__).resolve().parents[1]
HALF_YEAR_CONFIG = REPO / "configs" / "locked-half-year.json"
WEEK_CONFIG = REPO / "configs" / "ig-seven-day.json"
HEDGE_CONFIG = REPO / "configs" / "hedged-one-year.json"


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def small_mc(n=20000, seed=42, workers=1):
    return {"n_paths": n, "seed": seed, "antithetic": False, "workers": workers}


class TestPriceCommand:
    def test_locked_half_year(self, runner):
        result = runner.invoke(cli, ["price", "--config", str(HALF_YEAR_CONFIG),
                                     "--strategy", "locked-lp"])
        assert result.exit_code == 0
        assert "10307.444431899488" in result.output
        assert "beta:" in result.output and "gamma_disc:" in result.output

    def test_week_ig(self, runner):
        result = runner.invoke(cli, ["price", "--config", str(WEEK_CONFIG),
                                     "--strategy", "ig"])
        assert result.exit_code == 0
        assert "11.736715913894" in result.output

    def test_flat_market_prices(self, runner, tmp_path):
        data = {
            "market": {"r_f": 0.0, "sigma": 0.0, "phi": 0.0},
            "position": {"v0": 10000, "s0": 1000, "t": 0, "T": 1, "locked": False},
            "spot": 1000,
            "ig": {"k": 1000, "T": 1},
        }
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["price", "--config", str(path),
                                     "--strategy", "unlocked-lp"])
        assert result.exit_code == 0
        assert "price:      10000" in result.output
        result = runner.invoke(cli, ["price", "--config", str(path), "--strategy", "ig"])
        assert result.exit_code == 0
        assert "price:      0" in result.output

    def test_out_record_matches_closed_form(self, runner, tmp_path):
        out = tmp_path / "record.json"
        result = runner.invoke(cli, ["price", "--config", str(HALF_YEAR_CONFIG),
                                     "--strategy", "locked-lp", "--out", str(out)])
        assert result.exit_code == 0
        record = json.loads(out.read_text())
        pos = pool_from_deposit(10000.0, 1000.0)
        market = MarketParams.from_rate_differential(0.03, 0.7, 0.10)
        state = LpState(pos, market, s_t=1000.0, t=0.25, maturity_T=0.5, locked=True)
        assert record["price"] == price_locked_lp(state)

    def test_unlocked_lp_values_a_locked_position_as_redeemable(self, runner):
        # V0 * (sqrt(s_t/s0) + phi*t) = 10000 * (1 + 0.1*0.25)
        result = runner.invoke(cli, ["price", "--config", str(HALF_YEAR_CONFIG),
                                     "--strategy", "unlocked-lp"])
        assert result.exit_code == 0
        assert "price:      10250\n" in result.output

    def test_unlocked_lp_echoes_the_factors_of_its_redeemable_price(self, runner, tmp_path):
        # the redeemable price uses tau = 0, where both decay factors are exactly 1
        out = tmp_path / "price.json"
        result = runner.invoke(cli, ["price", "--config", str(HALF_YEAR_CONFIG),
                                     "--strategy", "unlocked-lp", "--out", str(out)])
        assert result.exit_code == 0
        assert "beta:       1\ngamma_disc: 1\n" in result.output
        record = json.loads(out.read_text())
        assert record["beta"] == 1.0 and record["gamma_disc"] == 1.0

    def test_overflow_is_domain_error(self, runner, tmp_path):
        # exp(-r_f * tau) = exp(1000) overflows; that is not a failed verification
        data = {
            "market": {"r_f": -200, "sigma": 0.7, "phi": 0.1},
            "position": {"v0": 10000, "s0": 1000, "t": 0, "T": 5, "locked": True},
            "spot": 1000,
            "ig": {"k": 1000, "T": 5},
        }
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["price", "--config", str(path), "--strategy", "ig"])
        assert result.exit_code == 3
        assert "domain error: " in result.output

    def test_invalid_config_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(cli, ["price", "--config", str(path),
                                     "--strategy", "locked-lp"])
        assert result.exit_code == 2

    def test_huge_integer_is_config_error(self, runner, tmp_path):
        # 10**400 is a valid JSON number but no float; the message names the
        # field without echoing its 401 digits
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["position"]["v0"] = 10**400
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["price", "--config", str(path),
                                     "--strategy", "locked-lp"])
        assert result.exit_code == 2
        assert "config error: position.v0:" in result.output
        assert "0" * 400 not in result.output

    def test_integer_past_digit_limit_is_config_error(self, runner, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text(HALF_YEAR_CONFIG.read_text().replace('"v0": 10000',
                                                             '"v0": 1' + "0" * 5000))
        result = runner.invoke(cli, ["price", "--config", str(path),
                                     "--strategy", "locked-lp"])
        assert result.exit_code == 2
        assert "config error: invalid JSON" in result.output

    def test_type_error_names_the_root_field(self, runner, tmp_path):
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["spot"] = "x"
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["price", "--config", str(path),
                                     "--strategy", "locked-lp"])
        assert result.exit_code == 2
        assert result.output.startswith("config error: spot: ")
        assert "<root>" not in result.output

    def test_missing_config_exits_2(self, runner):
        result = runner.invoke(cli, ["price", "--config", "/nonexistent.json",
                                     "--strategy", "ig"])
        assert result.exit_code == 2

    def test_ig_without_an_ig_block_exits_2(self, runner, tmp_path):
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        del data["ig"]
        result = runner.invoke(cli, ["price", "--config", str(write_config(tmp_path, data)),
                                     "--strategy", "ig"])
        assert result.exit_code == 2
        assert result.stderr == "config error: ig: block is required for this command\n"


class TestGreeksCommand:
    def test_unlocked_vol_and_rate_rows_zero(self, runner, tmp_path):
        data = {
            "market": {"r_f": 0.03, "sigma": 0.7, "phi": 0.1},
            "position": {"v0": 10000, "s0": 1000, "t": 0.25, "T": 0.5, "locked": False},
            "spot": 1000,
        }
        path = write_config(tmp_path, data)
        out = tmp_path / "greeks.json"
        result = runner.invoke(cli, ["greeks", "--config", str(path),
                                     "--strategy", "unlocked-lp", "--out", str(out)])
        assert result.exit_code == 0
        record = json.loads(out.read_text())["greeks"]
        assert record["vega"] == 0.0
        assert record["rho"] == 0.0

    def test_locked_matches_finite_differences(self, runner, tmp_path):
        out = tmp_path / "greeks.json"
        result = runner.invoke(cli, ["greeks", "--config", str(HALF_YEAR_CONFIG),
                                     "--strategy", "locked-lp", "--out", str(out)])
        assert result.exit_code == 0
        record = json.loads(out.read_text())["greeks"]
        market = MarketParams.from_rate_differential(0.03, 0.7, 0.10)
        scn = McScenario(market=market, s_t=1000.0, tau=0.25, v0=10000.0,
                         entry_price=1000.0, horizon=0.5)
        for greek in ("delta", "vega", "theta", "rho"):
            fd = fd_greek("locked_lp", scn, greek)
            assert abs(record[greek] - fd) / max(abs(fd), 1e-12) < 1e-6
        fd = fd_greek("locked_lp", scn, "gamma")
        assert abs(record["gamma"] - fd) / abs(fd) < 1e-5

    def test_non_finite_greek_is_domain_error(self, runner, tmp_path):
        # sigma^2 overflows to inf, and inf * beta = inf * 0 makes theta nan
        data = {
            "market": {"r_f": 0.03, "sigma": 1e200, "phi": 0.1},
            "position": {"v0": 10000, "s0": 1000, "t": 0.25, "T": 0.5, "locked": True},
            "spot": 1000,
        }
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["greeks", "--config", str(path),
                                     "--strategy", "locked-lp"])
        assert result.exit_code == 3
        assert "domain error: " in result.output
        assert "Theta" not in result.output

    def test_ig_delta_positive_at_strike(self, runner, tmp_path):
        out = tmp_path / "greeks.json"
        result = runner.invoke(cli, ["greeks", "--config", str(WEEK_CONFIG),
                                     "--strategy", "ig", "--out", str(out)])
        assert result.exit_code == 0
        record = json.loads(out.read_text())["greeks"]
        assert record["delta"] > 0.0
        assert "per 1% vol" in result.output
        assert "per day" in result.output

    def test_unlocked_lp_delta_is_the_table_column(self, runner, tmp_path):
        greeks_out, table_out = tmp_path / "greeks.json", tmp_path / "table.csv"
        assert runner.invoke(cli, ["greeks", "--config", str(HALF_YEAR_CONFIG),
                                   "--strategy", "unlocked-lp",
                                   "--out", str(greeks_out)]).exit_code == 0
        assert runner.invoke(cli, ["table", "--config", str(HALF_YEAR_CONFIG),
                                   "--out", str(table_out)]).exit_code == 0
        delta = json.loads(greeks_out.read_text())["greeks"]["delta"]
        row = next(line for line in table_out.read_text().splitlines()
                   if line.startswith("Delta,"))
        assert delta == float(row.split(",")[1]) == 5.0


class TestHedgeCommand:
    def test_one_year_identities(self, runner, tmp_path):
        out = tmp_path / "hedge.json"
        result = runner.invoke(cli, ["hedge", "--config", str(HEDGE_CONFIG),
                                     "--out", str(out)])
        assert result.exit_code == 0
        record = json.loads(out.read_text())
        assert record["total"]["delta"] == pytest.approx(5.0, rel=1e-10)
        assert record["total"]["gamma"] == 0.0
        assert record["total"]["vega"] == 0.0
        assert record["total"]["theta"] == pytest.approx(record["theta_pred"], rel=1e-10)
        assert record["total"]["rho"] == pytest.approx(record["rho_pred"], rel=1e-10)

    def test_sums_survive_spot_override(self, runner, tmp_path):
        base = json.loads(HEDGE_CONFIG.read_text())
        shifted = dict(base, spot=5000)
        path = write_config(tmp_path, shifted)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(cli, ["hedge", "--config", str(HEDGE_CONFIG),
                                   "--out", str(out_a)]).exit_code == 0
        assert runner.invoke(cli, ["hedge", "--config", str(path),
                                   "--out", str(out_b)]).exit_code == 0
        a = json.loads(out_a.read_text())["total"]
        b = json.loads(out_b.read_text())["total"]
        for greek in ("delta", "theta", "rho"):
            assert b[greek] == pytest.approx(a[greek], rel=1e-10)

    def test_strike_mismatch_exits_2(self, runner, tmp_path):
        base = json.loads(HEDGE_CONFIG.read_text())
        base["ig"]["k"] = 1100
        path = write_config(tmp_path, base)
        result = runner.invoke(cli, ["hedge", "--config", str(path)])
        assert result.exit_code == 2


class TestTableCommand:
    def test_comparison_table(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        result = runner.invoke(cli, ["table", "--config", str(HALF_YEAR_CONFIG),
                                     "--out", str(out)])
        assert result.exit_code == 0
        assert "Unlocked LP" in result.output
        assert "beta" in result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "greek,unlocked_lp,locked_lp,impermanent_gain"
        assert len(lines) == 8


# each command that needs a locked position -> its other options, and the name its error gives it
LOCKED_ONLY = {"price": (["--strategy", "locked-lp"], "--strategy locked-lp"),
               "greeks": (["--strategy", "locked-lp"], "--strategy locked-lp"),
               "table": ([], "table"), "hedge": ([], "hedge"), "verify": ([], "verify")}


# without its ig block, the config also shows that the locked rule is checked first
@pytest.mark.parametrize("with_ig", [True, False], ids=["with-ig", "without-ig"])
@pytest.mark.parametrize("command", LOCKED_ONLY)
def test_locked_only_commands_share_one_unlocked_error(runner, tmp_path, command, with_ig):
    options, user = LOCKED_ONLY[command]
    data = json.loads(HALF_YEAR_CONFIG.read_text())
    data["position"]["locked"] = False
    if not with_ig:
        del data["ig"]
    result = runner.invoke(cli, [command, "--config", str(write_config(tmp_path, data)),
                                 *options])
    assert result.exit_code == 2
    assert result.stderr == (f"config error: {user} needs a locked position: "
                             "position.locked is false\n")


class TestFigureCommand:
    def test_il_curve(self, runner, tmp_path):
        out = tmp_path / "il.csv"
        result = runner.invoke(cli, ["figure", "--config", str(HALF_YEAR_CONFIG),
                                     "--figure", "il-curve", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,value"
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(rows) >= 200
        assert rows[0][0] == -1.0 and rows[0][1] == -0.5
        assert rows[-1][0] == 3.0 and rows[-1][1] == -0.5
        assert rows[:, 1].max() == 0.0
        assert rows[rows[:, 1].argmax()][0] == 0.0

    def test_ig_gamma_strictly_positive(self, runner, tmp_path):
        out = tmp_path / "ig_gamma.csv"
        result = runner.invoke(cli, ["figure", "--config", str(WEEK_CONFIG),
                                     "--figure", "ig-gamma", "--out", str(out)])
        assert result.exit_code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert (rows[:, 1] > 0.0).all()

    def test_locked_vega_non_positive(self, runner, tmp_path):
        out = tmp_path / "lp_vega.csv"
        result = runner.invoke(cli, ["figure", "--config", str(HALF_YEAR_CONFIG),
                                     "--figure", "lp-vega", "--out", str(out)])
        assert result.exit_code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert (rows[:, 1] <= 0.0).all()

    def test_unknown_figure_exits_2_listing_ids(self, runner, tmp_path):
        result = runner.invoke(cli, ["figure", "--config", str(HALF_YEAR_CONFIG),
                                     "--figure", "nope", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert "il-curve" in result.output

    def test_rows_match_closed_forms_at_random_rows(self, runner, tmp_path):
        rng = np.random.default_rng(2024)
        market = MarketParams.from_rate_differential(0.03, 0.7, 0.10)
        pos = pool_from_deposit(10000.0, 1000.0)
        state = LpState(pos, market, s_t=1000.0, t=0.25, maturity_T=0.5, locked=True)
        contract = IgContract(notional_v0=10000.0, strike_k=1000.0,
                              maturity_T=0.5, t=0.25)
        closed = {
            "il-curve": (HALF_YEAR_CONFIG, impermanent_loss),
            "lp-price": (HALF_YEAR_CONFIG,
                         lambda s: price_locked_lp(
                             LpState(pos, market, s_t=s, t=0.25, maturity_T=0.5,
                                     locked=True))),
            "lp-delta": (HALF_YEAR_CONFIG,
                         lambda s: greeks_locked_lp(
                             LpState(pos, market, s_t=s, t=0.25, maturity_T=0.5,
                                     locked=True)).delta),
            "ig-price": (HALF_YEAR_CONFIG, lambda s: price_ig(contract, s, market)),
            "ig-theta": (HALF_YEAR_CONFIG,
                         lambda s: greeks_ig(contract, s, market).theta),
        }
        for figure_id, (config, fn) in closed.items():
            out = tmp_path / f"{figure_id}.csv"
            assert runner.invoke(cli, ["figure", "--config", str(config),
                                       "--figure", figure_id,
                                       "--out", str(out)]).exit_code == 0
            rows = np.loadtxt(out, delimiter=",", skiprows=1)
            for idx in rng.choice(len(rows), size=5, replace=False):
                x, value = rows[idx]
                assert value == fn(x), figure_id

    def test_lp_figures_follow_lock_flag(self, runner, tmp_path):
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["position"]["locked"] = False
        path = write_config(tmp_path, data)
        out = tmp_path / "unlocked_price.csv"
        assert runner.invoke(cli, ["figure", "--config", str(path),
                                   "--figure", "lp-price",
                                   "--out", str(out)]).exit_code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        market = MarketParams.from_rate_differential(0.03, 0.7, 0.10)
        pos = pool_from_deposit(10000.0, 1000.0)
        for x, value in rows[::40]:
            state = LpState(pos, market, s_t=x, t=0.25, maturity_T=0.5, locked=False)
            assert value == price_unlocked_lp(state)

    def test_figure_output_is_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert runner.invoke(cli, ["figure", "--config", str(WEEK_CONFIG),
                                       "--figure", "ig-price",
                                       "--out", str(out)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def _config(self, tmp_path, n=20000, seed=42, workers=1):
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["mc"] = small_mc(n=n, seed=seed, workers=workers)
        return write_config(tmp_path, data, "verify.json")

    def test_single_path_config_exits_2(self, runner, tmp_path):
        # one path estimates no standard error: every Monte Carlo row would read z = +-inf
        result = runner.invoke(cli, ["verify", "--config", str(self._config(tmp_path, n=1))])
        assert result.exit_code == 2
        assert result.stderr == "config error: mc.n_paths: a standard error needs 2 paths, got 1\n"

    def test_small_run_passes(self, runner, tmp_path):
        path = self._config(tmp_path)
        out = tmp_path / "report.csv"
        result = runner.invoke(cli, ["verify", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "checks passed" in result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "check_name,closed_form,mc_mean,std_error,z_score,pass"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_seed_and_paths_overrides(self, runner, tmp_path):
        path = self._config(tmp_path)
        out_a, out_b, out_c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert runner.invoke(cli, ["verify", "--config", str(path), "--seed", "7",
                                   "--paths", "30000", "--out", str(out_a)]).exit_code == 0
        assert runner.invoke(cli, ["verify", "--config", str(path), "--seed", "7",
                                   "--paths", "30000", "--out", str(out_b)]).exit_code == 0
        assert runner.invoke(cli, ["verify", "--config", str(path),
                                   "--out", str(out_c)]).exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() != out_c.read_bytes()

    def test_expired_position_passes(self, runner, tmp_path):
        # at t = T theta's central clock step would pass the maturity
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["mc"] = small_mc()
        data["position"]["t"] = 0.5
        path = write_config(tmp_path, data)
        out = tmp_path / "report.csv"
        result = runner.invoke(cli, ["verify", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 37 and all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize("option, value", [
        ("--paths", "0"), ("--paths", "1"), ("--paths", "-5"), ("--seed", "-1"),
        ("--seed", str(2**64)),
    ])
    def test_out_of_range_override_is_usage_error(self, runner, tmp_path, option, value):
        path = self._config(tmp_path)
        result = runner.invoke(cli, ["verify", "--config", str(path), option, value])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output

    def test_strip_builds_where_sigma_sqrt_tau_vanishes(self, runner, tmp_path):
        # sigma*sqrt(tau) = 7e-7: the grid keeps its 13 strikes, its cuts shrink with the vol,
        # and the strip prices the 6.125e-10 premium to a 5.6e-4 relative miss, the closed
        # form's own cancellation there; the fd/ig rows fail on rounding noise at this maturity
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["position"]["t"] = 0.0
        data["ig"]["T"] = 1e-12
        data["mc"]["n_paths"] = 2000
        path = write_config(tmp_path, data)
        out = tmp_path / "report.csv"
        result = runner.invoke(cli, ["verify", "--config", str(path), "--out", str(out)])
        assert "domain error" not in result.output
        strip = out.read_text().splitlines()[-1].split(",")
        assert strip[0] == "strip/ig" and strip[-1] == "true"
        assert float(strip[4]) <= 0.1

    def test_strip_passes_at_small_sigma(self, runner, tmp_path):
        # the grid's cuts and step follow sigma*sqrt(tau) = 5e-4; a payoff-sized 1024-node
        # grid missed the premium by 10 % (z = 10.05)
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["market"]["sigma"] = 0.001
        data["mc"]["n_paths"] = 2000
        path = write_config(tmp_path, data)
        out = tmp_path / "report.csv"
        result = runner.invoke(cli, ["verify", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        strip = out.read_text().splitlines()[-1].split(",")
        assert strip[0] == "strip/ig" and strip[-1] == "true"
        assert float(strip[4]) <= 1e-6

    def test_missing_mc_block_exits_2(self, runner, tmp_path):
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        del data["mc"]
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["verify", "--config", str(path)])
        assert result.exit_code == 2


class TestFloatRangeErrors:
    """Schema-valid inputs whose formulas leave the float range exit 3 with a
    message naming the input, not 1 (the verification-failure code)."""

    @pytest.mark.parametrize("args, locked", [
        (["greeks", "--strategy", "unlocked-lp"], False),
        (["greeks", "--strategy", "locked-lp"], True),
        (["greeks", "--strategy", "ig"], True),
        (["hedge"], True),
        (["table"], True),
    ])
    def test_tiny_spot_is_domain_error(self, runner, tmp_path, args, locked):
        # s_t**1.5 underflows to 0 at s_t = 1e-300, zeroing the gamma denominator
        data = {
            "market": {"r_f": 0.03, "sigma": 0.7, "phi": 0.1},
            "position": {"v0": 10000, "s0": 1000, "t": 0.25, "T": 0.5, "locked": locked},
            "spot": 1e-300,
            "ig": {"k": 1000, "T": 0.5},
        }
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, args + ["--config", str(path)])
        assert result.exit_code == 3
        assert "domain error: " in result.output
        assert "s_t=1e-300" in result.output

    def test_decay_overflow_names_rate_and_time(self, runner, tmp_path):
        data = {
            "market": {"r_f": -200, "sigma": 0.7, "phi": 0.1},
            "position": {"v0": 10000, "s0": 1000, "t": 0, "T": 5, "locked": True},
            "spot": 1000,
            "ig": {"k": 1000, "T": 5},
        }
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["price", "--config", str(path), "--strategy", "ig"])
        assert result.exit_code == 3
        assert "decay factors" in result.output
        assert "r_f=-200.0" in result.output and "tau=5.0" in result.output

    def test_infinite_decay_exponent_names_rate_and_time(self, runner, tmp_path):
        # -r_f * tau = 1e310 is inf before exp; the premium used to come out nan
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["market"]["r_f"] = -1e300
        data["position"]["T"] = data["ig"]["T"] = 1e10
        path = write_config(tmp_path, data)
        for strategy in ("ig", "locked-lp"):
            result = runner.invoke(cli, ["price", "--config", str(path), "--strategy", strategy])
            assert result.exit_code == 3
            assert "decay factors" in result.output
            assert "r_f=-1e+300" in result.output and "tau=" in result.output

    def test_overflowing_mc_sum_of_squares_is_domain_error(self, runner, tmp_path):
        # a 5e203 payoff squares past the float range; the row used to pass
        # with a nan standard error
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["market"]["phi"] = 1e200
        path = write_config(tmp_path, data)
        out = tmp_path / "report.csv"
        result = runner.invoke(cli, ["verify", "--config", str(path), "--paths", "20000",
                                     "--out", str(out)])
        assert result.exit_code == 3
        assert "domain error: " in result.output and "'locked_lp'" in result.output
        assert not out.exists()

    def test_spot_overflow_names_s_t(self, runner, tmp_path):
        data = {
            "market": {"r_f": 0.03, "sigma": 0.7, "phi": 0.1},
            "position": {"v0": 10000, "s0": 1000, "t": 0.25, "T": 0.5, "locked": True},
            "spot": 1e300,
        }
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["greeks", "--config", str(path),
                                     "--strategy", "locked-lp"])
        assert result.exit_code == 3
        assert "domain error: " in result.output
        assert "s_t**1.5" in result.output and "s_t=1e+300" in result.output


# the options each command needs besides --config; a command missing here fails
# test_every_command_maps_config_errors
COMMAND_ARGS = {
    "price": ["--strategy", "ig"],
    "greeks": ["--strategy", "ig"],
    "table": [],
    "hedge": [],
    "figure": ["--figure", "il-curve"],
    "verify": [],
}


class TestErrorMapping:
    """The group maps each error type to its exit code once, for every command."""

    @pytest.mark.parametrize("command", sorted(cli.commands))
    def test_every_command_maps_config_errors(self, runner, tmp_path, command):
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        data["market"] = 1
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, [command, "--config", str(path), *COMMAND_ARGS[command],
                                     "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == "config error: market: expected an object, got int\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(cli.commands))
    def test_every_command_reports_invalid_json(self, runner, tmp_path, command):
        path = tmp_path / "scenario.json"
        path.write_text('{"market": ')
        result = runner.invoke(cli, [command, "--config", str(path), *COMMAND_ARGS[command],
                                     "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "config error: invalid JSON at line 1, column 12: Expecting value\n"
        assert not (tmp_path / "out").exists()

    def test_bad_config_is_reported_before_a_missing_option_after_it(self, runner, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"market": ')
        result = runner.invoke(cli, ["price", "--config", str(path)])
        assert result.exit_code == 2
        assert result.stderr == "config error: invalid JSON at line 1, column 12: Expecting value\n"

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d.update(ig={"k": 1000}), "ig.T: required field is missing"),
        (lambda d: d["position"].update(v0=1e-300, s0=1e300),
         "scenario: a deposit of v0=1e-300 at s0=1e+300 makes no valid pool position: "
         "invariant_l must be positive and finite, got 0.0"),
    ])
    def test_config_error_names_the_field(self, runner, tmp_path, mutate, message):
        data = json.loads(HALF_YEAR_CONFIG.read_text())
        mutate(data)
        path = write_config(tmp_path, data)
        result = runner.invoke(cli, ["price", "--config", str(path), "--strategy", "ig"])
        assert result.exit_code == 2
        assert result.output == f"config error: {message}\n"


# runpy warns that it re-executes a module this test process has already imported
_ENTRY_POINTS = pytest.mark.parametrize("run", [
    main, lambda: runpy.run_module("lpgreeks.cli", run_name="__main__"),
], ids=["main", "run-as-script"])
_RERUN_WARNING = pytest.mark.filterwarnings(
    "ignore:'lpgreeks.cli' found in sys.modules:RuntimeWarning")


class TestEntryPoints:
    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        # main() leaves the collector off and the heap frozen, as a one-command process wants;
        # this process runs on and gets both back
        enabled = gc.isenabled()
        yield
        gc.unfreeze()
        if enabled:
            gc.enable()

    @_RERUN_WARNING
    @_ENTRY_POINTS
    def test_entry_point_runs_the_group(self, run, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["lpgreeks", "--help"])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("Usage: lpgreeks [OPTIONS] COMMAND")

    @_RERUN_WARNING
    @_ENTRY_POINTS
    def test_version_needs_no_installed_distribution(self, run, monkeypatch, capsys):
        # the version is the package's __version__, so a source checkout on PYTHONPATH prints it
        monkeypatch.setattr(sys, "argv", ["lpgreeks", "--version"])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "lpgreeks, version 0.1.0\n"
