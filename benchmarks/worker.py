"""In-process side of the benchmark: set-up and the timed loops of the warm
workloads (mc-oracle, risk-sweep), plus the set-up of the cli workload.

run.py starts it as a fresh interpreter so that set-up includes the imports:

    PYTHONPATH=src python3 benchmarks/worker.py --workload mc-oracle --seed 1 \
        --seconds 30 --trace 0 --result out.json [--setup-only]

It writes one JSON result: the monotonic time at which set-up finished, the
per-op timings of op kinds "a" and "b", the op tally and, when traced, the
span aggregates. The in-process workloads also write their raw wall times
("a_wall", "b_wall") and the reference-loop times they were scaled by
("a_loop", "b_loop"); see calibrate.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import spans

import lpgreeks
import lpgreeks.config

import calibrate  # after lpgreeks, so that -X importtime charges scipy.special to it

ROOT = Path(__file__).resolve().parent.parent

# The vol/rate/time box verify.MOMENT_SETS declares as supported.
SIGMA = (0.2, 1.5)
R_F = (-0.05, 0.10)
TAU = (0.1, 2.0)

MC_PATHS = 2_000_000
MC_WARMUP_PATHS = 1 << 17
MC_PAYOFFS = ("ig", "locked_lp", "vanilla_put")
BOOK_SIZE = 1024
SWEEP_BLOCK = 64       # phase-A scenarios between two phase-B strip prices ...
STRIP_PER_BLOCK = 4    # ... so the two phases get about equal time


def _timings() -> dict:
    # arrays rather than lists keep the timings from inflating peak RSS
    return {kind: array("d") for kind in calibrate.TIMINGS}


def _load_configs():
    paths = sorted((ROOT / "configs").glob("*.json"))
    return [lpgreeks.config.load_config(path) for path in paths]


def _market(rng: random.Random, phi: float):
    return lpgreeks.MarketParams.from_rate_differential(
        rng.uniform(*R_F), rng.uniform(*SIGMA), phi)


# -- mc-oracle ----------------------------------------------------------------

@dataclass(frozen=True)
class McCase:
    payoff: str
    scenario: object
    seed: int
    closed: float


def _mc_case(rng: random.Random, base, payoff: str) -> McCase:
    market = _market(rng, rng.uniform(0.0, 0.2))
    tau = rng.uniform(*TAU)
    t = base.position.t
    s0, v0 = base.position.s0, base.position.v0
    spot = s0 * rng.uniform(0.7, 1.4)
    scenario = lpgreeks.McScenario(market=market, s_t=spot, tau=tau, v0=v0,
                                   entry_price=s0, strike=s0, horizon=t + tau)
    if payoff == "ig":
        closed = lpgreeks.price_ig(lpgreeks.IgContract(v0, s0, t + tau, t), spot, market)
    elif payoff == "locked_lp":
        state = lpgreeks.LpState(lpgreeks.pool_from_deposit(v0, s0), market, spot, t,
                                 t + tau, locked=True)
        closed = lpgreeks.price_locked_lp(state)
    else:
        closed = lpgreeks.vanilla_price(s0, spot, market, tau, "put").premium
    return McCase(payoff, scenario, rng.getrandbits(64), closed)


def _mc_config(case: McCase, workers: int, n_paths: int):
    return lpgreeks.McConfig(n_paths=n_paths, seed=case.seed, antithetic=True, workers=workers)


class McOracle:
    """Pairs of mc_price calls on one seeded case, at workers 1 and nproc.
    Op times are scaled by the numpy reference loop, on as many threads as the
    call, timed before each call."""

    def __init__(self, configs, rng: random.Random) -> None:
        self.configs, self.rng = configs, rng
        # at least two, so that op b always runs the thread pool
        self.nproc = max(2, len(os.sched_getaffinity(0)))
        self.k = 0
        inputs = calibrate.numpy_inputs()
        self.loop_chunks = {1: [inputs], self.nproc: calibrate.split(inputs, self.nproc)}

    def warm_up(self) -> None:
        case = _mc_case(random.Random(0), self.configs[0], "ig")
        for workers in (1, self.nproc):
            lpgreeks.mc_price(case.payoff, case.scenario,
                              _mc_config(case, workers, MC_WARMUP_PATHS))

    def run(self, seconds: float, times: dict, tally: checks.Tally) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            case = _mc_case(self.rng, self.configs[self.k % len(self.configs)],
                            MC_PAYOFFS[self.k % len(MC_PAYOFFS)])
            order = (1, self.nproc) if self.k % 2 == 0 else (self.nproc, 1)
            self.k += 1
            estimates = {}
            for workers in order:
                loop_s = calibrate.numpy_threads_s(self.loop_chunks[workers])
                cfg = _mc_config(case, workers, MC_PATHS)
                start = time.perf_counter()
                estimates[workers] = lpgreeks.mc_price(case.payoff, case.scenario, cfg)
                calibrate.record(times, "a" if workers == 1 else "b",
                                 time.perf_counter() - start, loop_s, calibrate.NP_REF_S)
            closed_problems = checks.mc_against_closed_form(estimates[1], case.closed)
            pair_problems = checks.mc_pair(estimates[1], estimates[self.nproc])
            tally.op(closed_problems + pair_problems)
            tally.op(pair_problems)


# -- risk-sweep ---------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    locked: object
    unlocked: object
    contract: object
    market: object
    spot: float
    quad_tol: float


def _book(configs, rng: random.Random) -> list[Scenario]:
    book = []
    for i in range(BOOK_SIZE):
        base = configs[i % len(configs)]
        market = _market(rng, rng.uniform(0.0, 0.2))
        t = rng.uniform(0.0, 0.5)
        maturity = t + rng.uniform(*TAU)
        s0, v0 = base.position.s0, base.position.v0
        spot = s0 * rng.uniform(0.6, 1.6)
        locked = lpgreeks.LpState(lpgreeks.pool_from_deposit(v0, s0), market, spot, t,
                                  maturity, locked=True)
        book.append(Scenario(locked, replace(locked, locked=False),
                             lpgreeks.IgContract(v0, s0, maturity, t), market, spot,
                             base.quad_tol or 1e-5))
    return book


def _revalue(s: Scenario) -> tuple:
    return (
        lpgreeks.price_unlocked_lp(s.unlocked),
        lpgreeks.price_locked_lp(s.locked),
        lpgreeks.price_ig(s.contract, s.spot, s.market),
        lpgreeks.greeks_unlocked_lp(s.unlocked),
        lpgreeks.greeks_locked_lp(s.locked),
        lpgreeks.greeks_ig(s.contract, s.spot, s.market),
        lpgreeks.hedge_report(s.locked, s.contract, s.market, s.spot),
    )


def _strip(s: Scenario) -> tuple:
    grid = lpgreeks.build_strike_grid(s.contract.strike_k, s.market.sigma, s.contract.tau,
                                      target_tol=s.quad_tol)
    return grid, lpgreeks.price_ig_via_strip(s.contract, s.spot, s.market, grid)


def _revalue_problems(values: tuple) -> list[str]:
    numbers = list(values[:3])
    for report in values[3:6]:
        numbers += [report.delta, report.gamma, report.vega, report.theta, report.rho]
    hedged = values[6]
    numbers += [hedged.total.delta, hedged.delta_pred, hedged.theta_pred, hedged.rho_pred]
    return checks.finite("revaluation", numbers)


class RiskSweep:
    """Phase A revalues book scenarios in closed form; phase B prices the
    gain contract through the option strip on every SWEEP_BLOCK/STRIP_PER_BLOCK-th one.
    Op times are scaled by the pure-Python reference loop timed before each block."""

    def __init__(self, configs, rng: random.Random) -> None:
        self.book = _book(configs, rng)
        self.i = self.j = 0

    def warm_up(self) -> None:
        for s in self.book[:SWEEP_BLOCK]:
            _revalue(s)
        _strip(self.book[0])

    def _one_revaluation(self, times: dict, tally: checks.Tally, loop_s: float) -> None:
        s = self.book[self.i % BOOK_SIZE]
        self.i += 1
        start = time.perf_counter()
        try:
            values = _revalue(s)
        except ArithmeticError as exc:  # hedge_report raises when the legs fail to cancel
            calibrate.record(times, "a", time.perf_counter() - start, loop_s, calibrate.PY_REF_S)
            tally.op([f"revaluation raised {exc!r}"])
            return
        calibrate.record(times, "a", time.perf_counter() - start, loop_s, calibrate.PY_REF_S)
        tally.op(_revalue_problems(values))

    def _one_strip(self, times: dict, tally: checks.Tally, loop_s: float) -> None:
        s = self.book[(self.j * 7) % BOOK_SIZE]
        self.j += 1
        start = time.perf_counter()
        grid, strip = _strip(s)
        calibrate.record(times, "b", time.perf_counter() - start, loop_s, calibrate.PY_REF_S)
        closed = lpgreeks.price_ig(s.contract, s.spot, s.market)
        bound = lpgreeks.strip_price_error_bound(s.contract, s.spot, s.market, grid)
        tally.op(checks.strip_price(strip, closed, bound))

    def run(self, seconds: float, times: dict, tally: checks.Tally) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            loop_s = calibrate.python_s()
            for _ in range(SWEEP_BLOCK):
                self._one_revaluation(times, tally, loop_s)
            for _ in range(STRIP_PER_BLOCK):
                self._one_strip(times, tally, loop_s)


# -- entry point -------------------------------------------------------------

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "mc-oracle", "risk-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "cli":
        import lpgreeks.cli  # noqa: F401  (a user's first command pays this)
    recorder = spans.Recorder() if args.trace else None
    if recorder:
        recorder.install()
    configs = _load_configs()
    if recorder:
        recorder.uninstall()
    rng = random.Random(args.seed)
    work = None
    if args.workload == "mc-oracle":
        work = McOracle(configs, rng)
    elif args.workload == "risk-sweep":
        work = RiskSweep(configs, rng)
    if work is not None:
        work.warm_up()
    result = {"ready": time.monotonic()}

    if work is not None and not args.setup_only:
        tally = checks.Tally()
        if recorder:
            # A third of the time untraced, the rest traced: the ratio of the
            # two gives the tracing overhead.
            untraced = _timings()
            work.run(args.seconds / 3, untraced, tally)
            result["untraced"] = {kind: t.tolist() for kind, t in untraced.items()}
            recorder.install()
            args.seconds -= args.seconds / 3
        times = _timings()
        work.run(args.seconds, times, tally)
        # read before the timings become lists, which would count in it
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder:
            recorder.uninstall()
            result["trace"] = recorder.dump()
        per_op = MC_PATHS if args.workload == "mc-oracle" else 1
        result.update(times={kind: t.tolist() for kind, t in times.items()},
                      work={"a": per_op, "b": per_op},
                      attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                      maxrss_kb=maxrss_kb)
    elif recorder:
        result["trace"] = recorder.dump()
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
