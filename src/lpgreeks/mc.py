"""Seeded Monte Carlo verification engine and finite-difference greeks.

Terminal prices are sampled exactly from the lognormal terminal law, so the
estimates carry statistical error only, never discretization bias. Draws are
tied to path indices rather than workers: the uniform for path i is element i
of a single Philox stream, normals come from the inverse CDF of that uniform,
and per-chunk partial sums combine in a fixed pairwise order. Together these
make every estimate bit-identical for any worker count. mc_price also takes
sequences of payoffs and scenarios and prices them all from one pass over the
stream (common random numbers), each estimate keeping its one-job bits.

The terminal payoffs live in one table, PAYOFFS, typed out here on purpose:
they are the independent reference the closed forms in pricing.py are
checked against. The finite differences, by contrast, differentiate the
shipped closed forms themselves (pricing.lp_premium and pricing.ig_premium).

PRNG: Philox 4x64 (10 rounds) as implemented by numpy.random.Philox, keyed by
the seed. numpy guarantees stream stability for a released BitGenerator.
numpy, Philox and scipy.special.ndtri are imported on the first draw, not with
the module, so a caller that only reads McConfig loads neither library; the
thread pool (concurrent.futures, with the logging it imports) is imported only
by an mc_price call that starts one, at workers > 1 over more than one chunk.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from .errors import (DomainError, StepCollapseError, require_finite, require_non_negative,
                     require_positive)
from .pricing import MarketParams, decay_factors, ig_premium, lp_premium

_CHUNK = 1 << 16

_LP_FIELDS = ("v0", "entry_price", "horizon")
# pricer -> scenario fields it needs
PRICERS = {"unlocked_lp": _LP_FIELDS, "locked_lp": _LP_FIELDS, "ig": ("v0", "strike", "horizon")}
# greek -> (the argument of fd_greek's value() it bumps, its step relative to max(|x|, 1))
_STEPS = {"delta": ("s_t", 1e-5), "gamma": ("s_t", 1e-4), "vega": ("sig", 1e-5),
          "theta": ("clock", 1e-5), "rho": ("rate", 1e-5)}
GREEK_NAMES = tuple(_STEPS)
_DRAW_LOCK = threading.Lock()


def _load_draws() -> None:
    """Import numpy, Philox and ndtri and bind them as np, Philox and ndtri, all three at once
    and only once: a name bound here, or swapped in later, is never rebound."""
    if "ndtri" in globals():
        return
    with _DRAW_LOCK:
        if "ndtri" in globals():
            return
        import numpy
        from numpy.random import Philox
        from scipy.special import ndtri
        globals().update(np=numpy, Philox=Philox, ndtri=ndtri)


def __getattr__(name: str):
    """Resolve np, Philox and ndtri through _load_draws (PEP 562)."""
    if name not in ("np", "Philox", "ndtri"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_draws()
    return globals()[name]


@dataclass(frozen=True)
class McConfig:
    """Estimator knobs; (n_paths, seed, antithetic) fix the result bits."""

    n_paths: int
    seed: int = 0
    antithetic: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("n_paths", "seed", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.antithetic, bool):
            raise DomainError(f"antithetic must be a bool, got {self.antithetic!r}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers!r}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 bits, got {self.seed!r}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error and the effective draw count."""

    mean: float
    std_error: float
    n_effective: int


@dataclass(frozen=True)
class McScenario:
    """Inputs a payoff may need; fields unused by a given payoff stay None.

    horizon is the total lock maturity T (so the clock is t = horizon - tau);
    entry_price is the pool entry price for the locked-LP payoff and strike is
    the reference price for the gain contract and the vanillas.
    """

    market: MarketParams
    s_t: float
    tau: float
    v0: Optional[float] = None
    entry_price: Optional[float] = None
    strike: Optional[float] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive("s_t", self.s_t)
        require_non_negative("tau", self.tau)


def sample_terminal(s_t: float, market: MarketParams, tau: float, draw):
    """Exact lognormal terminal prices for standard normal draws, a float or an
    array: s_t * exp((r_f - sigma^2/2) * tau + sigma * sqrt(tau) * draw)."""
    _load_draws()
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    sigma = market.sigma
    drift = (market.r_f - 0.5 * sigma * sigma) * tau
    diffusion = sigma * math.sqrt(tau)
    z = np.asarray(draw, dtype=float)
    if diffusion == 0.0:  # skips 0 * inf = nan on an infinite draw
        out = np.full_like(z, s_t * math.exp(drift))
    else:
        out = s_t * np.exp(drift + diffusion * z)
    return out if out.ndim else require_finite("terminal price", float(out))


# payoff -> (scenario fields it needs, discounted at exp(-r_f * tau)?, value at S_T)
PAYOFFS: dict[str, tuple[tuple[str, ...], bool, Callable]] = {
    "locked_lp": (_LP_FIELDS, True, lambda scn, s: scn.v0 * (
        np.sqrt(s / scn.entry_price) + scn.market.phi * scn.horizon)),
    "ig": (("v0", "strike"), True, lambda scn, s: scn.v0 * (
        0.5 + s / (2.0 * scn.strike) - np.sqrt(s / scn.strike))),
    "sqrt_moment": ((), False, lambda scn, s: np.sqrt(s)),
    "forward": ((), False, lambda scn, s: s),
    "vanilla_call": (("strike",), True, lambda scn, s: np.maximum(s - scn.strike, 0.0)),
    "vanilla_put": (("strike",), True, lambda scn, s: np.maximum(scn.strike - s, 0.0)),
}


def _require_fields(user: str, fields: tuple[str, ...], scn: McScenario) -> None:
    for field_name in fields:
        if getattr(scn, field_name) is None:
            raise DomainError(f"{user} needs scenario field {field_name!r}")


def _stream_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Elements [start, start + count) of the unit-uniform stream for a seed.

    Philox counts in 4-word blocks, so chunk starts must be 4-aligned; one
    64-bit word yields one uniform via the usual 53-bit scaling.
    """
    _load_draws()
    if start % 4:
        raise DomainError("stream offsets must be multiples of 4")
    bitgen = Philox(key=seed)
    if start:
        bitgen.advance(start // 4)
    raw = bitgen.random_raw(count)
    return (raw >> np.uint64(11)) * (2.0 ** -53)


def _chunk_stats(laws: dict, n_jobs: int, cfg: McConfig, span: tuple[int, int]) -> np.ndarray:
    """(sum, sumsq) of every job's values over stream elements [start, stop), one
    row per job. The chunk's normals are drawn once, and each terminal law's
    prices (and their mirror, with antithetic on) are built once for its jobs."""
    start, stop = span
    z = ndtri(_stream_uniforms(cfg.seed, start, stop - start))
    out = np.empty((n_jobs, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for (s_t, market, tau), jobs in laws.items():
            terminal = sample_terminal(s_t, market, tau, z)
            mirrored = sample_terminal(s_t, market, tau, -z) if cfg.antithetic else None
            for j, value, scn in jobs:
                values = value(scn, terminal)
                if mirrored is not None:
                    values = 0.5 * (values + value(scn, mirrored))
                out[j] = values.sum(), np.square(values).sum()
    return out


def _pairwise_total(rows: list[np.ndarray]) -> np.ndarray:
    while len(rows) > 1:
        paired = [rows[i] + rows[i + 1] for i in range(0, len(rows) - 1, 2)]
        if len(rows) % 2:
            paired.append(rows[-1])
        rows = paired
    return rows[0]


def mc_price(payoff: str | Sequence[str], scenario: McScenario | Sequence[McScenario],
             cfg: McConfig) -> McEstimate | tuple[McEstimate, ...]:
    """Monte Carlo estimate of a payoff's price, or of a raw terminal moment.

    locked_lp, ig and the vanillas are discounted at exp(-r_f * tau);
    sqrt_moment and forward are undiscounted moments of the terminal price,
    directly comparable with expected_sqrt_price and forward_price. With
    antithetic on, each path index is paired with its mirrored draw and the
    pair average feeds the variance, doubling the effective draw count.

    A payoff name and one McScenario give one McEstimate; equal-length sequences
    give a tuple in job order, with each terminal law (s_t, market, tau) sampled
    once per chunk. Jobs are checked before any draw; a sum or sum of squares
    that is not finite raises DomainError.
    """
    single = isinstance(payoff, str)
    payoffs, scenarios = ((payoff,), (scenario,)) if single else (tuple(payoff), tuple(scenario))
    if not payoffs or len(payoffs) != len(scenarios):
        raise DomainError(f"need as many payoffs as scenarios, and at least one; "
                          f"got {len(payoffs)} and {len(scenarios)}")
    laws: dict = {}  # (s_t, market, tau) -> [(job index, value at S_T, scenario)]
    for j, (name, scn) in enumerate(zip(payoffs, scenarios)):
        if name not in PAYOFFS:
            raise DomainError(f"unknown payoff {name!r}; expected one of {tuple(PAYOFFS)}")
        fields, _, value = PAYOFFS[name]
        _require_fields(f"payoff {name!r}", fields, scn)
        laws.setdefault((scn.s_t, scn.market, scn.tau), []).append((j, value, scn))
    _load_draws()
    n = cfg.n_paths
    spans = [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]
    stats = partial(_chunk_stats, laws, len(payoffs), cfg)
    if cfg.workers == 1 or len(spans) == 1:
        rows = list(map(stats, spans))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(stats, spans))
    estimates = []
    for name, scn, (total, total_sq) in zip(payoffs, scenarios, _pairwise_total(rows)):
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            raise DomainError(f"payoff {name!r}: sum or sum of squares over {n} paths overflowed")
        mean = total / n
        var = max((total_sq - n * mean * mean) / (n - 1), 0.0) if n > 1 else 0.0
        std_error = math.sqrt(var / n)
        if PAYOFFS[name][1]:  # discounted
            discount = decay_factors(scn.market, scn.tau).gamma_disc
            mean *= discount
            std_error *= discount
        estimates.append(McEstimate(float(mean), float(std_error),
                                    n_effective=2 * n if cfg.antithetic else n))
    return estimates[0] if single else tuple(estimates)


def fd_greek(pricer: str, scenario: McScenario, which: str) -> float:
    """Central finite difference of the shipped closed-form premium
    (pricing.lp_premium or pricing.ig_premium).

    The step is h = c * max(|x|, 1) in the bumped parameter x, relative for the
    spot and with an absolute floor for small rates and vols: c = 1e-4 for
    gamma, a second central difference whose coarser step keeps its rounding
    noise inside a 1e-5 relative budget, and c = 1e-5 for delta, vega, theta
    and rho. theta bumps the clock t with the maturity held fixed; rho bumps
    the rate differential. The clock may run below zero (valuing before
    inception is smooth), but the remaining time horizon - t must stay
    non-negative wherever it enters a formula. Where the clock's up step would
    pass the maturity of a locked position or a gain contract (tau < h, at
    maturity too), theta takes the second-order backward stencil
    (3 f(t) - 4 f(t - h) + f(t - 2h)) / 2h instead, so no clock it values
    passes the maturity; a spot or sigma step that leaves the domain raises
    StepCollapseError.
    """
    if pricer not in PRICERS:
        raise DomainError(f"unknown pricer {pricer!r}; expected one of {tuple(PRICERS)}")
    if which not in GREEK_NAMES:
        raise DomainError(f"unknown greek {which!r}; expected one of {GREEK_NAMES}")
    _require_fields(f"pricer {pricer!r}", PRICERS[pricer], scenario)

    m = scenario.market
    s, sigma, r_f = scenario.s_t, m.sigma, m.r_f
    v0, horizon = scenario.v0, scenario.horizon
    t = horizon - scenario.tau

    def value(s_t: float = s, sig: float = sigma, rate: float = r_f, clock: float = t) -> float:
        if s_t <= 0.0:
            raise StepCollapseError(f"bumped spot left the domain: {s_t!r}")
        if sig < 0.0:
            raise StepCollapseError(f"bumped sigma left the domain: {sig!r}")
        market = MarketParams.from_rate_differential(rate, sig, m.phi)
        if pricer == "unlocked_lp":
            return lp_premium(v0, scenario.entry_price, s_t, market, tau=0.0, fee_years=clock)
        tau = horizon - clock
        if pricer == "locked_lp":
            return lp_premium(v0, scenario.entry_price, s_t, market, tau, fee_years=horizon)
        return ig_premium(v0, scenario.strike, s_t, market, tau)

    arg, step = _STEPS[which]
    x = {"s_t": s, "sig": sigma, "rate": r_f, "clock": t}[arg]
    h = step * max(abs(x), 1.0)
    if arg == "clock" and pricer != "unlocked_lp" and x + h > horizon:
        return (3.0 * value() - 4.0 * value(clock=x - h) + value(clock=x - 2.0 * h)) / (2.0 * h)
    up, down = value(**{arg: x + h}), value(**{arg: x - h})
    if which == "gamma":
        return (up - 2.0 * value() + down) / (h * h)
    return (up - down) / (2.0 * h)
