"""Static replication of the LP shortfall as a strip of vanilla options.

The shortfall payoff has a strictly negative second strike-derivative, so the
LP is synthetically short a continuum of puts below the entry price and calls
above it; the gain contract is long the same strip. Discretizing the strip on
a log-strike trapezoid grid gives both a payoff reconstruction and a pricer
that is independent of the closed forms up to quadrature and truncation error.

Strip summation uses fixed-order numpy reductions only, so results are
bit-reproducible; grids are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, require_finite, require_non_negative, require_positive
from .pricing import IgContract, MarketParams, decay_factors, forward_price

_TEST_RATIOS = np.array((0.1, 10.0 ** -0.5, 1.0, 10.0 ** 0.5, 10.0))
_N_START = 64
_N_CAP = 1 << 21
_BLOCK = 1 << 16


def _density_magnitude(k, s0: float):
    """|h''(K)| = 1 / (4 * K^1.5 * sqrt(s0)) for a float K (Python's pow) or an
    array of strikes (numpy's pow); the two pows differ in the last bit."""
    return 1.0 / (4.0 * k**1.5 * math.sqrt(s0))


def strip_density(k_strike: float, s0: float) -> float:
    """Second strike-derivative of the normalized shortfall payoff:
    -1 / (4 * K^1.5 * sqrt(s0)). Negative for every strike; a DomainError
    where its magnitude is not a positive float."""
    require_positive("k_strike", k_strike)
    require_positive("s0", s0)
    try:
        magnitude = _density_magnitude(k_strike, s0)
    except (OverflowError, ZeroDivisionError):  # K**1.5 overflows, or the denominator is 0
        magnitude = 0.0
    if not 0.0 < magnitude < math.inf:
        raise DomainError(f"strip density 1/(4*K**1.5*sqrt(s0)) is not a positive float at "
                          f"k_strike={k_strike!r}, s0={s0!r}")
    return -magnitude


@dataclass(frozen=True)
class StrikeGrid:
    """Discretized strike strip with density-weighted quadrature weights.

    Put strikes run from lower_cut up to the entry price and call strikes from
    the entry price up to upper_cut; each side is strictly ascending and the
    entry price carries a half trapezoid weight on both sides. weights already
    fold in |density| and the log-strike Jacobian, so a strip value is just
    sum(weights * option values).
    """

    entry_price: float
    put_strikes: np.ndarray
    put_weights: np.ndarray
    call_strikes: np.ndarray
    call_weights: np.ndarray
    lower_cut: float
    upper_cut: float
    scheme: str
    error_estimate: float

    def __post_init__(self) -> None:
        for strikes in (self.put_strikes, self.call_strikes):
            if np.any(strikes <= 0.0) or np.any(np.diff(strikes) <= 0.0):
                raise DomainError("strikes must be positive and strictly ascending")
        if np.any(self.put_weights <= 0.0) or np.any(self.call_weights <= 0.0):
            raise DomainError("weights must be positive")
        if not self.lower_cut < self.entry_price < self.upper_cut:
            raise DomainError("cut bounds must bracket the entry price")

    @property
    def n_strikes(self) -> int:
        return len(self.put_strikes) + len(self.call_strikes)


@dataclass(frozen=True)
class VanillaQuote:
    """One European option premium per unit notional of the underlying."""

    strike: float
    tau: float
    kind: str
    premium: float


def _side(s0: float, lo_u: float, hi_u: float, n_side: int, coarse=None) -> tuple:
    """Trapezoid nodes and density-folded weights on one log-strike interval; coarse, given
    for an even n_side, is its (strikes, weights) at n_side // 2 nodes (see build_strike_grid)."""
    du = (hi_u - lo_u) / n_side
    if coarse is None:
        strikes = s0 * np.exp(np.linspace(lo_u, hi_u, n_side + 1))
        coeff = np.full(n_side + 1, du)
        coeff[0] = coeff[-1] = 0.5 * du
        return strikes, coeff * strikes * _density_magnitude(strikes, s0)
    new = s0 * np.exp(np.arange(1, n_side, 2) * du + lo_u)
    strikes, weights = np.empty((2, n_side + 1))
    strikes[0::2], strikes[1::2] = coarse[0], new
    weights[0::2], weights[1::2] = 0.5 * coarse[1], du * new * _density_magnitude(new, s0)
    return strikes, weights


def _reconstruct(put, call, s_terminal: np.ndarray) -> np.ndarray:
    """The strip's shortfall at each terminal price, one row per price (a one-price sum's
    bits) in blocks of at most _BLOCK elements, from both sides' (strikes, weights)."""
    step = max(1, _BLOCK // put[0].size)
    blocks = [s_terminal[a:a + step, None] for a in range(0, len(s_terminal), step)]
    return -np.concatenate([_leg(put[0] - b, put[1]) + _leg(b - call[0], call[1]) for b in blocks])


def _leg(payoff: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row sums of max(payoff, 0) * weights, computed in place in payoff."""
    np.maximum(payoff, 0.0, out=payoff)
    payoff *= weights
    return payoff.sum(axis=-1)


def build_strike_grid(s0: float, sigma: float, tau: float, target_tol: float = 1e-5,
                      n_side: int | None = None) -> StrikeGrid:
    """Build the strip grid over [s0 * e^-m, s0 * e^+m], m = max(8*sigma*sqrt(tau), 5).

    Beyond those cuts the option values and the density tail are negligible for the regimes
    this models. The per-side node count starts at 128 and doubles until the halving
    difference of the shortfall reconstructed at five test prices in [0.1*s0, 10*s0] falls
    below target_tol; that difference is the error_estimate. The levels nest: a doubling keeps
    the coarse nodes as its even nodes with half their weights, and takes exp and the density
    only at the new odd nodes; linspace's i*du + lo_u, du/2 and 0.5*w are exact, so each level
    has a fresh build's bits. n_side pins the first step to n_side nodes against n_side // 2
    (built afresh when odd) and stops there. A DomainError names sigma, tau and target_tol when
    2**21 nodes per side do not suffice, and s0 when the density is not a positive float at a cut.
    """
    require_positive("s0", s0)
    require_non_negative("sigma", sigma)
    require_non_negative("tau", tau)
    if not (math.isfinite(target_tol) and 0.0 < target_tol <= 1e-2):
        raise DomainError(f"target_tol must lie in (0, 1e-2], got {target_tol!r}")
    if n_side is not None and n_side < 2:
        raise DomainError(f"n_side must be >= 2, got {n_side!r}")

    half_width = max(8.0 * sigma * math.sqrt(tau), 5.0)
    with np.errstate(all="ignore"):  # the density falls with K: the cuts bound every node
        cuts = s0 * np.exp(np.array((-half_width, half_width)))
        top, bottom = _density_magnitude(cuts, s0).tolist()
    if not 0.0 < bottom <= top < math.inf:
        raise DomainError(f"strip density 1/(4*K**1.5*sqrt(s0)) is not a positive float at "
                          f"the cut strikes s0*exp(+-{half_width!r}) for s0={s0!r}")

    def reconstruction_profile(n: int, coarse=(None, None)):
        sides = _side(s0, -half_width, 0.0, n, coarse[0]), _side(s0, 0.0, half_width, n, coarse[1])
        return sides, _reconstruct(*sides, s0 * _TEST_RATIOS)

    chosen = 2 * _N_START if n_side is None else n_side
    sides, coarse = reconstruction_profile(chosen // 2)
    while True:
        sides, fine = reconstruction_profile(chosen, sides if chosen % 2 == 0 else (None, None))
        err = float(np.max(np.abs(fine - coarse)))
        if n_side is not None or err <= target_tol:
            break
        if chosen >= _N_CAP:
            raise DomainError(
                f"strike grid reached {chosen} nodes per side without meeting "
                f"target_tol={target_tol!r} at sigma={sigma!r}, tau={tau!r}")
        chosen, coarse = 2 * chosen, fine

    (put_k, put_w), (call_k, call_w) = sides
    return StrikeGrid(entry_price=s0, put_strikes=put_k, put_weights=put_w,
                      call_strikes=call_k, call_weights=call_w, lower_cut=float(put_k[0]),
                      upper_cut=float(call_k[-1]), scheme=f"trapezoid-log/{chosen}+{chosen}",
                      error_estimate=err)


def replicate_il_payoff(grid: StrikeGrid, s_terminal: float) -> float:
    """Strip reconstruction of the shortfall at a terminal price; the grid's
    error_estimate bounds the quadrature error inside the cut range."""
    require_positive("s_terminal", s_terminal)
    return float(_reconstruct((grid.put_strikes, grid.put_weights),
                              (grid.call_strikes, grid.call_weights), np.array([s_terminal]))[0])


def _black_values(strikes, s_t: float, market: MarketParams, tau: float,
                  is_call: bool) -> np.ndarray:
    """Lognormal forward-model premiums, discounted at the rate differential.

    At tau = 0 or sigma = 0 this degenerates to discounted intrinsic value on
    the forward. d saturates to +-inf for a vanishing vol or a forward/strike
    ratio that overflows or underflows to 0, and ndtr then yields intrinsic
    value; those intended limits do not warn. An overflowing premium is inf.
    """
    strikes = np.asarray(strikes, dtype=float)
    forward = forward_price(s_t, market, tau)
    disc = decay_factors(market, tau).gamma_disc
    vol = market.sigma * math.sqrt(tau)
    with np.errstate(over="ignore", divide="ignore"):
        if vol == 0.0:
            undiscounted = np.maximum(forward - strikes, 0.0) if is_call \
                else np.maximum(strikes - forward, 0.0)
        else:
            d1 = np.log(forward / strikes) / vol + 0.5 * vol
            d2 = d1 - vol
            undiscounted = forward * ndtr(d1) - strikes * ndtr(d2) if is_call \
                else strikes * ndtr(-d2) - forward * ndtr(-d1)
        return disc * undiscounted


def vanilla_price(strike: float, s_t: float, market: MarketParams, tau: float,
                  kind: str) -> VanillaQuote:
    """Single-strike European premium under the same dynamics as the closed forms."""
    require_positive("strike", strike)
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    if kind not in ("put", "call"):
        raise DomainError(f"kind must be 'put' or 'call', got {kind!r}")
    premium = require_finite(f"{kind} premium",
                             float(_black_values(strike, s_t, market, tau, kind == "call")))
    return VanillaQuote(strike=float(strike), tau=float(tau), kind=kind, premium=premium)


def price_ig_via_strip(contract: IgContract, s_t: float, market: MarketParams,
                       grid: StrikeGrid) -> float:
    """Price the gain contract as the cost of going long the whole strip.

    Independent of the closed-form premium up to the grid's quadrature error
    and the truncation tail; see strip_price_error_bound for the combined
    estimate. The grid must be centered on the contract strike.
    """
    require_positive("s_t", s_t)
    if not math.isclose(grid.entry_price, contract.strike_k, rel_tol=1e-9):
        raise DomainError("grid is not centered on the contract strike")
    tau = contract.tau
    puts = _black_values(grid.put_strikes, s_t, market, tau, is_call=False)
    calls = _black_values(grid.call_strikes, s_t, market, tau, is_call=True)
    total = np.sum(puts * grid.put_weights) + np.sum(calls * grid.call_weights)
    return require_finite("strip premium", contract.notional_v0 * float(total))


def strip_price_error_bound(contract: IgContract, s_t: float, market: MarketParams,
                            grid: StrikeGrid) -> float:
    """Combined error estimate for price_ig_via_strip, in token-y units: the grid's
    error_estimate plus an analytic bound on the strip value lost beyond the cuts.

    Put side: premiums below lower_cut are bounded by disc * K * N(-d2(cut)),
    and the density integral of K below the cut is sqrt(cut)/(2*sqrt(s0)).
    Call side mirrors with disc * F * N(d1(cut)) and density mass
    1/(2*sqrt(cut*s0)).
    """
    forward = forward_price(s_t, market, contract.tau)
    disc = decay_factors(market, contract.tau).gamma_disc
    vol = market.sigma * math.sqrt(contract.tau)
    s0 = grid.entry_price
    if vol == 0.0:
        p_put = 1.0 if forward <= grid.lower_cut else 0.0
        p_call = 1.0 if forward >= grid.upper_cut else 0.0
    else:  # a forward that underflows against a cut takes the d -> -inf limit
        d_put, d_call = (math.log(ratio) / vol if ratio > 0.0 else -math.inf
                         for ratio in (forward / grid.lower_cut, forward / grid.upper_cut))
        p_put = float(ndtr(-(d_put - 0.5 * vol)))
        p_call = float(ndtr(d_call + 0.5 * vol))
    put_tail = disc * p_put * math.sqrt(grid.lower_cut) / (2.0 * math.sqrt(s0))
    call_tail = disc * forward * p_call / (2.0 * math.sqrt(grid.upper_cut * s0))
    return contract.notional_v0 * (grid.error_estimate + (put_tail + call_tail))


def write_grid_csv(grid: StrikeGrid, path) -> None:
    """Audit dump: one row per strike with its folded weight and option kind."""
    lines = ["strike,weight,kind"]
    for kind, strikes, weights in (("put", grid.put_strikes, grid.put_weights),
                                   ("call", grid.call_strikes, grid.call_weights)):
        lines += [f"{strike:.17g},{weight:.17g},{kind}" for strike, weight in zip(strikes, weights)]
    Path(path).write_text("\n".join(lines) + "\n")
