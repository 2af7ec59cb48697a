"""Static replication of the LP shortfall as a strip of vanilla options.

The shortfall payoff has a strictly negative second strike-derivative, so the
LP is synthetically short a continuum of puts below the entry price and calls
above it; the gain contract is long the same strip. Discretizing the strip on
a log-strike trapezoid grid gives both a payoff reconstruction and a pricer
that is independent of the closed forms up to quadrature and truncation error;
a grid is given by its sizing rule alone and derives its strikes from it.

A grid holds one node array, puts first and then calls, and the strip is priced
in one Black pass over it. Summation uses fixed-order numpy reductions only, one
per side, so results are bit-reproducible; grids and their arrays are immutable
after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, require_finite, require_non_negative, require_positive
from .pricing import IgContract, MarketParams, _factors, forward_price

_N_START = 64
_N_CAP = 1 << 21
# c_k = 2**2k * B_2k / (2k)!, k = 7..1: x*coth(x) - 1 = sum_k c_k * x**2k, to 2 ulps for x <= 1/4
_COTH_SERIES = (4 / 18243225, -1382 / 638512875, 2 / 93555, -1 / 4725, 2 / 945, -1 / 45, 1 / 3)


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
    """Log-strike trapezoid strip given by its rule: entry_price, half_width, n_side, price_tol.

    Each side has n_side + 1 nodes one log step h = half_width/n_side apart, puts from
    lower_cut = entry_price*e^-half_width up to the entry price and calls from it up to
    upper_cut; the entry price carries a half trapezoid weight on both sides. The grid holds one
    node array, strikes (puts first, then calls), and one weights array that folds in |density|
    and the log-strike Jacobian, so a strip value is sum(weights * option values); put_strikes,
    put_weights, call_strikes and call_weights are views of their halves. The arrays are built
    once, read-only, and not compared or hashed. The density 1/(4*K**1.5*sqrt(s0)) is read at
    the built end nodes, which bound it on every node: a DomainError names s0 where it is not a
    positive float there, with no numpy warning. price_tol is the price tolerance per unit
    notional the grid was sized for (see strip_price_error_bound).
    """

    entry_price: float
    half_width: float
    n_side: int
    price_tol: float
    strikes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s0, half_width, n_side = self.entry_price, self.half_width, self.n_side
        require_positive("entry_price", s0)
        require_positive("half_width", half_width)
        if not (isinstance(n_side, int) and 2 <= n_side <= _N_CAP):
            raise DomainError(f"n_side must be an int in [2, {_N_CAP}], got {n_side!r}")
        if not 0.0 <= self.price_tol < math.inf:
            raise DomainError(f"price_tol must be finite and >= 0, got {self.price_tol!r}")
        # i*h + start with exact end nodes, the bits of np.linspace on each side
        step = half_width / n_side
        u = np.arange(n_side + 1) * step
        u = np.concatenate((u - half_width, u))
        u[n_side], u[-1] = 0.0, half_width
        with np.errstate(all="ignore"):  # the density falls with K: the end nodes bound it
            strikes = s0 * np.exp(u)
            density = _density_magnitude(strikes, s0)
        if not 0.0 < density[-1] <= density[0] < math.inf:
            raise DomainError(f"strip density 1/(4*K**1.5*sqrt(s0)) is not a positive float at "
                              f"the cut strikes s0*exp(+-{half_width!r}) for s0={s0!r}")
        coeff = np.full(2 * n_side + 2, step)
        coeff[0] = coeff[n_side] = coeff[n_side + 1] = coeff[-1] = 0.5 * step
        for name, array in (("strikes", strikes), ("weights", coeff * strikes * density)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    put_strikes = property(lambda self: self.strikes[:self.n_side + 1])
    put_weights = property(lambda self: self.weights[:self.n_side + 1])
    call_strikes = property(lambda self: self.strikes[self.n_side + 1:])
    call_weights = property(lambda self: self.weights[self.n_side + 1:])

    @property
    def lower_cut(self) -> float:
        return float(self.strikes[0])

    @property
    def upper_cut(self) -> float:
        return float(self.strikes[-1])

    @property
    def log_step(self) -> float:
        return self.half_width / self.n_side

    @property
    def scheme(self) -> str:
        return f"trapezoid-log/{self.n_side}+{self.n_side}"

    @property
    def n_strikes(self) -> int:
        return 2 * (self.n_side + 1)


@dataclass(frozen=True)
class VanillaQuote:
    """One European option premium per unit notional of the underlying."""

    strike: float
    tau: float
    kind: str
    premium: float


def _leg(payoff: np.ndarray, weights: np.ndarray) -> float:
    """Sum of max(payoff, 0) * weights, computed in place in payoff."""
    np.maximum(payoff, 0.0, out=payoff)
    payoff *= weights
    return float(payoff.sum())


def build_strike_grid(s0: float, sigma: float, tau: float, target_tol: float = 1e-5,
                      n_side: int | None = None) -> StrikeGrid:
    """Build the strip grid over [s0 * e^-m, s0 * e^+m], m = max(8*sigma*sqrt(tau), 5), with
    n_side trapezoid nodes per side in u = log(K/s0), step h = m/n_side.

    target_tol is the strip price's quadrature tolerance per unit notional, in units of the
    kink term's prefactor disc*(1 + F/s0)/2 (1 at the money at rate 0). With its kink term
    subtracted (price_ig_via_strip) the price's error falls as exp(-2*pi**2*(v/h)**2) for
    v = sigma*sqrt(tau): n_side is the smallest power of two >= 64 with
    h <= pi*v*sqrt(2/ln(1/target_tol)). At v = 0 the integrand, disc*|e^(u/2) -
    (F/s0)*e^(-u/2)|/4 from u = 0 to log(F/s0) and 0 elsewhere, is convex up to its kink at the
    forward, and its slope varies by disc*(1 + F/s0)/8 in all; a trapezoid cell errs by at most
    h**2/8 times the variation on it, so the price errs by at most h**2/32 * disc*(1 + F/s0)/2
    and h <= sqrt(32*target_tol). A DomainError names sigma, tau and target_tol where that
    takes more than 2**21 nodes per side (v below about 2e-6 at the default target_tol). n_side
    pins the count; price_tol is target_tol either way (strip_price_error_bound covers a pinned
    step coarser than the rule). StrikeGrid checks s0 (as entry_price), n_side and the density
    at its end nodes, the cut strikes.
    """
    require_non_negative("sigma", sigma)
    require_non_negative("tau", tau)
    if not (math.isfinite(target_tol) and 0.0 < target_tol <= 1e-2):
        raise DomainError(f"target_tol must lie in (0, 1e-2], got {target_tol!r}")

    half_width = max(8.0 * sigma * math.sqrt(tau), 5.0)
    if n_side is None:
        vol = sigma * math.sqrt(tau)
        max_step = (math.pi * vol * math.sqrt(-2.0 / math.log(target_tol)) if vol > 0.0
                    else math.sqrt(32.0 * target_tol))
        n_side = _N_START
        while half_width / n_side > max_step:
            n_side *= 2
            if n_side > _N_CAP:
                raise DomainError(f"strike grid reached {_N_CAP} nodes per side without meeting "
                                  f"target_tol={target_tol!r} at sigma={sigma!r}, tau={tau!r}")
    return StrikeGrid(s0, half_width, n_side, target_tol)


def replicate_il_payoff(grid: StrikeGrid, s_terminal: float) -> float:
    """Strip reconstruction of the shortfall at a terminal price. Inside the cut range its
    quadrature error falls only as h**2, not exponentially as the price's does, so a grid sized
    for the price reconstructs the payoff coarsely: pin n_side in build_strike_grid for a
    payoff-sized grid (4096 nodes per side meet 1e-6 at sigma*sqrt(tau) = 0.7)."""
    require_positive("s_terminal", s_terminal)
    return -(_leg(grid.put_strikes - s_terminal, grid.put_weights)
             + _leg(s_terminal - grid.call_strikes, grid.call_weights))


def _lognormal(s_t: float, market: MarketParams, tau: float) -> tuple[float, float, float]:
    """(forward, discount factor, sigma*sqrt(tau)) of the terminal law the strip prices under."""
    return forward_price(s_t, market, tau), _factors(market, tau)[1], market.sigma * math.sqrt(tau)


def _black_values(strikes, forward: float, disc: float, vol: float, sign) -> np.ndarray:
    """Lognormal forward-model premiums, discounted at the rate differential, of a call where
    sign is +1 and a put where it is -1 (a float, or one per strike).

    A premium is (s*F)*N(s*d1) - (s*K)*N(s*d2): negating F and K exactly, a put keeps the bits
    of K*N(-d2) - F*N(-d1), a zero premium +0.0 included. At vol = sigma*sqrt(tau) = 0 this
    degenerates to discounted intrinsic value on the forward. d saturates to +-inf for a
    vanishing vol or a forward/strike ratio that overflows or underflows to 0, and ndtr then
    yields intrinsic value; those intended limits do not warn. An overflowing premium is inf.
    """
    strikes = np.asarray(strikes, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        signed_f, signed_k = sign * forward, sign * strikes
        if vol == 0.0:
            undiscounted = np.maximum(signed_f - signed_k, 0.0)
        else:
            d1 = np.log(forward / strikes) / vol + 0.5 * vol
            undiscounted = signed_f * ndtr(sign * d1) - signed_k * ndtr(sign * (d1 - vol))
        return disc * undiscounted


def vanilla_price(strike: float, s_t: float, market: MarketParams, tau: float,
                  kind: str) -> VanillaQuote:
    """Single-strike European premium under the same dynamics as the closed forms."""
    require_positive("strike", strike)
    require_positive("s_t", s_t)
    require_non_negative("tau", tau)
    if kind not in ("put", "call"):
        raise DomainError(f"kind must be 'put' or 'call', got {kind!r}")
    premium = require_finite(f"{kind} premium", float(
        _black_values(strike, *_lognormal(s_t, market, tau), 1.0 if kind == "call" else -1.0)))
    return VanillaQuote(strike=float(strike), tau=float(tau), kind=kind, premium=premium)


def _log_step(contract: IgContract, grid: StrikeGrid) -> float:
    """The grid's log-strike step h; a DomainError where the grid is not centered on the
    contract strike."""
    if not math.isclose(grid.entry_price, contract.strike_k, rel_tol=1e-9):
        raise DomainError("grid is not centered on the contract strike")
    return grid.log_step


def _coth_minus_one(x: float) -> float:
    """x*coth(x) - 1 to about 1e-14 relative: its Maclaurin series up to x = 1/4, where the
    closed form would cancel, and the closed form beyond."""
    if x > 0.25:
        return x / math.tanh(x) - 1.0
    x2, series = x * x, 0.0
    for c in _COTH_SERIES:  # Horner's rule, as np.polyval evaluates it
        series = series * x2 + c
    return x2 * series


def price_ig_via_strip(contract: IgContract, s_t: float, market: MarketParams,
                       grid: StrikeGrid) -> float:
    """Price the gain contract as the cost of going long the whole strip, less its kink term.

    Each side is a trapezoid rule in u = log(K/K0), step h. At the strike K0 put-call parity
    makes the integrand jump by Delta(u) = disc/4 * (e^(u/2) - (F/K0)*e^(-u/2)) per unit
    notional, with odd derivatives Delta^(j)(0) = disc/4 * 2^-j * (1 + F/K0); the jump's
    Euler-Maclaurin series sum_k B_2k/(2k)! * h^2k * Delta^(2k-1)(0) sums to
    disc*(1 + F/K0)/2 * (x*coth(x) - 1), x = h/4, which is subtracted. What is left is the
    exponentially small error of a smooth integrand (see build_strike_grid) and the tail
    beyond the cuts (see strip_price_error_bound). At sigma*sqrt(tau) = 0 the values are
    intrinsic and the term is skipped. A DomainError where the grid is not centered on the
    contract strike.
    """
    require_positive("s_t", s_t)
    h = _log_step(contract, grid)
    forward, disc, vol = _lognormal(s_t, market, contract.tau)
    n_puts = grid.n_side + 1
    signs = np.ones(2 * n_puts)
    signs[:n_puts] = -1.0  # puts first, then calls
    legs = _black_values(grid.strikes, forward, disc, vol, signs) * grid.weights
    total = float(legs[:n_puts].sum() + legs[n_puts:].sum())  # one sum would reorder the terms
    if vol > 0.0:
        total -= 0.5 * disc * (1.0 + forward / contract.strike_k) * _coth_minus_one(0.25 * h)
    return require_finite("strip premium", contract.notional_v0 * total)


def _tails(forward: float, disc: float, vol: float, grid: StrikeGrid) -> float:
    """The strip value per unit notional beyond the cuts: below lower_cut a put is worth at most
    disc*K*N(-d2(cut)) on density mass sqrt(cut)/(2*sqrt(s0)) in K, and above upper_cut a call
    at most disc*F*N(d1(cut)) on density mass 1/(2*sqrt(cut*s0))."""
    if vol == 0.0:
        p_put = 1.0 if forward <= grid.lower_cut else 0.0
        p_call = 1.0 if forward >= grid.upper_cut else 0.0
    else:  # a forward that underflows against a cut takes the d -> -inf limit
        d_put, d_call = (math.log(ratio) / vol if ratio > 0.0 else -math.inf
                         for ratio in (forward / grid.lower_cut, forward / grid.upper_cut))
        p_put = float(ndtr(-(d_put - 0.5 * vol)))
        p_call = float(ndtr(d_call + 0.5 * vol))
    s0 = grid.entry_price
    return (disc * p_put * math.sqrt(grid.lower_cut) / (2.0 * math.sqrt(s0))
            + disc * forward * p_call / (2.0 * math.sqrt(grid.upper_cut * s0)))


def strip_price_error_bound(contract: IgContract, s_t: float, market: MarketParams,
                            grid: StrikeGrid) -> float:
    """A priori error bound for price_ig_via_strip, in token-y units:
    v0 * ((tol + rounding) * disc*(1 + F/K)/2 + _tails). tol is the larger of price_tol and the
    error of the grid's log step h under build_strike_grid's rule at this market's
    v = sigma*sqrt(tau), exp(-2*pi**2*(v/h)**2) or h**2/32 at v = 0, so the bound holds on a
    grid pinned coarser or sized for another market too. disc*(1 + F/K)/2 is the kink term's
    own prefactor; the strip's n_strikes terms (price, kink term and quadrature error) sum to
    at most that prefactor times x*coth(x) + tol, x = h/4, and rounding is n_strikes*eps times
    that. A DomainError where price_ig_via_strip refuses the grid or the bound is not finite.
    """
    h = _log_step(contract, grid)
    forward, disc, vol = _lognormal(s_t, market, contract.tau)
    step_tol = math.exp(-2.0 * (math.pi * vol / h) ** 2) if vol > 0.0 else h * h / 32.0
    tol = max(grid.price_tol, step_tol)
    rounding = grid.n_strikes * math.ulp(1.0) * (0.25 * h / math.tanh(0.25 * h) + tol)
    quadrature = (tol + rounding) * disc * (1.0 + forward / contract.strike_k) / 2.0
    return require_finite("strip error bound", contract.notional_v0 * (
        quadrature + _tails(forward, disc, vol, grid)))


def write_grid_csv(grid: StrikeGrid, path) -> None:
    """Audit dump: one row per strike with its folded weight and option kind."""
    lines = ["strike,weight,kind"]
    for kind, strikes, weights in (("put", grid.put_strikes, grid.put_weights),
                                   ("call", grid.call_strikes, grid.call_weights)):
        lines += [f"{strike:.17g},{weight:.17g},{kind}" for strike, weight in zip(strikes, weights)]
    Path(path).write_text("\n".join(lines) + "\n")
