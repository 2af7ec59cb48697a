"""Static replication of the gain contract as a strip of vanilla options.

The gain's unit payoff g(S) = 1/2 + S/(2*K0) - sqrt(S/K0) has g''(K) = 1/(4*sqrt(K0)*K**1.5) > 0,
so by the spanning formula taken at the forward F (Carr & Madan 1998; Demeterfi, Derman, Kamal &
Zou 1999) it is g(F) + g'(F)*(S - F) plus a strip of puts struck below F and calls struck above
it, each weighted by g''(K). Since E[S_T] = F the linear term drops, and the price is
v0*disc*g(F) plus the cost of that out-of-the-money strip; the LP shortfall -g is short the same
strip. The strip is a trapezoid rule in u = log(K/F) on the nodes u = half_width*i/n_side for
i = -n_side..n_side, so a grid is four scalars and a build allocates nothing. Every option value is
taken at a unit forward, which makes the strip's cost per unit notional disc*sqrt(F/K0) times a
function of half_width, n_side and sigma*sqrt(tau) alone. The module runs on the standard library
alone: one scalar Black value on math.exp and math.erfc prices the strip and the vanillas, the
payoff strip is tuples of floats, and math.fsum adds both sums, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import Iterator

from .errors import DomainError, require_finite, require_non_negative, require_positive
from .pricing import IgContract, MarketParams, _factors, forward_price

# nodes per side a grid may hold: bounds one strip price's scalar loop (n_side + 1 Black values,
# seconds at the cap) and each payoff side property (at the cap it keeps 64 MiB, peaking at 80)
_N_MAX = 1 << 21
_SQRT2 = math.sqrt(2.0)
# the strip price's tolerance where none is given: build_strike_grid's, and verify's by default
DEFAULT_TARGET_TOL = 1e-5
# math.exp overflows just past 709; beyond g = 709 a strip node's N(d2) is exactly 0.0 (see
# price_ig_via_strip)
_EXP_MAX = 709.0
# c_k = 2**2k * B_2k / (2k)!, k = 7..1: x*coth(x) - 1 = sum_k c_k * x**2k, to 2 ulps for x <= 1/4
_COTH_SERIES = (4 / 18243225, -1382 / 638512875, 2 / 93555, -1 / 4725, 2 / 945, -1 / 45, 1 / 3)


def strip_density(k_strike: float, s0: float) -> float:
    """Second strike-derivative of the normalized shortfall payoff:
    -1 / (4 * K^1.5 * sqrt(s0)). Negative for every strike; a DomainError
    where its magnitude is not a positive float."""
    require_positive("k_strike", k_strike)
    require_positive("s0", s0)
    try:
        magnitude = 1.0 / (4.0 * k_strike**1.5 * math.sqrt(s0))
    except (OverflowError, ZeroDivisionError):  # K**1.5 overflows, or the denominator is 0
        magnitude = 0.0
    if not 0.0 < magnitude < math.inf:
        raise DomainError(f"strip density 1/(4*K**1.5*sqrt(s0)) is not a positive float at "
                          f"k_strike={k_strike!r}, s0={s0!r}")
    return -magnitude


@dataclass(frozen=True)
class StrikeGrid:
    """Log-strike trapezoid strip given by its rule: entry_price, half_width, n_side, price_tol.

    The strip's 2*n_side + 1 nodes lie one log step h = half_width/n_side apart over
    [-half_width, +half_width] about the centre it is resolved at: the priced forward for the
    price (price_ig_via_strip), the entry price for the payoff (replicate_il_payoff) and the
    audit dump (write_grid_csv). half_width is 0 where sigma*sqrt(tau) is, and the strip is then
    empty. price_tol is the price tolerance per unit notional the grid was sized for (see
    strip_price_error_bound). A grid holds no array, and compares and hashes by its four scalars.
    build_strike_grid sizes a grid by its rule; dataclasses.replace(grid, n_side=n) is the same
    grid with n nodes per side, checked here like any other.

    put_strikes, put_weights, call_strikes and call_weights resolve the strip at the entry price,
    the F = K0 case, with the entry price on both sides at a half weight: puts from
    entry_price*e^-half_width up to it and calls from it up to entry_price*e^+half_width. Each
    is a tuple of n_side + 1 floats, built on access from its own field of the walk alone. A
    weight is coeff*h*K*|g''(K)| = coeff*h/(4*sqrt(K*K0)): a strip value is sum(weight * value).
    """

    entry_price: float
    half_width: float
    n_side: int
    price_tol: float

    def __post_init__(self) -> None:
        require_positive("entry_price", self.entry_price)
        require_non_negative("half_width", self.half_width)
        if not (isinstance(self.n_side, int) and 2 <= self.n_side <= _N_MAX):
            raise DomainError(f"n_side must be an int in [2, {_N_MAX}], got {self.n_side!r}")
        if not 0.0 <= self.price_tol < math.inf:
            raise DomainError(f"price_tol must be finite and >= 0, got {self.price_tol!r}")

    def _payoff_nodes(self, calls: bool) -> Iterator[tuple[float, float]]:
        """(strike, weight) of the puts or the calls resolved at the entry price, walking out from
        it over the nodes u = half_width*(+-i/n_side), i = 0..n_side: a strike is K0*e^u, and a
        weight coeff*h/(4*sqrt(K*K0)) is formed as coeff*h*e^(-u/2)/(4*K0), coeff 1/2 at both ends
        and 1 between. |u| rises with i and e^u is monotone, so the strikes move away from K0 and
        the nodes in the money at a terminal price (puts above it, calls below it) are the side's
        inner run. A DomainError first where the outer node's e^u (calls, half_width past 709.78)
        or e^(-u/2) (puts, past 1419.56) overflows."""
        try:  # the outer node's e^u or e^(-u/2), the largest of the side
            math.exp(self.half_width if calls else 0.5 * self.half_width)
        except OverflowError:
            raise DomainError(f"the {'call' if calls else 'put'} side's outer node overflows "
                              f"math.exp at half_width={self.half_width!r}") from None
        n, h, k0 = self.n_side, self.log_step, self.entry_price
        for i in range(n + 1) if calls else range(0, -n - 1, -1):
            u = self.half_width * (i / n)
            weight = (0.5 if i % n == 0 else 1.0) * h * math.exp(-0.5 * u) / (4.0 * k0)
            yield k0 * math.exp(u), weight

    def _entry_side(self, calls: bool, field: int) -> tuple[float, ...]:
        """The strikes (field 0) or the weights (field 1) of one side in ascending strike order:
        that field alone, taken from the walk node by node, and reversed for the puts."""
        side = tuple(node[field] for node in self._payoff_nodes(calls))
        return side if calls else side[::-1]

    put_strikes = property(lambda self: self._entry_side(False, 0))
    put_weights = property(lambda self: self._entry_side(False, 1))
    call_strikes = property(lambda self: self._entry_side(True, 0))
    call_weights = property(lambda self: self._entry_side(True, 1))

    @property
    def log_step(self) -> float:
        return self.half_width / self.n_side

    @property
    def n_strikes(self) -> int:
        return 2 * self.n_side + 1


@dataclass(frozen=True)
class VanillaQuote:
    """One European option premium per unit notional of the underlying."""

    strike: float
    tau: float
    kind: str
    premium: float


def build_strike_grid(s0: float, sigma: float, tau: float,
                      target_tol: float = DEFAULT_TARGET_TOL) -> StrikeGrid:
    """Build the strip grid for the gain contract struck at s0: half_width = a*v for
    v = sigma*sqrt(tau), and n_side nodes per side, both set by target_tol alone.

    target_tol is the strip price's tolerance per unit notional, in units of the kink term's
    prefactor disc*sqrt(F/K0) (1 at the money at rate 0). With its kink term subtracted
    (price_ig_via_strip) the price's quadrature error falls as exp(-2*pi**2*(v/h)**2), and
    v/h = n_side/a; the nodes left out past the cuts F*e^(+-a*v) sum to at most x*coth(x) *
    e^(-a*v/2) * N(v/2 - a) <= x*coth(x) * exp(-a**2/2), x = h/4, in the same units (see
    strip_price_error_bound). So with L = ln(1/target_tol), a = sqrt(2*L) + 2 and
    n_side = ceil(a*sqrt(L/2)/pi), the smallest count whose quadrature term meets target_tol:
    6, 9 and 14 nodes per side at 1e-5, 1e-9 and 1e-15, for every sigma and tau. A grid with
    another count is dataclasses.replace(grid, n_side=n), its price_tol still target_tol
    (strip_price_error_bound covers a step coarser than the rule). StrikeGrid checks s0 (as
    entry_price) and the count.
    """
    require_non_negative("sigma", sigma)
    require_non_negative("tau", tau)
    if not (math.isfinite(target_tol) and 0.0 < target_tol <= 1e-2):
        raise DomainError(f"target_tol must lie in (0, 1e-2], got {target_tol!r}")
    log_inverse_tol = -math.log(target_tol)
    a = math.sqrt(2.0 * log_inverse_tol) + 2.0
    n_side = math.ceil(a * math.sqrt(0.5 * log_inverse_tol) / math.pi)
    return StrikeGrid(s0, a * sigma * math.sqrt(tau), n_side, target_tol)


def replicate_il_payoff(grid: StrikeGrid, s_terminal: float) -> float:
    """Strip reconstruction of the shortfall at a terminal price, with the strip resolved at
    the entry price (where the payoff and its slope vanish) and each side a trapezoid with a
    half weight at the entry price. It covers terminal prices within entry_price*e^(+-half_width),
    and its error falls only as h**2, not exponentially as the price's does, so a grid sized for
    the price reconstructs the payoff coarsely: take dataclasses.replace(grid, n_side=n) with a
    finer n, or hand-build a StrikeGrid with the half width the payoff's range needs (2048 nodes
    over e^(+-4.76) meet 1e-5 from 0.1 to 10 times the entry price). Both legs are added by one
    math.fsum, exactly rounded, as the strip price is, so term order is free; an out-of-the-money
    node would add an exact 0.0, so each side is walked out from the entry price only while its
    nodes are in the money (its inner run, see StrikeGrid._payoff_nodes)."""
    require_positive("s_terminal", s_terminal)
    puts = takewhile(lambda node: node[0] > s_terminal, grid._payoff_nodes(calls=False))
    calls = takewhile(lambda node: node[0] < s_terminal, grid._payoff_nodes(calls=True))
    return -math.fsum([*((k - s_terminal) * w for k, w in puts),
                       *((s_terminal - k) * w for k, w in calls)])


def _lognormal(s_t: float, market: MarketParams, tau: float) -> tuple[float, float, float]:
    """(forward, discount factor, sigma*sqrt(tau)) of the terminal law the strip prices under."""
    return forward_price(s_t, market, tau), _factors(market, tau)[1], market.sigma * math.sqrt(tau)


def _ncdf(x: float) -> float:
    """Standard normal CDF N(x) = erfc(-x/sqrt(2))/2, taken from erfc on either side, so a tail
    value never comes from 1 - erfc. N(-inf) is 0 and N(+inf) is 1."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _black(log_moneyness: float, vol: float, sign: float, f: float, k: float) -> float:
    """Undiscounted Black premium of a call (sign +1) or a put (sign -1) with forward f, strike k
    and log_moneyness log(f/k): (sign*f)*N(sign*d1) - (sign*k)*N(sign*d2), d1 = log_moneyness/vol
    + vol/2 and d2 = d1 - vol. Negating f and k exactly, a put keeps the bits of
    k*N(-d2) - f*N(-d1), a zero premium +0.0 included. At vol = 0 it is intrinsic value on the
    forward, and a log_moneyness of +-inf (or a vanishing vol) saturates d to +-inf, where N gives
    intrinsic value too. A product that overflows is inf."""
    signed_f, signed_k = sign * f, sign * k
    if vol == 0.0:
        return max(signed_f - signed_k, 0.0)
    d1 = log_moneyness / vol + 0.5 * vol
    return signed_f * _ncdf(sign * d1) - signed_k * _ncdf(sign * (d1 - vol))


def vanilla_price(strike: float, s_t: float, market: MarketParams, tau: float,
                  kind: str) -> VanillaQuote:
    """Single-strike European premium under the same dynamics as the closed forms: the discounted
    Black value at the forward, priced by the strip's own Black value. A forward/strike ratio that
    underflows to 0 takes log_moneyness -inf (discounted intrinsic value); a DomainError where the
    premium is not finite. Checks run on strike, forward_price's s_t and tau, then kind."""
    require_positive("strike", strike)
    forward, disc, vol = _lognormal(s_t, market, tau)
    if kind not in ("put", "call"):
        raise DomainError(f"kind must be 'put' or 'call', got {kind!r}")
    ratio = forward / strike
    log_moneyness = math.log(ratio) if ratio > 0.0 else -math.inf
    undiscounted = _black(log_moneyness, vol, 1.0 if kind == "call" else -1.0, forward, strike)
    premium = require_finite(f"{kind} premium", disc * undiscounted)
    return VanillaQuote(strike=float(strike), tau=float(tau), kind=kind, premium=premium)


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
    """Price the gain contract as v0*disc*g(F) plus the cost of the out-of-the-money strip about
    the forward F, less its kink term.

    With K = F*e^u the strip's integrand per unit notional is disc*sqrt(F/K0) * b(u)*e^(-u/2)/4,
    b the Black value at a unit forward: a trapezoid rule over the grid's nodes with step h
    gives disc*sqrt(F/K0) * x*sum(coeff * b * e^(-u/2)), x = h/4. A node's b*e^(-u/2) is the Black
    value at log-moneyness -u with the forward e^(-u/2) and the strike e^(u/2), so e^u is never
    formed, and by put-call symmetry the put at -u and the call at +u share it: with g = |u|/2,
    w(g) = e^(-g)*N(v/2 - 2g/v) - e^g*N(-v/2 - 2g/v), v = sigma*sqrt(tau). One scalar loop takes
    w at the n_side + 1 nodes u >= 0 and math.fsum adds w(0) + 2*(w_1 + ... + w_(n_side-1)) +
    w_(n_side), the trapezoid sum over all 2*n_side + 1 nodes, exactly rounded. Past g = 709,
    where math.exp overflows, |v/2 + 2g/v| >= 2*sqrt(g) > 53 makes N(-v/2 - 2g/v) exactly 0.0,
    so the exponent is capped there with no bit moved. At u = 0 put-call parity makes
    the integrand jump from the puts' to the calls' by Delta(u) = -disc*sqrt(F/K0)/2*sinh(u/2);
    the jump's Euler-Maclaurin series sums to disc*sqrt(F/K0)*(x*coth(x) - 1), which is
    subtracted. What is left is the exponentially small error of a smooth integrand and the tail
    beyond the cuts F*e^(+-half_width) (see build_strike_grid and strip_price_error_bound). At
    sigma*sqrt(tau) = 0 on its own grid the strip is empty and the price is v0*disc*g(F), with
    g(F) = (1 - sqrt(F/K0))**2/2. Of the grid the price reads only its log step, half width and
    node count, never its entry price, so a grid built at another strike gives the same bits.
    """
    x = 0.25 * grid.log_step
    forward, disc, vol = _lognormal(s_t, market, contract.tau)
    n, values = grid.n_side, []
    for i in range(n + 1):
        g = 0.5 * (grid.half_width * (i / n))  # |u|/2 at the call at +u and the put at -u
        values.append(_black(-2.0 * g, vol, 1.0, math.exp(-g), math.exp(min(g, _EXP_MAX))))
    total = math.fsum(values + values[1:-1])  # w_0 + 2*(w_1 + ... + w_(n-1)) + w_n
    root = math.sqrt(forward / contract.strike_k)
    strip = x * total - _coth_minus_one(x)
    return require_finite("strip premium", contract.notional_v0 * disc * (
        0.5 * (1.0 - root) ** 2 + root * strip))


def strip_price_error_bound(contract: IgContract, s_t: float, market: MarketParams,
                            grid: StrikeGrid) -> float:
    """A priori error bound for price_ig_via_strip, in token-y units:
    v0*disc*(sqrt(F/K0)*x*coth(x)*(tol + tails) + rounding), x = h/4.

    tol is the larger of price_tol and the error of the grid's log step h at this market's
    v = sigma*sqrt(tau), exp(-2*pi**2*(v/h)**2) (0 for an empty strip), so the bound holds on a
    grid pinned coarser or sized for another market too. The trapezoid sum over all nodes, on
    to +-infinity, less the kink term, misses the exact strip by about that tol in units of
    disc*sqrt(F/K0); where the step does not resolve v the factor x*coth(x) >= 1 covers the
    miss, since that sum is at most x*coth(x), the kink term x*coth(x) - 1 and the exact strip
    lies in [0, 1). The strip leaves out the nodes past the cuts F*e^(+-half_width): below the
    lower cut L a put's integrand is at most e^(u/2)*N(-d2(L))/4 and above the upper cut U a
    call's at most e^(-u/2)*N(d1(U))/4, so the nodes left out sum to at most x*coth(x) times
    tails = e^(-half_width/2) * N(v/2 - half_width/v). rounding is n_strikes*eps times the sizes
    of the sums the strip and the closed form add up, sqrt(F/K0)*x*coth(x) + (1 + F/K0)/2. Like
    the price it reads only the grid's step, half width, node count and price_tol. A DomainError
    where the bound is not finite.
    """
    h = grid.log_step
    forward, disc, vol = _lognormal(s_t, market, contract.tau)
    step_tol = math.exp(-2.0 * (math.pi * vol / h) ** 2) if h > 0.0 else 0.0
    x_coth_x = 1.0 + _coth_minus_one(0.25 * h)
    cut = grid.half_width / vol if vol > 0.0 else math.inf
    tails = math.exp(-0.5 * grid.half_width) * _ncdf(0.5 * vol - cut)
    ratio = forward / contract.strike_k
    root = math.sqrt(ratio)
    rounding = grid.n_strikes * math.ulp(1.0) * (root * x_coth_x + 0.5 * (1.0 + ratio))
    return require_finite("strip error bound", contract.notional_v0 * disc * (
        root * x_coth_x * (max(grid.price_tol, step_tol) + tails) + rounding))


def write_grid_csv(grid: StrikeGrid, path) -> None:
    """Audit dump of the payoff strip resolved at the entry price, as replicate_il_payoff uses
    it, not the forward-centred strikes the price sums: one row per strike with its folded
    weight and option kind, the entry price once on each side, read off the four public sides."""
    lines = ["strike,weight,kind"]
    for kind, strikes, weights in (("put", grid.put_strikes, grid.put_weights),
                                   ("call", grid.call_strikes, grid.call_weights)):
        lines += [f"{strike:.17g},{weight:.17g},{kind}" for strike, weight in zip(strikes, weights)]
    Path(path).write_text("\n".join(lines) + "\n")
