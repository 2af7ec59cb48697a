"""Terminal payoffs: the LP-vs-HODL shortfall and its mirror product."""

from __future__ import annotations

import math

from .errors import DomainError, require_positive


def impermanent_loss(r: float) -> float:
    """LP return minus equal-split HODL return at token return r, per unit capital.

    Equals sqrt(r+1) - r/2 - 1. Non-positive on the whole domain r >= -1 and
    zero only at r = 0; r = -1 (token x worthless) is a valid boundary input.
    """
    if not (math.isfinite(r) and r >= -1.0):
        raise DomainError(f"return must be finite and >= -1, got {r!r}")
    return math.sqrt(r + 1.0) - 0.5 * r - 1.0


def impermanent_gain(r: float) -> float:
    """Unit payoff of the hedge product: the exact negation of impermanent_loss."""
    return -impermanent_loss(r)


def ig_return_from_strike(s_t: float, k: float) -> float:
    """Token return measured against a strike: s_t/k - 1."""
    require_positive("s_t", s_t)
    require_positive("k", k)
    return s_t / k - 1.0


def il_curve(r_min: float, r_max: float, n_points: int) -> list[tuple[float, float]]:
    """Sample the shortfall on an evenly spaced return grid, endpoints included."""
    if not (math.isfinite(r_min) and math.isfinite(r_max)) or r_min < -1.0 or not r_min < r_max:
        raise DomainError(f"need -1 <= r_min < r_max, got [{r_min!r}, {r_max!r}]")
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points!r}")
    return [(r, impermanent_loss(r)) for r in _evenly_spaced(r_min, r_max, n_points)]


def _evenly_spaced(start: float, stop: float, n: int) -> list[float]:
    """n >= 2 floats from start to stop itself with numpy.linspace's bits: start + i*step for
    step = (stop - start)/(n - 1), or start + i/(n - 1)*(stop - start) where step underflows to 0."""
    delta, div = stop - start, n - 1
    step = delta / div
    return [(i * step if step else i / div * delta) + start for i in range(div)] + [stop]
