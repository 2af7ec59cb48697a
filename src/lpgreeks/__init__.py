"""Pricing, greeks and hedge analytics for constant-product AMM liquidity
positions and the Impermanent Gain contract.

Each exported name is imported from its module on first use (PEP 562), so
`import lpgreeks` loads no submodule, and the closed forms load neither numpy
nor SciPy."""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("ConfigError", "DomainError", "HedgeMismatchError", "StepCollapseError"),
    "greeks": ("GreeksReport", "GreeksTable", "HedgedGreeks", "greeks_ig", "greeks_locked_lp",
               "greeks_table", "greeks_unlocked_lp", "hedge_report"),
    "mc": ("McConfig", "McEstimate", "McScenario", "fd_greek", "mc_price", "sample_terminal"),
    "payoff": ("ig_return_from_strike", "il_curve", "impermanent_gain", "impermanent_loss"),
    "pool": ("FeeParams", "PoolPosition", "Reserves", "hodl_value", "lp_value",
             "pool_from_deposit", "reserves_at_price"),
    "pricing": ("DecayFactors", "IgContract", "LpState", "MarketParams", "decay_factors",
                "expected_sqrt_price", "forward_price", "price_ig", "price_locked_lp",
                "price_unlocked_lp"),
    "replication": ("StrikeGrid", "VanillaQuote", "build_strike_grid", "price_ig_via_strip",
                    "replicate_il_payoff", "strip_density", "strip_price_error_bound",
                    "vanilla_price", "write_grid_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines name and keep the name in the package's globals, so
    that later reads of lpgreeks.<name> are plain attribute reads."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
