"""The package surface: `import lpgreeks` loads nothing, each exported name
imports its module on first use, and only the Monte Carlo engine imports numpy
or SciPy."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpgreeks

# the 48 exported names, sorted
EXPORTS = [
    "ConfigError", "DecayFactors", "DomainError", "FeeParams", "GreeksReport", "GreeksTable",
    "HedgeMismatchError", "HedgedGreeks", "IgContract", "LpState", "MarketParams", "McConfig",
    "McEstimate", "McScenario", "PoolPosition", "Reserves", "StepCollapseError", "StrikeGrid",
    "VanillaQuote", "build_strike_grid", "decay_factors", "expected_sqrt_price", "fd_greek",
    "forward_price", "greeks_ig", "greeks_locked_lp", "greeks_table", "greeks_unlocked_lp",
    "hedge_report", "hodl_value", "ig_return_from_strike", "il_curve", "impermanent_gain",
    "impermanent_loss", "lp_value", "mc_price", "pool_from_deposit", "price_ig",
    "price_ig_via_strip", "price_locked_lp", "price_unlocked_lp", "replicate_il_payoff",
    "reserves_at_price", "sample_terminal", "strip_density", "strip_price_error_bound",
    "vanilla_price", "write_grid_csv",
]

# Prints, as one JSON object, what a fresh interpreter holds after each step.
_PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("numpy", "scipy") or m.startswith("lpgreeks."))

import lpgreeks
after_import = loaded()
price_ig = lpgreeks.price_ig
after_price_ig = loaded()
cached = vars(lpgreeks).get("price_ig") is price_ig
lpgreeks.greeks_ig
print(json.dumps({"import": after_import, "price_ig": after_price_ig, "cached": cached,
                  "greeks_ig": loaded()}))
"""


# Runs the whole option strip, the payoff dump included, and prints the numpy and SciPy
# modules the interpreter then holds.
_STRIP_PROBE = """
import json, sys, tempfile
from pathlib import Path

import lpgreeks as g

contract, market = g.IgContract(1e4, 1000.0, 0.5, 0.0), g.MarketParams(0.03, 0.0, 0.7, 0.1)
grid = g.build_strike_grid(1000.0, 0.7, 0.5)
g.price_ig_via_strip(contract, 1100.0, market, grid)
g.strip_price_error_bound(contract, 1100.0, market, grid)
g.vanilla_price(1000.0, 1100.0, market, 0.5, "put")
g.replicate_il_payoff(grid, 1100.0)
with tempfile.TemporaryDirectory() as tmp:
    g.write_grid_csv(grid, Path(tmp) / "grid.csv")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""
SRC = Path(lpgreeks.__file__).resolve().parents[1]


def _run(code: str):
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def probe():
    return _run(_PROBE)


def test_import_loads_no_submodule_numpy_or_scipy(probe):
    assert probe["import"] == []


def test_a_closed_form_loads_only_its_modules(probe):
    assert probe["price_ig"] == ["lpgreeks.errors", "lpgreeks.pricing"]
    assert probe["cached"]
    assert probe["greeks_ig"] == ["lpgreeks.errors", "lpgreeks.greeks", "lpgreeks.pricing"]


def test_all_is_the_exported_names():
    assert lpgreeks.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_its_modules_object(name):
    module = importlib.import_module(getattr(lpgreeks, name).__module__)
    assert getattr(lpgreeks, name) is getattr(module, name)
    assert module.__name__.startswith("lpgreeks.")


def test_an_unknown_name_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        lpgreeks.no_such_name


def test_dir_lists_all_and_every_export():
    names = dir(lpgreeks)
    assert "__all__" in names
    assert set(EXPORTS) <= set(names)


def test_submodules_import_from_the_package():
    from lpgreeks import greeks, pricing

    assert greeks is sys.modules["lpgreeks.greeks"]
    assert pricing is sys.modules["lpgreeks.pricing"]


def test_the_option_strip_loads_neither_numpy_nor_scipy():
    assert _run(_STRIP_PROBE) == []


def test_only_mc_imports_numpy_or_scipy():
    importers = []
    for path in sorted((SRC / "lpgreeks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("numpy", "scipy") for name in names):
                importers.append(path.name)
    assert set(importers) == {"mc.py"}, importers
