"""The package surface: `import lpgreeks` loads nothing, each exported name
imports its module on first use, and only the Monte Carlo engine imports numpy
or SciPy, on its first draw, so a cold CLI command other than verify loads
neither. Only a threaded mc_price imports the thread pool, and only the CLI's
process entry point switches the cyclic collector off."""

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

_LIBRARIES = """
import json, sys

def libraries():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
"""

# Records the module of every import statement that names concurrent.futures, loaded or not,
# and reads the cyclic collector's state.
_WATCH = """
import builtins, gc

pool_importers = []
_import = builtins.__import__

def _watching_import(name, globals=None, *args, **kwargs):
    if name == "concurrent.futures":
        pool_importers.append((globals or {}).get("__name__", "?"))
    return _import(name, globals, *args, **kwargs)

builtins.__import__ = _watching_import

def pool():
    return ["concurrent.futures" in sys.modules, sorted(set(pool_importers))]

def collector():
    return [gc.isenabled(), gc.get_freeze_count()]
"""

# Runs each command on the config sys.argv[1], writing the figure under sys.argv[2], through
# cli.main as the console script does, and prints the libraries held after the import and, with
# its exit code, after each command, and the thread pool and collector state at each step.
_CLI_PROBE = _LIBRARIES + _WATCH + """
import lpgreeks.cli as cli

config, out = sys.argv[1:]
seen = {"import": libraries(), "pool": {"import": pool()}, "collector": {"import": collector()}}
for command in (["price", "--strategy", "ig"], ["greeks", "--strategy", "locked-lp"], ["hedge"],
                ["table"], ["figure", "--figure", "lp-price", "--out", out + "/lp-price.csv"],
                ["verify", "--paths", "2000"]):
    sys.argv = ["lpgreeks", command[0], "--config", config, *command[1:]]
    try:
        cli.main()
    except SystemExit as done:
        seen[command[0]] = [done.code, libraries()]
        seen["pool"][command[0]] = pool()
        seen["collector"][command[0]] = collector()
print(json.dumps(seen))
"""

# Imports the CLI, runs price on the config sys.argv[1] through CliRunner, then one mc_price of
# three chunks at workers 1 and at 2, and prints the collector state after each step, with the
# importers of the thread pool and the estimate's bits after each mc_price.
_LIBRARY_PROBE = _LIBRARIES + _WATCH + """
from click.testing import CliRunner

import lpgreeks.cli as cli
from lpgreeks import mc
from lpgreeks.pricing import MarketParams

seen = {"import": collector()}
result = CliRunner().invoke(cli.cli, ["price", "--config", sys.argv[1], "--strategy", "ig"])
seen["runner"] = [result.exit_code, *collector()]
scenario = mc.McScenario(MarketParams.from_rate_differential(0.02, 0.7, 0.1), 1000.0, 1.0)
for workers in (1, 2):
    config = mc.McConfig(n_paths=2 * mc._CHUNK + 1, seed=7, workers=workers)
    estimate = mc.mc_price("sqrt_moment", scenario, config)
    seen[workers] = {"collector": collector(), "importers": pool()[1],
                     "bits": [estimate.mean.hex(), estimate.std_error.hex()]}
print(json.dumps(seen))
"""

# Reads the draw layer's names off lpgreeks.mc, and one name it lacks.
_MC_NAMES_PROBE = _LIBRARIES + """
import lpgreeks.mc as mc
import_only = libraries()
import numpy, numpy.random, scipy.special

same = [mc.np is numpy, mc.Philox is numpy.random.Philox, mc.ndtri is scipy.special.ndtri]
bound = [name in vars(mc) for name in ("np", "Philox", "ndtri")]
try:
    mc.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"import": import_only, "same": same, "bound": bound, "missing": missing}))
"""

# Evaluates the draw sys.argv[1] as the process's first call into lpgreeks.mc and prints the
# bits of the floats it gives.
_FIRST_DRAW_PROBE = _LIBRARIES + """
import lpgreeks.mc as mc
from lpgreeks.pricing import MarketParams

import_only = libraries()
market = MarketParams.from_rate_differential(0.02, 0.7, 0.1)
values = eval(sys.argv[1], {"mc": mc, "market": market})
print(json.dumps({"import": import_only, "draw": libraries(), "bits": [v.hex() for v in values]}))
"""

# Starts 8 threads, switching every microsecond, that make their first mc_price call 25 ms apart,
# so that later ones arrive while the first imports the draw layer, and prints what they got and
# which objects mc's draw names are bound to afterwards.
_CONCURRENT_DRAW_PROBE = _LIBRARIES + """
import threading, time
import lpgreeks.mc as mc
from lpgreeks.pricing import MarketParams

sys.setswitchinterval(1e-6)
draws, errors = [], []
scenario = mc.McScenario(MarketParams.from_rate_differential(0.02, 0.7, 0.1), 1000.0, 1.0)

def first_draw(delay):
    time.sleep(delay)
    try:
        estimate = mc.mc_price("sqrt_moment", scenario, mc.McConfig(n_paths=64, seed=7))
        draws.append([estimate.mean, estimate.std_error])
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_draw, args=(0.025 * i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
import numpy, numpy.random, scipy.special

same = [mc.np is numpy, mc.Philox is numpy.random.Philox, mc.ndtri is scipy.special.ndtri]
print(json.dumps({"alive": sum(thread.is_alive() for thread in threads), "errors": errors,
                  "distinct": len({tuple(draw) for draw in draws}), "n": len(draws),
                  "same": same}))
"""
# first call -> an expression of mc and market giving a list of floats
FIRST_DRAWS = {
    "sample_terminal": "[mc.sample_terminal(1000.0, market, 1.0, 0.3),"
                       " *mc.sample_terminal(1000.0, market, 1.0, [-2.0, 0.0, 1.5]).tolist()]",
    "_stream_uniforms": "mc._stream_uniforms(42, 256, 500).tolist()",
}
SRC = Path(lpgreeks.__file__).resolve().parents[1]
CONFIG = SRC.parent / "configs" / "hedged-one-year.json"


def _run(code: str, *args: str):
    """The JSON object on the last line a fresh interpreter running code prints."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def probe():
    return _run(_PROBE)


@pytest.fixture(scope="module")
def cli_probe(tmp_path_factory):
    return _run(_CLI_PROBE, str(CONFIG), str(tmp_path_factory.mktemp("figure")))


@pytest.fixture(scope="module")
def library_probe():
    return _run(_LIBRARY_PROBE, str(CONFIG))


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


def test_cold_commands_but_verify_load_neither_numpy_nor_scipy(cli_probe):
    assert cli_probe["import"] == []
    for command in ("price", "greeks", "hedge", "table", "figure"):
        assert cli_probe[command] == [0, []], command
    code, libraries = cli_probe["verify"]
    assert code == 0 and {"numpy", "scipy", "scipy.special"} <= set(libraries)


def test_a_cli_process_runs_its_command_with_the_collector_off_and_frozen(cli_probe):
    assert cli_probe["collector"]["import"] == [True, 0]
    enabled, frozen = cli_probe["collector"]["price"]
    assert not enabled and frozen > 0


def test_library_calls_leave_the_collector_on_and_nothing_frozen(library_probe):
    assert library_probe["import"] == [True, 0]
    assert library_probe["runner"] == [0, True, 0]
    for workers in ("1", "2"):
        assert library_probe[workers]["collector"] == [True, 0], workers


def test_cold_commands_import_no_thread_pool(cli_probe):
    for step in ("import", "price", "greeks", "hedge", "table", "figure"):
        assert cli_probe["pool"][step] == [False, []], step
    # verify at workers 1 starts no pool: concurrent.futures, if loaded, came with the draw
    # layer (scipy.special imports numpy.testing, which imports it), not from lpgreeks
    assert not any(name.startswith("lpgreeks") for name in cli_probe["pool"]["verify"][1])


def test_only_a_threaded_mc_price_imports_the_thread_pool(library_probe):
    assert "lpgreeks.mc" not in library_probe["1"]["importers"]
    assert "lpgreeks.mc" in library_probe["2"]["importers"]
    assert library_probe["1"]["bits"] == library_probe["2"]["bits"]


def test_mc_resolves_its_draw_layer_on_first_read():
    seen = _run(_MC_NAMES_PROBE)
    assert seen["import"] == []
    assert seen["same"] == [True, True, True]
    assert seen["bound"] == [True, True, True]
    assert seen["missing"] == "module 'lpgreeks.mc' has no attribute 'no_such_name'"


@pytest.mark.parametrize("call", FIRST_DRAWS)
def test_a_first_draw_loads_the_draw_layer_and_keeps_its_bits(call):
    from lpgreeks import mc
    from lpgreeks.pricing import MarketParams

    seen = _run(_FIRST_DRAW_PROBE, FIRST_DRAWS[call])
    assert seen["import"] == []
    assert {"numpy", "scipy.special"} <= set(seen["draw"])
    market = MarketParams.from_rate_differential(0.02, 0.7, 0.1)
    reference = eval(FIRST_DRAWS[call], {"mc": mc, "market": market})
    assert seen["bits"] == [value.hex() for value in reference]


def test_concurrent_first_draws_bind_the_draw_layer_once():
    seen = _run(_CONCURRENT_DRAW_PROBE)
    assert seen["alive"] == 0 and seen["errors"] == []
    assert seen["n"] == 8 and seen["distinct"] == 1
    assert seen["same"] == [True, True, True]
