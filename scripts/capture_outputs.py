"""Capture what every CLI command prints and writes, one file per run.

Usage: PYTHONPATH=src python scripts/capture_outputs.py OUTDIR

The commands run in-process through click's CliRunner: price and greeks for
each strategy, hedge, table, every figure, and verify at the config's own seed
and at --seed 7 --paths 200000. Each runs on the shipped configs, on an
unlocked copy of locked-half-year.json, on six extreme-value variants of it,
on one with a quadrature target_tol of 1e-2, on one at sigma 1e-3 (a strike
grid sized by sigma*sqrt(tau)) and on one expired at t = T.
OUTDIR/<config>/<run>.txt holds the command line, the exit code, stdout,
stderr and the --out file, with the temporary directory written as <tmp>.

Two captures of the same code are identical (diff -r); a capture of each of
two commits shows which outputs a change moved. Needs click >= 8.2, whose
CliRunner keeps stderr apart from stdout.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from lpgreeks.cli import FIGURES, STRATEGIES, cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASE = "locked-half-year"

# config name -> edit of the base config's parsed JSON
VARIANTS = {
    "unlocked": lambda d: d["position"].update(locked=False),
    "spot-1e-300": lambda d: d.update(spot=1e-300),
    "spot-1e300": lambda d: d.update(spot=1e300),
    "rate-minus-200": lambda d: (d["market"].update(r_f=-200), d["position"].update(T=5),
                                 d["ig"].update(T=5)),
    "pool-invariant-0": lambda d: d["position"].update(v0=1e-300, s0=1e300),
    "entry-1e308": lambda d: d["position"].update(s0=1e308),
    "sigma-0": lambda d: d["market"].update(sigma=0),
    "tol-1e-2": lambda d: d["quadrature"].update(target_tol=1e-2),
    "sigma-1e-3": lambda d: d["market"].update(sigma=1e-3),
    "expired": lambda d: d["position"].update(t=0.5),
}


def write_configs(tmp: Path) -> dict[str, Path]:
    """The shipped configs, copied byte for byte, and the variants of BASE."""
    paths = {}
    for shipped in sorted(CONFIGS.glob("*.json")):
        paths[shipped.stem] = Path(shutil.copy(shipped, tmp / shipped.name))
    for name, edit in VARIANTS.items():
        data = json.loads((CONFIGS / f"{BASE}.json").read_text())
        edit(data)
        path = paths[f"{BASE}-{name}"] = tmp / f"{BASE}-{name}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
    return paths


def runs():
    """(run name, command arguments besides --config and --out)."""
    for strategy in STRATEGIES:
        yield f"price-{strategy}", ["price", "--strategy", strategy]
        yield f"greeks-{strategy}", ["greeks", "--strategy", strategy]
    yield "hedge", ["hedge"]
    yield "table", ["table"]
    for figure in sorted(FIGURES):
        yield f"figure-{figure}", ["figure", "--figure", figure]
    yield "verify", ["verify"]
    yield "verify-seed-7", ["verify", "--seed", "7", "--paths", "200000"]


def capture(outdir: Path) -> int:
    runner = CliRunner()
    count = 0
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        out = tmp / "out"
        for config_name, config in write_configs(tmp).items():
            (outdir / config_name).mkdir(parents=True, exist_ok=True)
            for run_name, args in runs():
                out.unlink(missing_ok=True)
                argv = [*args, "--config", str(config), "--out", str(out)]
                result = runner.invoke(cli, argv)
                text = (f"$ lpgreeks {' '.join(argv)}\nexit: {result.exit_code}\n"
                        f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}")
                error = result.exception
                if error is not None and not isinstance(error, SystemExit):  # uncaught
                    text += f"--- exception\n{type(error).__name__}: {error}\n"
                text += f"--- out\n{out.read_text()}" if out.exists() else "--- no out file\n"
                (outdir / config_name / f"{run_name}.txt").write_text(
                    text.replace(tmp_name, "<tmp>"))
                count += 1
    return count


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    count = capture(Path(sys.argv[1]))
    print(f"captured {count} runs in {sys.argv[1]}")


if __name__ == "__main__":
    main()
