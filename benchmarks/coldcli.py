"""The cli workload: cold `python -m lpgreeks.cli` subprocesses, one at a time.

The workload runs `verify --out` on each shipped config and the price,
greeks, hedge, table and figure commands on each, the way a user runs the
tool. Op kind "a" is a verify, kind "b" any other command. verify runs at
one seed per config generated from the workload seed, so every repeat of a
(config, seed) pair must write the same CSV bytes. Op times are scaled by
the numpy reference loop of calibrate.py, timed before each op in a process
of its own.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks

BENCH = Path(__file__).resolve().parent
# Every shipped config holds a locked position, on which `--strategy
# unlocked-lp` is a domain error (exit 3), so the workload prices the other two.
STRATEGIES = ("locked-lp", "ig")
FIGURES = ["il-curve"] + [
    f"{prefix}-{name}"
    for prefix in ("lp", "ig")
    for name in ("price", "delta", "delta-pct", "gamma", "gamma-pct", "vega", "theta", "rho")
]
COLD_COMMANDS = ("price", "greeks", "hedge", "table", "figure")
CHILD_TIMEOUT_S = 60.0


def ops(rng: random.Random, configs: list[str], tmp: Path):
    """Endless op sequence of (kind, repeat key or None, CLI args, check).

    Verifies and cold commands alternate, so both kinds get samples at the
    same pace; the cold commands cycle through every (command, config) pair.
    """
    seeds = {config: rng.getrandbits(32) for config in configs}
    csv = str(tmp / "verify.csv")
    for i in itertools.count():
        config = configs[i % len(configs)]
        yield ("a", (config, seeds[config]),
               ["verify", "--config", config, "--seed", str(seeds[config]), "--out", csv],
               "verify")
        command = COLD_COMMANDS[i % len(COLD_COMMANDS)]
        args = [command, "--config", configs[i // len(COLD_COMMANDS) % len(configs)]]
        if command in ("price", "greeks"):
            args += ["--strategy", rng.choice(STRATEGIES)]
        elif command == "table":
            args += ["--out", str(tmp / "table.csv")]
        elif command == "figure":
            args += ["--figure", rng.choice(FIGURES), "--out", str(tmp / "figure.csv")]
        yield "b", None, args, "figure" if command == "figure" else "stdout"


def _spawn(argv: list[str], env: dict, cwd: Path, tmp: Path) -> tuple[int | None, float, str]:
    with open(tmp / "stdout.txt", "wb") as out, open(tmp / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        wall = time.perf_counter() - start
    return code, wall, (tmp / "stdout.txt").read_text(errors="replace")


def _check(check: str, key, code, stdout: str, tmp: Path, seen: dict, counts: dict) -> list[str]:
    if code is None:
        return ["timed out"]
    if check == "verify":
        path = tmp / "verify.csv"
        if not path.exists():
            return [f"verify exited {code} without writing its report"]
        data = path.read_bytes()
        path.unlink()
        problems, mc_over = checks.verify_output(code, data.decode())
        counts["mc_rows_over_3"] += mc_over
        counts["verify_rows"].append(len(data.splitlines()) - 1)
        return problems + checks.same_as_before(seen, key, data)
    problems = checks.command_output(code, stdout)
    if check == "figure":
        problems += checks.figure_csv((tmp / "figure.csv").read_text())
    return problems


def run(root: Path, env: dict, seed: int, seconds: float, trace: bool, tmp: Path, tally) -> dict:
    """Run the workload; returns op timings, the children's peak RSS and, when
    traced, their spans."""
    with calibrate.NumpyServer() as server:
        result = _run(server, root, env, seed, seconds, trace, tmp, tally)
        # read before the server ends, so that its own RSS does not count
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return result


def _run(server, root: Path, env: dict, seed: int, seconds: float, trace: bool, tmp: Path,
         tally) -> dict:
    configs = [str(p.relative_to(root)) for p in sorted((root / "configs").glob("*.json"))]
    plain = [sys.executable, "-m", "lpgreeks.cli"]
    traced = [sys.executable, "-X", "importtime", str(BENCH / "traced_cli.py"),
              str(tmp / "trace.json")]
    times = {kind: [] for kind in calibrate.TIMINGS}
    untraced = {kind: [] for kind in calibrate.TIMINGS}
    seen: dict = {}
    counts = {"mc_rows_over_3": 0, "verify_rows": []}
    dumps, imports, process_s = [], [], []
    sequence = ops(random.Random(seed), configs, tmp)
    at_least = 2 * len(COLD_COMMANDS)
    deadline = time.perf_counter() + seconds
    n = 0
    # A traced run reaches every cold command once, so that every layer is seen.
    while time.perf_counter() < deadline or (trace and n < at_least):
        kind, key, args, check = next(sequence)
        variants = [(False, plain)]
        if trace:
            variants = [(False, plain), (True, traced)]
            if n % 2:
                variants.reverse()
        n += 1
        calibration = server.median_s()
        for is_traced, prefix in variants:
            code, wall, stdout = _spawn(prefix + args, env, root, tmp)
            tally.op(_check(check, key, code, stdout, tmp, seen, counts))
            into = untraced if trace and not is_traced else times
            calibrate.record(into, kind, wall, calibration, calibrate.NP_REF_S)
            if is_traced:
                dump = json.loads((tmp / "trace.json").read_text())
                dumps.append(dump)
                process_s.append(wall - dump["root_ns"][0] / 1e9)
                imports.append((tmp / "stderr.txt").read_text(errors="replace"))
    result = {"times": times, "counts": counts}
    if trace:
        result.update(untraced=untraced, dumps=dumps, importtime=imports, process_s=process_s)
    return result
