"""lpgreeks benchmark: run one workload, or all three, and report its metrics.

    python3 benchmarks/run.py --workload cli --seed 1 --seconds 30 --trace 0

Prints a table of the workload's metrics (median, slow-tail percentile and
sample count) and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. Without --workload, cli, mc-oracle and
risk-sweep run in turn. Each run also writes a results file with its
provenance to .bench_out/. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import coldcli
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli", "mc-oracle", "risk-sweep")
SETUPS = 5  # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 150.0

E2E_UNITS = {"op_a_ms": "ms", "op_b_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# The workload-level names of op kinds a and b: (name, unit, kind).
# Rates are work per second at the median op time.
NAMED = {
    "cli": (("verify_s", "s", "a"), ("cold_cmd_s", "s", "b")),
    "mc-oracle": (("mc_paths_per_s", "1/s", "a"), ("mc_paths_per_s_par", "1/s", "b")),
    "risk-sweep": (("closed_form_scenarios_per_s", "1/s", "a"),
                   ("strip_prices_per_s", "1/s", "b")),
}

LAYER_UNITS = {
    "import.lpgreeks_ms": "ms",
    "import.scipy_special_ms": "ms",
    "config.load_config_us": "us",
    "pricing.price_ig_us": "us",
    "pricing.price_locked_lp_us": "us",
    "pricing.price_unlocked_lp_us": "us",
    "greeks.greeks_ig_us": "us",
    "greeks.greeks_locked_lp_us": "us",
    "greeks.greeks_unlocked_lp_us": "us",
    "greeks.hedge_report_us": "us",
    "replication.build_strike_grid_ms": "ms",
    "replication.grid_nodes": "count",
    "replication.price_ig_via_strip_us": "us",
    "mc.mc_price_ms": "ms",
    "mc.calls": "count",
    "mc.paths": "count",
    "mc.draws": "count",
    "mc.draw_reuse": "ratio",
    "mc.philox_ns_per_draw": "ns",
    "mc.ndtri_ns_per_draw": "ns",
    "mc.kernel_ns_per_path": "ns",
    "mc.fd_greek_us": "us",
    "mc.parallel_speedup": "ratio",
    "verify.run_verification_s": "s",
    "verify.self_ms": "ms",
    "verify.checks": "count",
    "verify.write_report_ms": "ms",
    "verify.mc_rows_over_3": "count",
    "cli.process_s": "s",
    "trace.overhead_pct": "%",
}

# Spans a traced run of each workload must record; a missing one means a
# wrapper did not take, and the run fails instead of reporting a zero.
_PRICING = ("pricing.price_ig", "pricing.price_locked_lp", "pricing.price_unlocked_lp")
_GREEKS = ("greeks.greeks_ig", "greeks.greeks_locked_lp", "greeks.greeks_unlocked_lp",
           "greeks.hedge_report")
_REPLICATION = ("replication.build_strike_grid", "replication.price_ig_via_strip")
EXPECTED_SPANS = {
    "cli": ("config.load_config", "pricing.price_ig", "pricing.price_locked_lp") + _GREEKS
    + _REPLICATION + (
        "mc.mc_price/w1", "mc.fd_greek", "mc.philox", "mc.ndtri",
        "verify.run_verification", "verify.write_report"),
    "mc-oracle": ("config.load_config", "pricing.price_ig", "pricing.price_locked_lp",
                  "mc.mc_price/w1", "mc.mc_price/wN", "mc.philox", "mc.ndtri"),
    "risk-sweep": ("config.load_config",) + _PRICING + _GREEKS + _REPLICATION,
}


# -- statistics ---------------------------------------------------------------

def tail(samples: list[float]):
    """(percentile, value): the highest of a few percentiles with at least ten
    samples beyond it, by nearest rank; None when there are under 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _median(samples, scale: float = 1.0) -> float:
    return statistics.median(samples) / scale if samples else 0.0


# -- children -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
               setup_only: bool) -> tuple[float, dict, str]:
    """Start worker.py; returns (set-up seconds, its result, its stderr)."""
    result_path = tmp / "worker.json"
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--result", str(result_path),
    ] + (["--setup-only"] if setup_only else [])
    with open(tmp / "worker.out", "wb") as out, open(tmp / "worker.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} worker timed out")
    stderr = (tmp / "worker.err").read_text(errors="replace")
    if code != 0:
        raise RuntimeError(f"{workload} worker exited {code}:\n{stderr[-3000:]}")
    result = json.loads(result_path.read_text())
    return result["ready"] - start, result, stderr


# -- one run ------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    tally = checks.Tally()
    setups, import_logs = [], []
    for _ in range(SETUPS if workload == "cli" else SETUPS - 1):
        setup_s, _, stderr = run_worker(workload, seed, 0, trace, tmp, True)
        setups.append(setup_s)
        import_logs.append(stderr)
    if workload == "cli":
        body = coldcli.run(ROOT, child_env(), seed, seconds, trace, tmp, tally)
        body["work"] = {"a": 1, "b": 1}
        if trace:
            import_logs = body["importtime"]
            body["trace"] = spans.merge(body["dumps"])
    else:
        setup_s, body, stderr = run_worker(workload, seed, seconds, trace, tmp, False)
        setups.append(setup_s)
        import_logs.append(stderr)
        tally.attempted += body["attempted"]
        tally.failed += body["failed"]
        tally.problems += body["problems"]
    body["setups"] = setups
    if trace:
        body["imports"] = [spans.import_layers(log) for log in import_logs]
    return {"tally": tally, "body": body}


def end_to_end(workload: str, body: dict) -> tuple[dict, list]:
    times = body["times"]
    metrics = {
        "op_a_ms": _median(times["a"]) * 1e3,
        "op_b_ms": _median(times["b"]) * 1e3,
        "setup_s": statistics.median(body["setups"]),
        "peak_rss_mb": body["maxrss_kb"] / 1024.0,
    }
    rows = []
    for name, unit, kind in NAMED[workload]:
        samples = times[kind]
        if unit == "s":
            value, t = _median(samples), tail(samples)
        else:  # a rate: work per op over the op time; its slow tail is the time's high tail
            work = body["work"][kind]
            value = work / _median(samples) if samples else 0.0
            t = tail(samples)
            t = t and (t[0], work / t[1])
        rows.append((name, unit, value, t, len(samples)))
    for kind in ("a", "b"):
        t = tail(times[kind])
        rows.append((f"op_{kind}_ms", "ms", metrics[f"op_{kind}_ms"], t and (t[0], t[1] * 1e3),
                     len(times[kind])))
    for kind in ("a", "b"):  # wall times before calibrate.py scales them, and loop times
        wall = times.get(f"{kind}_wall")
        if wall:
            t = tail(wall)
            rows.append((f"op_{kind}_wall_ms", "ms", _median(wall) * 1e3,
                         t and (t[0], t[1] * 1e3), len(wall)))
        loop = times.get(f"{kind}_loop")
        if loop:
            rows.append((f"loop_{kind}_ms", "ms", _median(loop) * 1e3, None, len(loop)))
    rows.append(("setup_s", "s", metrics["setup_s"], tail(body["setups"]), len(body["setups"])))
    rows.append(("peak_rss_mb", "MB", metrics["peak_rss_mb"], None, None))
    return metrics, rows


def per_layer(workload: str, body: dict) -> dict:
    dump = body["trace"]
    stats = dump["stats"]
    missing = [name for name in EXPECTED_SPANS[workload]
               if stats.get(name, {}).get("count", 0) == 0]
    if missing:
        raise RuntimeError(f"traced {workload} run recorded no calls to {', '.join(missing)}")

    def stat(name: str) -> dict:
        return stats.get(name, {"count": 0, "incl_ns": 0, "self_ns": 0, "units": 0,
                                "incl": [], "self": []})

    def per_call(name: str, scale: float) -> float:
        return _median(stat(name)["incl"], scale)

    def per_unit(name: str, field: str) -> float:
        s = stat(name)
        return s[field] / s["units"] if s["units"] else 0.0

    w1, wn = stat("mc.mc_price/w1"), stat("mc.mc_price/wN")
    counts = body.get("counts", {})
    untraced, traced = body["untraced"], body["times"]
    overhead = (_median(traced["a"]) + _median(traced["b"])) / (
        _median(untraced["a"]) + _median(untraced["b"]))
    grid = stat("replication.build_strike_grid")
    metrics = {
        "import.lpgreeks_ms": _median([i["lpgreeks_ms"] for i in body["imports"]]),
        "import.scipy_special_ms": _median([i["scipy_special_ms"] for i in body["imports"]]),
        "config.load_config_us": per_call("config.load_config", 1e3),
        "pricing.price_ig_us": per_call("pricing.price_ig", 1e3),
        "pricing.price_locked_lp_us": per_call("pricing.price_locked_lp", 1e3),
        "pricing.price_unlocked_lp_us": per_call("pricing.price_unlocked_lp", 1e3),
        "greeks.greeks_ig_us": per_call("greeks.greeks_ig", 1e3),
        "greeks.greeks_locked_lp_us": per_call("greeks.greeks_locked_lp", 1e3),
        "greeks.greeks_unlocked_lp_us": per_call("greeks.greeks_unlocked_lp", 1e3),
        "greeks.hedge_report_us": per_call("greeks.hedge_report", 1e3),
        "replication.build_strike_grid_ms": per_call("replication.build_strike_grid", 1e6),
        "replication.grid_nodes": grid["units"] / grid["count"] if grid["count"] else 0.0,
        "replication.price_ig_via_strip_us": per_call("replication.price_ig_via_strip", 1e3),
        "mc.mc_price_ms": _median(w1["incl"] + wn["incl"], 1e6),
        "mc.calls": w1["count"] + wn["count"],
        "mc.paths": w1["units"] + wn["units"],
        "mc.draws": dump["draws"],
        "mc.draw_reuse": dump["draws"] / dump["distinct"] if dump["distinct"] else 0.0,
        "mc.philox_ns_per_draw": per_unit("mc.philox", "incl_ns"),
        "mc.ndtri_ns_per_draw": per_unit("mc.ndtri", "incl_ns"),
        "mc.kernel_ns_per_path": per_unit("mc.mc_price/w1", "self_ns"),
        "mc.fd_greek_us": per_call("mc.fd_greek", 1e3),
        # every traced mc-oracle call runs MC_PATHS paths, so call times compare directly
        "mc.parallel_speedup": (_median(w1["incl"]) / _median(wn["incl"])
                                if w1["incl"] and wn["incl"] else 0.0),
        "verify.run_verification_s": per_call("verify.run_verification", 1e9),
        "verify.self_ms": _median(stat("verify.run_verification")["self"], 1e6),
        "verify.checks": _median(counts.get("verify_rows", [])),
        "verify.write_report_ms": per_call("verify.write_report", 1e6),
        "verify.mc_rows_over_3": counts.get("mc_rows_over_3", 0),
        "cli.process_s": _median(body.get("process_s", [])),
        "trace.overhead_pct": 100.0 * (overhead - 1.0),
    }
    return metrics


# -- provenance and output ----------------------------------------------------

def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "git_sha": sha, "git_dirty": dirty, "seed": seed}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(workload: str, seed: int, seconds: float, trace: bool, rows) -> None:
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)} ==")
    print(f"{'metric':<36}{'unit':<7}{'median':>14}  {'tail':<22}{'samples':>8}")
    for name, unit, value, t, n in rows:
        tail_text = f"p{t[0]:g} {_fmt(t[1])}" if t else "-"
        print(f"{name:<36}{unit:<7}{_fmt(value):>14}  {tail_text:<22}{n if n else '-':>8}")


def one_run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_workload(workload, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tally, body = outcome["tally"], outcome["body"]
    if trace:
        metrics = per_layer(workload, body)
        units = LAYER_UNITS
        rows = [(name, units[name], value, None, None) for name, value in metrics.items()]
    else:
        metrics, rows = end_to_end(workload, body)
        units = E2E_UNITS
    print_table(workload, seed, seconds, trace, rows)
    for problem in tally.problems:
        print(f"problem: {problem}")
    record = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results = dict(record, workload=workload, seconds=seconds, trace=int(trace),
                   provenance=provenance(seed),
                   table=[{"name": r[0], "unit": r[1], "median": r[2],
                           "tail": r[3] and {"percentile": r[3][0], "value": r[3][1]},
                           "samples": r[4]} for r in rows],
                   problems=tally.problems)
    path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="lpgreeks benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lpgreeks").is_dir() or not list((ROOT / "configs").glob("*.json")):
        print(f"no lpgreeks sources or configs under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    for workload in [args.workload] if args.workload else WORKLOADS:
        record = one_run(workload, args.seed, args.seconds, bool(args.trace), out)
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
