"""Run the benchmark on two commits in alternating pairs and write a BENCH_*.json.

Usage:
    python3 scripts/bench_pairs.py --out BENCH_name.json --claim "what the change claims" \\
        --pairs risk-sweep:1:10 --pairs risk-sweep:4242:10 --pairs cli:1:1 \\
        --traced risk-sweep:1 [--parent HEAD~1] [--change HEAD] [--seconds 35]

Each side is a fresh export of its commit's files (git archive) in a temporary directory, so a
run sees the committed tree only and leaves nothing registered in the repository. Every
--pairs WORKLOAD:SEED:N runs `python3 benchmarks/run.py --workload WORKLOAD --seed SEED
--seconds S --trace 0` N times on each side, alternating which side runs first. Every
--traced WORKLOAD:SEED runs the same with --trace 1 once per side and keeps the pricing.*,
greeks.*, replication.* and trace.* metrics. The output has the layout of the earlier
BENCH_*.json records: per workload and end-to-end metric the median, quartiles
(statistics.quantiles, inclusive), min and max of each side, the pairs in which the change read
lower, the no-regression verdict, and every run's numbers, with the machine the runs took place
on. The end-to-end metrics, which way is better and each one's bound are read from
BENCHMARK.json. The verdict is "unresolved" when the parent's IQR exceeds the bound times its
median and not every change run beats every parent run; otherwise "worse beyond bound" when
the change's median is worse than the parent's by more than the bound times the parent's
median, and "within bound" if not. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
TRACED_PREFIXES = ("pricing.", "greeks.", "replication.", "trace.")
RUN_TIMEOUT_S = 900.0


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export(rev: str, into: Path) -> Path:
    """The committed files of rev, unpacked under into/<sha>."""
    sha = _git("rev-parse", rev).decode().strip()
    tree = into / sha[:12]
    tree.mkdir()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as archive:
        archive.extractall(tree)
    return tree


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in tree: its last output line, the JSON record."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _metrics(record: dict, names) -> dict:
    return {name: record["metrics"][name]["value"] for name in names if name in record["metrics"]}


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "min": min(values),
            "max": max(values), "n": len(values)}


def _end_to_end(path: Path = BENCHMARK) -> dict[str, tuple[str, float]]:
    """End-to-end metric name -> (better, bound), as the benchmark declares them."""
    return {metric["name"]: (metric["better"], metric["bound"])
            for metric in json.loads(path.read_text())["end_to_end"]}


def _verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """One metric's no-regression verdict from the _spread of each side, by the rule above."""
    scale = bound * abs(parent["median"])
    if better == "lower":
        worse, beaten = change["median"] - parent["median"], change["max"] < parent["min"]
    else:
        worse, beaten = parent["median"] - change["median"], change["min"] > parent["max"]
    if parent["iqr"] > scale and not beaten:
        return "unresolved"
    return "worse beyond bound" if worse > scale else "within bound"


def _summary(runs: list[dict], end_to_end: dict[str, tuple[str, float]]) -> dict:
    summary = {}
    for name, (better, bound) in end_to_end.items():
        pairs = [(run["parent"][name], run["change"][name]) for run in runs
                 if name in run["parent"] and name in run["change"]]
        if not pairs:
            continue
        parent, change = (_spread(list(side)) for side in zip(*pairs))
        lower = sum(new < old for old, new in pairs)
        summary[name] = {
            "parent": parent, "change": change,
            "change_lower_in_pairs": f"{lower}/{len(pairs)}",
            "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0)
            if parent["median"] else None,
            "bound": bound,
            "verdict": _verdict(parent, change, better, bound),
        }
    return summary


def _machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    machine = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for package in ("numpy", "scipy", "click"):
        try:
            machine[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            machine[package] = None
    return machine


def _spec(text: str, parts: int) -> tuple:
    fields = text.split(":")
    if len(fields) != parts:
        raise argparse.ArgumentTypeError(f"expected {parts} colon-separated fields, got {text!r}")
    return (fields[0], *(int(field) for field in fields[1:]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", default="")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:SEED:N",
                        type=lambda text: _spec(text, 3))
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEED",
                        type=lambda text: _spec(text, 2))
    args = parser.parse_args()
    end_to_end = _end_to_end()

    revs = {side: _git("rev-parse", rev).decode().strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    record = {
        "claim": args.claim,
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0, in fresh exports of the parent ({revs['parent'][:7]}) and of "
                   f"the change ({revs['change'][:7]}), alternating which side runs first",
        "quartiles": "statistics.quantiles(method='inclusive')",
        "machine": _machine(),
        "parent": revs["parent"],
        "change": revs["change"],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: _export(rev, Path(scratch)) for side, rev in revs.items()}
        order = 0
        for workload, seed, count in args.pairs:
            runs = []
            for pair in range(1, count + 1):
                sides = ("parent", "change") if order % 2 == 0 else ("change", "parent")
                order += 1
                results = {side: _run(trees[side], workload, seed, args.seconds, 0)
                           for side in sides}
                runs.append({
                    "pair": pair, "first": sides[0],
                    **{side: _metrics(results[side], end_to_end) for side in revs},
                    **{key: {side: results[side][key] for side in revs}
                       for key in ("failed", "attempted", "correct")},
                })
                print(f"{workload}@{seed} pair {pair}/{count}: " + ", ".join(
                    f"{side} op_a_ms {runs[-1][side].get('op_a_ms')} "
                    f"op_b_ms {runs[-1][side].get('op_b_ms')}" for side in revs),
                    file=sys.stderr, flush=True)
            record["workloads"][f"{workload}@{seed}"] = {
                "seed": seed, "summary": _summary(runs, end_to_end), "runs": runs}
        for workload, seed in args.traced:
            traced = {"how": f"python3 benchmarks/run.py --workload {workload} --seed {seed} "
                             f"--seconds {args.seconds:g} --trace 1; one run per side, parent "
                             f"first; raw wall times, not scaled by the reference loop"}
            for side in revs:
                result = _run(trees[side], workload, seed, args.seconds, 1)
                names = [name for name in result["metrics"] if name.startswith(TRACED_PREFIXES)]
                traced[side] = {**_metrics(result, names),
                                **{key: result[key] for key in ("attempted", "correct", "failed")}}
            record[f"traced_{workload.replace('-', '_')}_seed{seed}"] = traced
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
