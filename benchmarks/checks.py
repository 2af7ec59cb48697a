"""Output checks. Each returns a list of problems; an empty list means the
output is right. An op with any problem counts as failed."""

from __future__ import annotations

import math
import re

VERIFY_HEADER = "check_name,closed_form,mc_mean,std_error,z_score,pass"
MC_ROWS = ("moment/", "price/")      # sampled: may fail at |z| > 3 by chance
EXACT_ROWS = ("fd/", "strip/")       # deterministic: must always pass
FIGURE_POINTS = 201
MC_ORACLE_Z = 6.0  # a correct estimator exceeds this about twice in 10^9 draws


class Tally:
    """Ops attempted and failed, with the first few problems kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)


_NON_FINITE = re.compile(r"(?<![A-Za-z_])[-+]?(nan|inf|infinity)(?![A-Za-z_])", re.IGNORECASE)


def verify_output(exit_code: int, csv_text: str) -> tuple[list[str], int]:
    """Check a verify report and its exit code.

    Returns (problems, mc_rows_over_3). Exit 1 is accepted only when every
    failing row is a Monte Carlo row, which happens by chance at a generated
    seed; those rows are counted, not failed.
    """
    lines = csv_text.splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        return ["verify report has no header"], 0
    problems = []
    failing_mc = failing_exact = exact_rows = 0
    for line in lines[1:]:
        fields = line.rsplit(",", 5)  # check names may themselves hold commas
        if len(fields) != 6 or fields[5] not in ("true", "false"):
            problems.append(f"malformed verify row {line!r}")
            continue
        name, passed = fields[0], fields[5] == "true"
        if name.startswith(EXACT_ROWS):
            exact_rows += 1
            if not passed:
                failing_exact += 1
                problems.append(f"{name} failed")
        elif name.startswith(MC_ROWS):
            failing_mc += not passed
        else:
            problems.append(f"unknown verify row {name!r}")
    if exact_rows == 0:
        problems.append("verify report has no fd/ or strip/ rows")
    failing = failing_mc + failing_exact
    if exit_code == 0 and failing:
        problems.append("verify exited 0 with failing rows")
    elif exit_code == 1 and failing == 0:
        problems.append("verify exited 1 with no failing row")
    elif exit_code not in (0, 1):
        problems.append(f"verify exited {exit_code}")
    return problems, failing_mc


def same_as_before(seen: dict, key, output: bytes) -> list[str]:
    """Every repeat of the same inputs must give the same bytes."""
    first = seen.setdefault(key, output)
    return [] if first == output else [f"output for {key} differs from an earlier run"]


def command_output(exit_code: int, stdout: str) -> list[str]:
    """A cold price/greeks/hedge/table/figure call: exit 0 and only finite numbers."""
    problems = []
    if exit_code != 0:
        problems.append(f"exited {exit_code}")
    if not stdout.strip():
        problems.append("printed nothing")
    if _NON_FINITE.search(stdout):
        problems.append("printed a non-finite number")
    return problems


def figure_csv(text: str) -> list[str]:
    lines = text.splitlines()
    if len(lines) != FIGURE_POINTS + 1 or not lines[0].endswith(",value"):
        return [f"figure CSV has {len(lines)} lines, expected {FIGURE_POINTS + 1}"]
    for line in lines[1:]:
        try:
            if not all(math.isfinite(float(v)) for v in line.split(",")):
                return [f"figure row {line!r} is not finite"]
        except ValueError:
            return [f"figure row {line!r} is not numeric"]
    return []


def mc_pair(single, parallel) -> list[str]:
    """An mc_price estimate must be bit-identical for any worker count."""
    a = (single.mean.hex(), single.std_error.hex(), single.n_effective)
    b = (parallel.mean.hex(), parallel.std_error.hex(), parallel.n_effective)
    return [] if a == b else [f"workers changed the estimate: {a} != {b}"]


def mc_against_closed_form(estimate, closed: float) -> list[str]:
    if not (math.isfinite(estimate.mean) and estimate.std_error > 0.0):
        return [f"estimate {estimate} is degenerate"]
    z = (estimate.mean - closed) / estimate.std_error
    if abs(z) <= MC_ORACLE_Z:
        return []
    return [f"estimate is {z:.2f} standard errors from {closed!r}"]


def strip_price(strip: float, closed: float, bound: float) -> list[str]:
    if abs(strip - closed) <= bound:
        return []
    return [f"strip price {strip!r} misses {closed!r} by more than its bound {bound!r}"]


def finite(label: str, values) -> list[str]:
    return [] if all(math.isfinite(v) for v in values) else [f"{label} is not finite"]
