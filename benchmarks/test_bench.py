"""Tests of the benchmark's own checks and tracing; run with

    PYTHONPATH=src python3 -m pytest benchmarks

The negative controls feed corrupted outputs through the same checks the
workloads use and require each to count as a failed op.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import lpgreeks  # noqa: E402
import lpgreeks.cli  # noqa: E402
from lpgreeks import mc, verify  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report():
    """A real verify report for a shipped config, at few paths."""
    scenario = lpgreeks.cli.load_config(ROOT / "configs" / "locked-half-year.json")
    scenario = replace(scenario, mc=replace(scenario.mc, n_paths=4096))
    return "\n".join(verify.report_lines(verify.run_verification(scenario))) + "\n"


def _set_pass(csv_text: str, prefix: str, value: str) -> str:
    lines = csv_text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            lines[i] = line.rsplit(",", 1)[0] + "," + value
            break
    return "\n".join(lines) + "\n"


def _counts_as_failed(problems) -> bool:
    tally = checks.Tally()
    tally.op(problems)
    return tally.failed == 1 and tally.attempted == 1


def test_good_verify_report_passes(report):
    assert checks.verify_output(0, report) == ([], 0)


@pytest.mark.parametrize("prefix", ["fd/locked_lp/gamma", "strip/ig"])
def test_failed_exact_row_fails_the_op(report, prefix):
    problems, _ = checks.verify_output(1, _set_pass(report, prefix, "false"))
    assert _counts_as_failed(problems)


def test_unlucky_mc_row_is_counted_not_failed(report):
    problems, over = checks.verify_output(1, _set_pass(report, "moment/sqrt", "false"))
    assert problems == [] and over == 1


@pytest.mark.parametrize("exit_code, text", [
    (0, "moment/sqrt"),   # exit 0 although a row failed
    (1, None),            # exit 1 with every row passing
    (2, None),            # a usage error
])
def test_exit_code_must_match_rows(report, exit_code, text):
    csv_text = _set_pass(report, text, "false") if text else report
    problems, _ = checks.verify_output(exit_code, csv_text)
    assert _counts_as_failed(problems)


def test_truncated_or_garbled_report_fails(report):
    assert _counts_as_failed(checks.verify_output(0, report[:40])[0])
    assert _counts_as_failed(checks.verify_output(0, "")[0])
    assert _counts_as_failed(checks.verify_output(0, report.replace(",true", ",yes", 1))[0])


def test_repeat_with_other_bytes_fails(report):
    seen = {}
    assert checks.same_as_before(seen, ("c.json", 7), report.encode()) == []
    assert checks.same_as_before(seen, ("c.json", 7), report.encode()) == []
    corrupted = report.replace("e-", "e+", 1).encode()
    assert _counts_as_failed(checks.same_as_before(seen, ("c.json", 7), corrupted))


@pytest.mark.parametrize("code, stdout", [
    (0, "Theta      nan   (per day: nan)"),
    (0, "price:      inf"),
    (3, "domain error"),
    (0, ""),
])
def test_bad_command_output_fails(code, stdout):
    assert _counts_as_failed(checks.command_output(code, stdout))


def test_finite_command_output_passes():
    assert checks.command_output(0, "strategy: ig\ninfo 1e-05 -3.5E+02\n") == []


def test_figure_csv():
    rows = ["s_t,value"] + [f"{x},{x * 0.5}" for x in range(checks.FIGURE_POINTS)]
    assert checks.figure_csv("\n".join(rows)) == []
    assert _counts_as_failed(checks.figure_csv("\n".join(rows[:-1])))
    rows[7] = "6,nan"
    assert _counts_as_failed(checks.figure_csv("\n".join(rows)))


def test_worker_count_must_not_move_a_bit():
    a = mc.McEstimate(mean=1.25, std_error=0.01, n_effective=100)
    b = mc.McEstimate(mean=math.nextafter(1.25, 2.0), std_error=0.01, n_effective=100)
    assert checks.mc_pair(a, a) == []
    assert _counts_as_failed(checks.mc_pair(a, b))


def test_mc_estimate_far_from_closed_form_fails():
    est = mc.McEstimate(mean=10.0, std_error=0.1, n_effective=100)
    assert checks.mc_against_closed_form(est, 10.5) == []
    assert _counts_as_failed(checks.mc_against_closed_form(est, 10.7))


def test_strip_price_outside_its_bound_fails():
    assert checks.strip_price(100.0, 100.0005, 1e-3) == []
    assert _counts_as_failed(checks.strip_price(100.0, 100.01, 1e-3))


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20))) == (50.0, 9)
    assert run.tail(list(range(1, 1001))) == (99.0, 990)


def test_record_scales_op_times_and_keeps_wall_times():
    times = {kind: [] for kind in calibrate.TIMINGS}
    calibrate.record(times, "a", 0.5, 0.01, 0.02)
    assert times["a"] == [1.0] and times["a_wall"] == [0.5] and times["a_loop"] == [0.01]
    assert times["b"] == []


def test_threads_run_the_loop_on_disjoint_chunks():
    inputs = calibrate.numpy_inputs()
    chunks = calibrate.split(inputs, 2)
    assert sum(len(chunk[0]) for chunk in chunks) == calibrate.NP_SIZE
    assert calibrate.numpy_threads_s(chunks) > 0
    by_threads = inputs[5].copy()
    calibrate.numpy_s(*inputs)
    assert (inputs[5] == by_threads).all()  # the threads wrote every element, as one does


def test_numpy_server_times_the_loop_and_ends():
    with calibrate.NumpyServer() as server:
        assert 0 < server.median_s() < 10
    assert server.proc.returncode == 0


def test_recorder_counts_draws_and_restores_names():
    original = (lpgreeks.mc.mc_price, mc.Philox, mc.ndtri, verify.mc_price)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert verify.mc_price is mc.mc_price is not original[0]
        scn = mc.McScenario(market=lpgreeks.MarketParams(0.03, 0.0, 0.7, 0.0), s_t=1000.0,
                            tau=1.0, v0=1.0, strike=1000.0)
        for payoff in ("ig", "vanilla_put"):
            mc.mc_price(payoff, scn, mc.McConfig(n_paths=3 * (1 << 16) + 8, seed=9))
    finally:
        recorder.uninstall()
    assert (lpgreeks.mc.mc_price, mc.Philox, mc.ndtri, verify.mc_price) == original
    dump = recorder.dump()
    n = 3 * (1 << 16) + 8
    assert dump["stats"]["mc.mc_price/w1"]["count"] == 2
    assert dump["stats"]["mc.mc_price/w1"]["units"] == 2 * n
    assert dump["draws"] == 2 * n and dump["distinct"] == n
    w1 = dump["stats"]["mc.mc_price/w1"]
    assert 0 < w1["self_ns"] < w1["incl_ns"]


def test_missing_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(lpgreeks.pricing, "price_ig")
    with pytest.raises(RuntimeError, match="price_ig"):
        spans.Recorder().install()


def test_import_layers():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       955 |     309523 |     scipy.special",
        "import time:      9558 |     491689 |   lpgreeks.mc",
        "import time:      1053 |     534055 | lpgreeks",
        "import time:      9125 |       9125 | lpgreeks.config",
        "Traceback: not an import line",
    ])
    assert spans.import_layers(text) == {"lpgreeks_ms": 543.18, "scipy_special_ms": 309.523}
    with pytest.raises(RuntimeError):
        spans.import_layers("import time:  1 | 2 | numpy")
