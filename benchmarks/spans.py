"""Span recorder for the traced runs, and the wrappers it installs over lpgreeks.

Nothing under src/ knows about tracing. Recorder.install() replaces each
traced callable at every lpgreeks module attribute that refers to it, which is
where callers look it up (lpgreeks.cli.run_verification,
lpgreeks.verify.mc_price, lpgreeks.greeks.greeks_locked_lp, ...). It also swaps
lpgreeks.mc.Philox for a counting subclass and lpgreeks.mc.ndtri for a timed
call. uninstall() puts every original back.

A span's self time is its duration minus the time covered by its child spans
on the same thread. Spans opened on a worker thread of mc_price (workers > 1)
have no parent there and are recorded under "<name>/pool", so per-draw and
kernel figures come from single-worker calls only.

The import layer is read from `python -X importtime` output with
import_layers().
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array

# (defining module, attribute, span name). Functions only; Philox and ndtri
# are handled separately because they are a class and a ufunc.
TARGETS = (
    ("lpgreeks.config", "load_config", "config.load_config"),
    ("lpgreeks.pricing", "price_ig", "pricing.price_ig"),
    ("lpgreeks.pricing", "price_locked_lp", "pricing.price_locked_lp"),
    ("lpgreeks.pricing", "price_unlocked_lp", "pricing.price_unlocked_lp"),
    ("lpgreeks.greeks", "greeks_ig", "greeks.greeks_ig"),
    ("lpgreeks.greeks", "greeks_locked_lp", "greeks.greeks_locked_lp"),
    ("lpgreeks.greeks", "greeks_unlocked_lp", "greeks.greeks_unlocked_lp"),
    ("lpgreeks.greeks", "hedge_report", "greeks.hedge_report"),
    ("lpgreeks.replication", "build_strike_grid", "replication.build_strike_grid"),
    ("lpgreeks.replication", "price_ig_via_strip", "replication.price_ig_via_strip"),
    ("lpgreeks.mc", "mc_price", "mc.mc_price"),
    ("lpgreeks.mc", "fd_greek", "mc.fd_greek"),
    ("lpgreeks.verify", "run_verification", "verify.run_verification"),
    ("lpgreeks.verify", "write_report", "verify.write_report"),
)

MAX_SAMPLES = 200_000  # per span name; bounds memory on the risk-sweep run


class _Stat:
    __slots__ = ("count", "incl_ns", "self_ns", "units", "incl", "self_")

    def __init__(self) -> None:
        self.count = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.units = 0
        self.incl = array("q")
        self.self_ = array("q")


def _mc_units(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    return ("/w1" if cfg.workers == 1 else "/wN"), cfg.n_paths


def _result_units(result):
    return result.n_strikes


# Span names whose calls carry a unit count: (from the arguments, from the result).
_UNITS = {
    "mc.mc_price": (_mc_units, None),
    "replication.build_strike_grid": (None, _result_units),
}


class Recorder:
    """Aggregates spans in memory; dump() returns them as plain JSON data."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.root_ns = 0  # time covered by top-level spans on the main thread
        self.streams: dict[int, list[tuple[int, int]]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._swapped: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, dur: int, self_ns: int, units: int) -> None:
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = _Stat()
            stat.count += 1
            stat.incl_ns += dur
            stat.self_ns += self_ns
            stat.units += units
            if len(stat.incl) < MAX_SAMPLES:
                stat.incl.append(dur)
                stat.self_.append(self_ns)

    def timed(self, name: str, fn, units_from_args=None, units_from_result=None):
        """fn wrapped in a span called name."""
        recorder = self
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            label, units = name, 0
            if not stack and threading.current_thread() is not main:
                label = name + "/pool"
            if units_from_args is not None:
                suffix, units = units_from_args(args, kwargs)
                label += suffix
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                elif threading.current_thread() is main:
                    recorder.root_ns += dur
            if units_from_result is not None:
                units = units_from_result(result)
            recorder._record(label, dur, dur - frame[0], units)
            return result

        return traced

    def note_stream(self, key: int, start: int, count: int) -> None:
        with self._lock:
            self.streams.setdefault(key, []).append((start, start + count))

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lpgreeks" or mod_name.startswith("lpgreeks.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._swapped.append((module, attr, original))

    def install(self) -> None:
        """Wrap every target whose module is loaded; raise if a name is missing."""
        if self._swapped:
            raise RuntimeError("wrappers are already installed")
        for mod_name, attr, span in TARGETS:
            module = sys.modules.get(mod_name)
            if module is None:
                continue  # layer not loaded in this process
            original = getattr(module, attr, None)
            if original is None:
                raise RuntimeError(f"cannot trace {mod_name}.{attr}: name missing")
            args_fn, result_fn = _UNITS.get(span, (None, None))
            self._replace_everywhere(original, self.timed(span, original, args_fn, result_fn))
        mc = sys.modules.get("lpgreeks.mc")
        if mc is not None:
            for attr in ("Philox", "ndtri"):
                if not hasattr(mc, attr):
                    raise RuntimeError(f"cannot trace lpgreeks.mc.{attr}: name missing")
            self._replace_everywhere(mc.Philox, _counting_philox(self, mc.Philox))
            self._replace_everywhere(mc.ndtri, self.timed(
                "mc.ndtri", mc.ndtri, units_from_args=lambda a, k: ("", a[0].size)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    # -- output --------------------------------------------------------------

    def distinct_elements(self) -> int:
        """Stream elements drawn at least once, per Philox key, summed over keys."""
        total = 0
        for intervals in self.streams.values():
            end = -1
            for a, b in sorted(intervals):
                if b > end:
                    total += b - max(a, end)
                    end = b
        return total

    def dump(self) -> dict:
        stats = {
            name: {
                "count": s.count, "incl_ns": s.incl_ns, "self_ns": s.self_ns,
                "units": s.units, "incl": s.incl.tolist(), "self": s.self_.tolist(),
            }
            for name, s in self.stats.items()
        }
        draws = sum(s["units"] for n, s in stats.items() if n.startswith("mc.philox"))
        return {"stats": stats, "draws": draws, "distinct": self.distinct_elements(),
                "root_ns": [self.root_ns]}

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.dump(), handle)


def _counting_philox(recorder: Recorder, base):
    """A Philox subclass that times its work and records which stream
    elements (key, word offset) each instance hands out."""
    timed_raw = recorder.timed("mc.philox", base.random_raw,
                               units_from_args=lambda a, k: ("", 1 if a[1] is None else a[1]))

    class CountingPhilox(base):
        def __init__(self, *args, key=None, **kwargs):
            super().__init__(*args, key=key, **kwargs)
            self._bench_key = int(key) if key is not None else -1
            self._bench_pos = 0

        def advance(self, delta):
            self._bench_pos += 4 * int(delta)  # one counter step is four 64-bit words
            return super().advance(delta)

        def random_raw(self, size=None, output=True):
            count = 1 if size is None else int(size)
            recorder.note_stream(self._bench_key, self._bench_pos, count)
            self._bench_pos += count
            return timed_raw(self, size, output)

    return CountingPhilox


def merge(dumps: list[dict]) -> dict:
    """Combine the dumps of several processes; distinct elements add up per process."""
    out = {"stats": {}, "draws": 0, "distinct": 0, "root_ns": []}
    for dump in dumps:
        out["draws"] += dump["draws"]
        out["distinct"] += dump["distinct"]
        out["root_ns"].extend(dump["root_ns"])
        for name, s in dump["stats"].items():
            into = out["stats"].setdefault(name, {"count": 0, "incl_ns": 0, "self_ns": 0,
                                                  "units": 0, "incl": [], "self": []})
            for key in ("count", "incl_ns", "self_ns", "units"):
                into[key] += s[key]
            into["incl"].extend(s["incl"])
            into["self"].extend(s["self"])
    return out


def import_layers(stderr_text: str) -> dict:
    """Import costs (ms) from `python -X importtime` output.

    lpgreeks_ms sums the cumulative time of the top-level imports of lpgreeks
    and its submodules, i.e. what the process paid to import the package.
    scipy_special_ms is the cumulative time of scipy.special wherever it was
    first imported. Raises if either is absent.
    """
    lpgreeks_us = 0
    scipy_us = None
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # header line
        cumulative = int(fields[1])
        raw_name = fields[2][1:]  # one space follows the bar
        name = raw_name.strip()
        depth = (len(raw_name) - len(raw_name.lstrip())) // 2
        if depth == 0 and (name == "lpgreeks" or name.startswith("lpgreeks.")):
            lpgreeks_us += cumulative
        if name == "scipy.special" and scipy_us is None:
            scipy_us = cumulative
    if lpgreeks_us == 0 or scipy_us is None:
        raise RuntimeError("importtime output lacks the lpgreeks or scipy.special import")
    return {"lpgreeks_ms": lpgreeks_us / 1e3, "scipy_special_ms": scipy_us / 1e3}
