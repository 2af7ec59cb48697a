"""Reference loops that put op times on a fixed host speed.

The shared host's speed swings by up to 1.8x for seconds at a time. So the
workloads time a fixed reference loop before each block of ops and scale the
block's op times to the loop's reference time: a run reports what its ops
would take on a host that runs the loop in its REF_S. Each loop does the kind
of work its workload does, so the swings slow both alike, and calls nothing of
lpgreeks, so a faster program still reads faster. See README, "Calibration".

Run as a script, it serves the numpy loop to the cli workload: it answers each
line read from stdin with the loop's median time, in seconds, on stdout.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

# risk-sweep: frozen dataclasses, dataclasses.replace and math calls
PY_STEPS = 750
PY_REF_S = 2.5e-3
# mc-oracle and cli: word hashing and normal draws over arrays, as in the MC kernel
NP_SIZE = 1 << 18
NP_REF_S = 10e-3
SERVER_REPEATS = 3  # a cold child runs for 0.5-1.5 s, so cli takes the median of a few
SERVER_TIMEOUT_S = 10.0

# The timings a workload keeps, per op kind: scaled op times, their wall
# times and the loop times they were scaled by.
TIMINGS = ("a", "b", "a_wall", "b_wall", "a_loop", "b_loop")


@dataclass(frozen=True)
class _Ref:
    a: float
    b: float
    c: float


def _ref_step(p: _Ref, x: float) -> _Ref:
    return _Ref(p.a * x, math.exp(-p.b * x), math.log1p(p.c + x))


def python_s() -> float:
    """Wall time of the pure-Python reference loop."""
    start = time.perf_counter()
    p, acc = _Ref(1.0, 0.5, 0.25), 0.0
    for i in range(PY_STEPS):
        q = _ref_step(p, 1e-3 * i)
        q = replace(q, c=q.c + 1.0)
        acc += q.a + q.b + math.sqrt(q.c) + math.erf(q.b)
    return time.perf_counter() - start


# numpy is imported in the functions, not at the top: the cli parent imports
# this module, and every child it starts counts the parent's peak RSS as its own.

def numpy_inputs() -> tuple:
    """The fixed inputs of the numpy reference loop, and its scratch arrays."""
    import numpy as np
    rng = np.random.default_rng(0)
    return (rng.integers(0, 2**63, NP_SIZE, dtype=np.uint64),
            1.0 - rng.random(NP_SIZE), rng.random(NP_SIZE),
            np.empty(NP_SIZE, np.uint64), np.empty(NP_SIZE, np.uint64),
            np.empty(NP_SIZE), np.empty(NP_SIZE))


def numpy_s(words, u1, u2, h1, h2, f1, f2) -> float:
    """Wall time of the numpy reference loop on numpy_inputs(). It writes into
    the scratch arrays rather than new ones, so that threads running it on
    split() chunks do not wait on each other for memory."""
    import numpy as np
    start = time.perf_counter()
    np.multiply(words, np.uint64(0x9E3779B97F4A7C15), out=h1)
    np.right_shift(words, np.uint64(29), out=h2)
    np.bitwise_xor(h1, h2, out=h1)
    np.log(u1, out=f1)  # Box-Muller normals: sqrt(-2 log u1) cos(2 pi u2)
    f1 *= -2.0
    np.sqrt(f1, out=f1)
    np.multiply(u2, 2.0 * math.pi, out=f2)
    np.cos(f2, out=f2)
    f1 *= f2
    f1 *= 0.3
    f1 -= 0.1
    np.exp(f1, out=f1)
    float(f1.sum()) + int(h1[-1])
    return time.perf_counter() - start


def split(inputs: tuple, parts: int) -> list[tuple]:
    """numpy_inputs() cut into `parts` disjoint contiguous chunks, one per thread."""
    import numpy as np
    return list(zip(*(np.array_split(array, parts) for array in inputs)))


def numpy_threads_s(chunks: list[tuple]) -> float:
    """Wall time of the numpy loop over split() chunks, one thread each, the way
    mc_price runs workers > 1, so that it also reads how free the other cores
    are. Its reference time is NP_REF_S too."""
    if len(chunks) == 1:
        return numpy_s(*chunks[0])
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        list(pool.map(lambda chunk: numpy_s(*chunk), chunks))
    return time.perf_counter() - start


class NumpyServer:
    """The numpy loop in a process of its own, for the cli parent. Use it as a
    context manager; median_s() times the loop SERVER_REPEATS times."""

    def __enter__(self) -> NumpyServer:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def median_s(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration server exited {self.proc.poll()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def record(times: dict, kind: str, wall: float, loop_s: float, ref_s: float) -> None:
    """Keep an op's wall time, the loop time it is scaled by, and the scaled time."""
    times[kind].append(wall * ref_s / loop_s)
    times[kind + "_wall"].append(wall)
    times[kind + "_loop"].append(loop_s)


def serve() -> None:
    inputs = numpy_inputs()
    for _ in sys.stdin:
        print(repr(statistics.median(numpy_s(*inputs) for _ in range(SERVER_REPEATS))),
              flush=True)


if __name__ == "__main__":
    serve()
