"""Machine-speed reference, timed in a child process of its own.

On a shared host the machine's speed drifts by up to 2x over tens of seconds.
The harness times a fixed piece of work that does not use the package just
before each op and set-up pass, and scales the measured seconds by
``REF_NOMINAL_S`` over the recent reference times.

The reference is taken only before the op it scales, after a short idle, and
in a separate process: what an op leaves behind in the benchmark's process (a
grown or fragmented heap, caches it evicted, threads that wind down) does not
shrink its own reported time.  Each reference time is the median of
``REPEATS`` runs of the work, so a cold first run does not count.  An op is
scaled by the median of the last ``WINDOW`` reference times: one reference
jitters by about 20% from one op to the next, more than a multi-second op
does, so a single one would add noise to long ops instead of removing it.

Run as a script, this file is the worker: it answers every line on stdin with
one reference time on stdout and exits at end of input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# median reference time at nominal machine speed (2-core x86 container)
REF_NOMINAL_S = 0.007
REPEATS = 9
WINDOW = 3
IDLE_S = 0.02


def _work_timer():
    """Return a function that runs the fixed work once and returns its seconds.

    The work mixes interpreter-bound Python with a small SuperLU factorization
    and solves, like the package's own hot paths.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = 30
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    matrix = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()
    rhs = np.ones(n * n)

    def run() -> float:
        t0 = time.perf_counter()
        acc = 0
        for j in range(30000):
            acc += j * j % 7
        lu = splu(matrix)
        for _ in range(20):
            lu.solve(rhs)
        return time.perf_counter() - t0

    return run


def worker() -> None:
    run = _work_timer()
    for _ in sys.stdin:
        print(statistics.median(run() for _ in range(REPEATS)), flush=True)


class SpeedReference:
    """Client of the worker process; use as a context manager so it is stopped."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-B", __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.times: list[float] = []

    def time(self) -> float:
        """Reference time now, after a short idle; also appended to ``times``."""
        time.sleep(IDLE_S)
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed reference worker ended with code {self._proc.wait()}")
        self.times.append(float(line))
        return self.times[-1]

    def scaled(self, seconds: float) -> float:
        """Seconds at nominal machine speed, from the last WINDOW reference times."""
        return seconds * REF_NOMINAL_S / statistics.median(self.times[-WINDOW:])

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> SpeedReference:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    worker()
