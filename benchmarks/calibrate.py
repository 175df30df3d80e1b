"""Host-speed calibration: a fixed kernel timed throughout every measurement.

The benchmark's host is shared.  The speed at which one vCPU executes the
same work changes by up to a factor 1.7 within seconds, and CPU time slows
with wall time, so the process is executed more slowly rather than kept
waiting.  The slowdown differs between the two vCPUs, so it has to be
sampled on the process being measured, while it is measured.

A small fixed kernel (sparse CG in numpy and scipy, many numpy calls on
short vectors, float formatting and a plain Python loop: the kinds of work
the pipeline does) slows along with the host.  Of the mixes tried, this one
tracked all three workloads best.  While a call is measured, a timer signal runs the kernel every
``PERIOD_S`` seconds in the measured process; the kernel also runs right
before and right after the call.  The benchmark reports the call's time with
the kernel runs inside it taken out, scaled to a host on which the kernel
takes ``REFERENCE_S``:

    scaled = (measured - kernel time inside) * REFERENCE_S / mean kernel time

The kernel calls nothing from ``twoscale``, so a change to the program moves
the scaled time as much as it moves the measured one.
"""

from __future__ import annotations

import signal
import statistics
import time

# kernel time that defines the reference host (about the kernel's time on a
# quiet 2-vCPU x86-64 host with Python 3.11 and numpy 2.4)
REFERENCE_S = 0.005
# seconds between kernel runs inside a measured call
PERIOD_S = 0.2

GRID = 160
CG_ITERS = 10
SHORT_OPS = 1_000
FORMATTED = 1_000
LOOP = 10_000


class Kernel:
    """The calibration kernel; build once, then ``time()`` it."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.identity(GRID)
        self.matrix = (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()
        self.rhs = np.ones(GRID * GRID)
        self.short = np.ones(16)
        self.values = np.linspace(0.0, 1.0, FORMATTED).tolist()
        self.time()  # first call pays for allocation and lazy set-up

    def run(self) -> None:
        a, b = self.matrix, self.rhs
        x = b * 0.0
        r = b.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(CG_ITERS):
            ap = a @ p
            alpha = rr / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            rr_new = r @ r
            p = r + (rr_new / rr) * p
            rr = rr_new
        v = self.short
        for _ in range(SHORT_OPS):
            v @ v + v
        "\n".join(f"{i},{v:.17g}" for i, v in enumerate(self.values))
        total = 0
        for i in range(LOOP):
            total += i * i % 7

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class Sampler:
    """Context manager that times a block and the kernel every ``PERIOD_S``
    seconds inside it.

    ``samples`` holds the kernel times: one before the block, those taken
    inside it by the timer signal, and one after it.  ``wall_s`` is the
    block's wall time without the kernel runs inside it.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples = []
        self.inside_s = 0.0
        self.wall_s = None

    def _tick(self, signum, frame):
        dt = self.kernel.time()
        self.samples.append(dt)
        self.inside_s += dt

    def __enter__(self):
        self.samples.append(self.kernel.time())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - self.inside_s
        self.samples.append(self.kernel.time())
        return False

    def kernel_s(self) -> float:
        """Mean kernel time around and inside the block.  A sample is
        clipped at twice the median: a rare stall of the process inside one
        run of the kernel (seen up to 35 times the median) would otherwise
        dominate the mean."""
        cap = 2.0 * statistics.median(self.samples)
        return statistics.fmean(min(t, cap) for t in self.samples)

    def scaled_wall_s(self) -> float:
        """The block's ``wall_s`` on the reference host."""
        return scale(self.wall_s, self.kernel_s())


def scale(measured: float, kernel_s: float) -> float:
    """``measured`` seconds on this host, in seconds on the reference host."""
    return measured * REFERENCE_S / kernel_s
