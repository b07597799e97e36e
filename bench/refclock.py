"""Reference-speed timing: wall time rescaled by how fast this host runs a
fixed calibration kernel at that moment.

On a shared host the speed of the same code drifts by up to 1.6x over tens
of seconds, for interpreted loops and numpy kernels alike, because other
tenants share the cores and caches. A `RefClock` runs a short calibration
kernel every `PERIOD_S` seconds from a SIGALRM handler, so that slices of it
fall before, inside and after every timed sample. A sample's time is its
wall time minus the calibration that ran inside it; its reference time is
that times the kernel's nominal duration over the median duration of the
slices around it: seconds on a host where the kernel takes exactly its
nominal time. Program changes move the reference time as they move the wall
time; host drift moves the kernel as much as the program and cancels out,
as long as the kernel does the same kind of work as the workload.

No process or thread is started: the handler runs in the main thread
between bytecodes (the dense kernel uses numpy's BLAS threads, as the
program does), and a single timer is armed at any time.
"""

import signal
import statistics
import time

import numpy as np

# Time between the end of one calibration slice and the start of the next.
PERIOD_S = 0.25
# A sample is scaled by the slices whose midpoints lie within this many
# seconds of it.
WINDOW_S = 2 * PERIOD_S


def interpreted_kernel():
    """An interpreted integer loop: tracks the speed of the engine loops
    of small problems, which the interpreter dominates."""
    s = 0
    for i in range(100000):
        s += i * i
    return s


_RNG = np.random.default_rng(0)
_DENSE_M = _RNG.random((500, 500)) / 500
_DENSE_X = _RNG.random((500, 2))


def dense_kernel():
    """Products of a 500 x 500 matrix with a 500 x 2 block, the step of an
    n = 500 engine run. Of the kernels tried it also tracked the dense
    eigen-solves of the consensus tuning best (bench/NOTES.md)."""
    y = _DENSE_X
    for _ in range(100):
        y = _DENSE_M @ y * 0.5 + _DENSE_X
    return y


# name -> (kernel, nominal seconds). A nominal time is the kernel's median
# duration on the host where the benchmark was written (an Intel Xeon at
# 2.1 GHz, 2 vCPUs), so that reference seconds read close to wall seconds
# there.
KERNELS = {
    "interpreted": (interpreted_kernel, 0.008),
    "dense": (dense_kernel, 0.007),
}


class RefClock:
    """Samples of wall time, each with the calibration slices around it.

    With `enabled` False no kernel runs and every scale is 1: reference
    time is wall time.
    """

    def __init__(self, kernel="interpreted", enabled=True):
        self.kernel, self.nominal_s = KERNELS[kernel]
        self.enabled = enabled
        self.slices = []      # (midpoint, duration) on the perf_counter clock
        self.spent = 0.0      # total seconds spent in slices
        self._armed = False
        self._previous = None

    def _slice(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.slices.append(((t0 + t1) / 2, t1 - t0))
        self.spent += t1 - t0
        # One-shot timer re-armed here, so slices never overlap.
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._slice)
            self._armed = True
            self._slice()
        return self

    def __exit__(self, *exc):
        if self.enabled:
            # Disarm first: a slice already due must not re-arm the timer.
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            # Slices after the last sample, so that it has some on both sides.
            for _ in range(2):
                self._slice()
        return False

    def mark(self):
        return time.perf_counter(), self.spent

    def since(self, mark):
        """(start, end, wall seconds without calibration) since `mark`."""
        t0, spent0 = mark
        t1 = time.perf_counter()
        return t0, t1, (t1 - t0) - (self.spent - spent0)

    def scale(self, t0, t1):
        """Nominal kernel time over the median slice within WINDOW_S of
        [t0, t1]."""
        if not self.enabled:
            return 1.0
        near = [d for mid, d in self.slices if t0 - WINDOW_S <= mid <= t1 + WINDOW_S]
        if not near:
            raise RuntimeError(f"no calibration slice near [{t0}, {t1}]")
        return self.nominal_s / statistics.median(near)

    def reference(self, sample):
        t0, t1, wall = sample
        return wall * self.scale(t0, t1)
