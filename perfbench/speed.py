"""Host-speed reference: a fixed NumPy kernel timed in between workload operations.

On a shared host the speed of one core changes by up to about 2x over
stretches of seconds (co-tenants on the sibling hardware thread, clock
changes), and a 30 s run can fall mostly in a slow or mostly in a fast
stretch. The end-to-end times of the single-threaded workloads are therefore
reported at a reference speed: each timed operation is scaled by
NOMINAL_S / (time the kernel took in the samples around it). The kernel uses
no svjd code, so no change to the package can move it; the raw times are
reported next to the scaled ones.
"""
from __future__ import annotations

import time

import numpy as np

_X = np.linspace(0.0, 1.0, 4096)

NOMINAL_S = 5.5e-3   # fastest kernel time seen on an idle 2-core Xeon host (2026)
NEAREST = 4          # kernel samples used around an operation too short to hold them


def kernel() -> float:
    """Complex exponentials, FFTs and reductions on 4096 nodes, in a Python loop."""
    total = 0.0
    for i in range(30):
        y = np.exp(1j * _X * i) * np.cos(_X)
        total += float(np.fft.fft(y).real.sum())
    return total


class Speedometer:
    """Kernel samples taken in between the operations of one run.

    A disabled speedometer takes no samples and scales nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times = []      # midpoints
        self.took = []       # kernel durations

    def sample(self, repeats: int = 1) -> None:
        if not self.enabled:
            return
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)

    def busy(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end], to be taken out of an
        operation that had samples taken in the middle of it."""
        times, took = np.asarray(self.times), np.asarray(self.took)
        return float(took[(times >= start) & (times <= end)].sum())

    def scale(self, timed) -> list:
        """Scale (start, end, value) samples to the reference speed, using the
        kernel samples taken during the operation, or the NEAREST closest to
        it when the operation is too short to hold that many."""
        if not self.enabled:
            return [value for _, _, value in timed]
        times, took = np.asarray(self.times), np.asarray(self.took)
        out = []
        for start, end, value in timed:
            inside = took[(times >= start) & (times <= end)]
            if inside.size < NEAREST:
                inside = took[np.argsort(np.abs(times - 0.5 * (start + end)))[:NEAREST]]
            out.append(value * NOMINAL_S / float(np.median(inside)))
        return out

    def factor(self) -> float:
        """Reference speed over the run: NOMINAL_S / median kernel time."""
        return NOMINAL_S / float(np.median(self.took))
