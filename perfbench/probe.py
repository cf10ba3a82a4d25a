"""CPU-speed probe for wall times measured on a shared, noisy host.

On a virtual machine whose host is busy, the same Python code can run at
speeds that differ by a factor of 1.7 within seconds, so one pass of tens of
seconds varies by tens of percent from run to run.  The probe interrupts the
main thread every INTERVAL seconds (SIGALRM) and times a fixed kernel of
small Chebyshev evaluations, the kind of work that dominates renormlab; it
calls no renormlab code, so optimising renormlab cannot change it.  Each
stretch of workload between two probes is rescaled by REFERENCE / (rolling
median of the kernel time): the time the stretch would have taken on a
machine where the kernel takes REFERENCE seconds.  The probes' own time is
left out.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev as _cheb

INTERVAL = 0.02
REFERENCE = 100e-6
WINDOW = 5   # probes in the rolling median, a tenth of a second

_X = np.linspace(-1.0, 1.0, 29)
_C = np.linspace(1.0, 0.0, 17)


def kernel() -> None:
    for _ in range(4):
        _cheb.chebval(_X, _C)


def rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Centred rolling median, edges padded with the end values."""
    half = window // 2
    padded = np.pad(values, (half, window - 1 - half), mode="edge")
    return np.median(sliding_window_view(padded, window), axis=1)


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Time the kernel once."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, t0: float, t1: float) -> float:
        """Workload time in [t0, t1] at the reference speed.

        The stretch before probe i (from the end of probe i-1) runs at the
        speed probe i measured; the stretch after the last probe at the last
        measured speed."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        if starts.size == 0:
            raise ValueError("no probe fired; the pass is shorter than "
                             f"{INTERVAL} s")
        speed = REFERENCE / rolling_median(np.asarray(self.costs), WINDOW)
        seg_lo = np.r_[-np.inf, ends]
        seg_hi = np.r_[starts, np.inf]
        seg_speed = np.r_[speed, speed[-1]]
        overlap = np.clip(np.minimum(seg_hi, t1) - np.maximum(seg_lo, t0),
                          0.0, None)
        return float(np.sum(overlap * seg_speed))
