"""Host-speed normalization of wall times, sampled inside the benchmark process.

The CPU this benchmark runs on can change speed by 1.6x or more for seconds at
a time (other load on the host), and process CPU time changes with it.  So
every 50 ms a SIGALRM handler runs a fixed calibration kernel of under 1 ms
(tiny complex array operations and float formatting, the kind of work the
CLI does) and records how long it took.  A wall interval [a, b] is then converted
to reference seconds: each stretch of program time between two samples is
divided by the kernel time measured at the end of it and multiplied by
``KERNEL_REF_S``, and the time spent inside the handler is left out.  The
result reads as "seconds on a host where the kernel takes exactly 1 ms".
The handler costs about 1.5% of the run; its time is subtracted.

The kernel is benchmark code and does not call the library, so a change to
the library changes the normalized times and not the kernel.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

KERNEL_REF_S = 1e-3
PERIOD_S = 0.05

_rng = np.random.default_rng(12345)
_BASIS = np.linalg.qr(_rng.standard_normal((12, 3)) + 1j * _rng.standard_normal((12, 3)))[0].T.copy()
_OTHER = _rng.standard_normal((3, 12)) + 1j * _rng.standard_normal((3, 12))
_FLOATS = [float(x) for x in _rng.standard_normal(100)]


def kernel() -> int:
    """Tiny complex array operations and float-to-text formatting.

    Of the candidates tried (small SVDs, 30x30 products, a pure-Python loop,
    tiny array operations, float formatting), this mix tracked the wall time
    of all four kinds of CLI invocation best across slow and fast host phases.
    """
    for _ in range(20):
        cross = _BASIS @ _OTHER.conj().T
        (np.abs(cross) ** 2).reshape(-1).sum()
        np.concatenate([_BASIS, _OTHER])
    return sum(len(",".join(repr(f) for f in _FLOATS)) for _ in range(4))


class SpeedSampler:
    """Periodic calibration samples: (start, duration) of each kernel run."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None
        kernel()  # first call pays for dispatch set-up; keep it out of the samples

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def reference_seconds(self, a: float, b: float) -> float:
        """Wall interval [a, b] in reference seconds, handler time excluded."""
        # copies, each in one call: a view would keep the arrays exporting
        # their buffers, and the handler's next append would then raise
        # BufferError.  The handler appends a start before its duration, so a
        # sample taken between the two copies is cut off by the shorter one.
        durations = np.array(self.durations, dtype=np.float64)
        starts = np.array(self.starts, dtype=np.float64)[:durations.size]
        if starts.size == 0:
            raise RuntimeError("no calibration sample taken yet")
        # stretch j runs from the end of sample j-1 to the start of sample j
        # and is timed by sample j; the last one extends to +inf
        lo = np.concatenate(([-np.inf], starts + durations))
        hi = np.concatenate((starts, [np.inf]))
        speed = np.concatenate((durations, durations[-1:]))
        overlap = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
        return float(KERNEL_REF_S * np.sum(overlap / speed))
