"""Reference seconds: wall time corrected for the momentary speed of the host.

On a shared host the same pure-Python work can take from 1x to 2x as long
from one second to the next, and every timing of a run moves with it. A
measured session therefore times a fixed reference task every PERIOD_S
seconds, from a SIGALRM handler in its own main thread, and reports the
samples with its calls. A span of wall time is then converted piece by
piece: the program's own time in a piece (the piece minus the reference
samples inside it) is scaled by NOMINAL_S over the median of the K samples
nearest to the piece. One reference second is thus a wall second at a
moment when the reference task takes NOMINAL_S; a program that does twice
the work reads twice the reference seconds whatever the host is doing.

The reference task is a 16 x 16 integer matrix product in plain Python,
written here so that no change to the program can change it. The garbage
collector is held off while it runs, so that the program's heap does not
leak into the samples. All times are CLOCK_MONOTONIC (`time.monotonic`),
which is the same clock in every process of the machine.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.05
NOMINAL_S = 0.0005
PIECE_S = 0.25
K = 9
SIZE = 16

_A = [[(i * 7 + j * 3) % 11 - 5 for j in range(SIZE)] for i in range(SIZE)]
_COLS = [tuple((i * 5 + j * 2) % 7 - 3 for i in range(SIZE)) for j in range(SIZE)]
_samples: list = []


def _product() -> list:
    return [[sum(a * b for a, b in zip(row, col)) for col in _COLS] for row in _A]


def _sample(signum, frame) -> None:
    enabled = gc.isenabled()
    gc.disable()
    start = time.monotonic()
    _product()
    _samples.append((start, time.monotonic() - start))
    if enabled:
        gc.enable()


def start() -> None:
    """Sample the reference task now and every PERIOD_S seconds from now on."""
    _sample(None, None)
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    """Stop the timer and take a last sample."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    _sample(None, None)


def take() -> list:
    """The (start, duration) samples taken since the last call."""
    global _samples
    out, _samples = _samples, []
    return out


class Calibration:
    """The samples of one session; converts its wall spans to reference seconds."""

    def __init__(self, samples: list):
        samples = sorted(samples)
        self.starts = [s for s, _ in samples]
        self.durations = [d for _, d in samples]
        self.longest = max(self.durations, default=0.0)

    def __bool__(self) -> bool:
        return bool(self.starts)

    def _inside(self, a: float, b: float) -> float:
        """Time in [a, b] spent on reference samples."""
        i = bisect.bisect_left(self.starts, a - self.longest)
        total = 0.0
        while i < len(self.starts) and self.starts[i] < b:
            s, d = self.starts[i], self.durations[i]
            total += max(0.0, min(b, s + d) - max(a, s))
            i += 1
        return total

    def _local(self, t: float) -> float:
        n = len(self.starts)
        lo = max(0, min(bisect.bisect(self.starts, t) - K // 2, n - K))
        return statistics.median(self.durations[lo:lo + K])

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the program's time between monotonic times a and b."""
        total = 0.0
        t = a
        while t < b:
            u = min(b, t + PIECE_S)
            total += (u - t - self._inside(t, u)) * NOMINAL_S / self._local((t + u) / 2)
            t = u
        return total

    def speed(self) -> float:
        """Median sample over NOMINAL_S: how much slower than nominal the host ran."""
        return statistics.median(self.durations) / NOMINAL_S
