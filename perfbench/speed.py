"""Machine-speed probe, so that times measured on a shared host compare.

On a host whose cores are shared with other tenants, the same pass can take
anywhere from 1x to 1.5x its quiet time, in phases lasting tens of seconds.
A fixed probe (a short Python loop plus small numpy calls, the mix the
workloads run) is timed every INTERVAL_S during a pass; a time scaled by
REF_PROBE_S / mean(probe time) reads as seconds at the reference speed, the
speed at which the probe takes REF_PROBE_S.  The probe costs about 0.3% of a
pass.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

REF_PROBE_S = 0.0006  # probe time on an unloaded core of the baseline machine
INTERVAL_S = 0.25

_X = np.arange(64.0)


def probe() -> float:
    """Time one fixed unit of mixed Python and small-numpy work."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        acc += i * i
        table[i & 63] = acc
    for _ in range(100):
        np.minimum(_X, _X[::-1]).sum()
    return time.perf_counter() - t0


def calibrate(count: int = 30) -> float:
    """Mean time of `count` probes run back to back."""
    return statistics.fmean(probe() for _ in range(count))


class SpeedSampler:
    """Runs the probe from SIGALRM every INTERVAL_S while the block runs.

    The handler runs between bytecodes of the main thread, so a long native
    call delays it; the samples still spread over the whole block.
    """

    def __init__(self):
        self.samples: List[float] = []

    def _on_alarm(self, _signum, _frame):
        self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        """REF_PROBE_S over the mean probe time; a block shorter than one
        interval is calibrated right after it instead."""
        mean = statistics.fmean(self.samples) if self.samples else calibrate()
        return REF_PROBE_S / mean
