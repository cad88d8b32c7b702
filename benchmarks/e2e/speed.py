"""Host-speed sampling, so that timings taken on a shared machine compare.

On a shared host the speed of a core drifts by tens of percent within
seconds as neighbours load the machine, and process CPU time drifts with
it, so it is no remedy.  While an operation runs, a timer signal every
``INTERVAL_S`` runs one fixed calibration unit (interpreter object
churn, small NumPy calls and a small FFT: the program's own mix) and
records how long the unit took.  The operation's wall time is then scaled
by ``REFERENCE_UNIT_S`` over the mean unit time seen during it: the time
the operation would have taken on a host where one unit takes
``REFERENCE_UNIT_S``.  The unit is the benchmark's own code, so a change
to the program moves the scaled time as it moves the wall time.  The
scaling assumes the timed work computes: time spent waiting (sleeping,
I/O) is scaled too.

On the 2-core container the benchmark was defined on, scaling cut the
spread of ten seeded runs from 3-30% to 1-6% of the median on every
workload.  Sampling costs about 0.5% of an operation's time.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from collections import deque

import numpy as np

#: seconds between two samples while a window is open
INTERVAL_S = 0.1

#: the unit's median time on the 2-core container the benchmark was
#: defined on, so scaled times read close to that machine's wall times
REFERENCE_UNIT_S = 0.5e-3


class _Item:
    __slots__ = ("key", "pair", "cell")

    def __init__(self, key: int):
        self.key = key
        self.pair = (key, key + 1)
        self.cell = [key]


class SpeedProbe:
    """Samples the host's speed inside :meth:`window` blocks.

    Installs a ``SIGALRM`` handler; create one per process, in its main
    thread.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = np.zeros(64)
        self._index = rng.integers(0, 64, 8)
        self._grid = rng.random((8, 8, 8))
        self._vector = rng.random(1 << 12)
        self.samples: list[float] = []
        self.factor = 1.0
        self._busy = False
        for _ in range(20):  # loads numpy.fft and warms the unit's data
            self._unit()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _unit(self) -> None:
        queue: deque[_Item] = deque()
        table: dict[int, int] = {}
        for key in range(300):
            item = _Item(key)
            queue.append(item)
            table[key & 255] = table.get(key & 255, 0) + item.key
        while queue:
            queue.popleft()
        for _ in range(30):
            np.add.at(self._small, self._index, 1.0)
            np.mod(self._index + 3, 64)
        np.fft.irfftn(np.fft.rfftn(self._grid), s=self._grid.shape, axes=(0, 1, 2))
        np.sort(self._vector)

    def _sample(self) -> None:
        # a collection triggered inside the unit would time the program's
        # heap, not the host; the unit frees what it allocates, so pausing
        # the collector leaves the program no debt
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._unit()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late signal while a sample runs
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def window(self):
        """Sample while the body runs; then ``factor`` scales its wall time."""
        first = len(self.samples)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if len(self.samples) == first:  # a body shorter than one interval
            self._sample()
        self.factor = REFERENCE_UNIT_S / statistics.fmean(self.samples[first:])
