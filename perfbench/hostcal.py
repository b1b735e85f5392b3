"""Host-speed reference: a fixed NumPy kernel timed between units of work.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute, and the drift reaches every process alike: CPU time
follows wall time, so longer runs do not average it away.  Every
end-to-end time is therefore reported in *reference-host* units::

    reference time = measured time x REF_CAL_MS / cal_ms

where ``cal_ms`` is the trimmed mean time of this module's kernel,
timed in the program's own thread between timed units (one call per
client epoch, request, burst or recovery chunk), so the samples see the
host as the program saw it.  Calibration before and after a run, or on another
core, was tried and does not track the drift.

The host switches between a fast and a slow state many times a
second, so kernel times are bimodal.  Their median jumps between the
two modes as the share of slow samples crosses one half, and dividing
by it made timings noisier than raw wall time; the mean moves smoothly
with that share.  The top and bottom tenth are trimmed so a rare stall
does not dominate.

This module never imports the program under test, so a change to the
program cannot change the yardstick.  Calibration refuses to run while
any other thread or child process is live: a change that left work
running in the background would otherwise slow the kernel and flatter
itself.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: The kernel's time on the reference host (2-core shared x86-64 VM,
#: Python 3.11, NumPy 2.4, one BLAS thread), where its trimmed mean runs
#: 3.5-5 ms as the host drifts.  Frozen: changing it rescales every
#: reported time.
REF_CAL_MS = 5.0

_STEPS = 24
_PASSES = 16
#: A joined thread's OS task can outlive ``join()`` by a moment; wait
#: that long for it to go before calling the host busy.
_EXIT_GRACE_S = 0.5
_TRIM = 10  # drop the slowest and the fastest 1/_TRIM of the samples


class HostBusyError(RuntimeError):
    """A program thread or child process was live at calibration time."""


def live_activity() -> str | None:
    """Describe any thread or child process besides the calling thread."""
    if threading.active_count() != 1:
        return f"{threading.active_count()} Python threads are live"
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:  # no procfs: the Python thread count is all we have
        return None
    if len(tasks) != 1:
        return f"{len(tasks)} OS threads are live"
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                children = handle.read().split()
        except OSError:
            continue
        if children:
            return f"child processes {children} are live"
    return None


class HostClock:
    """The reference kernel plus a clock that excludes its own time.

    :meth:`now` is ``perf_counter`` minus all time spent calibrating, so
    a unit timed across a calibration call is not charged for it, and an
    open-loop schedule driven by :meth:`now` pauses while it runs.
    """

    def __init__(self):
        rng = np.random.default_rng(20240417)
        self._x = rng.standard_normal((_STEPS, 16, 48))
        self._w = rng.standard_normal((48, 48)) * 0.1
        self._u = rng.standard_normal((48, 48)) * 0.1
        self._expected: float | None = None
        self._paused = 0.0
        self.samples_ms: list[float] = []

    def _kernel(self) -> float:
        # A recurrent scan of small matmuls and elementwise ops driven
        # from Python: the same mix of interpreter and NumPy dispatch
        # cost as the program's training and decode loops.
        h = np.zeros((16, 48))
        total = 0.0
        for _ in range(_PASSES):
            for t in range(_STEPS):
                h = np.tanh(self._x[t] @ self._w + h @ self._u)
                total += float(h[0, 0])
        return total

    def calibrate(self) -> None:
        """Time one kernel call; fails if anything else is running."""
        busy = live_activity()
        deadline = time.perf_counter() + _EXIT_GRACE_S
        while busy is not None and time.perf_counter() < deadline:
            time.sleep(0.001)
            busy = live_activity()
        if busy is not None:
            raise HostBusyError(f"cannot calibrate: {busy}")
        start = time.perf_counter()
        value = self._kernel()
        elapsed = time.perf_counter() - start
        if self._expected is None:
            self._expected = value
        elif value != self._expected:
            raise RuntimeError("reference kernel is not deterministic")
        self._paused += elapsed
        self.samples_ms.append(elapsed * 1e3)

    def now(self) -> float:
        """Seconds on the program clock (calibration time excluded)."""
        return time.perf_counter() - self._paused

    def mark(self) -> int:
        """A position in the samples, for :meth:`cal_ms` ``since``."""
        return len(self.samples_ms)

    def cal_ms(self, since: int = 0, until: int | None = None) -> float:
        """Trimmed mean kernel time, in milliseconds, of the samples
        between marks ``since`` and ``until``."""
        samples = sorted(self.samples_ms[since:until])
        if not samples:
            raise RuntimeError("no calibration samples taken")
        cut = len(samples) // _TRIM
        return statistics.fmean(samples[cut:len(samples) - cut])

    def factor(self, since: int = 0, until: int | None = None) -> float:
        """Multiplier from this host's seconds to reference-host seconds,
        from the samples between marks ``since`` and ``until``."""
        return REF_CAL_MS / self.cal_ms(since, until)
