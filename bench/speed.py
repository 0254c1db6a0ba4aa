"""Machine-speed reference.

The host this benchmark was built on shares its cores with other tenants.
Its speed drifts by up to a factor of two over minutes, and every qrelay
operation slows and speeds up with it, so run-to-run spreads of raw
timings reach the benchmark's bounds. A run therefore times a fixed
reference kernel, which calls no qrelay code, at most every ``INTERVAL_S``
between operations. The host switches speed every few seconds, so each
operation gets its own factor: ``reference / median kernel time`` over the
kernel timings taken from ``WINDOW_S`` before it starts to ``WINDOW_S``
after it ends. Its latency times that factor is the time it would take on
a machine where the kernel takes its reference time. The raw timings are
kept in the run's result file.

Contention slows interpreter-bound code and memory-bound numpy code by
different amounts, so there are two kernels; each workload names the one
whose work is closer to its own:

* ``interp``: small numpy calls and object churn, like qrelay's per-branch
  bookkeeping;
* ``memory``: a Bell-pair projection over a fresh 19-qubit (8 MiB) state,
  larger than L2, like the sampled path on its largest states. In trials a
  4 MiB state tracked the sampled path's speed less closely.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
WINDOW_S = 1.0

_SMALL = [np.array([0.6, 0.8j]) * k for k in (1, 1j, -1, -1j)]
_BRAS = np.eye(4, dtype=complex)


class _Record:
    __slots__ = ("index", "key", "amps")

    def __init__(self, index, key, amps):
        self.index, self.key, self.amps = index, key, amps


def interp_kernel() -> int:
    records = []
    acc = 0.0
    for i in range(400):
        amps = _SMALL[i & 3].reshape(2) / 1.0
        acc += float(np.vdot(amps, amps).real)
        records.append(_Record(i, (i, i & 3), amps))
    return len(records) + int(acc)


def memory_kernel() -> int:
    # A fresh array each time, as qrelay allocates its states: an array
    # kept for the life of the process would keep whatever page backing
    # that process happened to get.
    state = np.ones(1 << 19, dtype=complex)
    psi = np.moveaxis(state.reshape([2] * 19), (0, 9), (0, 1)).reshape(4, -1)
    rows = _BRAS @ psi
    return int(np.vdot(rows[0], rows[0]).real)


# kernel -> (function, reference seconds: its median time on a quiet machine)
KERNELS = {"interp": (interp_kernel, 0.0015), "memory": (memory_kernel, 0.011)}


class SpeedProbe:
    """Kernel timings taken between operations, at most one per interval."""

    def __init__(self, kernel: str):
        self._kernel, self.reference_s = KERNELS[kernel]
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self._sample()
            self._next = time.perf_counter() + INTERVAL_S

    def sample(self, count: int) -> None:
        for _ in range(count):
            self._sample()

    @property
    def scale(self) -> float:
        """Factor that turns a duration measured while these samples were
        taken into a reference one."""
        return self.reference_s / statistics.median(self.samples)

    def factors(self, starts, seconds) -> list[float]:
        """One factor per operation, from the kernel timings around it; all
        of them when none fall in its window."""
        out = []
        for start, duration in zip(starts, seconds):
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, start + duration + WINDOW_S)
            out.append(self.reference_s / statistics.median(self.samples[lo:hi] or self.samples))
        return out
