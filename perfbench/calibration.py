"""Machine-speed reference kernels, timed between operations.

On a shared 2-vCPU KVM guest (Intel Xeon, Python 3.11) the same code ran up
to 25% faster or slower from one minute to the next: 10-second medians of a
fixed pure-Python loop ranged over 6.5-9.6 ms.  Each workload therefore times, between its
operations, a small fixed kernel of the same kind of work, written here so
that no change to durakit moves it, and reports its end-to-end timings
scaled to the speed at which that kernel takes its nominal time:

    reported time = measured time * nominal / median(kernel time in the run)

The unscaled figures and the factor are kept in the run record.  The kernel
runs in the workload's own process, so a change to durakit that slows the
whole process between operations (memory or cache pressure, helper threads
left running) slows the kernel as well, and the scaling cancels that part;
the unscaled figures still show it.
"""

from __future__ import annotations

import math
import statistics
import zlib
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_TABLE = _rng.integers(0, 256, size=256, dtype=np.uint8)
_DATA = _rng.integers(0, 256, size=8 << 20, dtype=np.uint8)


def interpreter_kernel() -> None:
    """Plain bytecode arithmetic, for the interpreter-bound workloads.

    Of several candidates (a GF(256) inversion, small numpy calls, dict and
    string churn), this loop tracked small-objects and planning best.
    """
    total = 0
    for i in range(10000):
        total += (i * 7) % 13


def gather_kernel() -> None:
    """A byte-table gather, XOR and CRC over 8 MiB, like the payload path."""
    out = _TABLE[_DATA]
    np.bitwise_xor(out, _DATA, out=out)
    zlib.crc32(out)


def sampling_kernel() -> None:
    """Philox uniforms, compare and row sums, like the simulator's chunks."""
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    int(((rng.random((65536, 11)) < 0.05).sum(axis=1) > 3).sum())


#: kernel, its nominal time in seconds, and the minimum gap between samples
KERNELS = {
    "interpreter": (interpreter_kernel, 0.85e-3, 0.05),
    "gather": (gather_kernel, 30e-3, 0.5),
    "sampling": (sampling_kernel, 10e-3, 0.25),
}


class Calibration:
    """Samples one reference kernel at most every ``gap`` seconds."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, self.nominal, self.gap = KERNELS[kind]
        self.samples: list[float] = []
        self._last = -math.inf

    def maybe_sample(self) -> None:
        start = perf_counter()
        if start - self._last < self.gap:
            return
        self.kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self._last = end

    def sample_for(self, seconds: float, minimum: int = 3) -> None:
        """Time the kernel back to back for ``seconds``, at least ``minimum`` times."""
        end = perf_counter() + seconds
        while len(self.samples) < minimum or perf_counter() < end:
            start = perf_counter()
            self.kernel()
            self.samples.append(perf_counter() - start)

    def factor(self) -> float:
        """Measured kernel time over nominal: above 1 means a slower machine now."""
        return statistics.median(self.samples) / self.nominal
