"""A fixed reference kernel that puts every time on one machine speed.

The machines this benchmark runs on are shared, and their speed drifts.  On
the machine where it was written, back-to-back 20-second windows of the same
work differ by 30 % in median latency, and runs a minute apart by up to 60 %.
The drift acts on all CPU work at once.  So the benchmark times this kernel
alongside the program and reports every time at the kernel's reference speed:

    reported = measured * REF_S / (kernel time measured alongside)

The kernel does the kind of work bellkit does: small complex numpy arrays,
frozen dataclasses with validation, tuples, Fractions and formatting.  It
never calls bellkit, so a change to bellkit cannot change it.  REF_S is the
kernel's median time on the machine where the benchmark was written (an
"Intel(R) Xeon(R) Processor", 2 vCPUs, Python 3.11.7, numpy 2.4.6); there,
reported values read as seconds.  Change neither the kernel nor REF_S: either
change moves every reported time.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REF_S = 0.00120

# The clock of every time measured inside a process: operations, traced spans
# and the kernel.  It is the process's CPU time.  The host also takes the CPU
# away from the whole machine (steal time) for milliseconds at a time, and
# wall time counts those pauses against whatever operation they hit: on the
# machine above, they put a 12 ms kernel loop's p99 at 23 ms in wall time and
# at 13.5 ms in CPU time.  The workloads never wait on I/O or other processes
# and run one thread, so CPU time is their latency without the host's pauses.
clock = time.process_time

# Times of whole processes (set-up, cold CLI, import) are put on reference
# speed by a reference process instead: this file run as a script, which
# imports what bellkit.cli imports, numpy included, but not bellkit, and then
# runs the kernel PROCESS_KERNELS times, like a short command.  Its median
# time on the same machine is REF_PROCESS_S.
PROCESS_KERNELS = 40
REF_PROCESS_S = 0.200

_VEC = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)


@dataclass(frozen=True)
class _Row:
    index: int
    cells: tuple
    text: str

    def __post_init__(self):
        if not math.isfinite(sum(p for _, p in self.cells)):
            raise ValueError("non-finite row")


def kernel() -> float:
    acc = 0.0
    for i in range(24):
        c, s = math.cos(0.1 * i), math.sin(0.1 * i)
        m = np.array([[c, s], [-s, c]], dtype=complex)
        p = np.abs(np.kron(m, m) @ _VEC) ** 2
        acc += float(p.sum())
        cells = tuple(("pass" if j & 1 else "stop", float(x)) for j, x in enumerate(p))
        f = Fraction(i, 7) + Fraction(1, 3)
        _Row(i, cells, f"{acc:.6f} {f}")
    return acc


def sample(n: int = 1) -> list[tuple[float, float]]:
    """Time the kernel n times: (monotonic end time, seconds) per sample."""
    out = []
    for _ in range(n):
        t0 = clock()
        kernel()
        t1 = clock()
        out.append((time.clock_gettime(time.CLOCK_MONOTONIC), t1 - t0))
    return out


class Scale:
    """Turns a time measured in [start, end] into a time at reference speed,
    using the reference samples taken within window seconds of that interval."""

    def __init__(self, samples: list[tuple[float, float]], ref_s: float = REF_S,
                 window: float = 1.0, min_samples: int = 5):
        samples = sorted(samples)
        self.at = [t for t, _ in samples]
        self.took = [d for _, d in samples]
        self.ref_s, self.window, self.min_samples = ref_s, window, min_samples

    def factor(self, start: float, end: float) -> float:
        """ref_s / the median reference time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - self.window)
        hi = bisect.bisect_right(self.at, end + self.window)
        while hi - lo < self.min_samples and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return self.ref_s / statistics.median(self.took[lo:hi])


if __name__ == "__main__":
    import argparse  # noqa: F401
    import itertools  # noqa: F401
    import json  # noqa: F401

    for _ in range(PROCESS_KERNELS):
        kernel()
