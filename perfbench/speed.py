"""The core's speed while the benchmark times the program.

The host this benchmark was written on runs each core at a fast speed or,
while other tenants load the machine, at a slower one, for stretches from
a fraction of a second to minutes; the guest sees neither the switch nor
any steal time.  `SpeedProbe` follows it from inside the process: every
`PERIOD` seconds of wall time a SIGALRM handler, which runs on the thread
being timed, times a fixed kernel with warm caches.  The mean of
`KERNEL_REF_S / kernel time` over a timed section is the core's speed
relative to the reference (1.0 at the fast speed), so a timed section's
seconds times that speed are its seconds at the reference speed.  The
kernels are the benchmark's own code: a change to the program does not
change them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05

_SMALL = np.random.default_rng(0).standard_normal(64)
_WIDE = np.random.default_rng(1).standard_normal(16384)


def _python_kernel() -> None:
    """Pure interpreter work, as in imports and input generation."""
    s = 0
    for i in range(2000):
        s += i * i


def _small_kernel() -> None:
    """Numpy calls on 64-element arrays: call overhead, as in narrow batches."""
    x = _SMALL
    for _ in range(12):
        x = np.cos(x) * 0.5 + np.sin(x).sum() * 1e-3


def _wide_kernel() -> None:
    """Numpy calls on 16,384-element arrays: throughput, as in wide batches."""
    np.cos(_WIDE) * 0.5 + _WIDE * _WIDE


# The slow speed slows interpreter, narrow and wide numpy work by different
# factors, so set-up and each workload use the kernel most like their work.
KERNELS = {"python": _python_kernel, "small": _small_kernel,
           "wide": _wide_kernel}
# Each kernel's warm time at the fast speed of the host the baseline was
# taken on (2-vCPU Xeon KVM guest, Python 3.11, numpy 2.4, one BLAS thread).
KERNEL_REF_S = {"python": 1.2e-4, "small": 5.5e-5, "wide": 2.0e-4}


class SpeedProbe:
    """Samples one kernel while `active`; its own time goes to `spent`."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples: list[float] = []
        self.active = False
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        if not self.active:
            return
        t_in = time.perf_counter()
        kernel = KERNELS[self.kernel]
        kernel()  # warm the caches the program's work has evicted
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t_in

    def start(self, period: float = PERIOD) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Mean speed relative to the reference over the samples taken."""
        if not self.samples:  # a section shorter than one period
            self.active = True
            self._sample()
            self.active = False
        ref = KERNEL_REF_S[self.kernel]
        return statistics.fmean(ref / s for s in self.samples)
