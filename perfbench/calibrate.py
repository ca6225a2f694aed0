"""Host-speed calibration for the benchmark's timings.

On a shared host the speed one process gets changes by up to a factor of two
within seconds, and the two vCPUs drift apart, more than any affordable run
length averages out.  Around each unit the runner gauges the host's
slowness, relative to a reference host, with fixed kernels that do not call
dl2u, and divides the unit's wall time by the mean of the slowness before
and after it.  Times are thus reported at the speed of the reference host,
and runs made at different moments compare.  Raw times are recorded too.

Two kernels make the gauge.  The compute kernel (Philox draws, a vector
recursion, float formatting) works in cache; the stream kernel passes over
a pair of 4 MB buffers, which do not fit in a core's private caches.  Neighbours on the host slow
the two differently.  A workload's `stream_weight` is the stream kernel's
share of its gauge: the workloads whose arrays reach tens of MB track the
mix, the small-array ones the compute kernel alone.

The scaling assumes that dl2u does not slow the kernels.  They use buffers
allocated once and run with the garbage collector paused, so the library's
allocations do not reach them.  What can reach them is CPU taken by other
threads of the process, such as a worker pool left spinning after a unit.
Each gauge therefore also measures the CPU time that threads other than the
calling one used meanwhile.  Where that exceeds FOREIGN_CPU_LIMIT of the
gauge's wall time, on average over a run, the kernels are no gauge of host
speed and the run reports raw times instead (see `RunResult.calibrated` in
workloads.py).
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 0.0011  # typical compute kernel median on a 2-core Xeon VM at 2.1 GHz
REFERENCE_STREAM_S = 0.00075  # typical stream kernel median on the same host
STREAM_REPS = 5  # the first pass after a unit may find the buffers evicted
CALIBRATION_SHARE = 0.04  # compute kernel time between units, as a share of a unit
FOREIGN_CPU_LIMIT = 0.05  # other threads' CPU during a gauge, as a share of its wall time
_Philox = np.random.Philox  # bound at import, so tracing does not count the kernel's


class CalibrationKernel:
    """Philox draws, a vector recursion and float formatting, in buffers
    allocated once, so the time does not depend on the allocator's state."""

    def __init__(self, paths=40, n=300, steps=24):
        self.eps = np.empty((paths, n))
        self.shocks = self.eps.reshape(steps, -1)
        width = self.shocks.shape[1]
        self.z, self.y, self.u = np.empty(width), np.empty(width), np.empty(width)

    def __call__(self) -> float:
        for j, row in enumerate(self.eps):
            np.random.Generator(_Philox(key=j)).standard_normal(out=row)
        z, y, u = self.z, self.y, self.u
        z.fill(0.0)
        y.fill(0.0)
        for shock in self.shocks:
            np.multiply(z, 0.9, out=z)
            np.add(z, shock, out=z)
            np.exp(z, out=u)
            np.sqrt(u, out=u)
            np.multiply(u, shock, out=u)
            np.multiply(y, 0.99, out=y)
            np.add(y, u, out=y)
        text = "".join("%.17g\n" % v for v in self.eps[0])
        return sum(float(v) for v in text.split()) + float(y @ y)


class StreamKernel:
    """Two passes over a pair of `mb`-MB buffers, allocated at the first
    call, so that workloads that do not use the kernel do not hold them."""

    def __init__(self, mb=4):
        self.size = mb * 2**20 // 8
        self.a = self.b = None

    def __call__(self) -> None:
        if self.a is None:
            self.a, self.b = np.ones(self.size), np.empty(self.size)
        np.multiply(self.a, 0.5, out=self.b)
        np.add(self.b, 0.5, out=self.a)  # a stays all ones


calibration_kernel = CalibrationKernel()
stream_kernel = StreamKernel()


def median_seconds(kernel, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slowness(reps: int, stream_weight: float) -> tuple[float, float]:
    """The host's slowness relative to the reference host (2 at half its
    speed), from `reps` compute kernel calls and, where `stream_weight` > 0,
    STREAM_REPS stream kernel calls; and the CPU time other threads of this
    process used meanwhile, as a share of the wall time.

    The garbage collector is paused meanwhile: a collection triggered by
    the workload's objects would otherwise land in a kernel call.
    """
    gc.disable()
    try:
        wall0, own0, all0 = time.perf_counter(), time.thread_time(), time.process_time()
        slow = median_seconds(calibration_kernel, reps) / REFERENCE_KERNEL_S
        if stream_weight:
            stream = median_seconds(stream_kernel, STREAM_REPS) / REFERENCE_STREAM_S
            slow = (1 - stream_weight) * slow + stream_weight * stream
        own, cpu = time.thread_time() - own0, time.process_time() - all0
        wall = time.perf_counter() - wall0
    finally:
        gc.enable()
    return slow, max(0.0, cpu - own) / wall


def kernel_reps(unit_seconds: float) -> int:
    """Compute kernel calls between units; their median ignores a stray slow call."""
    return max(3, round(CALIBRATION_SHARE * unit_seconds / REFERENCE_KERNEL_S))


def scaled(times: list[float], slow: list[float]) -> list[float]:
    """Unit times at reference speed; slow[i] and slow[i+1] bracket times[i]."""
    return [2 * t / (before + after) for t, before, after in zip(times, slow, slow[1:])]
