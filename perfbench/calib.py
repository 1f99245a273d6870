"""A short fixed job that measures how fast the host runs right now.

The benchmark host is a few vCPUs of a shared machine. Each vCPU's speed
changes by up to a factor of two, in spells that last from about a second
to minutes, as other tenants' load comes and goes. That, not the program,
set most of the spread between runs of unscaled times. So the workload
process runs this probe between its pipeline calls, and every call's time
is also reported scaled by the probe times on either side of it (see
README.md): the probe on the calling thread for a single-thread call, and
the slowest of the probes pinned to each CPU for a call that runs on all of
them.

The probe is the benchmark's own code and imitates the program's
single-thread mix of work: a pure-Python loop, an RK4 loop of small numpy
network calls, JSON encode and decode of a float list, and sort and
transcendental functions over a 32k-element array. It leaves out
multi-threaded BLAS, whose speed depends on what the other vCPU does. No
change to the program changes the probe.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

# The probe's time on the reference host. Scaled times are seconds on a host
# on which one probe takes this long.
REFERENCE_S = 0.012


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20230201)
        self.w1 = rng.standard_normal((8, 64)) / 3.0
        self.w2 = rng.standard_normal((64, 8)) / 8.0
        self.z0 = rng.standard_normal(8)
        self.floats = [float(v) for v in rng.standard_normal(3000)]
        self.big = rng.standard_normal(32768)
        self.times: list[float] = []
        for _ in range(3):  # warm-up, not kept
            self._job()

    def _job(self) -> float:
        s = 0
        for i in range(50_000):
            s += i * i % 7

        w1, w2 = self.w1, self.w2

        def f(z):
            return np.tanh(z @ w1) @ w2 - z

        z = self.z0
        h = 0.01
        for _ in range(50):
            k1 = f(z)
            k2 = f(z + 0.5 * h * k1)
            k3 = f(z + 0.5 * h * k2)
            k4 = f(z + h * k3)
            z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        n = len(json.loads(json.dumps(self.floats)))

        v = np.sort(self.big)
        for _ in range(4):
            v = np.exp(np.sin(v))
        return s + float(z[0]) + n + float(v[0])

    def _timed(self) -> float:
        t = time.perf_counter()
        self._job()
        return time.perf_counter() - t

    def measure(self) -> float:
        """Run the probe once on this thread; returns its time, also kept in ``times``."""
        dt = self._timed()
        self.times.append(dt)
        return dt

    def slowest_cpu(self) -> float:
        """Run the probe twice pinned to each CPU this thread may use in turn;
        returns the slowest CPU's faster time (the faster of two drops a
        one-off interruption). Only this thread's affinity changes, and it is
        restored."""
        mask = os.sched_getaffinity(0)
        try:
            per_cpu = []
            for cpu in sorted(mask):
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(min(self._timed(), self._timed()))
        finally:
            os.sched_setaffinity(0, mask)
        return max(per_cpu)
